"""The package's exports: one name -> module table, resolved on first use."""

from __future__ import annotations

import pytest

import simplexfreedom

from conftest import fresh_interpreter


def fresh(script: str) -> list[str]:
    """Run ``script`` in a fresh interpreter; return its stdout lines."""
    proc = fresh_interpreter("-c", script)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_each_public_name_is_listed_once():
    assert len(simplexfreedom.__all__) == len(set(simplexfreedom.__all__)) == 53


def test_every_name_resolves_to_its_home_modules_object():
    # each name read from the package first, so that the package's
    # __getattr__ loads the home module, then compared with that module's
    lines = fresh(
        "import importlib, simplexfreedom as sf\n"
        "for name in sf.__all__:\n"
        "    value = getattr(sf, name)\n"
        "    home = importlib.import_module(f'simplexfreedom.{sf._EXPORTS[name]}')\n"
        "    print(name, value is vars(home)[name])\n"
    )
    assert lines == [f"{name} True" for name in simplexfreedom.__all__]


def test_dir_lists_every_name_before_any_is_read():
    lines = fresh(
        "import simplexfreedom as sf\n"
        "print(sorted(set(sf.__all__) - set(dir(sf))))\n"
    )
    assert lines == ["[]"]


def test_star_import_binds_exactly_all():
    lines = fresh(
        "import simplexfreedom as sf\n"
        "ns = {}\n"
        "exec('from simplexfreedom import *', ns)\n"
        "print(sorted(set(ns) - {'__builtins__'}) == sorted(sf.__all__))\n"
    )
    assert lines == ["True"]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'simplexfreedom' has no attribute 'nope'"):
        simplexfreedom.nope
    with pytest.raises(ImportError):
        from simplexfreedom import nope


# Four threads read names of two lazy modules right after the package
# import, with the interpreter switching threads as often as it can; each
# module's first load runs under one lock, so a name it has not defined yet
# waits for the whole module.
LAZY_RACE = """\
import sys, threading
sys.setswitchinterval(1e-6)
import simplexfreedom
errors = []

def read():
    try:
        simplexfreedom.oracle.mc_freedom, simplexfreedom.crosstab.mc_joint_freedom
    except AttributeError as exc:
        errors.append(exc)

threads = [threading.Thread(target=read) for _ in range(4)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=30)
print(sum(t.is_alive() for t in threads), errors)
"""


@pytest.mark.parametrize("run", range(3))
def test_threads_share_the_lazy_modules_from_the_start(run):
    assert fresh(LAZY_RACE) == ["0 []"]


def test_a_name_set_on_a_lazy_module_before_it_runs_is_kept():
    lines = fresh(
        "import types, simplexfreedom as sf\n"
        "sf.helper._WORKERS = 5\n"
        "print(sf.helper._WORKERS, type(sf.helper) is types.ModuleType)\n"
    )
    assert lines == ["5 True"]
