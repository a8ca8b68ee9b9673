"""The benchmark tracer patches package functions by name; keep them there."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from simplexfreedom import (
    CrossTable,
    SplitMix64,
    mc_freedom,
    mc_joint_freedom,
    validate,
)

from conftest import fresh_interpreter

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_target_resolves():
    tracing = load_tracing()
    missing = []
    for short, names in tracing.TARGETS.items():
        module = importlib.import_module(f"simplexfreedom.{short}")
        for qual in names:
            owner = module
            for part in qual.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"{short}.{qual}")
    assert not missing, f"tracer targets missing from the package: {missing}"


def test_every_counter_reads_its_target_result():
    # each counter turns a real return value of its target into (work, accepted)
    a = validate([0.0, 0.1, 0.2], [0.5, 0.6, 0.7])
    table = CrossTable(row_marginals=a, col_marginals=validate([0.2, 0.3], [0.7, 0.8]))
    estimate = mc_freedom(a, 5000, 3)
    joint = mc_joint_freedom(table, 5000, 3)
    expected = {
        "oracle.SplitMix64.uniforms": (SplitMix64(1).uniforms(5), (5, 0)),
        "oracle.mc_freedom": (estimate, (5000, estimate.accepted)),
        "crosstab.mc_joint_freedom": (joint, (5000, joint.accepted)),
    }
    counters = load_tracing()._COUNTERS
    assert counters.keys() == expected.keys()
    for name, (result, counts) in expected.items():
        assert counters[name](result) == counts, name
    assert 0 < estimate.accepted < 5000 and 0 < joint.accepted < 5000


def test_tracer_installs_after_a_cold_closed_form_call(tmp_path):
    # a closed-form call leaves oracle, crosstab and sensitivity unloaded;
    # the tracer finds them in sys.modules all the same and loads them
    path = tmp_path / "a.json"
    path.write_text('{"options": [{"ne": 0, "po": 0.5}, {"ne": 0, "po": 0.7}]}')
    script = (
        "import contextlib, importlib.util, io, sys, types\n"
        f"spec = importlib.util.spec_from_file_location('perfbench_tracing', {str(TRACING)!r})\n"
        "tracing = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tracing)\n"
        "from simplexfreedom import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main(['measure', {str(path)!r}])\n"
        "oracle = sys.modules['simplexfreedom.oracle']\n"
        "unloaded = type(oracle) is not types.ModuleType\n"
        "tracer = tracing.Tracer()\n"
        "tracer.install()\n"
        "wrapped = hasattr(oracle.mc_freedom, '__wrapped__')\n"
        "tracer.uninstall()\n"
        "print(code, unloaded, wrapped, hasattr(oracle.mc_freedom, '__wrapped__'))\n"
    )
    proc = fresh_interpreter("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 True True False\n"
