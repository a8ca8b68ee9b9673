"""Byte-identical CLI reports on a fixed, seeded input corpus.

Each of the seven commands runs in-process through ``cli.main`` on the
inputs below, in JSON and in CSV, and the test pins one SHA-256 over every
(argv, exit code, stdout) of that command.  The inputs are drawn from
``random.Random`` with fixed seeds and written to a temporary directory, so
no data file is kept.  A digest changes only when a report changes by a
byte: a change that is meant to alter output updates the digest in the same
commit and says why.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random

import pytest

from simplexfreedom.cli import main

SAMPLED = ["--samples", "20000"]


def _assignment(rnd: random.Random, m: int, points: int = 0, grid: bool = False):
    """Valid bounds at M = m: each po in [1/m, 2.5/m] (so sum(po) >= 1), each
    ne below 0.9/m, and the first ``points`` options point-valued at a mass
    of at least 1/m each (so the others can still reach 1)."""
    po = [min(1.0, (1.0 + 1.5 * rnd.random()) / m) for _ in range(m)]
    ne = [rnd.random() * min(p, 0.9 / m) for p in po]
    if grid:
        po = [min(1.0, 0.05 * -(-p // 0.05)) for p in po]
        ne = [0.05 * (n // 0.05) for n in ne]
    for i in range(points):
        ne[i] = po[i] = (1.0 + 0.2 * rnd.random()) / m
    return {"options": [{"name": f"o{i}", "ne": n, "po": p}
                        for i, (n, p) in enumerate(zip(ne, po))]}


def _vacuous_at(doc: dict, k: int) -> dict:
    doc["options"][k].update(ne=0.0, po=1.0)
    return doc


def _table(rnd: random.Random, k: int, m: int, joint: bool):
    """A cross table whose margins hold a point (the row and column
    distributions of one joint table), with optional joint cells."""
    r = [rnd.random() + 0.2 for _ in range(k)]
    c = [rnd.random() + 0.2 for _ in range(m)]
    r = [x / sum(r) for x in r]
    c = [x / sum(c) for x in c]

    def margin(point):
        return [{"ne": max(0.0, x - 0.1 * rnd.random()),
                 "po": min(1.0, x + 0.1 * rnd.random())} for x in point]

    doc = {"rows": margin(r), "cols": margin(c)}
    if joint:
        doc["joint"] = [[x * y for y in c] for x in r]
    return doc


def _cases(command: str) -> list[tuple[dict, list[str]]]:
    """(input document, flags) for each run of ``command``, 42 inputs over
    the seven commands.  Each command draws from its own seed, so a case
    added to one command moves no other command's inputs."""
    rnd = random.Random(f"cli-golden:{command}")
    a = functools.partial(_assignment, rnd)
    infeasible = {"options": [{"ne": 0.7, "po": 0.9}, {"ne": 0.5, "po": 0.6}]}
    # M = 3 regions of no area: one point, and a segment on p1 + p2 = 0.7
    point = {"options": [{"ne": p, "po": p} for p in (0.2, 0.3, 0.5)]}
    segment = {"options": [{"ne": 0.1, "po": 0.6}, {"ne": 0.2, "po": 0.6},
                           {"ne": 0.3, "po": 0.3}]}
    return {
        "validate": lambda: [(a(m), []) for m in (2, 4, 7)]
        + [(a(5, points=1), []), (infeasible, [])],
        "measure": lambda: [(a(m, grid=m % 2 == 0), []) for m in (2, 5, 8, 12)]
        + [(a(6), ["--q", "0.7"]),
           (a(9, grid=True), ["--q", "1"]),
           (a(4, points=1), ["--q", "0.05"]),
           (a(5, points=2), []),
           ({"options": "none"}, [])],
        "verify": lambda: [(a(m), [*SAMPLED, "--seed", str(m)]) for m in (2, 3, 5, 7)]
        + [(a(4, points=1), [*SAMPLED])],
        "subsets": lambda: [(a(m, points=p), [])
                            for m, p in ((3, 1), (5, 2), (6, 3), (4, 0))],
        "sensitivity": lambda: [
            (a(4), ["--index", "2", "--delta", "0.01"]),
            (a(7, grid=True), ["--index", "7", "--delta", "0.05"]),
            (a(3, points=1), ["--index", "1", "--delta", "0"]),
            (a(5), ["--index", "3", "--delta", "0.9"]),
            (_vacuous_at(a(4), 0), ["--index", "1", "--eps", "0.2"]),
            (_vacuous_at(a(6), 5), ["--index", "6", "--eps", "0.05"]),
        ],
        "crosstab": lambda: [
            (_table(rnd, k, m, joint), [*SAMPLED, "--seed", str(k * m)])
            for k, m, joint in ((2, 2, False), (2, 3, True), (3, 2, True),
                                (2, 4, True), (3, 4, False), (4, 4, True))
        ],
        "region": lambda: [(a(3, grid=g), []) for g in (False, True, False)]
        + [(a(3, points=1), []), (a(4), []), (point, []), (segment, [])],
    }[command]()


DIGESTS = {
    "validate": "b679a82146c2d62647e7ebc620281e33805c77b6b9b96f8c46e901fcfa2ae91f",
    "measure": "bb8a40401738c1b742eea13f9a7af8fb6554bb8a806b36cad49945f4a7a24b91",
    "verify": "303b7d56a180b5f2cec8135ee52207d0e6dd98f1009e36c75e4b10f32ca44404",
    "subsets": "79320e111b92b98b96dbc25f51f8c9cf5eb3f335ccf335de6c5f56eec9e597e9",
    "sensitivity": "a71301b2b86bbcba3db907ce1c1e350e4fc43bb7b9ab42f3f51b839ec062edd3",
    "crosstab": "fc84800674572f49f8ea10ab9503138ae9f10e019e4c373ebc4876c908f6b1a2",
    "region": "ce3fbe2c9fb433bedb21f0b513ce68dc0c86b843b72a0111b3e4789f64b9a25b",
}


def _digest(command: str, tmp_path, monkeypatch, capsys) -> str:
    """SHA-256 over (argv, exit code, stdout) of every run of ``command``,
    in JSON and CSV, with inputs named relative to a fixed directory."""
    monkeypatch.chdir(tmp_path)
    h = hashlib.sha256()
    for i, (doc, flags) in enumerate(_cases(command)):
        name = f"{command}-{i}.json"
        (tmp_path / name).write_text(json.dumps(doc))
        for fmt in ("json", "csv"):
            argv = [command, name, *flags, "--format", fmt]
            code = main(argv)
            h.update(f"{argv}\n{code}\n{capsys.readouterr().out}".encode())
    return h.hexdigest()


@pytest.mark.parametrize("command", DIGESTS)
def test_reports_are_byte_identical(command, tmp_path, monkeypatch, capsys):
    assert _digest(command, tmp_path, monkeypatch, capsys) == DIGESTS[command]
