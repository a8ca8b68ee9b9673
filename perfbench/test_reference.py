"""Self-test of the benchmark's exact reference and corpus generator.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import itertools
import random
import shutil
from fractions import Fraction
from pathlib import Path

import pytest

import corpus
import reference

WORKDIR = Path(__file__).resolve().parent.parent / ".bench_work"


def brute_force(ne, po, mass=1.0) -> Fraction:
    """Ungrouped, unpruned inclusion-exclusion over all 2^M subsets."""
    m = len(ne)
    total = Fraction(0)
    for subset in itertools.product((0, 1), repeat=m):
        w = sum(Fraction(po[i] if subset[i] else ne[i]) for i in range(m))
        arg = Fraction(mass) - w
        if arg > 0:
            total += (-1) ** sum(subset) * arg ** (m - 1)
    return total


def test_grouped_equal_widths_match_brute_force():
    rnd = random.Random(1)
    checked = 0
    while checked < 100:
        m = rnd.randint(2, 7)
        po = [round(0.05 * rnd.randint(1, 8), 2) for _ in range(m)]
        ne = [0.0] * m if rnd.random() < 0.5 else [min(0.05, p) for p in po]
        if sum(po) < 1 or sum(ne) > 1:
            continue
        assert reference.box_simplex_volume(ne, po).value == brute_force(ne, po)
        checked += 1


def test_distinct_widths_and_masses_match_brute_force():
    rnd = random.Random(2)
    checked = 0
    while checked < 100:
        m = rnd.randint(2, 8)
        po = [rnd.uniform(0.05, 0.6) for _ in range(m)]
        ne = [p * rnd.uniform(0.0, 0.3) for p in po]
        q = rnd.choice([1.0, rnd.uniform(0.5, 1.0)])
        if sum(po) < 1 or sum(ne) > 1:
            continue
        assert reference.box_simplex_volume(ne, po, q).value == brute_force(ne, po, q)
        checked += 1


def test_known_values():
    assert reference.box_simplex_volume([0.0] * 3, [1.0] * 3).value == 1  # vacuous
    assert reference.box_simplex_volume([0.5, 0.5], [0.5, 0.5]).value == 0  # a point
    readme = reference.box_simplex_volume([0.6, 0.2], [0.8, 0.4]).value
    assert abs(readme - Fraction(1, 5)) < Fraction(1, 10**15)


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_corpus_is_a_function_of_the_seed(workload):
    runs = []
    for sub in ("a", "b"):
        workdir = WORKDIR / f"test-{workload}-{sub}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        try:
            c = corpus.build(workload, 7, workdir, reference.ClosedForms())
            files = sorted((p.name, p.read_bytes()) for p in workdir.iterdir())
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        argv = [[a.replace(str(workdir), "") for a in e.argv] for e in c.entries]
        runs.append((argv, files, c.properties))
    assert runs[0] == runs[1]
