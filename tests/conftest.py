"""Shared deterministic generators and assertion helpers."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from simplexfreedom import (
    DomainError,
    IntervalAssignment,
    SplitMix64,
    freedom,
    helper,
    tighten,
    validate,
)
from simplexfreedom.oracle import _MASK64, mix64

SRC = Path(__file__).resolve().parents[1] / "src"


def fresh_interpreter(*args: str) -> subprocess.CompletedProcess:
    """Run the interpreter with ``args`` in a new process that imports the
    package from this checkout's ``src``."""
    return subprocess.run(
        [sys.executable, *args],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )


# every package module but cli and __init__, each registered lazily by the
# package import; RAN_PROBE lists those of them that have run, in this order
SUBMODULES = ("core", "errors", "measures", "oracle", "crosstab", "sensitivity", "helper")
RAN_PROBE = (
    f"[m for m in {SUBMODULES!r}"
    " if type(sys.modules[f'simplexfreedom.{m}']) is types.ModuleType]"
)


# Distinct odd increment used only for worker-seed derivation, so derived
# seeds never collide with counters of the parent stream.
_DERIVE = 0xD1B54A32D192ED03


def derive_worker_seed(seed: int, worker_index: int) -> int:
    """Deterministic per-worker seed for partitioned sampling.

    Defined as mix64(seed + (worker_index + 1) * 0xD1B54A32D192ED03).  The
    canonical results for verification are single-worker; this derivation
    exists so a fixed worker count also reproduces exactly.
    """
    if worker_index < 0:
        raise DomainError("worker_index must be nonnegative")
    return mix64((int(seed) + (worker_index + 1) * _DERIVE) & _MASK64)


def random_valid_assignment(rng: SplitMix64, m: int, tight: bool = False) -> IntervalAssignment:
    """Random assignment satisfying the full validity contract.

    Possibilities are drawn until they sum past 1 with a little margin;
    necessities sit uniformly under them and are rescaled when their sum
    approaches 1.  A single possibility is at most 1, so m < 2 is refused
    rather than redrawn forever.
    """
    if m < 2:
        raise ValueError(f"need at least 2 options, got m = {m}")
    while True:
        po = [0.02 + 0.98 * rng.random() for _ in range(m)]
        if sum(po) >= 1.02:
            break
    ne = [p * rng.random() for p in po]
    s = sum(ne)
    if s > 0.95:
        ne = [x * 0.9 / s for x in ne]
    a = validate(ne, po)
    return tighten(a) if tight else a


def hard_input(m: int) -> IntervalAssignment:
    """ne = 0 and distinct possibilities near 2/M that sum to 2, so both
    vertices lie far from mass 1: the costliest kind of closed form, which
    passes its work limit at M = 25."""
    gen = SplitMix64(7700 + m)
    raw = [0.9 + 0.2 * gen.random() for _ in range(m)]
    return validate([0.0] * m, [2.0 * r / math.fsum(raw) for r in raw])


def brute_volume(ne, po, mass: float = 1.0, exponent: int | None = None) -> float:
    """sum_T (-1)^|T| max(0, mass - W_T)^exponent over all 2^M subsets,
    with exponent M - 1 unless given, on Fractions (no pruning, grouping or
    splitting), rounded once."""
    m = len(ne)
    power = m - 1 if exponent is None else exponent
    args = [Fraction(mass) - sum(map(Fraction, ne))]  # args[T] = mass - W_T
    for n, p in zip(ne, po):
        width = Fraction(p) - Fraction(n)
        args += [a - width for a in args]
    total = Fraction(0)
    for mask, arg in enumerate(args):
        if arg > 0:
            total += (-1) ** mask.bit_count() * arg ** power
    return float(total)


def random_assignment_with_volume(
    rng: SplitMix64, m: int, lo: float = 1e-3, hi: float = 0.999
) -> IntervalAssignment:
    """Random valid assignment whose freedom lies in [lo, hi], so Monte-Carlo
    comparisons have statistical power."""
    while True:
        a = random_valid_assignment(rng, m)
        if lo <= freedom(a) <= hi:
            return a


def assert_within_4se(closed: float, mean: float, se: float, context: str = ""):
    slack = 4.0 * se
    assert abs(closed - mean) <= slack, (
        f"{context}: closed {closed:.8g} vs MC {mean:.8g} "
        f"differs by {abs(closed - mean):.3g} > 4*SE = {slack:.3g}"
    )


@pytest.fixture
def rng():
    return SplitMix64(20260810)


@pytest.fixture
def fresh_helper():
    """No helper process before the test, so that one forked in it inherits
    the test's patches, and none after it, so that the next test's helper
    does not."""
    helper.close()
    yield
    helper.close()


def assert_helper_on_and_off(monkeypatch, run, lends: int):
    """run() gives one result with one worker (the caller alone) and with
    two (the caller and the helper process), which is returned; with two
    it lends the helper ``lends`` times, and with one never."""
    lent = []
    real = helper.lend
    monkeypatch.setattr(
        helper, "lend", lambda *args, **kw: lent.append(real(*args, **kw)) or lent[-1]
    )
    results = []
    for workers in (1, 2):
        monkeypatch.setattr(helper, "_WORKERS", workers)
        lent.clear()
        results.append(run())
        assert sum(r is not None for r in lent) == lends * (workers - 1), workers
    assert results[0] == results[1]
    return results[0]
