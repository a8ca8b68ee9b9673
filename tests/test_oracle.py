"""Seeded sampling, rejection estimates, and the M=3 polygon."""

from __future__ import annotations

import functools
import math
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

from simplexfreedom import (
    CrossTable,
    DomainError,
    LowAcceptanceWarning,
    SplitMix64,
    WrongDimension,
    IntervalAssignment,
    freedom,
    mc_freedom,
    mc_freedom_conditional,
    mc_joint_freedom,
    region_polygon,
    validate,
)

from simplexfreedom import oracle
from simplexfreedom.oracle import _cuts, _network, _within

from conftest import assert_within_4se, derive_worker_seed, random_valid_assignment

MASK64 = (1 << 64) - 1


def reference_splitmix64(seed: int, n: int) -> list[int]:
    """Straight transcription of the published update equations."""
    out = []
    state = seed & MASK64
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        out.append((z ^ (z >> 31)) & MASK64)
    return out


class TestSplitMix64:
    def test_matches_reference_equations(self):
        rng = SplitMix64(42)
        got = [rng.next_uint64() for _ in range(8)]
        assert got == reference_splitmix64(42, 8)

    def test_block_matches_scalar_bitwise(self):
        # sizes either side of the _SUB rows a sub-block holds, which is
        # also the number of words uniforms fills at a time
        sizes = (100, 1, oracle._SUB - 1, oracle._SUB, oracle._SUB + 1,
                 2 * oracle._SUB + 3)
        for seed in (123, 0, 42, MASK64):
            for n in sizes:
                scalar, block = SplitMix64(seed), SplitMix64(seed)
                vec = block.uniforms(n)
                assert vec.dtype == np.float64 and vec.shape == (n,)
                assert vec.tolist() == [scalar.random() for _ in range(n)]
                # equal next words: the block advanced the state by n words
                assert block.next_uint64() == scalar.next_uint64()

    def test_block_split_is_seamless(self):
        one = SplitMix64(9).uniforms(50)
        rng = SplitMix64(9)
        two = np.concatenate([rng.uniforms(20), rng.uniforms(30)])
        assert np.array_equal(one, two)

    @pytest.mark.parametrize("seed", [0, 42, 0x8000000000000005, MASK64])
    def test_seek_by_counter_offset(self, seed):
        # the sampler starts each coordinate's stream j words in this way
        for j in (1, 1000, 1 << 15):
            seeked = SplitMix64((seed + j * 0x9E3779B97F4A7C15) & MASK64).uniforms(300)
            assert np.array_equal(seeked, SplitMix64(seed).uniforms(j + 300)[j:])
        rng = SplitMix64(seed)
        three = np.concatenate([rng.uniforms(7), rng.uniforms(1), rng.uniforms(40)])
        assert np.array_equal(three, SplitMix64(seed).uniforms(48))

    def test_seed_must_be_an_integer(self):
        with pytest.raises(DomainError, match="seed"):
            SplitMix64(1.7)
        assert SplitMix64(np.uint64(MASK64)).next_uint64() == SplitMix64(-1).next_uint64()

    def test_uniforms_rejects_a_bad_count(self):
        for n in (-1, 2.5, "4"):
            with pytest.raises(DomainError, match="^n "):
                SplitMix64(1).uniforms(n)
        assert np.array_equal(SplitMix64(1).uniforms(np.int64(3)), SplitMix64(1).uniforms(3))
        # and it fills no row of the caller's
        with pytest.raises(TypeError):
            SplitMix64(1).uniforms(4, out=np.empty(4))

    def test_unit_interval(self):
        u = SplitMix64(7).uniforms(10_000)
        assert np.all(u >= 0.0) and np.all(u < 1.0)


def test_worker_seed_derivation():
    s0 = derive_worker_seed(42, 0)
    s1 = derive_worker_seed(42, 1)
    assert s0 != s1
    assert s0 == derive_worker_seed(42, 0)
    with pytest.raises(DomainError):
        derive_worker_seed(42, -1)


def test_random_assignment_needs_two_options():
    # one possibility is at most 1, so no redraw could sum past 1.02
    for m in (0, 1):
        with pytest.raises(ValueError):
            random_valid_assignment(SplitMix64(1), m)


def _apply(network, u: np.ndarray) -> np.ndarray:
    u = u.copy()
    for i, j in network:
        lo = np.minimum(u[i], u[j])
        np.maximum(u[i], u[j], out=u[j])
        u[i] = lo
    return u


class TestNetwork:
    def test_comparator_counts(self):
        counts = [len(_network(k)) for k in range(1, 12)]
        assert counts == [0, 1, 3, 5, 9, 12, 16, 19, 26, 31, 37]

    @pytest.mark.parametrize("k", range(1, 17))
    def test_sorts_every_zero_one_column(self, k):
        # 0-1 principle: a comparator network that sorts all 2^k columns of
        # zeros and ones sorts every column of k numbers
        assert all(0 <= i < j < k for i, j in _network(k))
        bits = ((np.arange(1 << k) >> np.arange(k)[:, None]) & 1).astype(float)
        assert np.array_equal(_apply(_network(k), bits), np.sort(bits, axis=0))

    def test_sorts_random_columns_up_to_31_wires(self):
        rng = SplitMix64(31)
        for k in range(17, 32):
            u = rng.uniforms(k * 10_000).reshape(k, 10_000)
            assert np.array_equal(_apply(_network(k), u), np.sort(u, axis=0))


ONE = 1 << 53


class TestIntegerCuts:
    """``_cuts`` turns each float acceptance test of a spacing s * 2^-53
    into integer cuts lo <= s <= hi that decide every s in [0, 2^53] alike."""

    @staticmethod
    def check(ne, po, q):
        lo, hi = _cuts(ne, po, q)
        assert 0 <= lo <= ONE + 1 and 0 <= hi <= ONE
        for s in {lo - 1, lo, hi, hi + 1, 0, ONE}:
            if 0 <= s <= ONE:
                assert (lo <= s <= hi) == (ne <= s * 2.0**-53 * q <= po), (ne, po, q, s)
        return lo, hi

    def test_seeded_bounds_and_masses(self):
        rng = SplitMix64(53)
        for _ in range(1000):
            ne, po = rng.random(), rng.random()
            self.check(ne, po, 1.0 - rng.random())
            self.check(min(ne, po), max(ne, po), 1.0 - rng.random())
            self.check(ne - 1e-12, po + 1e-12, 1.0)

    @pytest.mark.parametrize("q", [1.0, 0.7, 1 / 3, 0.1, 2.0**-60])
    def test_edges(self, q):
        assert self.check(0.0, 1.0, q) == (0, ONE)
        assert self.check(-1e-12, 1.0 + 1e-12, q) == (0, ONE)
        self.check(0.25, 0.25, q)
        for empty in ((0.6, 0.4), (-0.5, -1e-12), (q * 1.5, 1.0)):
            lo, hi = self.check(*empty, q)
            assert lo > hi

    def test_points(self):
        assert self.check(0.25, 0.25, 1.0) == (ONE >> 2, ONE >> 2)
        # 0.3 is no multiple of 2^-53
        lo, hi = self.check(0.3, 0.3, 1.0)
        assert lo > hi


def _random_box(rng: SplitMix64, m: int, q: float = 1.0) -> IntervalAssignment:
    """Bounds at mass q that accept a tenth or more of the rows up to M = 8."""
    ne = tuple(q * 0.3 * rng.random() / m for _ in range(m))
    po = tuple(q * min(1.0, (1.2 + 1.5 * rng.random()) / m) for _ in range(m))
    return IntervalAssignment(tuple(f"o{i}" for i in range(m)), ne, po)


def _contract_accepted(k, samples, seed, accept) -> int:
    """Accepted rows of one block as the contract states it in doubles:
    coordinate-major uniforms, each row sorted, spacings against 0 and 1."""
    u = np.sort(SplitMix64(seed).uniforms(k * samples).reshape(k, samples), axis=0)
    return int(np.count_nonzero(accept(np.diff(u, axis=0, prepend=0.0, append=1.0))))


class TestIntegerKernel:
    """The integer kernel accepts exactly the rows the double contract does."""

    @pytest.mark.parametrize("q", [1.0, 0.7, 1 / 3, 0.1])
    def test_box_test(self, rng, q):
        for m in (2, 3, 5, 8):
            a = _random_box(rng, m, q)
            ne, po = np.array(a.ne)[:, None], np.array(a.po)[:, None]
            want = _contract_accepted(
                m - 1, 4000, m, lambda p: ((ne <= p * q) & (p * q <= po)).all(axis=0)
            )
            assert want >= 100
            assert mc_freedom_conditional(a, q, 4000, m).accepted == want

    def test_joint_margins(self, rng):
        # a one-row or one-column table sums every spacing into one margin
        for k, m in ((2, 2), (2, 3), (3, 3), (3, 4), (1, 3), (3, 1)):
            t = CrossTable(_random_box(rng, k), _random_box(rng, m))

            def accept(p):
                ok = np.ones(p.shape[1], dtype=bool)
                cells = p.reshape(k, m, -1)
                for sums, margins in ((cells.sum(axis=1), t.row_marginals),
                                      (cells.sum(axis=0), t.col_marginals)):
                    ne = np.array(margins.ne)[:, None] - 1e-12
                    po = np.array(margins.po)[:, None] + 1e-12
                    ok &= ((ne <= sums) & (sums <= po)).all(axis=0)
                return ok

            want = _contract_accepted(k * m - 1, 4000, k * m, accept)
            assert want >= 100
            assert mc_joint_freedom(t, 4000, k * m).accepted == want

    @pytest.mark.parametrize(
        "cut", [(0, ONE), (1, 0), (6, ONE), (0, 6), (6, 9), (6, 6), (0, 0),
                (ONE, ONE), (ONE >> 2, ONE - 1)],
    )
    def test_within(self, cut):
        # ok &= lo <= x <= hi, one comparison for both sides; x is left as
        # it is, and the empty cut (1, 0) rejects every row
        lo, hi = cut
        x = np.array(sorted({0, 1, 5, 6, 7, 9, 10, ONE >> 2, (ONE >> 2) - 1,
                             ONE - 1, ONE}), dtype=np.uint64)
        ok = np.arange(len(x)) % 5 != 3
        want = ok & np.array([lo <= int(v) <= hi for v in x])
        hit = np.empty(len(x), dtype=bool)
        spare = np.empty(len(x), dtype=np.uint64)
        before = x.copy()
        _within(x, cut, ok, hit, spare)
        assert (ok == want).all()
        assert (x == before).all()
        # the scalar 2^53 stands in for x[k + 1] when a test sums every spacing
        top = np.ones(len(x), dtype=bool)
        _within(np.uint64(ONE), cut, top, hit, spare)
        assert top.all() == (lo <= ONE <= hi)


class TestSampleSimplex:
    def test_symmetric_means(self):
        rng = SplitMix64(77)
        n = 100_000
        u = np.sort(rng.uniforms(2 * n).reshape(2, n), axis=0)
        p = np.vstack([u[0], u[1] - u[0], 1.0 - u[1]])
        for i in range(3):
            mean = p[i].mean()
            se = p[i].std(ddof=1) / math.sqrt(n)
            assert abs(mean - 1.0 / 3.0) <= 4.0 * se

    def test_corner_volume(self):
        # fraction with p1 > 0.5 equals the corner simplex volume (1-0.5)^2
        rng = SplitMix64(88)
        n = 100_000
        u = np.sort(rng.uniforms(2 * n).reshape(2, n), axis=0)
        p1 = u[0]
        frac = float(np.count_nonzero(p1 > 0.5)) / n
        se = math.sqrt(0.25 * 0.75 / n)
        assert abs(frac - 0.25) <= 4.0 * se


class TestMcFreedom:
    def test_vacuous_exact(self):
        est = mc_freedom(validate([0, 0, 0], [1, 1, 1]), 10_000, 3)
        assert est.mean == 1.0
        assert est.std_error == 0.0

    def test_worked_two_option_case(self):
        a = validate([0.6, 0.2], [0.8, 0.4])
        est = mc_freedom(a, 200_000, 42)
        assert_within_4se(0.2, est.mean, est.std_error, "two-option worked case")

    def test_worked_three_option_case(self):
        a = validate([0, 0, 0], [0.5, 0.5, 0.5])
        est = mc_freedom(a, 200_000, 42)
        assert_within_4se(0.25, est.mean, est.std_error, "three-option worked case")

    def test_deterministic(self):
        a = validate([0.1, 0.0, 0.2], [0.6, 0.7, 0.5])
        e1 = mc_freedom(a, 50_000, 99)
        e2 = mc_freedom(a, 50_000, 99)
        assert e1 == e2

    def test_seed_matters(self):
        a = validate([0.1, 0.0, 0.2], [0.6, 0.7, 0.5])
        assert mc_freedom(a, 50_000, 1).mean != mc_freedom(a, 50_000, 2).mean

    def test_sample_count_domain(self):
        with pytest.raises(DomainError):
            mc_freedom(validate([0, 0], [1, 1]), 0, 1)

    def test_one_option_domain(self):
        one = IntervalAssignment(("all",), (0.0,), (1.0,))
        with pytest.raises(DomainError, match="at least 2 options"):
            mc_freedom(one, 1000, 1)
        with pytest.raises(DomainError, match="at least 2 options"):
            mc_freedom_conditional(one, 0.5, 1000, 1)

    @pytest.mark.parametrize("samples", [10.5, 1000.0, "1000", None])
    def test_non_integral_sample_count(self, samples):
        a = validate([0.6, 0.2], [0.8, 0.4])
        for estimate in (
            lambda: mc_freedom(a, samples, 1),
            lambda: mc_freedom_conditional(a, 0.9, samples, 1),
            lambda: mc_joint_freedom(CrossTable(a, a), samples, 1),
        ):
            with pytest.raises(DomainError, match="samples must be an integer"):
                estimate()

    @pytest.mark.parametrize("seed", [1.7, 1.0, "1"])
    def test_non_integral_seed(self, seed):
        a = validate([0.6, 0.2], [0.8, 0.4])
        for estimate in (
            lambda: mc_freedom(a, 1000, seed),
            lambda: mc_freedom_conditional(a, 0.9, 1000, seed),
            lambda: mc_joint_freedom(CrossTable(a, a), 1000, seed),
        ):
            with pytest.raises(DomainError, match="seed must be an integer"):
                estimate()

    def test_numpy_integers_pass_as_ints(self):
        a = validate([0.6, 0.2], [0.8, 0.4])
        est = mc_freedom(a, np.int64(20_000), np.uint64(2**64 - 1))
        assert est == mc_freedom(a, 20_000, 2**64 - 1)
        assert type(est.samples) is int and type(est.seed) is int

    @pytest.mark.parametrize("seed", [-1, 2**64 + 5, 2**70])
    def test_seed_is_reported_modulo_2_64(self, seed):
        # the streams run on seed mod 2^64, so equal streams report equal seeds
        a = validate([0.6, 0.2], [0.8, 0.4])
        for estimate in (
            lambda s: mc_freedom(a, 20_000, s),
            lambda s: mc_freedom_conditional(a, 0.9, 20_000, s),
            lambda s: mc_joint_freedom(CrossTable(a, a), 20_000, s),
        ):
            est = estimate(seed)
            assert est.seed == seed & MASK64
            assert est == estimate(seed & MASK64)

    def test_metadata(self):
        est = mc_freedom(validate([0, 0], [1, 1]), 1234, 5678)
        assert est.samples == 1234 and est.seed == 5678

    def test_low_acceptance_warns_at_caller(self):
        a = validate([0.33, 0.33, 0.33], [0.34, 0.34, 0.34])
        with pytest.warns(LowAcceptanceWarning) as caught:
            est = mc_freedom(a, 20_000, 1)
        assert est.mean * est.samples < 100
        assert est.accepted == 1
        assert caught[0].filename == __file__


class TestMcFreedomConditional:
    def test_q_one_equals_plain_estimate(self):
        a = validate([0.2, 0.0, 0.1], [0.7, 0.6, 0.6])
        e1 = mc_freedom_conditional(a, 1.0, 50_000, 4)
        e2 = mc_freedom(a, 50_000, 4)
        assert e1.mean == e2.mean

    def test_full_acceptance_case(self):
        sub = IntervalAssignment(("a", "b"), (0.0, 0.0), (0.5, 0.5))
        est = mc_freedom_conditional(sub, 0.5, 10_000, 9)
        assert est.mean == pytest.approx(0.5, abs=1e-15)
        assert est.std_error == 0.0

    def test_matches_closed_form(self):
        sub = IntervalAssignment(("a", "b", "c"), (0.0, 0.0, 0.0), (0.3, 0.3, 0.3))
        est = mc_freedom_conditional(sub, 0.6, 200_000, 10)
        assert_within_4se(0.09, est.mean, est.std_error, "conditional oracle")

    @pytest.mark.parametrize("q", [0.0, 1.5, -1.0])
    def test_domain(self, q):
        with pytest.raises(DomainError):
            mc_freedom_conditional(validate([0, 0], [1, 1]), q, 100, 1)

    def test_low_acceptance_warns_at_caller(self):
        a = validate([0.33, 0.33, 0.33], [0.34, 0.34, 0.34])
        with pytest.warns(LowAcceptanceWarning) as caught:
            mc_freedom_conditional(a, 1.0, 20_000, 1)
        assert caught[0].filename == __file__


def _pinned_assignment(m: int) -> IntervalAssignment:
    return validate([0.01 * i for i in range(m)], [1.5 / m + 0.02 * i for i in range(m)])


def _pinned_table(k: int, m: int) -> CrossTable:
    return CrossTable(
        validate([0.1 / k] * k, [1.5 / k] * k), validate([0.05 / m] * m, [1.6 / m] * m)
    )


def _wide_assignment(m: int) -> IntervalAssignment:
    # F = 0.28 at M = 10 and 0.15 at M = 12, where the pinned assignment
    # accepts 1 of 20,000 rows
    return validate([0.002 * i for i in range(m)], [2.5 / m + 0.01 * i for i in range(m)])


# the mass q of each conditional kind
_Q = {"conditional": 0.7, "q=0.1": 0.1, "q=1/3": 1 / 3}


def _pinned_estimate(kind, size, samples):
    if kind == "plain":
        return mc_freedom(_pinned_assignment(size), samples, size)
    if kind == "wide":
        return mc_freedom(_wide_assignment(size), samples, size)
    if kind in _Q:
        return mc_freedom_conditional(_pinned_assignment(size), _Q[kind], samples, size)
    return mc_joint_freedom(_pinned_table(*size), samples, size[0] * size[1])


# (estimator, size, samples, mean, std_error), recorded before the three
# estimators shared one sampler.  Seeds equal the option or cell count.
# M = 2..6 and joint tables up to 6 cells sort with a sorting network, the
# rest with numpy; 1_100_000 samples cross the 2^20-row block seam.
PINNED = [
    ("plain", 2, 20_000, "0x1.0816f0068db8cp-1", "0x1.cf2d961392155p-9"),
    ("plain", 3, 1_100_000, "0x1.38f3f8ffe3671p-2", "0x1.cc9105643347bp-12"),
    ("plain", 4, 20_000, "0x1.856d5cfaacd9fp-3", "0x1.6bb3a5a941657p-9"),
    ("plain", 5, 20_000, "0x1.102de00d1b717p-3", "0x1.3a9fc63e2384ep-9"),
    ("plain", 6, 20_000, "0x1.a2d0e56041893p-4", "0x1.18cdfd7a14facp-9"),
    ("plain", 7, 20_000, "0x1.34d6a161e4f76p-4", "0x1.e96d339d664e2p-10"),
    ("plain", 8, 20_000, "0x1.566cf41f212d7p-5", "0x1.72f8d5ef2c830p-10"),
    ("conditional", 3, 1_100_000, "0x1.7cbc84babe381p-2", "0x1.a32935b504367p-13"),
    ("conditional", 7, 20_000, "0x1.9ac3674f42d3dp-7", "0x1.0d24e9a28ffebp-12"),
    ("joint", (2, 2), 1_100_000, "0x1.2290132f26102p-1", "0x1.ef4fe395243e0p-12"),
    ("joint", (2, 3), 20_000, "0x1.d4a2339c0ebeep-2", "0x1.cdbe86565eb6dp-9"),
    ("joint", (3, 4), 20_000, "0x1.7e4f765fd8adbp-2", "0x1.c04bf39b6b1dfp-9"),
]
# Recorded before blocks were evaluated in 2^15-row sub-blocks: one row, a
# block shorter than one sub-block, a partial last sub-block, exactly one
# block, and a second block that ends in a partial sub-block.  The rows at
# 65,535 and 65,537 samples straddle the end of the second sub-block, and
# of the 2^16-row sub-blocks evaluated in the test that varies their size.
SEAMS = [
    ("plain", 2, 1, "0x1.0000000000000p+0", "0x0.0p+0"),
    ("plain", 2, 32_767, "0x1.088e111c22384p-1", "0x1.69d78c42f6b82p-9"),
    ("plain", 2, 32_769, "0x1.088deee42237cp-1", "0x1.69d4ba34e74d1p-9"),
    ("plain", 2, 65_535, "0x1.0937093709371p-1", "0x1.ffac0e4f996c8p-10"),
    ("plain", 2, 65_537, "0x1.0938f6c70938fp-1", "0x1.ffa9eb12a5c81p-10"),
    ("plain", 2, 1_048_576, "0x1.0a1c400000000p-1", "0x1.ff99bdabb4e92p-12"),
    ("plain", 2, 1_081_347, "0x1.0a1beea5968c9p-1", "0x1.f7c9ee684eb4cp-12"),
    ("plain", 5, 1, "0x0.0p+0", "0x0.0p+0"),
    ("plain", 5, 32_767, "0x1.0fd21fa43f488p-3", "0x1.eb555efd29a6dp-10"),
    ("plain", 5, 32_769, "0x1.132dd9a44cb76p-3", "0x1.ede06ef2fb7a4p-10"),
    ("plain", 5, 65_535, "0x1.1089108910891p-3", "0x1.5bcf196e82cc3p-10"),
    ("plain", 5, 65_537, "0x1.15beea4115befp-3", "0x1.5e98d6f59a714p-10"),
    ("plain", 5, 1_048_576, "0x1.148a000000000p-3", "0x1.5df4dbc39bad8p-12"),
    ("plain", 5, 1_081_347, "0x1.14759f306eb16p-3", "0x1.58922bab223d0p-12"),
    ("plain", 8, 1, "0x0.0p+0", "0x0.0p+0"),
    ("plain", 8, 32_767, "0x1.5ac2b5856b0adp-5", "0x1.2393151bea0d1p-10"),
    ("plain", 8, 32_769, "0x1.5efd42057bf51p-5", "0x1.25424d60a6be0p-10"),
    ("plain", 8, 1_048_576, "0x1.521c000000000p-5", "0x1.9764008c71ef4p-13"),
    ("plain", 8, 1_081_347, "0x1.5258f8c90911cp-5", "0x1.914e212b552fbp-13"),
    ("conditional", 3, 1, "0x1.f5c28f5c28f5bp-2", "0x0.0p+0"),
    ("conditional", 3, 32_767, "0x1.7cf8a805caecdp-2", "0x1.2f60327273450p-10"),
    ("conditional", 3, 32_769, "0x1.7d299508fee3cp-2", "0x1.2f33d324c3d34p-10"),
    ("conditional", 3, 65_535, "0x1.7d37d960cf235p-2", "0x1.acbc2d5d72729p-11"),
    ("conditional", 3, 65_537, "0x1.7dc7de6117617p-2", "0x1.ac0ada4288cf2p-11"),
    ("conditional", 3, 1_048_576, "0x1.7cb80ffffffffp-2", "0x1.ad565367302f8p-13"),
    ("conditional", 3, 1_081_347, "0x1.7cc56b54d03f5p-2", "0x1.a6b82457103c4p-13"),
    ("joint", (3, 4), 1, "0x0.0p+0", "0x0.0p+0"),
    ("joint", (3, 4), 32_767, "0x1.7c62f8c5f18bep-2", "0x1.5de0cbf5cc048p-9"),
    ("joint", (3, 4), 32_769, "0x1.77fd1005dff44p-2", "0x1.5d067fdc77d93p-9"),
    ("joint", (3, 4), 65_535, "0x1.7cf17cf17cf18p-2", "0x1.eef2438d1fbf4p-10"),
    ("joint", (3, 4), 65_537, "0x1.7bf2840d7bf28p-2", "0x1.eeac8ab417f2dp-10"),
    ("joint", (3, 4), 1_048_576, "0x1.7ab0800000000p-2", "0x1.ee571ba3bea1dp-12"),
    ("joint", (3, 4), 1_081_347, "0x1.7ab9aba02e5f0p-2", "0x1.e6cd2db5fbcc9p-12"),
]
# Recorded while k >= 6 coordinates were sorted by np.sort, before every k
# took a merge-exchange network: k = 7, 8, 9 and 11 for the joint tables and
# k = 9 and 11 for M = 10 and 12.
SWITCH = [
    ("joint", (2, 4), 20_000, "0x1.5ae147ae147aep-2", "0x1.b6a63759f9192p-9"),
    ("joint", (2, 4), 1_100_000, "0x1.5aaa3ad18d25fp-2", "0x1.d91baaadd614fp-12"),
    ("joint", (3, 3), 20_000, "0x1.a26809d495183p-2", "0x1.c799e21571738p-9"),
    ("joint", (3, 3), 1_100_000, "0x1.a3d18f0dfe512p-2", "0x1.ebb864b1578d8p-12"),
    ("joint", (2, 5), 20_000, "0x1.edfa43fe5c91dp-3", "0x1.8c80f24d6a927p-9"),
    ("joint", (2, 5), 1_100_000, "0x1.eed4155bd8e31p-3", "0x1.abf7a5dfb54e1p-12"),
    ("joint", (2, 6), 20_000, "0x1.5c5d63886594bp-3", "0x1.5c399aad57769p-9"),
    ("joint", (2, 6), 1_100_000, "0x1.5cd5f99c38b05p-3", "0x1.77d6c8541546ep-12"),
    ("wide", 10, 20_000, "0x1.24dd2f1a9fbe7p-2", "0x1.a2d1d4ab743c4p-9"),
    ("wide", 10, 1_100_000, "0x1.1f8b770f3e9bfp-2", "0x1.c14af9f45d03fp-12"),
    ("wide", 12, 20_000, "0x1.37e90ff972474p-3", "0x1.4d04446197480p-9"),
    ("wide", 12, 1_100_000, "0x1.2edc2fa1fc523p-3", "0x1.62e73090e5af7p-12"),
]
# Recorded while the kernel tested doubles, before it tested 53-bit integers:
# masses where (s * 2^-53) * q rounds.  At M = 7 and q = 0.1 the necessities
# sum past q, so no row is accepted.
SCALED = [
    ("q=0.1", 3, 20_000, "0x1.46994185058dfp-8", "0x1.2894995dbd001p-15"),
    ("q=0.1", 3, 1_100_000, "0x1.41231a902fdbbp-8", "0x1.3fdd7bfe5899bp-18"),
    ("q=0.1", 7, 20_000, "0x0.0p+0", "0x0.0p+0"),
    ("q=0.1", 7, 1_100_000, "0x0.0p+0", "0x0.0p+0"),
    ("q=1/3", 3, 20_000, "0x1.77e0530323e88p-4", "0x1.3865631812226p-12"),
    ("q=1/3", 3, 1_100_000, "0x1.78c76f4577a31p-4", "0x1.4f76f41c13e48p-15"),
    ("q=1/3", 7, 20_000, "0x1.0f90bb8e23068p-18", "0x1.1a6bbfc69a9a6p-21"),
    ("q=1/3", 7, 1_100_000, "0x1.d8d557ea7692fp-19", "0x1.1c4f154424e5ep-24"),
]
# Recorded while the joint sampler summed rows and columns one spacing at a
# time: tall tables, where each column sums k spacings that are not
# consecutive.
TALL = [
    ("joint", (3, 2), 20_000, "0x1.9a43fe5c91d15p-2", "0x1.c62b560b8485cp-9"),
    ("joint", (4, 3), 20_000, "0x1.4d1b71758e219p-2", "0x1.b233d6bf14080p-9"),
    ("joint", (6, 2), 20_000, "0x1.8a3d70a3d70a4p-4", "0x1.1159a90beacecp-9"),
    ("joint", (3, 2), 1_100_000, "0x1.9860ef0715155p-2", "0x1.e98b54c2ad120p-12"),
    ("joint", (4, 3), 1_100_000, "0x1.49fe49812c462p-2", "0x1.d33ce3400fdd0p-12"),
    ("joint", (6, 2), 1_100_000, "0x1.91bc558644524p-4", "0x1.295b544385bfep-12"),
]


@pytest.mark.parametrize(
    "kind, size, samples, mean, std_error",
    PINNED + SEAMS + SWITCH + SCALED + TALL,
    ids=[f"{c[0]}-{c[1]}" for c in PINNED]
    + [f"{c[0]}-{c[1]}-{c[2]}" for c in SEAMS + SWITCH + SCALED + TALL],
)
def test_estimates_are_pinned_bit_for_bit(kind, size, samples, mean, std_error):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        est = _pinned_estimate(kind, size, samples)
    # the warning fires exactly when fewer than 100 rows are accepted
    warned = any(w.category is LowAcceptanceWarning for w in caught)
    assert warned == (est.accepted < 100)
    assert est.mean.hex() == mean
    assert est.std_error.hex() == std_error


@pytest.mark.parametrize(
    "kind, size, samples, accepted",
    [
        ("plain", 2, 20_000, 10_316),
        ("plain", 8, 1_081_347, 44_662),
        ("conditional", 3, 1_100_000, 834_682),
        ("joint", (3, 4), 20_000, 7_467),
        ("plain", 5, 1, 0),
    ],
)
def test_estimates_carry_their_accepted_count(kind, size, samples, accepted):
    with pytest.warns(LowAcceptanceWarning) if accepted < 100 else nullcontext():
        est = _pinned_estimate(kind, size, samples)
    assert est.accepted == accepted
    factor = 0.7 ** (size - 1) if kind == "conditional" else 1.0
    assert est.mean == accepted / samples * factor


@pytest.fixture
def fresh_helper():
    """No helper before the test, so that one forked in it inherits the
    test's patches, and none after it, so that the next test's helper does
    not."""
    oracle._close_helper()
    yield
    oracle._close_helper()


@pytest.mark.parametrize(
    "kind, size, samples, mean, std_error",
    PINNED + SEAMS + SWITCH,
    ids=[f"{c[0]}-{c[1]}-{c[2]}" for c in PINNED + SEAMS + SWITCH],
)
def test_estimates_do_not_depend_on_the_thread_count(
    monkeypatch, kind, size, samples, mean, std_error
):
    # the count of workers, _WORKERS: the caller alone, or the caller and
    # the helper process
    _assert_helper_on_and_off(monkeypatch, kind, size, samples, mean, std_error)


@pytest.mark.parametrize("rows", [1 << 14, 1 << 15, 1 << 16])
@pytest.mark.parametrize(
    "kind, size, samples, mean, std_error",
    PINNED + SEAMS + SWITCH,
    ids=[f"{c[0]}-{c[1]}-{c[2]}" for c in PINNED + SEAMS + SWITCH],
)
def test_estimates_do_not_depend_on_the_sub_block_rows(
    monkeypatch, fresh_helper, rows, kind, size, samples, mean, std_error
):
    # every sub-block holds ``rows`` rows, in the caller and in a helper
    # forked with the counter offsets rebuilt for them
    monkeypatch.setattr(oracle, "_SUB", rows)
    monkeypatch.setattr(oracle, "_constants", functools.cache(oracle._constants.__wrapped__))
    _assert_helper_on_and_off(monkeypatch, kind, size, samples, mean, std_error)


def _assert_helper_on_and_off(monkeypatch, kind, size, samples, mean, std_error):
    # with two workers the helper counts the odd sub-blocks of any estimate
    # of more than one; with one the caller counts them all
    shared = []
    real = oracle._shared
    monkeypatch.setattr(oracle, "_shared", lambda *job: shared.append(job) or real(*job))
    for workers in (1, 2):
        monkeypatch.setattr(oracle, "_WORKERS", workers)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LowAcceptanceWarning)
            est = _pinned_estimate(kind, size, samples)
        assert (est.mean.hex(), est.std_error.hex()) == (mean, std_error), workers
    assert len(shared) == (samples > oracle._SUB)


def _failing_within(side: str):
    """``_within`` that raises on its first call in the caller, or in each
    helper process, and then passes."""
    caller = os.getpid()
    fired = []  # each forked helper has its own copy

    def within(*args):
        if not fired and (os.getpid() == caller) == (side == "caller"):
            fired.append(True)
            raise RuntimeError(f"in the {side}")
        return _within(*args)

    return within


# one plain PINNED estimate of 34 sub-blocks
_SPLIT = ("plain", 3, 1_100_000, "0x1.38f3f8ffe3671p-2", "0x1.cc9105643347bp-12")


@pytest.mark.parametrize("side", ["helper", "caller", "dead helper"])
def test_an_error_on_either_side_reaches_the_caller(monkeypatch, fresh_helper, side):
    kind, size, samples, mean, std_error = _SPLIT
    monkeypatch.setattr(oracle, "_WORKERS", 2)
    if side == "dead helper":
        _pinned_estimate(kind, size, samples)
        os.kill(oracle._helper[0], signal.SIGKILL)
        error, match = ChildProcessError, "has exited"
    else:
        monkeypatch.setattr(oracle, "_within", _failing_within(side))
        error, match = RuntimeError, f"in the {side}"
    with pytest.raises(error, match=match):
        _pinned_estimate(kind, size, samples)
    # a helper that raised is still in step; one that died, or was left in
    # the middle of a job, is reaped, and the next estimate forks another
    pid = oracle._helper and oracle._helper[0]
    assert (pid is not None) == (side == "helper")
    for _ in range(2):
        est = _pinned_estimate(kind, size, samples)
        assert (est.mean.hex(), est.std_error.hex()) == (mean, std_error)
    assert (oracle._helper[0] == pid) == (side == "helper")


def test_concurrent_estimates_are_pinned(monkeypatch):
    # three threads estimate at once on fewer cores, with the interpreter
    # switching threads often: whichever holds the helper shares its
    # sub-blocks with it, and the others count all of theirs themselves
    monkeypatch.setattr(oracle, "_WORKERS", 2)
    cases = [c for c in PINNED + SEAMS if c[2] > oracle._SUB]
    got = {}

    def run(t):
        got[t] = [_pinned_estimate(*c[:3]) for c in cases]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LowAcceptanceWarning)
            threads = [threading.Thread(target=run, args=(t,)) for t in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    want = [(c[3], c[4]) for c in cases]
    for t in range(3):
        assert [(e.mean.hex(), e.std_error.hex()) for e in got[t]] == want, t
    # while another estimate holds the helper, this one does not wait for it
    with oracle._helper_lock:
        est = _pinned_estimate(*_SPLIT[:3])
    assert (est.mean.hex(), est.std_error.hex()) == _SPLIT[3:]


@pytest.mark.parametrize(
    "m, samples, workers, started",
    [
        pytest.param(3, 1, 2, False, id="1-0"),
        pytest.param(3, oracle._SUB, 2, False, id=f"{oracle._SUB}-0"),
        pytest.param(3, oracle._SUB + 1, 2, True, id=f"{oracle._SUB + 1}-1"),
        pytest.param(7, oracle._SUB, 2, False, id=f"M7-{oracle._SUB}-0"),
        pytest.param(7, oracle._SUB + 1, 2, True, id=f"M7-{oracle._SUB + 1}-1"),
        pytest.param(12, oracle._SUB + 1, 2, True, id=f"M12-{oracle._SUB + 1}-1"),
        pytest.param(3, 1_000_000, 1, False, id="one-worker"),
    ],
)
def test_one_sub_block_starts_no_helper(monkeypatch, fresh_helper, m, samples, workers, started):
    monkeypatch.setattr(oracle, "_WORKERS", workers)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LowAcceptanceWarning)
        mc_freedom(_pinned_assignment(m), samples, m)
    assert (oracle._helper is not None) == started


# Runs one estimate that starts the helper and prints the helper's pid, then
# does as its argument says: "exit" returns; "sleep" waits to be killed;
# "fork" first starts a child that prints its pid and whether it holds a
# helper, and both then wait to be killed.
HELPER_OWNER = """\
import os, sys, time
from simplexfreedom import oracle, mc_freedom, validate
oracle._WORKERS = 2
mc_freedom(validate([0, 0, 0], [1, 1, 1]), 100_000, 0)
print(oracle._helper[0], flush=True)
if sys.argv[1] == "fork" and os.fork() == 0:
    print(os.getpid(), oracle._helper, flush=True)
    time.sleep(60)
    os._exit(0)
if sys.argv[1] != "exit":
    time.sleep(60)
"""


def _running(pid: int) -> bool:
    """Whether the process is there and not a zombie, which has exited and
    waits only to be reaped."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _gone_within(pid: int, seconds: float) -> bool:
    deadline = time.monotonic() + seconds
    while _running(pid):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)
    return True


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads /proc")
@pytest.mark.parametrize("end", ["exit", "sleep", "fork"])
def test_the_helper_ends_with_its_owner(end):
    # the owner exits normally or is killed with SIGKILL; a child it forked
    # holds no helper and does not keep the owner's alive
    proc = subprocess.Popen(
        [sys.executable, "-c", HELPER_OWNER, end],
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")),
        stdout=subprocess.PIPE,
        text=True,
    )
    child = None
    try:
        helper = int(proc.stdout.readline())
        if end == "fork":
            line = proc.stdout.readline().split()
            child = int(line[0])
            assert line[1] == "None"
        if end != "exit":
            proc.send_signal(signal.SIGKILL)
        assert proc.wait(timeout=30) == (0 if end == "exit" else -signal.SIGKILL)
        assert _gone_within(helper, 5)
        assert child is None or _running(child)
    finally:
        proc.kill()
        proc.wait(timeout=30)
        if child is not None:
            os.kill(child, signal.SIGKILL)
            assert _gone_within(child, 5)
        proc.stdout.close()


@pytest.mark.parametrize(
    "kind, size",
    [("plain", 2), ("plain", 6), ("plain", 7), ("joint", (3, 4))],
    ids=["k1", "k5", "k6", "k11"],
)
def test_workspaces_start_on_a_page(monkeypatch, fresh_helper, kind, size):
    # k = 1, 5, 6 and 11: the caller cuts one workspace per estimate, whose
    # rows and masks start on a 4 KiB page, of 2^15 rows, or of as many as
    # an estimate shorter than that; the helper cuts its own
    monkeypatch.setattr(oracle, "_WORKERS", 2)
    seen = []
    workspace = oracle._workspace
    monkeypatch.setattr(oracle, "_workspace", lambda *a: seen.append(workspace(*a)) or seen[-1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LowAcceptanceWarning)
        for samples, rows in ((1_000_000, 1 << 15), (1_000, 1_000)):
            seen.clear()
            _pinned_estimate(kind, size, samples)
            [(work, (ok, hit))] = seen
            assert work.ctypes.data % 4096 == ok.ctypes.data % 4096 == 0
            assert work.shape[1] == ok.shape[0] == hit.shape[0] == rows


def test_sampler_memory_is_bounded_by_sub_blocks():
    # numpy reports its buffers to tracemalloc; whole 2^20-row blocks at
    # M = 8 peak near 107 MiB
    a = _pinned_assignment(8)
    tracemalloc.start()
    try:
        mc_freedom(a, 1_000_000, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_sampler_memory_is_its_workspaces():
    # the caller's one workspace: k + 1 uint64 rows and two boolean masks
    # of 2^15 words, and room for the Python objects of one estimate and
    # the page alignment; filling a row takes no temporary array, and the
    # helper's workspace is in its own process
    for m in (8, 6):
        a = _pinned_assignment(m)
        k, rows = a.m - 1, 1 << 15
        workspaces = (k + 1) * rows * 8 + 2 * rows
        mc_freedom(a, 1_000_000, m)  # the cached constants are not the estimate's
        tracemalloc.start()
        try:
            mc_freedom(a, 1_000_000, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert workspaces <= peak <= workspaces + 64 * 2**10, m


class TestRegionPolygon:
    def test_vacuous_triangle(self):
        poly = region_polygon(validate([0, 0, 0], [1, 1, 1]))
        assert poly.vertices == ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
        assert poly.area_fraction == 1.0

    def test_worked_quarter_case(self):
        poly = region_polygon(validate([0, 0, 0], [0.5, 0.5, 0.5]))
        assert poly.area_fraction == pytest.approx(0.25, abs=1e-12)

    def test_matches_closed_form_on_random_inputs(self, rng):
        for _ in range(100):
            a = random_valid_assignment(rng, 3)
            poly = region_polygon(a)
            assert poly.area_fraction == pytest.approx(freedom(a), abs=1e-9)

    def test_vertices_inside_triangle_and_box(self, rng):
        for _ in range(50):
            a = random_valid_assignment(rng, 3)
            for x, y in region_polygon(a).vertices:
                assert x >= -1e-9 and y >= -1e-9 and x + y <= 1.0 + 1e-9
                assert a.ne[0] - 1e-9 <= x <= a.po[0] + 1e-9
                assert a.ne[1] - 1e-9 <= y <= a.po[1] + 1e-9
                p3 = 1.0 - x - y
                assert a.ne[2] - 1e-9 <= p3 <= a.po[2] + 1e-9

    def test_degenerate_point_region(self):
        poly = region_polygon(validate([0.2, 0.3, 0.5], [0.2, 0.3, 0.5]))
        assert poly.area_fraction == pytest.approx(0.0, abs=1e-12)

    def test_ring_closing_duplicate_dropped(self):
        # the clipped ring ends on its first vertex; the segment keeps two
        a = validate([0.1, 0.25, 0.5], [0.5691075034743235, 0.25, 0.6666666666666666])
        poly = region_polygon(a)
        assert poly.vertices == ((0.25, 0.25), (0.09999999999999999, 0.25))
        assert poly.area_fraction == 0.0

    def test_empty_region(self):
        # relaxed instance with possibility sums below 1: nothing remains
        a = IntervalAssignment(("a", "b", "c"), (0, 0, 0), (0.2, 0.2, 0.2))
        poly = region_polygon(a)
        assert poly.vertices == ()
        assert poly.area_fraction == 0.0

    @pytest.mark.parametrize("m", [2, 4])
    def test_wrong_dimension(self, m):
        a = validate([0.0] * m, [1.0] * m)
        with pytest.raises(WrongDimension):
            region_polygon(a)

    def test_counter_clockwise_orientation(self, rng):
        for _ in range(20):
            a = random_valid_assignment(rng, 3)
            pts = region_polygon(a).vertices
            if len(pts) >= 3:
                n = len(pts)
                signed = math.fsum(
                    pts[i][0] * pts[(i + 1) % n][1] - pts[(i + 1) % n][0] * pts[i][1]
                    for i in range(n)
                )
                assert signed >= -1e-15
