"""Closed-form measures: worked values, invariants, and the subset scan."""

from __future__ import annotations

import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexfreedom import (
    AssignmentClass,
    CapExceeded,
    DomainError,
    IntervalAssignment,
    SplitMix64,
    SubsetEntry,
    SubsetScan,
    TOLERANCE,
    ValidationError,
    classify,
    freedom,
    freedom_conditional,
    hartley_nonspecificity,
    impact_compare,
    imposition_compare,
    mc_freedom_conditional,
    measure_report,
    normed_freedom,
    subset_scan,
    tighten,
    validate,
    yager_ambiguity,
)
from simplexfreedom import helper, measures
from simplexfreedom.measures import _scaled, _split_sweep, _sweep, _volumes

from conftest import (
    assert_helper_on_and_off,
    assert_within_4se,
    brute_volume,
    hard_input,
    random_valid_assignment,
)


@st.composite
def valid_assignments(draw, min_m=2, max_m=5):
    m = draw(st.integers(min_m, max_m))
    seed = draw(st.integers(0, 2**48))
    return random_valid_assignment(SplitMix64(seed), m)


class TestFreedom:
    @pytest.mark.parametrize(
        "ne,po,expected",
        [
            ([0.6, 0.2], [0.8, 0.4], 0.2),
            ([0.6, 0.0], [1.0, 0.4], 0.4),
            ([0.4, 0.0], [1.0, 0.6], 0.6),
            ([0.3, 0.3], [0.7, 0.7], 0.4),
            ([0, 0, 0], [0.5, 0.5, 0.5], 0.25),
            ([0, 0, 0], [1.0, 0.5, 0.5], 0.50),
        ],
    )
    def test_worked_values(self, ne, po, expected):
        assert freedom(validate(ne, po)) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("m", [2, 3, 5, 8])
    def test_vacuous_is_exactly_one(self, m):
        assert freedom(validate([0.0] * m, [1.0] * m)) == 1.0

    def test_point_is_exactly_zero(self):
        assert freedom(validate([0.2, 0.3, 0.5], [0.2, 0.3, 0.5])) == 0.0

    def test_pinned_coordinate_is_exactly_zero(self):
        assert freedom(validate([0.0, 0.4, 0.0], [1.0, 0.4, 1.0])) == 0.0

    def test_cap(self):
        # the closed form is limited by its work, not by M
        assert freedom(validate([0.0] * 25, [1.0] * 25)) == 1.0
        with pytest.raises(CapExceeded):
            freedom(hard_input(25))

    def test_cap_message_names_the_work_limit(self):
        assert freedom(validate([0.0] * 25, [1.0] * 25)) == 1.0
        with pytest.raises(
            CapExceeded,
            match=r"^the closed form would keep over 3614 subsets in one half "
            r"of its sum, past its work limit$",
        ):
            freedom(hard_input(25))

    def test_rejects_single_option_instances(self):
        sub = IntervalAssignment(("only",), (0.0,), (1.0,))
        with pytest.raises(ValidationError):
            freedom(sub)

    @settings(max_examples=60, deadline=None)
    @given(valid_assignments())
    def test_bounds(self, a):
        f = freedom(a)
        assert 0.0 <= f <= 1.0

    @settings(max_examples=60, deadline=None)
    @given(valid_assignments())
    def test_tightening_invariance(self, a):
        assert freedom(tighten(a)) == pytest.approx(freedom(a), abs=1e-12)

    def test_weak_monotonicity(self, rng):
        for _ in range(80):
            m = 2 + int(rng.random() * 4)
            a = random_valid_assignment(rng, m)
            f = freedom(a)
            k = int(rng.random() * m)
            # raising a possibility can only add volume
            po2 = list(a.po)
            po2[k] = po2[k] + (1.0 - po2[k]) * rng.random()
            assert freedom(validate(a.ne, po2)) >= f - 1e-12
            # raising a necessity can only remove volume
            ne2 = list(a.ne)
            ne2[k] = ne2[k] + (a.po[k] - ne2[k]) * rng.random()
            if sum(ne2) <= 1.0:
                assert freedom(validate(ne2, a.po)) <= f + 1e-12

    def test_strict_monotonicity_under_room_condition(self, rng):
        # when the other necessities leave room below 1 - po_i (and po_i < 1,
        # all widths positive), growing po_i strictly grows the region
        checked = 0
        while checked < 40:
            m = 2 + int(rng.random() * 4)
            a = random_valid_assignment(rng, m, tight=True)
            if min(a.widths) < 0.01:
                continue
            f = freedom(a)
            if not 0.0 < f < 1.0:
                continue
            for k in range(m):
                others_ne = sum(a.ne) - a.ne[k]
                if a.po[k] < 0.99 and others_ne < 1.0 - a.po[k] - 0.01:
                    po2 = list(a.po)
                    po2[k] = min(1.0, po2[k] + 0.01)
                    assert freedom(validate(a.ne, po2)) > f
                    checked += 1
                    break

    def test_extreme_one_only_for_vacuous(self, rng):
        for _ in range(30):
            a = random_valid_assignment(rng, 3)
            if classify(a) is not AssignmentClass.VACUOUS:
                assert freedom(a) < 1.0


class TestConditionalFreedom:
    def test_q_one_reduces_to_freedom(self, rng):
        for m in (2, 3, 4, 5):
            a = random_valid_assignment(rng, m)
            assert freedom_conditional(a, 1.0) == pytest.approx(
                freedom(a), abs=1e-12
            )

    def test_two_option_worked_case(self):
        sub = IntervalAssignment(("a", "b"), (0.0, 0.0), (0.5, 0.5))
        assert freedom_conditional(sub, 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_three_option_case_matches_sampling_oracle(self):
        sub = IntervalAssignment(("a", "b", "c"), (0.0, 0.0, 0.0), (0.3, 0.3, 0.3))
        closed = freedom_conditional(sub, 0.6)
        assert closed == pytest.approx(0.09, abs=1e-12)
        est = mc_freedom_conditional(sub, 0.6, 200_000, 11)
        assert_within_4se(closed, est.mean, est.std_error, "conditional M=3")

    @pytest.mark.parametrize("q", [0.0, -0.2, 1.0 + 1e-6])
    def test_domain(self, q):
        a = validate([0, 0], [1, 1])
        with pytest.raises(DomainError):
            freedom_conditional(a, q)


def exactness_cases(gen: SplitMix64, m: int) -> list[tuple[list, list]]:
    """Valid (ne, po) bounds of five kinds at M = m."""
    cases = []
    # distinct widths, full-precision bounds
    ne = [0.1 * gen.random() / m for _ in range(m)]
    cases.append((ne, [min(1.0, n + (1.2 + 1.3 * gen.random()) / m) for n in ne]))
    # a 0.05 decimal grid, each po at least 1/m: many equal widths
    low = -(-20 // m)
    cases.append(([0.0] * m, [0.05 * (low + int(gen.random() * (21 - low)))
                              for _ in range(m)]))
    # one group of equal widths
    cases.append(([0.0] * m, [1.3 / m] * m))
    # one zero width
    ne = [0.5 * gen.random() / m for _ in range(m)]
    po = [min(1.0, n + 3.0 / m) for n in ne]
    k = int(gen.random() * m)
    po[k] = ne[k]
    cases.append((ne, po))
    # distinct widths with sum(po) just above 1: the po vertex is nearer
    raw = [1.0 + gen.random() for _ in range(m)]
    po = [(1.0 + 0.1 * gen.random()) * r / math.fsum(raw) for r in raw]
    cases.append(([0.3 * p * gen.random() for p in po], po))
    return cases


def sweep_at(ne, po, masses, exponent: int) -> tuple[list[int], int]:
    """_sweep's exact sums at the cuts mass - sum(ne), and their divisor."""
    m = len(ne)
    ints, e = _scaled([*ne, *po, *masses])
    lo, hi = ints[:m], ints[m : 2 * m]
    cuts = [t - sum(lo) for t in ints[2 * m :]]
    return _sweep([p - n for n, p in zip(lo, hi)], cuts, exponent), 1 << (e * exponent)


class TestExactness:
    def test_cancellation_regressions(self):
        # the float recursion returned 0.0 and 3.2318e-11 here
        assert freedom(validate([0.0] * 14, [1.05 / 14] * 14)) == 1.2207031249999877e-17
        assert freedom(validate([0.0] * 16, [1.2 / 16] * 16)) == 3.2313256311222804e-11

    @pytest.mark.parametrize("m", range(2, 13))
    def test_equals_brute_force_sum(self, m):
        gen = SplitMix64(7000 + m)
        cases = exactness_cases(gen, m)
        for ne, po in cases:
            a = validate(ne, po)
            f = brute_volume(a.ne, a.po)
            assert freedom(a) == f
            assert freedom_conditional(a, 1.0) == f
            q = 1.0 - 0.9 * gen.random()
            assert freedom_conditional(a, q) == brute_volume(a.ne, a.po, q)
        # empty regions: the mass is below sum(ne) or above sum(po)
        a = validate(*cases[0])
        assert freedom_conditional(a, 0.9 * sum(a.ne)) == 0.0
        assert freedom_conditional(a, 1.0) > 0.0
        assert brute_volume(a.ne, a.po, 0.9 * sum(a.ne)) == 0.0
        short = IntervalAssignment(tuple("abc"), (0.0,) * 3, (0.3,) * 3)
        assert freedom(short) == 0.0 == brute_volume(short.ne, short.po)


class TestSweep:
    @pytest.mark.parametrize("m", range(2, 13))
    def test_equals_brute_force_at_several_cuts(self, m):
        gen = SplitMix64(7100 + m)
        for ne, po in exactness_cases(gen, m):
            s_ne, s_po = math.fsum(ne), math.fsum(po)
            masses = [
                1.0,
                1.0,  # two equal cuts, as measure --q 1 asks
                s_ne + (1.0 - s_ne) * gen.random(),
                0.9 * s_ne - 0.01,  # a cut below 0
                s_ne,  # a cut at or near 0
                s_po + 0.5 * gen.random(),  # a cut above the sum of the widths
            ]
            # exponent M - 1 is the volume; exponent M is each half of
            # sensitivity's split, which is not 0 above the sum of the widths
            for n in (m - 1, m):
                sums, scale = sweep_at(ne, po, masses, n)
                brute = {x: brute_volume(ne, po, x, n) for x in set(masses)}
                assert [s / scale for s in sums] == [brute[x] for x in masses]

    @pytest.mark.parametrize("m", range(2, 13))
    def test_measure_zero_regions_sum_to_exactly_zero(self, m):
        # _volumes returns 0.0 for these without sweeping them, whichever
        # option it splits on; the exact sums must be 0 as well
        gen = SplitMix64(7200 + m)
        cases = exactness_cases(gen, m)
        for ne, po in cases:
            s_ne, s_po = math.fsum(ne), math.fsum(po)
            # at or beyond sum(po), and at or below sum(ne): fsum is correctly
            # rounded, so one step past it lies past the exact sum
            masses = [math.nextafter(s_po, math.inf), s_po + 0.25,
                      math.nextafter(s_ne, -math.inf), 0.5 * s_ne - 0.01]
            assert sweep_at(ne, po, masses, m - 1)[0] == [0] * 4
            for k in range(m):
                terms = [(t, ne[k], po[k]) for t in masses]
                assert _volumes(ne, po, k, terms) == [0.0] * 4, f"k = {k}"
        ne, po = cases[3]  # a zero width: every mass
        masses = [0.25, 0.5, 1.0, 1.0]
        assert sweep_at(ne, po, masses, m - 1)[0] == [0] * 4
        for k in range(m):
            terms = [(t, ne[k], po[k]) for t in masses]
            assert _volumes(ne, po, k, terms) == [0.0] * 4, f"k = {k}"


class TestVolumes:
    @pytest.mark.parametrize("m", range(2, 13))
    def test_every_split_equals_brute_force(self, m):
        # splitting on any option k gives the same float, the Fraction sum
        # rounded once, at any mass and with k's bounds replaced
        gen = SplitMix64(7400 + m)
        for ne, po in exactness_cases(gen, m):
            s_ne = math.fsum(ne)
            masses = [1.0, s_ne + (1.0 - s_ne) * gen.random(), 1.0 - 0.9 * gen.random()]
            want = [brute_volume(ne, po, t) for t in masses]
            for k in range(m):
                terms = [(t, ne[k], po[k]) for t in masses]
                assert _volumes(ne, po, k, terms) == want, f"k = {k}"
            # one option narrowed from either side, as sensitivity asks
            k = int(gen.random() * m)
            cut = ne[k] + (po[k] - ne[k]) * gen.random()
            narrowed = [(1.0, ne[k], cut), (1.0, cut, po[k])]
            assert _volumes(ne, po, k, narrowed) == [
                brute_volume([*ne[:k], n, *ne[k + 1:]], [*po[:k], p, *po[k + 1:]])
                for _, n, p in narrowed
            ]

    def test_measure_zero_terms_are_not_swept(self, monkeypatch):
        def no_sweep(*args):
            raise AssertionError("a measure-zero term reached _sweep")

        monkeypatch.setattr("simplexfreedom.measures._sweep", no_sweep)
        ne, po = [0.125, 0.25, 0.0], [0.5, 0.625, 0.75]  # sums 0.375 and 1.875
        for k in range(3):
            terms = [
                (1.0, ne[k], ne[k]),  # option k point-valued
                (1.0, po[k], ne[k]),  # option k's bounds reversed
                (0.375, ne[k], po[k]),  # the mass at sum(ne)
                (0.25, ne[k], po[k]),  # below it
                (1.875, ne[k], po[k]),  # the mass at sum(po)
                (2.0, ne[k], po[k]),  # above it
            ]
            assert _volumes(ne, po, k, terms) == [0.0] * 6, f"k = {k}"
        # a zero width among the other options
        assert _volumes(ne, [0.125, 0.625, 0.75], 1, [(1.0, 0.25, 0.625)]) == [0.0]
        # a point-valued option 0, which freedom and its kin split on
        a = validate([0.25, 0.0, 0.0], [0.25, 1.0, 1.0])
        assert freedom(a) == 0.0
        assert measure_report(a, 0.5).conditional_freedom == 0.0

    def test_no_width_elsewhere_returns_before_scaling(self, monkeypatch):
        def no_scaling(values):
            raise AssertionError("bounds of a measure-zero region were scaled")

        monkeypatch.setattr("simplexfreedom.measures._scaled", no_scaling)
        terms = [(1.0, 0.0, 0.75), (0.5, 0.25, 0.5)]
        for n, p in [(0.375, 0.375), (0.625, 0.125)]:  # zero width, crossed
            ne, po = [0.125, 0.25, n], [0.5, 0.625, p]
            for k in (0, 1):
                assert _volumes(ne, po, k, terms) == [0.0, 0.0], (n, p, k)


def tight_input(m: int) -> IntervalAssignment:
    """ne = 0 and distinct widths, sum(po) about 1.02 and every po_i above
    sum(po) - 1: from the po vertex the region is an uncut corner simplex."""
    gen = SplitMix64(7600 + m)
    raw = [gen.random() for _ in range(m)]
    po = [0.02 + (1.02 - 0.02 * m) * r / math.fsum(raw) for r in raw]
    assert len(set(po)) == m and min(po) > sum(map(Fraction, po)) - 1 > 0
    return validate([0.0] * m, po)


class Swept(Exception):
    """Raised by a _sweep spy in place of running the sweep."""


class TestVertices:
    def test_both_vertices_equal_brute_force(self, monkeypatch):
        # each request sums from the vertex nearer its mass t: the largest
        # cut swept is min(t - sum(ne), sum(po) - t), scaled, and both give
        # the Fraction sum rounded once
        tops = []

        def spy(widths, cuts, exponent):
            tops.append(max(cuts))
            return _sweep(widths, cuts, exponent)

        monkeypatch.setattr("simplexfreedom.measures._sweep", spy)
        seen = set()
        for m in range(2, 13):
            gen = SplitMix64(7500 + m)
            for ne, po in exactness_cases(gen, m):
                a = validate(ne, po)
                s_ne = sum(map(Fraction, a.ne))
                s_po = sum(map(Fraction, a.po))
                # a mass near sum(ne) and one near 1
                near_ne = float(s_ne) + (1.0 - float(s_ne)) * 0.2 * gen.random()
                for t in (1.0, near_ne, 1.0 - 0.02 * gen.random()):
                    tops.clear()
                    got = freedom(a) if t == 1.0 else freedom_conditional(a, t)
                    assert got == brute_volume(a.ne, a.po, t), (m, ne, po, t)
                    if not tops:  # a measure-zero region is not swept
                        continue
                    e = _scaled([*a.ne, *a.po, t])[1]
                    below, above = Fraction(t) - s_ne, s_po - Fraction(t)
                    assert tops == [min(below, above) * 2**e], (m, ne, po, t)
                    seen.add((t == 1.0, "po" if above < below else "ne"))
        assert seen == {(True, "ne"), (True, "po"), (False, "ne"), (False, "po")}

    def test_each_mass_sums_from_its_own_vertex(self, monkeypatch):
        # measure --q sums F and the conditional in one sweep, each mass from
        # the vertex nearer it: the largest cut swept is the largest over the
        # masses of min(t - sum(ne), sum(po) - t), scaled
        tops = []

        def spy(widths, cuts, exponent):
            tops.append(max(cuts))
            return _sweep(widths, cuts, exponent)

        monkeypatch.setattr("simplexfreedom.measures._sweep", spy)
        # tight inputs: mass 1 lies near the po vertex and q near the ne one
        inputs = [(tight_input(m), q) for m, q in ((10, 0.3), (14, 0.5), (24, 0.3))]
        for m in range(3, 13):
            gen = SplitMix64(7800 + m)
            inputs += [(validate(ne, po), 1.0 - 0.9 * gen.random())
                       for ne, po in exactness_cases(gen, m)]
        opposite = 0
        for a, q in inputs:
            tops.clear()
            rep = measure_report(a, q)
            if a.m <= 14:  # the Fraction sum visits all 2^M subsets
                assert rep.freedom == brute_volume(a.ne, a.po)
                assert rep.conditional_freedom == brute_volume(a.ne, a.po, q)
            if not tops:  # both regions have measure zero
                continue
            s_ne = sum(map(Fraction, a.ne))
            s_po = sum(map(Fraction, a.po))
            e = _scaled([*a.ne, *a.po, 1.0, q])[1]
            near = {t: (Fraction(t) - s_ne, s_po - Fraction(t)) for t in (1.0, q)}
            live = [min(d) for d in near.values() if min(d) > 0]
            assert tops == [max(live) * 2**e], (a, q)
            sides = {below < above for below, above in near.values()}
            opposite += len(live) == 2 and len(sides) == 2
        assert opposite

    def test_tight_input_sweeps_from_the_po_vertex(self, monkeypatch):
        # from the ne vertex this sweep prunes at 1 and takes tens of ms
        a = tight_input(24)

        def spy(widths, cuts, exponent):
            raise Swept(max(cuts))

        monkeypatch.setattr("simplexfreedom.measures._sweep", spy)
        with pytest.raises(Swept) as info:
            freedom(a)
        ints, e = _scaled([*a.ne, *a.po, 1.0])
        assert info.value.args == (sum(ints[24:48]) - (1 << e),)

    def test_tight_input_past_the_cap(self):
        # no width is below sum(po) - 1, so from the po vertex the region is
        # the whole corner simplex of that mass
        a = tight_input(48)
        start = time.perf_counter()
        f = freedom(a)
        elapsed = time.perf_counter() - start
        assert f == float((sum(map(Fraction, a.po)) - 1) ** 47)
        assert elapsed < 0.5, f"{elapsed:.3f} s"

    def test_split_on_the_least_shared_width(self, monkeypatch):
        # the split option k is taken out of the sweep; where some width is
        # unique, k's is, and the value is the one any split gives
        swept = []

        def spy(widths, cuts, exponent):
            swept.append(widths)
            return _sweep(widths, cuts, exponent)

        monkeypatch.setattr("simplexfreedom.measures._sweep", spy)
        with_unique = without = 0
        for seed in range(80):
            gen = SplitMix64(7700 + seed)
            m = 3 + seed % 10
            low = -(-20 // m)  # three levels of a 0.05 grid, each at least 1/m
            levels = [0.05 * (low + int(gen.random() * (21 - low))) for _ in range(3)]
            po = [levels[int(gen.random() * 3)] for _ in range(m)]
            ne = [0.0] * m
            q = 1.0 - 0.5 * gen.random()
            swept.clear()
            rep = measure_report(validate(ne, po), q)
            if not swept:  # sum(po) = 1 exactly: measure zero
                continue
            (kept,) = swept
            terms = [(1.0, ne[0], po[0]), (q, ne[0], po[0])]
            assert [rep.freedom, rep.conditional_freedom] == _volumes(ne, po, 0, terms)
            widths = Counter(_scaled([*ne, *po, 1.0, q])[0][m : 2 * m])
            (left,) = (widths - Counter(kept)).elements()
            if 1 in widths.values():
                assert widths[left] == 1, f"seed {seed}"
                with_unique += 1
            else:
                without += 1
        assert with_unique and without


def groupings(n: int, top: int):
    """Every way to group n widths into groups of equal width: the integer
    partitions of n into parts of at most top, as lists of group sizes."""
    if n == 0:
        yield []
    for c in range(min(n, top), 0, -1):
        for rest in groupings(n - c, c):
            yield [c, *rest]


class TestWorkLimit:
    def test_no_input_of_24_options_passes_it(self, monkeypatch):
        # every grouping of the 1..23 widths besides the split option, with
        # 1..4 cuts: no width sum reaches a cut, so no subset is pruned, and
        # each half must still fit the room _sweep gives it at exponent 23
        fits = []

        def spy(groups, base, room):
            size = math.prod(c + 1 for _, c in groups)
            fits.append((size, room))
            if len(fits) % 2 == 0:
                raise Swept()  # both halves checked; skip the sweep itself
            return [(0, 1)] * size

        monkeypatch.setattr("simplexfreedom.measures._width_sums", spy)
        count = 0
        for n in range(1, 24):
            for sizes in groupings(n, n):
                count += 1
                widths = [w + 1 for w, c in enumerate(sizes) for _ in range(c)]
                for cuts in range(1, 5):
                    with pytest.raises(Swept):
                        _sweep(widths, [n + 1 + v for v in range(cuts)], 23)
        assert count == 5762
        assert all(size <= room for size, room in fits)
        # and the limit is no looser than that: 23 distinct widths and 4 cuts
        # fill it exactly
        assert any(size == room for size, room in fits)

    def test_worst_inputs_of_24_options_are_admitted(self):
        a = hard_input(24)
        vac = validate([0.0] * 24, [*hard_input(23).po, 1.0])
        assert 0.0 < freedom(a) < 1.0
        assert measure_report(a, 0.7).conditional_freedom > 0.0
        assert impact_compare(a, 0, 0.01).loss_from_po > 0.0
        assert imposition_compare(vac, 23, 0.3).loss_from_ne > 0.0

    def test_entry_points_refuse_the_hard_input_quickly(self):
        a = hard_input(25)
        vac = validate([0.0] * 25, [*hard_input(24).po, 1.0])
        # one point-valued option: its complement keeps the 25 hard options
        pointed = validate([*a.ne, 0.001], [*a.po, 0.001])
        calls = {
            "freedom": lambda: freedom(a),
            "freedom_conditional": lambda: freedom_conditional(a, 0.99),
            "normed_freedom": lambda: normed_freedom(a),
            "measure_report": lambda: measure_report(a, 0.99),
            "subset_scan": lambda: subset_scan(pointed),
            "impact_compare": lambda: impact_compare(a, 0, 0.01),
            "imposition_compare": lambda: imposition_compare(vac, 24, 0.3),
        }
        for name, call in calls.items():
            best = math.inf
            for _ in range(3):
                start = time.perf_counter()
                with pytest.raises(CapExceeded):
                    call()
                best = min(best, time.perf_counter() - start)
            assert best < 0.05, f"{name}: {best:.3f} s"


def split_case(kind: str, m: int):
    """(ne, po, k, terms) for _volumes at M = m, at most four cuts.
    ``distinct``: distinct widths, with option k narrowed from either side
    at mass 1.  ``grouped``: masses 1 and t on a 0.05 grid on which the
    narrowest width besides option k's is shared, so the split option is
    taken out of a group.  ``low cuts``: distinct widths at mass 1 and at a
    mass just above sum(ne), whose cuts lie below the narrowest width, so
    that they shift to <= 0."""
    gen = SplitMix64(9300 + m)
    if kind == "grouped":
        units = [1, 1] + [2 + int(gen.random() * 4) for _ in range(m - 2)]
        ne, po, k = [0.0] * m, [0.05 * u for u in units], m - 1
    else:
        ne = [0.1 * gen.random() / m for _ in range(m)]
        po = [n + (1.2 + 1.3 * gen.random()) / m for n in ne]
        k = int(gen.random() * m)
    s_ne = math.fsum(ne)
    if kind == "distinct":  # sensitivity's narrowing
        cut = ne[k] + (po[k] - ne[k]) * gen.random()
        return ne, po, k, [(1.0, ne[k], po[k]), (1.0, ne[k], cut), (1.0, cut, po[k])]
    if kind == "grouped":
        t = s_ne + (1.0 - s_ne) * gen.random()
    else:
        t = s_ne + 0.5 * min(p - n for n, p in zip(ne, po))
    return ne, po, k, [(1.0, ne[k], po[k]), (t, ne[k], po[k])]


def corpus_input(m: int) -> IntervalAssignment:
    """Distinct widths with sum(ne) = 0.1 and sum(po) = 2, as in the
    closed-form-distinct benchmark."""
    gen = SplitMix64(9400 + m)
    po = [0.6 + 0.8 * gen.random() for _ in range(m)]
    ne = [p * 0.2 * gen.random() for p in po]
    return validate([n * 0.1 / math.fsum(ne) for n in ne], [p * 2.0 / math.fsum(po) for p in po])


class TestSplitSweep:
    """Part of a large sweep is summed in the helper process
    (_split_sweep): no bit, and no CapExceeded, may depend on it."""

    @pytest.fixture
    def lend_always(self, monkeypatch, fresh_helper):
        # every sweep lends, and the first one forks the helper
        monkeypatch.setattr(measures, "_LEND", 0)
        monkeypatch.setattr(measures, "_FORK", -1)

    @pytest.mark.parametrize("kind", ["distinct", "grouped", "low cuts"])
    @pytest.mark.parametrize("m", range(13, 25))
    def test_lent_volumes_equal_one_process_volumes(self, monkeypatch, lend_always, m, kind):
        ne, po, k, terms = split_case(kind, m)
        rest = [p - n for i, (n, p) in enumerate(zip(ne, po)) if i != k]
        if kind == "grouped":  # the narrowest is one of a group
            assert Counter(rest)[min(rest)] == 2
        if kind == "low cuts":  # the second mass's cuts are below it
            assert terms[1][0] - math.fsum(ne) < min(rest)
        values = assert_helper_on_and_off(
            monkeypatch, lambda: [v.hex() for v in _volumes(ne, po, k, terms)], 1
        )
        assert float.fromhex(values[0]) > 0.0

    def test_split_sweep_equals_sweep(self, monkeypatch, lend_always):
        # the narrowest width, 3, is one of a group of three, and the cuts
        # at or below it shift to <= 0
        widths = [3, 3, 3, 5, 7, 7, 11, 13, 17, 19, 23]
        cuts = [-4, 0, 2, 3, 30, 60]
        want = _sweep(widths, cuts, 11)
        assert want[-1] != 0
        run = lambda: _split_sweep(widths, cuts, 11)  # noqa: E731
        assert assert_helper_on_and_off(monkeypatch, run, 1) == want

    def test_hard_inputs_past_the_limit_are_refused_as_before(self, monkeypatch, fresh_helper):
        # M = 25..40 raise the same CapExceeded while a helper is running,
        # and lend it nothing
        monkeypatch.setattr(measures, "_FORK", -1)
        monkeypatch.setattr(helper, "_WORKERS", 2)
        assert helper.lend(abs, (-1,), lambda: 0) == (0, 1)

        def run():
            messages = []
            for m in range(25, 41):
                for call in (freedom, lambda a: measure_report(a, 0.99)):
                    with pytest.raises(CapExceeded) as info:
                        call(hard_input(m))
                    messages.append(str(info.value))
            return messages

        messages = assert_helper_on_and_off(monkeypatch, run, 0)
        assert helper._process is not None
        assert all(msg.startswith("the closed form would keep over") for msg in messages)

    def test_lends_past_the_break_even_and_forks_past_the_fork_cost(
        self, monkeypatch, fresh_helper
    ):
        # a fresh process: M = 14 is below the break-even and never lends;
        # M = 16 is above it, but one such sweep saves less than a fork
        # costs; one hard M = 24 sweep saves more, and forks the helper,
        # which the next M = 16 sweep then borrows
        monkeypatch.setattr(measures, "_forgone", 0)
        monkeypatch.setattr(helper, "_WORKERS", 2)
        lent = []
        real = helper.lend
        monkeypatch.setattr(
            helper, "lend", lambda *args, **kw: lent.append(real(*args, **kw)) or lent[-1]
        )
        small, large = corpus_input(14), corpus_input(16)
        steps = [(small, [], False), (large, [False], False),
                 (hard_input(24), [True], True), (large, [True], True)]
        reports = []
        for a, lends, forked in steps:
            lent.clear()
            reports.append(measure_report(a, 0.9))
            assert [r is not None for r in lent] == lends
            assert (helper._process is not None) == forked
        assert reports[1] == reports[3]


class TestNormedFreedom:
    def test_three_option_square_root(self):
        assert normed_freedom(validate([0, 0, 0], [0.5, 0.5, 0.5])) == 0.5

    def test_two_options_equals_freedom(self, rng):
        for _ in range(20):
            a = random_valid_assignment(rng, 2)
            assert normed_freedom(a) == freedom(a)

    def test_vacuous(self):
        assert normed_freedom(validate([0, 0, 0, 0], [1, 1, 1, 1])) == 1.0


class TestPossibilityOnlyMeasures:
    def test_yager_worked_values(self):
        assert yager_ambiguity(validate([0.6, 0.2], [0.8, 0.4])) == pytest.approx(
            0.4, abs=1e-12
        )
        assert yager_ambiguity(validate([0.6, 0.0], [1.0, 0.4])) == pytest.approx(
            0.2, abs=1e-12
        )

    def test_yager_crisp_singleton(self):
        assert yager_ambiguity(validate([0, 0, 0], [1, 0, 0])) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_hartley_worked_values(self):
        assert hartley_nonspecificity(
            validate([0.4, 0.0], [1.0, 0.6])
        ) == pytest.approx(0.6, abs=1e-12)
        assert hartley_nonspecificity(
            validate([0.3, 0.3], [0.7, 0.7])
        ) == pytest.approx(0.7, abs=1e-12)
        assert hartley_nonspecificity(
            validate([0, 0, 0], [0.5, 0.5, 0.5])
        ) == pytest.approx(0.5 * math.log2(3), abs=1e-12)

    def test_hartley_crisp(self):
        assert hartley_nonspecificity(validate([0, 0], [1, 0])) == 0.0

    def test_hartley_ignores_top_possibility(self):
        low = validate([0, 0, 0], [0.5, 0.5, 0.5])
        high = validate([0, 0, 0], [1.0, 0.5, 0.5])
        assert hartley_nonspecificity(low) == hartley_nonspecificity(high)
        assert freedom(high) == pytest.approx(2 * freedom(low), abs=1e-12)

    def test_orderings_oppose_freedom(self):
        # ambiguity ranks the two-option cases opposite to freedom
        a1 = validate([0.6, 0.2], [0.8, 0.4])
        a2 = validate([0.6, 0.0], [1.0, 0.4])
        assert yager_ambiguity(a1) > yager_ambiguity(a2)
        assert freedom(a1) < freedom(a2)
        # and so does the bit count on the second pair
        b1 = validate([0.4, 0.0], [1.0, 0.6])
        b2 = validate([0.3, 0.3], [0.7, 0.7])
        assert hartley_nonspecificity(b1) < hartley_nonspecificity(b2)
        assert freedom(b1) > freedom(b2)

    def test_first_order_uncertainty_separation(self):
        # point probabilities: no second-order uncertainty, yet A and I > 0
        a = validate([0.6, 0.4], [0.6, 0.4])
        assert freedom(a) == 0.0
        assert yager_ambiguity(a) > 0.0
        assert hartley_nonspecificity(a) > 0.0


class TestMeasureReport:
    def test_worked_case(self):
        rep = measure_report(validate([0.6, 0.2], [0.8, 0.4]))
        assert rep.freedom == pytest.approx(0.2, abs=1e-12)
        assert rep.yager_ambiguity == pytest.approx(0.4, abs=1e-12)
        # (0.8-0.4)*log2(1) + 0.4*log2(2) = 0.4
        assert rep.hartley_nonspecificity == pytest.approx(0.4, abs=1e-12)
        assert rep.normed_freedom == pytest.approx(0.2, abs=1e-12)
        assert rep.m == 2

    def test_vacuous_two_options(self):
        rep = measure_report(validate([0, 0], [1, 1]))
        assert rep.freedom == 1.0
        assert rep.yager_ambiguity == pytest.approx(0.5, abs=1e-12)
        assert rep.hartley_nonspecificity == pytest.approx(1.0, abs=1e-12)
        assert rep.normed_freedom == 1.0

    def test_point(self):
        rep = measure_report(validate([0.3, 0.7], [0.3, 0.7]))
        assert rep.freedom == 0.0
        assert rep.normed_freedom == 0.0

    def test_with_conditional(self):
        rep = measure_report(validate([0, 0], [1, 1]), q=0.5)
        assert rep.q == 0.5
        assert rep.conditional_freedom == pytest.approx(0.5, abs=1e-12)

    def test_one_sweep_equals_separate_calls(self):
        zero_width = empty_at_q = 0
        for seed in range(351):
            gen = SplitMix64(7300 + seed)
            m = 2 + seed % 13
            a = random_valid_assignment(gen, m)
            if seed % 7 == 0:  # a point-valued option: F = 0
                k = int(gen.random() * m)
                po = list(a.po)
                po[k] = a.ne[k]
                a = IntervalAssignment(a.options, a.ne, tuple(po))
                zero_width += 1
            # q = 1 (two equal cuts), q below sum(ne) (an empty slice), any q
            q = [1.0, 0.5 * math.fsum(a.ne), 1.0 - gen.random()][seed % 3] or 0.5
            empty_at_q += q <= math.fsum(a.ne)
            rep = measure_report(a, q)
            assert rep.freedom == freedom(a), f"seed {seed}"
            assert rep.conditional_freedom == freedom_conditional(a, q), f"seed {seed}"
            assert rep.normed_freedom == normed_freedom(a)
            assert rep.q == q
        assert zero_width and empty_at_q

    def test_reports_the_q_it_used(self):
        a = validate([0, 0, 0], [1, 1, 1])
        rep = measure_report(a, q=np.float32(0.9))
        assert type(rep.q) is float and rep.q == 0.8999999761581421
        assert rep.conditional_freedom == freedom_conditional(a, 0.8999999761581421)
        rep = measure_report(a, q=1)
        assert type(rep.q) is float and rep.q == 1.0
        assert measure_report(a).q is None

    def test_errors_keep_their_order(self):
        # q is checked before the sweep, which alone meets the work limit
        big = hard_input(25)
        with pytest.raises(DomainError, match=r"^q = 1.5 outside \(0, 1\]$"):
            measure_report(big, 1.5)
        with pytest.raises(CapExceeded, match=r"^the closed form would keep over"):
            measure_report(big, 0.99)
        a = validate([0, 0, 0], [1, 1, 1])
        for q in (0.0, 1.5):
            with pytest.raises(DomainError, match=rf"^q = {q} outside \(0, 1\]$"):
                measure_report(a, q)


def brute_entry(a: IntervalAssignment, kept: list[int]) -> SubsetEntry:
    """The entry of one kept subset whose complement is point-valued, through
    freedom_conditional."""
    rest = [j for j in range(a.m) if j not in kept]
    q = 1.0 - math.fsum(a.ne[j] for j in rest)
    if q <= 1e-12:
        value, q = 0.0, max(q, 0.0)
    else:
        sub = IntervalAssignment(
            tuple(a.options[i] for i in kept),
            tuple(a.ne[i] for i in kept),
            tuple(a.po[i] for i in kept),
        )
        value = freedom_conditional(sub, q)
    return SubsetEntry(tuple(kept), tuple(a.options[i] for i in kept), q, value)


def brute_scan(a: IntervalAssignment) -> SubsetScan:
    """subset_scan by its definition: every one of the 2^M masks, filtered,
    and each kept subset through brute_entry."""
    m = a.m
    entries = []
    omitted = 0
    for mask in range(1, 1 << m):
        kept = [i for i in range(m) if mask >> i & 1]
        rest = [i for i in range(m) if not mask >> i & 1]
        if not 2 <= len(kept) < m:
            continue
        if any(a.po[j] - a.ne[j] > TOLERANCE for j in rest):
            omitted += 1
            continue
        entries.append(brute_entry(a, kept))
    return SubsetScan(tuple(entries), omitted)


def scan_input(seed: int) -> IntervalAssignment:
    """M = 3 + seed % 10 options, 0..M of them point-valued, each exactly or
    within TOLERANCE.  On every third seed the points hold all the mass, so
    the complement of all of them leaves q <= 1e-12 (or a few 1e-9)."""
    gen = SplitMix64(9100 + seed)
    m = 3 + seed % 10
    points = set(i for i in range(m) if gen.random() < gen.random())
    absorb = seed % 3 == 0 and points
    weights = [gen.random() if i in points or not absorb else 0.0 for i in range(m)]
    p = [w / math.fsum(weights) for w in weights]
    ne, po = [], []
    for i in range(m):
        if i in points:
            jitter = 0.9 * TOLERANCE * gen.random() if gen.random() < 0.5 else 0.0
            if gen.random() < 0.5:
                ne.append(p[i])
                po.append(min(1.0, p[i] + jitter))
            else:
                ne.append(max(0.0, p[i] - jitter))
                po.append(p[i])
        else:
            ne.append(p[i] * gen.random())
            po.append(p[i] + (1.0 - p[i]) * gen.random())
    return IntervalAssignment(tuple(f"o{i}" for i in range(m)), tuple(ne), tuple(po))


class TestSubsetScan:
    def test_equals_brute_force_over_all_masks(self):
        counts = {"entries": 0, "omitted": 0, "no_mass": 0, "within_tolerance": 0}
        for seed in range(500):
            a = scan_input(seed)
            scan = subset_scan(a)
            assert scan == brute_scan(a), f"seed {seed}"
            counts["entries"] += len(scan.entries)
            counts["omitted"] += scan.omitted
            counts["no_mass"] += sum(e.q <= 1e-12 for e in scan.entries)
            counts["within_tolerance"] += any(
                0 < p - n <= TOLERANCE for n, p in zip(a.ne, a.po)
            )
        # the inputs reach every branch
        assert all(counts.values()), counts

    def test_cap_size_without_point_values_visits_nothing(self):
        a = validate([0.0] * 24, [0.5] * 24)
        start = time.perf_counter()
        scan = subset_scan(a)
        elapsed = time.perf_counter() - start
        assert scan.entries == ()
        assert scan.omitted == 2**24 - 24 - 2 == 16_777_190
        assert elapsed < 1.0

    def test_one_point_valued_complement(self):
        a = validate([0.0, 0.0, 0.5], [0.5, 0.5, 0.5])
        scan = subset_scan(a)
        assert len(scan.entries) == 1
        entry = scan.entries[0]
        assert entry.indices == (0, 1)
        assert entry.q == pytest.approx(0.5, abs=1e-12)
        assert entry.conditional_freedom == pytest.approx(0.5, abs=1e-12)
        assert scan.omitted == 2

    def test_all_interval_valued(self):
        a = validate([0.1, 0.1, 0.1, 0.1], [0.9, 0.9, 0.9, 0.9])
        scan = subset_scan(a)
        assert scan.entries == ()
        assert scan.omitted == 2**4 - 4 - 2

    def test_all_point_valued(self):
        a = validate([0.2, 0.3, 0.5], [0.2, 0.3, 0.5])
        scan = subset_scan(a)
        assert len(scan.entries) == 3
        assert scan.omitted == 0
        assert all(e.conditional_freedom == 0.0 for e in scan.entries)

    def test_requires_three_options(self):
        with pytest.raises(ValidationError):
            subset_scan(validate([0, 0], [1, 1]))

    def test_zero_mass_subset(self):
        # the complement absorbs all mass; the retained pair has none left
        a = validate([0.0, 0.0, 1.0], [0.0, 0.0, 1.0])
        scan = subset_scan(a)
        pair = [e for e in scan.entries if e.indices == (0, 1)]
        assert pair and pair[0].q == 0.0
        assert pair[0].conditional_freedom == 0.0

    def test_thirty_options_with_two_points(self):
        # P, not M, bounds the scan.  brute_scan's 2^30 masks are too many to
        # walk, but only three of them keep a subset with a point-valued
        # complement, in this order of kept mask: all but {4, 17}, {17}, {4}
        po = [0.05 * (2 + i % 3) for i in range(30)]
        ne = [0.0] * 30
        ne[4] = po[4] = 0.1
        ne[17] = po[17] = 0.25
        a = validate(ne, po)
        scan = subset_scan(a)
        kept = [[i for i in range(30) if i not in rest] for rest in ({4, 17}, {17}, {4})]
        assert scan == SubsetScan(
            tuple(brute_entry(a, k) for k in kept), 2**30 - 30 - 2 - 3
        )
        # a kept point-valued option leaves the slice no volume
        assert [e.conditional_freedom > 0.0 for e in scan.entries] == [True, False, False]

    def test_only_entries_without_kept_points_are_scaled(self, monkeypatch):
        # every entry keeps both interval options, of distinct widths, so
        # each split is on one of them; the 4,094 that also keep an exact
        # point are 0 before any scaling
        scaled = []
        monkeypatch.setattr(
            "simplexfreedom.measures._scaled",
            lambda values: scaled.append(values) or _scaled(values),
        )
        a = validate([0.0, 0.0] + [0.05] * 12, [0.5, 0.375] + [0.05] * 12)
        scan = subset_scan(a)
        assert len(scaled) == 1
        assert len(scan.entries) == 2**12 - 1
        assert [e.indices for e in scan.entries if e.conditional_freedom] == [(0, 1)]

    def test_entries_keeping_a_flat_option_are_not_swept(self, monkeypatch):
        # of the 2^14 - 1 entries of 2 interval options and 14 exact points,
        # only the one that keeps no point reaches _box_volumes; the others
        # are exactly 0, as _volumes would find
        swept = []
        real = measures._box_volumes
        monkeypatch.setattr(
            measures, "_box_volumes", lambda *args: swept.append(args) or real(*args)
        )
        a = validate([0.0, 0.0] + [0.05] * 14, [0.5, 0.5] + [0.05] * 14)
        scan = subset_scan(a)
        assert len(scan.entries) == 2**14 - 1
        assert len(swept) == 1
        assert [e.indices for e in scan.entries if e.conditional_freedom] == [(0, 1)]
        head = scan.entries[:50]
        assert head == tuple(brute_entry(a, list(e.indices)) for e in head)

    def test_refuses_25_points_before_listing(self, monkeypatch):
        listed = []
        monkeypatch.setattr(
            "simplexfreedom.measures._box_volumes", lambda *args: listed.append(args)
        )
        a = validate([0.01] * 25 + [0.0, 0.0], [0.01] * 25 + [1.0, 1.0])
        with pytest.raises(
            CapExceeded,
            match=r"^25 point-valued options would list 2\^25 subsets; "
            r"the scan lists at most 2\^24$",
        ):
            subset_scan(a)
        assert listed == []
