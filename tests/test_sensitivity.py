"""Possibility- versus necessity-side impact on freedom."""

from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from simplexfreedom import (
    CapExceeded,
    DomainError,
    IndexOutOfRange,
    IntervalAssignment,
    InvalidPerturbation,
    NE_DOMINATES,
    NotVacuous,
    PO_DOMINATES,
    SplitMix64,
    TIE,
    dominance_condition,
    freedom,
    impact_compare,
    imposition_compare,
    validate,
)

from simplexfreedom.measures import _scaled, _sweep, _volumes

from conftest import brute_volume, hard_input, random_valid_assignment


class TestDominanceCondition:
    def test_holds(self):
        a = validate([0.1, 0.1, 0.0], [0.3, 0.3, 1.0])
        assert dominance_condition(a, 2) is True  # 0.2 < 1 - 0.6

    def test_fails(self):
        a = validate([0.2, 0.2, 0.0], [0.5, 0.5, 1.0])
        assert dominance_condition(a, 2) is False  # 0.4 >= 1 - 1.0

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_vacuous_always_fails(self, m):
        a = validate([0.0] * m, [1.0] * m)
        assert all(not dominance_condition(a, k) for k in range(m))

    def test_index_out_of_range(self):
        a = validate([0, 0], [1, 1])
        with pytest.raises(IndexOutOfRange):
            dominance_condition(a, 2)
        with pytest.raises(IndexOutOfRange):
            dominance_condition(a, -1)


class TestIndexType:
    @pytest.mark.parametrize("k", [0.5, 1.0, "1"])
    def test_non_integral_index(self, k):
        a = validate([0, 0], [1, 1])
        message = re.escape(f"index must be an integer, got {k!r}")
        for compare in (
            lambda: dominance_condition(a, k),
            lambda: impact_compare(a, k, 0.1),
            lambda: imposition_compare(a, k, 0.1),
        ):
            with pytest.raises(DomainError, match=message):
                compare()

    def test_numpy_integers_pass_as_ints(self):
        a = validate([0.1, 0.1, 0.0], [0.3, 0.3, 1.0])
        assert dominance_condition(a, np.int64(2)) is dominance_condition(a, 2) is True
        for compare in (impact_compare, imposition_compare):
            rep = compare(a, np.int64(2), 0.1)
            assert rep == compare(a, 2, 0.1)
            assert type(rep.index) is int


class TestImpactCompare:
    def test_zero_delta_is_tie(self):
        a = validate([0.1, 0.1, 0.0], [0.3, 0.3, 1.0])
        rep = impact_compare(a, 2, 0.0)
        assert rep.loss_from_po == 0.0 and rep.loss_from_ne == 0.0
        assert rep.verdict == TIE

    def test_condition_failing_case_exact_losses(self):
        # worked by expanding the M=3 closed form at both perturbations
        a = validate([0.2, 0.2, 0.0], [0.6, 0.6, 1.0])
        rep = impact_compare(a, 2, 0.1)
        assert rep.condition_holds is False
        assert rep.loss_from_po == pytest.approx(0.0, abs=1e-12)
        assert rep.loss_from_ne == pytest.approx(0.05, abs=1e-12)
        assert rep.verdict == NE_DOMINATES

    def test_slack_bound_absorbs_perturbation(self):
        # coordinate 3's raw bounds have reachable slack (tight form is
        # [0.4, 0.8]), so a 0.1 change of either raw bound moves nothing
        a = validate([0.1, 0.1, 0.0], [0.3, 0.3, 1.0])
        rep = impact_compare(a, 2, 0.1)
        assert rep.condition_holds is True
        assert rep.loss_from_po == pytest.approx(0.0, abs=1e-12)
        assert rep.loss_from_ne == pytest.approx(0.0, abs=1e-12)
        assert rep.verdict == TIE

    def test_condition_does_not_decide_interior_perturbations(self):
        # tight bounds, condition true, yet the necessity side removes more:
        # the condition is exact for impositions on a vacuous coordinate,
        # not for interior perturbations (see imposition tests below)
        a = validate([0.7, 0.05, 0.05], [0.8, 0.25, 0.25])
        rep = impact_compare(a, 0, 0.05)
        assert rep.condition_holds is True
        assert rep.loss_from_po == pytest.approx(0.0125, abs=1e-12)
        assert rep.loss_from_ne == pytest.approx(0.0175, abs=1e-12)
        assert rep.verdict == NE_DOMINATES

    def test_invalid_perturbation_width(self):
        a = validate([0.3, 0.3], [0.5, 0.7])
        with pytest.raises(InvalidPerturbation):
            impact_compare(a, 0, 0.3)  # po - delta falls below ne

    def test_invalid_perturbation_feasibility(self):
        a = validate([0.0, 0.0], [0.5, 0.5])
        with pytest.raises(InvalidPerturbation):
            impact_compare(a, 0, 0.2)  # possibility sum would drop below 1

    def test_ne_side_guard(self):
        # rounding lets po - delta pass the po-side guard; the ne side rejects it
        a = validate([0.44, 0.0], [0.79, 0.6])
        with pytest.raises(InvalidPerturbation,
                           match=r"^ne\[0\] \+ 0.350000001 exceeds po\[0\] = 0.79$"):
            impact_compare(a, 0, 0.35000000100000006)

    def test_negative_delta(self):
        a = validate([0, 0], [1, 1])
        for delta in (-0.1, math.inf, math.nan):
            with pytest.raises(DomainError, match=r"must be finite and nonnegative$"):
                impact_compare(a, 0, delta)

    def test_losses_nonnegative(self, rng):
        for _ in range(50):
            m = 2 + int(rng.random() * 4)
            a = random_valid_assignment(rng, m, tight=True)
            k = int(rng.random() * m)
            width = a.po[k] - a.ne[k]
            if width < 1e-3:
                continue
            delta = 0.5 * width * rng.random()
            if sum(a.po) - delta < 1.0 + 1e-9 or sum(a.ne) + delta > 1.0 - 1e-9:
                continue
            rep = impact_compare(a, k, delta)
            assert rep.loss_from_po >= 0.0
            assert rep.loss_from_ne >= 0.0


class TestImpositionCompare:
    def test_requires_vacuous_coordinate(self):
        a = validate([0.1, 0.1, 0.0], [0.3, 0.3, 1.0])
        with pytest.raises(NotVacuous):
            imposition_compare(a, 0, 0.3)

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.5, 2.0])
    def test_eps_domain(self, eps):
        a = validate([0, 0, 0], [1, 1, 1])
        with pytest.raises(DomainError):
            imposition_compare(a, 0, eps)

    def test_two_options_tie_by_symmetry(self):
        # for two options, swapping p_k with 1-p_k swaps the coordinates, so
        # complementary impositions remove congruent pieces
        a = validate([0, 0], [1, 1])
        rep = imposition_compare(a, 0, 0.3)
        assert rep.loss_from_po == pytest.approx(0.3, abs=1e-12)
        assert rep.loss_from_ne == pytest.approx(0.3, abs=1e-12)
        assert rep.verdict == TIE

    def test_three_options_vacuous_necessity_dominates(self):
        # the corner cut by po_3 = 1-eps has volume eps^2; the slab cut by
        # ne_3 = eps has volume 1-(1-eps)^2, always larger on three options.
        # consistently, the dominance condition fails here (0 < 1-2 is false)
        a = validate([0, 0, 0], [1, 1, 1])
        rep = imposition_compare(a, 2, 0.3)
        assert rep.condition_holds is False
        assert rep.loss_from_po == pytest.approx(0.09, abs=1e-12)
        assert rep.loss_from_ne == pytest.approx(0.51, abs=1e-12)
        assert rep.verdict == NE_DOMINATES

    def test_condition_holding_case(self):
        a = validate([0.1, 0.1, 0.0], [0.3, 0.3, 1.0])
        rep = imposition_compare(a, 2, 0.4)
        assert rep.condition_holds is True
        assert rep.loss_from_po == pytest.approx(0.04, abs=1e-12)
        assert rep.loss_from_ne == pytest.approx(0.0, abs=1e-12)
        assert rep.verdict == PO_DOMINATES

    def test_small_eps_losses_vanish(self):
        a = validate([0.1, 0.1, 0.0], [0.3, 0.3, 1.0])
        rep = imposition_compare(a, 2, 1e-6)
        assert rep.loss_from_po <= 1e-5
        assert rep.loss_from_ne <= 1e-5

    def test_annihilating_imposition(self):
        # p3 ranges over [0, 0.1] here, so imposing ne_3 = 0.2 empties the
        # region and the necessity loss is the entire freedom, 0.005
        a = validate([0.45, 0.45, 0.0], [0.5, 0.5, 1.0])
        rep = imposition_compare(a, 2, 0.2)
        assert rep.loss_from_po == pytest.approx(0.0, abs=1e-12)
        assert rep.loss_from_ne == pytest.approx(0.005, abs=1e-12)
        assert rep.condition_holds is False
        assert rep.verdict == NE_DOMINATES

    def test_condition_decides_impositions(self, rng):
        # the dominance condition exactly predicts which imposition removes
        # more volume, whenever they differ
        violations = []
        for _ in range(300):
            m = 2 + int(rng.random() * 4)
            k = int(rng.random() * m)
            ne = [0.0] * m
            po = [1.0] * m
            for j in range(m):
                if j == k:
                    continue
                po[j] = 0.02 + 0.98 * rng.random()
                ne[j] = po[j] * rng.random()
            s = sum(ne)
            if s > 0.95:
                ne = [x * 0.9 / s if j != k else 0.0 for j, x in enumerate(ne)]
            a = validate(ne, po)
            eps = 0.01 + 0.98 * rng.random()
            rep = imposition_compare(a, k, eps)
            if rep.verdict == TIE:
                continue
            expected = PO_DOMINATES if rep.condition_holds else NE_DOMINATES
            if rep.verdict != expected:
                violations.append((ne, po, k, eps, rep))
        assert not violations, f"first violation: {violations[0]}"

    def test_near_vacuous_impositions_stay_inside_the_bounds(self, monkeypatch):
        # a coordinate within TOLERANCE of vacuous is accepted; an eps below
        # its gap imposes nothing on that side, so no term _volumes receives
        # reaches outside [ne_k, po_k], and each loss is the Fraction sum of
        # the clamped imposition
        calls = []

        def spy(ne, po, k, terms):
            calls.append((ne[k], po[k], terms))
            return _volumes(ne, po, k, terms)

        monkeypatch.setattr("simplexfreedom.sensitivity._volumes", spy)
        cases = [([0.0, 0.4 + 5e-11], [1.0 - 1e-10, 0.6], 0, 1e-11)]
        for seed in range(60):
            gen = SplitMix64(9100 + seed)
            m = 2 + seed % 11
            k = int(gen.random() * m)
            ne, po = [0.0] * m, [1.0] * m
            for j in range(m):
                if j != k:
                    po[j] = 0.02 + 0.98 * gen.random()
                    ne[j] = po[j] * gen.random() * 0.9 / m
            ne[k] = 1e-9 * gen.random() if seed % 2 else 0.0
            po[k] = 1.0 - 1e-9 * gen.random()
            gap = max(ne[k], 1.0 - po[k])
            # below the gap, between the two sides' gaps, or past both
            eps = (gap * gen.random(), min(ne[k], 1.0 - po[k]) + 1e-12,
                   0.01 + 0.98 * gen.random())[seed % 3]
            cases.append((ne, po, k, eps))
        for ne, po, k, eps in cases:
            a = validate(ne, po)
            calls.clear()
            rep = imposition_compare(a, k, eps)
            for ne_k, po_k, terms in calls:
                for _, n, p in terms:
                    assert p <= n or ne_k <= n <= p <= po_k, (ne, po, k, eps, n, p)
            if a.m <= 8:
                po2, ne2 = list(a.po), list(a.ne)
                po2[k], ne2[k] = min(1.0 - eps, a.po[k]), max(eps, a.ne[k])
                f0 = brute_volume(a.ne, a.po)
                assert rep.loss_from_po == f0 - brute_volume(a.ne, po2)
                assert rep.loss_from_ne == f0 - brute_volume(ne2, a.po)


def separate_impact(a, k, delta):
    """impact_compare's (F(a), F(a_po), F(a_ne)) from three freedom calls."""
    po2 = list(a.po)
    po2[k] = max(po2[k] - delta, a.ne[k])
    ne2 = list(a.ne)
    ne2[k] = min(ne2[k] + delta, a.po[k])
    return (
        freedom(a),
        freedom(validate(a.ne, po2, a.options)),
        freedom(validate(ne2, a.po, a.options)),
    )


def separate_imposition(a, k, eps):
    """imposition_compare's (F(a), F(a_po), F(a_ne)) from three freedom calls."""
    po2 = list(a.po)
    po2[k] = 1.0 - eps
    ne2 = list(a.ne)
    ne2[k] = eps
    return (
        freedom(a),
        freedom(IntervalAssignment(a.options, a.ne, tuple(po2))),
        freedom(IntervalAssignment(a.options, tuple(ne2), a.po)),
    )


def assert_losses(rep, f0, f_po, f_ne):
    assert rep.loss_from_po == max(0.0, f0 - f_po)
    assert rep.loss_from_ne == max(0.0, f0 - f_ne)


class TestSharedSweep:
    """The three freedoms of a report come from one sweep over the other
    M - 1 options; they must be bit for bit the separate freedom calls."""

    def test_impact_equals_separate_freedom_calls(self):
        counts = {"zero_delta": 0, "absorbed": 0, "moved": 0}
        for seed in range(338):
            gen = SplitMix64(7400 + seed)
            m = 2 + seed % 13
            a = random_valid_assignment(gen, m, tight=seed % 2 == 0)
            k = int(gen.random() * m)
            room = min(a.po[k] - a.ne[k], sum(a.po) - 1.0, 1.0 - sum(a.ne))
            delta = 0.0 if seed % 5 == 0 else 0.999 * max(room, 0.0) * gen.random()
            f0, f_po, f_ne = separate_impact(a, k, delta)
            rep = impact_compare(a, k, delta)
            assert_losses(rep, f0, f_po, f_ne)
            counts["zero_delta"] += delta == 0.0
            # a slack bound absorbs the cut: a loss of exactly 0
            counts["absorbed"] += delta > 0.0 and f0 > 0.0 and f_po == f0
            counts["moved"] += f_po != f0 and f_ne != f0
        assert all(counts.values()), counts

    def test_imposition_equals_separate_freedom_calls(self):
        # either imposition may empty the region: sum(po) <= 1 or sum(ne) >= 1
        annihilated = {"po": 0, "ne": 0}
        for seed in range(338):
            gen = SplitMix64(7800 + seed)
            m = 2 + seed % 13
            k = int(gen.random() * m)
            ne, po = [0.0] * m, [1.0] * m
            for j in range(m):
                if j != k:
                    po[j] = 0.02 + 0.98 * gen.random()
                    ne[j] = po[j] * gen.random()
            s = sum(ne)
            if s > 0.95:
                ne = [x * 0.9 / s for x in ne]
            a = validate(ne, po)
            eps = 0.01 + 0.98 * gen.random()
            f0, f_po, f_ne = separate_imposition(a, k, eps)
            assert_losses(imposition_compare(a, k, eps), f0, f_po, f_ne)
            annihilated["po"] += f0 > 0.0 and f_po == 0.0
            annihilated["ne"] += f0 > 0.0 and f_ne == 0.0
        assert all(annihilated.values()), annihilated

    def test_zero_widths_and_past_24_options(self):
        # a point-valued option besides k: every freedom is 0
        a = validate([0.0, 0.3, 0.0], [1.0, 0.3, 1.0])
        rep = impact_compare(a, 0, 0.1)
        assert rep.loss_from_po == rep.loss_from_ne == 0.0
        # option k itself pinned by the perturbation: F(a_ne) = 0
        a = validate([0.2, 0.0, 0.0], [0.4, 1.0, 1.0])
        assert_losses(impact_compare(a, 0, 0.2), *separate_impact(a, 0, 0.2))
        # past 24 options: equal widths keep the work within its limit
        big = validate([0.0] * 25, [0.2] * 25)
        rep = impact_compare(big, 3, 0.05)
        assert_losses(rep, *separate_impact(big, 3, 0.05))
        vac = validate([0.0] * 25, [0.1] * 24 + [1.0])
        rep = imposition_compare(vac, 24, 0.3)
        assert_losses(rep, *separate_imposition(vac, 24, 0.3))


class TestVertex:
    def test_each_report_sweeps_from_the_nearer_vertex(self, monkeypatch):
        # a report's three freedoms are at mass 1 with option k's bounds
        # inside [ne_k, po_k], so its one sweep prunes at the distance from
        # mass 1 to the nearer vertex of the box: min(1 - sum(ne),
        # sum(po) - 1), scaled; the losses are the Fraction sums rounded once
        tops = []

        def spy(widths, cuts, exponent):
            tops.append(max(cuts))
            return _sweep(widths, cuts, exponent)

        monkeypatch.setattr("simplexfreedom.measures._sweep", spy)
        seen = set()
        for seed in range(88):
            gen = SplitMix64(8200 + seed)
            m = 2 + seed % 11
            k = int(gen.random() * m)
            if seed % 2:
                a = random_valid_assignment(gen, m, tight=seed % 4 == 1)
                room = min(a.po[k] - a.ne[k], sum(a.po) - 1.0, 1.0 - sum(a.ne))
                delta = 0.999 * max(room, 0.0) * gen.random()
                po_k = max(a.po[k] - delta, a.ne[k])
                ne_k = min(a.ne[k] + delta, a.po[k])
                compare, size = impact_compare, delta
            else:
                ne, po = [0.0] * m, [1.0] * m
                for j in range(m):
                    if j != k:
                        po[j] = 0.02 + 0.98 * gen.random()
                        ne[j] = po[j] * gen.random() * 0.9 / m
                a = validate(ne, po)
                eps = 0.01 + 0.98 * gen.random()
                po_k, ne_k = 1.0 - eps, eps
                compare, size = imposition_compare, eps
            tops.clear()
            rep = compare(a, k, size)
            po2, ne2 = list(a.po), list(a.ne)
            po2[k], ne2[k] = po_k, ne_k
            f0 = brute_volume(a.ne, a.po)
            assert_losses(rep, f0, brute_volume(a.ne, po2), brute_volume(ne2, a.po))
            if not tops:  # every region has measure zero
                continue
            e = _scaled([*a.ne, *a.po, po_k, ne_k])[1]
            below = 1 - sum(map(Fraction, a.ne))
            above = sum(map(Fraction, a.po)) - 1
            assert tops == [min(below, above) * 2**e], (a, k, size)
            seen.add((compare.__name__, "po" if above < below else "ne"))
        assert seen == {(c.__name__, v) for c in (impact_compare, imposition_compare)
                        for v in ("po", "ne")}


CAP = (r"^the closed form would keep over \d+ subsets in one half of its sum, "
       r"past its work limit$")


class TestErrorOrder:
    """Each check runs before the freedom evaluation, in the same order."""

    def test_impact(self):
        a = hard_input(25)
        with pytest.raises(InvalidPerturbation,
                           match=r"^po\[0\] - 0.3 falls below ne\[0\] = 0$"):
            impact_compare(a, 0, 0.3)
        with pytest.raises(CapExceeded, match=CAP):
            impact_compare(a, 0, 0.01)
        with pytest.raises(InvalidPerturbation, match=r"^perturbed assignment invalid: "
                           r"Infeasible: sum\(po\) = 0.95 is below 1$"):
            impact_compare(validate([0.2, 0.3], [0.5, 0.7]), 0, 0.25)

    def test_impact_ne_side_sum(self):
        # the po side passes; raising ne_0 pushes sum(ne) past 1
        with pytest.raises(InvalidPerturbation, match=r"^perturbed assignment invalid: "
                           r"Infeasible: sum\(ne\) = 1.05 exceeds 1$"):
            impact_compare(validate([0.4, 0.5], [0.6, 0.9]), 0, 0.15)

    def test_impact_one_option(self):
        # the relaxed constructor admits one option; the perturbed one is
        # judged as validate would judge it, before the measure's own guard
        a = IntervalAssignment(("a",), (0.2,), (0.9,))
        with pytest.raises(InvalidPerturbation, match=r"^perturbed assignment invalid: "
                           r"TooFewOptions: need at least 2 options, got 1; "
                           r"Infeasible: sum\(po\) = 0.8 is below 1$"):
            impact_compare(a, 0, 0.1)

    def test_imposition(self):
        a = validate([0.0] * 25, [0.2] * 25)
        with pytest.raises(NotVacuous, match=r"^coordinate 0 has ne = 0, po = 0.2; "
                           r"imposition needs ne = 0 and po = 1$"):
            imposition_compare(a, 0, 0.3)
        vac = validate([0.0] * 25, [*hard_input(24).po, 1.0])
        with pytest.raises(DomainError, match=r"^eps = 1.3 outside \(0, 1\)$"):
            imposition_compare(vac, 24, 1.3)
        with pytest.raises(CapExceeded, match=CAP):
            imposition_compare(vac, 24, 0.3)
