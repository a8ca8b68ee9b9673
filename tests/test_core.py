"""Validation, tightening, and classification."""

from __future__ import annotations

from contextlib import nullcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexfreedom import (
    TOLERANCE,
    AssignmentClass,
    IntervalAssignment,
    LowAcceptanceWarning,
    SplitMix64,
    ValidationError,
    classify,
    mc_freedom,
    tighten,
    validate,
)

from conftest import random_valid_assignment


@st.composite
def valid_assignments(draw, min_m=2, max_m=5):
    m = draw(st.integers(min_m, max_m))
    seed = draw(st.integers(0, 2**48))
    return random_valid_assignment(SplitMix64(seed), m)


class TestValidate:
    def test_paper_case_is_valid(self):
        a = validate([0.6, 0.2], [0.8, 0.4])
        assert a.ne == (0.6, 0.2)
        assert a.po == (0.8, 0.4)
        assert a.options == ("opt1", "opt2")

    def test_vacuous_is_valid(self):
        a = validate([0, 0], [1, 1])
        assert a.widths == (1.0, 1.0)

    def test_infeasible_necessity_sum(self):
        with pytest.raises(ValidationError) as exc:
            validate([0.7, 0.5], [0.8, 0.6])
        assert "Infeasible" in exc.value.codes

    def test_infeasible_possibility_sum(self):
        with pytest.raises(ValidationError) as exc:
            validate([0.0, 0.0], [0.3, 0.3])
        assert "Infeasible" in exc.value.codes

    def test_bound_order(self):
        with pytest.raises(ValidationError) as exc:
            validate([0.5, 0.6], [0.4, 1.0])
        assert "BoundOrder" in exc.value.codes

    def test_range(self):
        with pytest.raises(ValidationError) as exc:
            validate([-0.2, 0.0], [1.0, 1.2])
        assert exc.value.codes.count("RangeError") == 2

    def test_too_few_options(self):
        with pytest.raises(ValidationError) as exc:
            validate([0.5], [1.0])
        assert "TooFewOptions" in exc.value.codes

    def test_no_options_names_too_few_once(self):
        with pytest.raises(ValidationError) as exc:
            validate([], [])
        assert exc.value.codes == ("TooFewOptions", "Infeasible")
        assert "need at least 2 options, got 0" in str(exc.value)

    def test_all_violations_collected(self):
        with pytest.raises(ValidationError) as exc:
            validate([0.9, -0.1], [0.5, 1.0])
        codes = set(exc.value.codes)
        assert {"BoundOrder", "RangeError"} <= codes

    def test_length_mismatch(self):
        with pytest.raises(ValidationError) as exc:
            validate([0.1, 0.2], [0.5, 0.5, 0.5])
        assert "LengthMismatch" in exc.value.codes

    def test_custom_labels(self):
        a = validate([0, 0], [1, 1], ["car", "bike"])
        assert a.options == ("car", "bike")

    def test_tolerance_snapping(self):
        a = validate([0.0, -1e-10], [1.0 + 1e-10, 1.0])
        assert a.ne[1] == 0.0
        assert a.po[0] == 1.0

    def test_immutable(self):
        a = validate([0, 0], [1, 1])
        with pytest.raises(AttributeError):
            a.ne = (0.5, 0.5)

    def test_relaxed_constructor_allows_submass(self):
        # conditional sub-assignments may have possibility sums below 1
        sub = IntervalAssignment(("a", "b"), (0.0, 0.0), (0.3, 0.3))
        assert sub.m == 2

    def test_ne_snaps_onto_po_within_tolerance(self):
        a = IntervalAssignment(("a", "b"), (0.5 + 5e-10, 0.0), (0.5, 0.5))
        assert a.ne == (0.5, 0.0)
        assert a.po == (0.5, 0.5)

    def test_relaxed_constructor_still_checks_structure(self):
        with pytest.raises(ValidationError):
            IntervalAssignment(("a", "b"), (0.5, 0.2), (0.4, 0.3))

    def test_replace_checks_structure(self):
        with pytest.raises(ValidationError):
            validate([0.2, 0.1], [0.9, 0.8])._replace(ne=(2.0, 0.0))

    def test_make_checks_structure(self):
        with pytest.raises(ValidationError):
            IntervalAssignment._make([("x", "y"), (5.0, 0.0), (0.1, 0.2)])

    def test_make_and_replace_snap_like_the_constructor(self):
        a = IntervalAssignment._make([["a", "b"], [0.0, -1e-10], [1.0 + 1e-10, 1.0]])
        assert a == IntervalAssignment(("a", "b"), (0.0, 0.0), (1.0, 1.0))
        assert type(a) is IntervalAssignment
        b = a._replace(po=[1, 0.5])
        assert (type(b), b.po) == (IntervalAssignment, (1.0, 0.5))


class TestTighten:
    def test_already_tight_unchanged(self):
        a = validate([0.6, 0.2], [0.8, 0.4])
        t = tighten(a)
        assert t.ne == a.ne and t.po == a.po

    def test_vacuous_unchanged(self):
        a = validate([0, 0], [1, 1])
        t = tighten(a)
        assert t.ne == (0.0, 0.0) and t.po == (1.0, 1.0)

    def test_two_option_worked_case(self):
        # po2' = min(0.5, 1-0.5) = 0.5; ne2' = max(0.4, 1-0.5) = 0.5; the
        # region {p1 = 0.5} is unchanged
        a = validate([0.5, 0.4], [0.5, 0.5])
        t = tighten(a)
        assert t.ne == (0.5, 0.5)
        assert t.po == (0.5, 0.5)

    @settings(max_examples=80, deadline=None)
    @given(valid_assignments())
    def test_idempotent(self, a):
        t1 = tighten(a)
        t2 = tighten(t1)
        for x, y in zip(t1.ne + t1.po, t2.ne + t2.po):
            assert x == pytest.approx(y, abs=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(valid_assignments())
    def test_never_widens(self, a):
        t = tighten(a)
        assert all(tn >= n for tn, n in zip(t.ne, a.ne))
        assert all(tp <= p for tp, p in zip(t.po, a.po))

    @settings(max_examples=80, deadline=None)
    @given(valid_assignments())
    def test_validate_after_tighten_succeeds(self, a):
        t = tighten(a)
        validate(t.ne, t.po, t.options)

    def test_region_preserved_under_sampling(self, rng):
        # identical seeds sample identical points; the tightened bounds must
        # accept exactly the same region (M = 4 accepts only 18 of 20,000)
        for m in (2, 3, 4):
            a = random_valid_assignment(rng, m)
            t = tighten(a)
            assert (t.ne, t.po) != (a.ne, a.po)
            with pytest.warns(LowAcceptanceWarning) if m == 4 else nullcontext():
                e1 = mc_freedom(a, 20_000, 7)
                e2 = mc_freedom(t, 20_000, 7)
            assert e1 == e2


class TestClassify:
    def test_vacuous(self):
        assert classify(validate([0, 0], [1, 1])) is AssignmentClass.VACUOUS

    def test_point(self):
        assert classify(validate([0.3, 0.7], [0.3, 0.7])) is AssignmentClass.POINT

    def test_partial(self):
        assert classify(validate([0.6, 0.2], [0.8, 0.4])) is AssignmentClass.PARTIAL

    def test_same_class_as_on_the_tightened_assignment(self):
        # classify reads tightened_bounds without building tighten(a); on
        # seeded vacuous, point and partial inputs the class is the one the
        # same rule gives on tighten(a)
        def judged(t):
            if all(n <= TOLERANCE and p >= 1.0 - TOLERANCE for n, p in zip(t.ne, t.po)):
                return AssignmentClass.VACUOUS
            if all(p - n <= TOLERANCE for n, p in zip(t.ne, t.po)):
                return AssignmentClass.POINT
            return AssignmentClass.PARTIAL

        rng = SplitMix64(17)
        seen = []
        for _ in range(60):
            m = 2 + int(rng.random() * 7)
            kind = len(seen) % 4
            if kind == 0:  # vacuous, up to rounding inside the tolerance
                a = validate([rng.random() * 1e-9 for _ in range(m)],
                             [1.0 - rng.random() * 1e-9 for _ in range(m)])
            elif kind == 1:  # a point, as given
                p = [rng.random() for _ in range(m)]
                p = [x / sum(p) for x in p]
                a = validate(p, p)
            elif kind == 2:  # a point only once tightened: one free option
                p = [rng.random() for _ in range(m)]
                p = [x / sum(p) for x in p]
                a = validate(p[:-1] + [0.0], p[:-1] + [1.0])
            else:
                a = random_valid_assignment(rng, m)
            seen.append(classify(a))
            assert seen[-1] is judged(tighten(a)), (a.ne, a.po)
        assert set(seen) == set(AssignmentClass)

    def test_empty_region_raises(self):
        # the relaxed constructor admits sum(ne) > 1; tightened, the bounds cross
        a = IntervalAssignment(("a", "b"), (0.6, 0.6), (0.7, 0.7))
        with pytest.raises(ValidationError) as exc:
            classify(a)
        assert exc.value.codes == ("BoundOrder", "BoundOrder")

    def test_point_after_tightening(self):
        # sums of necessities reach 1, so the region is a single point even
        # though the raw bounds look wide
        a = validate([0.5, 0.5], [1.0, 1.0])
        assert classify(a) is AssignmentClass.POINT
