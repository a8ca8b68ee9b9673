"""Cross-classified systems: cell bounds, dependency, cases, joint volume."""

from __future__ import annotations

import numpy as np
import pytest

from simplexfreedom import (
    CrossTable,
    DegenerateCell,
    DomainError,
    FrechetViolation,
    IntervalAssignment,
    LowAcceptanceWarning,
    SplitMix64,
    TooManyCells,
    ValidationError,
    case1_census,
    cell_bounds,
    cell_width_vs_dependency,
    classify_cell,
    dependency,
    mc_freedom,
    mc_joint_freedom,
    validate,
)

from conftest import random_valid_assignment


def grid_width(ne_r, po_r, ne_c, po_c, d, n=100):
    """Independent oracle: evaluate the pinned interpolation over an n x n
    grid of marginal values and take the spread."""
    a = np.linspace(ne_r, po_r, n)[:, None]
    b = np.linspace(ne_c, po_c, n)[None, :]
    g = d * np.minimum(a, b) + (1.0 - d) * np.maximum(0.0, a + b - 1.0)
    return float(g.max() - g.min())


def random_table(rng: SplitMix64, k: int, m: int) -> CrossTable:
    return CrossTable(
        row_marginals=random_valid_assignment(rng, k),
        col_marginals=random_valid_assignment(rng, m),
    )


class TestCellBounds:
    def test_worked_case(self):
        b = cell_bounds(0.6, 0.9, 0.7, 0.8)
        assert b.ne_lower == pytest.approx(0.3, abs=1e-12)
        assert b.ne_upper == pytest.approx(0.6, abs=1e-12)
        assert b.po_lower == pytest.approx(0.7, abs=1e-12)
        assert b.po_upper == pytest.approx(0.8, abs=1e-12)

    def test_vacuous_margins(self):
        # the possibility lower bound max(0, po_row + po_col - 1) reaches 1
        # for vacuous margins; the necessity interval collapses to 0
        b = cell_bounds(0.0, 1.0, 0.0, 1.0)
        assert (b.ne_lower, b.ne_upper) == (0.0, 0.0)
        assert (b.po_lower, b.po_upper) == (1.0, 1.0)

    def test_point_margins(self):
        b = cell_bounds(0.5, 0.5, 0.5, 0.5)
        assert (b.ne_lower, b.ne_upper) == (0.0, 0.5)
        assert (b.po_lower, b.po_upper) == (0.0, 0.5)

    def test_range_check(self):
        with pytest.raises(ValidationError):
            cell_bounds(-0.5, 0.9, 0.1, 0.2)

    def test_bound_order_check(self):
        with pytest.raises(ValidationError) as exc:
            cell_bounds(0.6, 0.5, 0.1, 0.2)
        assert exc.value.codes == ("BoundOrder",)


class TestDependency:
    def test_upper_bound_is_full_overlap(self):
        assert dependency(0.5, 0.5, 0.7) == 1.0

    def test_lower_bound_is_full_disjointness(self):
        b = max(0.0, 0.5 + 0.7 - 1.0)
        assert dependency(b, 0.5, 0.7) == 0.0

    def test_midpoint(self):
        assert dependency(0.25, 0.5, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_degenerate(self):
        with pytest.raises(DegenerateCell):
            dependency(0.0, 0.0, 0.5)
        with pytest.raises(DegenerateCell):
            dependency(0.5, 1.0, 0.5)

    def test_frechet_violation(self):
        with pytest.raises(FrechetViolation):
            dependency(0.6, 0.5, 0.5)


class TestClassifyCell:
    def test_case1(self):
        cc = classify_cell(0.6, 0.9, 0.7, 0.8)
        assert cc.case_tag == "case1"
        assert cc.d_maximizing == 0.0

    def test_case2(self):
        cc = classify_cell(0.0, 0.4, 0.0, 0.5)
        assert cc.case_tag == "case2"
        assert cc.d_maximizing == 1.0

    def test_case3_wide_room(self):
        # 1 - min(ne) = 0.9 > max(po) = 0.7; the pinned interval is widest at
        # full overlap: width(1) - width(0) = (1 - min(ne)) - max(po) > 0
        cc = classify_cell(0.1, 0.6, 0.1, 0.7)
        assert cc.case_tag == "case3a"
        assert cc.d_maximizing == 1.0

    def test_case3_tight_room(self):
        # 1 - min(ne) = 0.8 < max(po) = 0.9: widest at full disjointness
        cc = classify_cell(0.2, 0.9, 0.3, 0.8)
        assert cc.case_tag == "case3b"
        assert cc.d_maximizing == 0.0

    def test_boundary(self):
        # 1 - min(0.3, 0.4) = 0.7 equals max(0.7, 0.6)
        cc = classify_cell(0.3, 0.7, 0.4, 0.6)
        assert cc.case_tag == "boundary"
        assert cc.d_maximizing is None


class TestCellWidth:
    def test_case1_margins_widest_at_zero(self):
        w0 = cell_width_vs_dependency(0.6, 0.9, 0.7, 0.8, 0.0)
        w1 = cell_width_vs_dependency(0.6, 0.9, 0.7, 0.8, 1.0)
        assert w0 == pytest.approx(0.4, abs=1e-12)
        assert w1 == pytest.approx(0.2, abs=1e-12)
        assert w0 > w1

    def test_case2_margins_widest_at_one(self):
        w0 = cell_width_vs_dependency(0.0, 0.4, 0.0, 0.5, 0.0)
        w1 = cell_width_vs_dependency(0.0, 0.4, 0.0, 0.5, 1.0)
        assert w0 == 0.0
        assert w1 == pytest.approx(0.4, abs=1e-12)

    def test_point_margins_zero_width(self):
        for d in (0.0, 0.5, 1.0):
            assert cell_width_vs_dependency(0.3, 0.3, 0.6, 0.6, d) == 0.0

    def test_matches_grid_oracle(self, rng):
        for _ in range(30):
            ne_r = 0.8 * rng.random()
            po_r = ne_r + (1.0 - ne_r) * rng.random()
            ne_c = 0.8 * rng.random()
            po_c = ne_c + (1.0 - ne_c) * rng.random()
            for d in (0.0, 0.37, 1.0):
                analytic = cell_width_vs_dependency(ne_r, po_r, ne_c, po_c, d)
                assert analytic == pytest.approx(
                    grid_width(ne_r, po_r, ne_c, po_c, d), abs=1e-9
                )

    def test_extremum_agrees_with_classification(self, rng):
        for _ in range(60):
            ne_r = 0.8 * rng.random()
            po_r = ne_r + (1.0 - ne_r) * rng.random()
            ne_c = 0.8 * rng.random()
            po_c = ne_c + (1.0 - ne_c) * rng.random()
            cc = classify_cell(ne_r, po_r, ne_c, po_c)
            if cc.case_tag == "boundary":
                continue
            w0 = grid_width(ne_r, po_r, ne_c, po_c, 0.0)
            w1 = grid_width(ne_r, po_r, ne_c, po_c, 1.0)
            if abs(w0 - w1) <= 1e-12:
                continue
            assert cc.d_maximizing == (0.0 if w0 > w1 else 1.0)

    def test_d_range_check(self):
        with pytest.raises(ValidationError):
            cell_width_vs_dependency(0.1, 0.2, 0.1, 0.2, 1.5)


class TestCrossTable:
    def test_margins_only(self):
        t = random_table(SplitMix64(1), 2, 3)
        assert t.shape == (2, 3)
        assert t.joint is None

    def test_consistent_joint_accepted(self):
        t = CrossTable(
            row_marginals=validate([0.5, 0.5], [0.5, 0.5]),
            col_marginals=validate([0.5, 0.5], [0.5, 0.5]),
            joint=((0.25, 0.25), (0.25, 0.25)),
        )
        assert t.joint == ((0.25, 0.25), (0.25, 0.25))

    def test_joint_sum_check(self):
        with pytest.raises(ValidationError) as exc:
            CrossTable(
                row_marginals=validate([0, 0], [1, 1]),
                col_marginals=validate([0, 0], [1, 1]),
                joint=((0.25, 0.25), (0.25, 0.15)),
            )
        assert "Infeasible" in exc.value.codes

    def test_joint_frechet_violation(self):
        # cell (1,1) exceeds min(po_row, po_col) = 0.5 for point margins
        with pytest.raises(FrechetViolation):
            CrossTable(
                row_marginals=validate([0.5, 0.5], [0.5, 0.5]),
                col_marginals=validate([0.5, 0.5], [0.5, 0.5]),
                joint=((0.6, 0.0), (0.0, 0.4)),
            )

    def test_joint_margin_mismatch(self):
        with pytest.raises(ValidationError) as exc:
            CrossTable(
                row_marginals=validate([0.4, 0.4], [0.45, 0.6]),
                col_marginals=validate([0, 0], [1, 1]),
                joint=((0.3, 0.2), (0.2, 0.3)),
            )
        assert "MarginMismatch" in exc.value.codes

    def test_joint_column_margin_mismatch(self):
        # every cell is inside its Frechet bounds; column 0 sums past 0.3
        with pytest.raises(ValidationError) as exc:
            CrossTable(
                row_marginals=validate([0, 0], [1, 1]),
                col_marginals=validate([0, 0], [0.3, 1]),
                joint=((0.2, 0.3), (0.2, 0.3)),
            )
        (v,) = exc.value.violations
        assert (v.code, v.index) == ("MarginMismatch", 0)
        assert v.message == "column 0 sums to 0.4, outside [0, 0.3]"

    def test_joint_shape_check(self):
        with pytest.raises(ValidationError):
            CrossTable(
                row_marginals=validate([0, 0], [1, 1]),
                col_marginals=validate([0, 0], [1, 1]),
                joint=((0.5, 0.5),),
            )

    def test_replace_checks_joint(self):
        t = CrossTable(
            row_marginals=validate([0.5, 0.5], [0.5, 0.5]),
            col_marginals=validate([0.5, 0.5], [0.5, 0.5]),
        )
        assert t._replace(joint=[[0.25, 0.25], [0.25, 0.25]]).joint == (
            (0.25, 0.25),
            (0.25, 0.25),
        )
        with pytest.raises(FrechetViolation):
            t._replace(joint=((0.6, 0.0), (0.0, 0.4)))

    def test_make_checks_joint(self):
        rows = validate([0, 0], [1, 1])
        with pytest.raises(ValidationError):
            CrossTable._make([rows, rows, ((0.5, 0.5),)])


class TestFrechetSanity:
    def test_point_joints_respect_cell_bounds(self, rng):
        # any probability table lies between the Frechet bounds of its own
        # margins, cell by cell
        for _ in range(100):
            k = 2 + int(rng.random() * 3)
            m = 2 + int(rng.random() * 3)
            cells = [[rng.random() + 1e-3 for _ in range(m)] for _ in range(k)]
            total = sum(sum(row) for row in cells)
            cells = [[v / total for v in row] for row in cells]
            row_sums = [sum(row) for row in cells]
            col_sums = [sum(cells[i][j] for i in range(k)) for j in range(m)]
            for i in range(k):
                for j in range(m):
                    b = cell_bounds(row_sums[i], row_sums[i], col_sums[j], col_sums[j])
                    assert b.ne_lower - 1e-12 <= cells[i][j] <= b.ne_upper + 1e-12


class TestCase1Census:
    def test_worked_case(self):
        t = CrossTable(
            row_marginals=validate([0.6, 0.0], [1.0, 0.4]),
            col_marginals=validate([0.7, 0.0], [1.0, 0.3]),
        )
        assert case1_census(t) == [(0, 0)]

    def test_vacuous(self):
        t = CrossTable(
            row_marginals=validate([0, 0], [1, 1]),
            col_marginals=validate([0, 0], [1, 1]),
        )
        assert case1_census(t) == []

    def test_census_cells_share_a_row_or_column(self, rng):
        # provable form of the uniqueness claim: two case-1 cells in
        # distinct rows and distinct columns would need margin necessity
        # sums beyond 2, which two unit-bounded margins cannot supply
        for _ in range(200):
            k = 2 + int(rng.random() * 4)
            m = 2 + int(rng.random() * 4)
            cells = case1_census(random_table(rng, k, m))
            if len(cells) > 1:
                rows_used = {i for i, _ in cells}
                cols_used = {j for _, j in cells}
                assert len(rows_used) == 1 or len(cols_used) == 1

    def test_multiple_cells_in_one_row_are_possible(self):
        # a single row necessity above 1/2 pairs with two column
        # necessities: literal one-cell uniqueness does not hold
        t = CrossTable(
            row_marginals=validate([0.825, 0.0], [1.0, 1.0]),
            col_marginals=validate([0.386, 0.223], [1.0, 1.0]),
        )
        assert case1_census(t) == [(0, 0), (0, 1)]


class TestCase2Coverage:
    def test_two_by_two_has_a_non_case2_cell(self, rng):
        # with two rows and two columns the largest row and column
        # possibilities each reach 1/2, so that pair cannot be case 2
        for _ in range(100):
            t = random_table(rng, 2, 2)
            rows, cols = t.row_marginals, t.col_marginals
            tags = [
                classify_cell(rows.ne[i], rows.po[i], cols.ne[j], cols.po[j]).case_tag
                for i in range(2)
                for j in range(2)
            ]
            assert any(tag != "case2" for tag in tags)

    def test_all_case2_possible_with_two_rows(self):
        # wider tables admit margins where every cell is case 2 even with
        # K = 2: rows (0.5, 0.5) against five columns of 0.2
        rows = validate([0, 0], [0.5, 0.5])
        cols = validate([0.0] * 5, [0.2] * 5)
        tags = {
            classify_cell(rows.ne[i], rows.po[i], cols.ne[j], cols.po[j]).case_tag
            for i in range(2)
            for j in range(5)
        }
        assert tags == {"case2"}


class TestMcJointFreedom:
    def test_vacuous_margins_exact_one(self):
        t = CrossTable(
            row_marginals=validate([0, 0], [1, 1]),
            col_marginals=validate([0, 0], [1, 1]),
        )
        est = mc_joint_freedom(t, 20_000, 3)
        assert est.mean == 1.0
        assert est.std_error == 0.0

    def test_point_margins_zero(self):
        t = CrossTable(
            row_marginals=validate([0.5, 0.5], [0.5, 0.5]),
            col_marginals=validate([0.5, 0.5], [0.5, 0.5]),
        )
        with pytest.warns(LowAcceptanceWarning):
            est = mc_joint_freedom(t, 20_000, 4)
        assert est.mean == 0.0

    def test_two_seed_consistency(self):
        t = CrossTable(
            row_marginals=validate([0.2, 0.4], [0.6, 0.8]),
            col_marginals=validate([0.3, 0.3], [0.7, 0.7]),
        )
        e1 = mc_joint_freedom(t, 200_000, 21)
        e2 = mc_joint_freedom(t, 200_000, 22)
        combined = (e1.std_error**2 + e2.std_error**2) ** 0.5
        assert abs(e1.mean - e2.mean) <= 4.0 * combined

    def test_deterministic(self):
        t = CrossTable(
            row_marginals=validate([0.2, 0.4], [0.6, 0.8]),
            col_marginals=validate([0.3, 0.3], [0.7, 0.7]),
        )
        assert mc_joint_freedom(t, 50_000, 5) == mc_joint_freedom(t, 50_000, 5)

    def test_single_row_table_matches_plain_estimate(self):
        cols = validate([0.1, 0.0, 0.2], [0.6, 0.7, 0.5])
        one = IntervalAssignment(("all",), (0.0,), (1.0,))
        # the one row sums every spacing, and so does the one column of its
        # transpose; 2^20 + 5 samples cross the block seam
        for samples in (100_000, 2**20 + 5):
            plain = mc_freedom(cols, samples, 8)
            for t in (CrossTable(one, cols), CrossTable(cols, one)):
                joint = mc_joint_freedom(t, samples, 8)
                combined = (joint.std_error**2 + plain.std_error**2) ** 0.5
                assert abs(joint.mean - plain.mean) <= 4.0 * combined + 1e-12
                assert joint.accepted == plain.accepted

    def test_cell_cap(self):
        t = CrossTable(
            row_marginals=validate([0.0] * 4, [1.0] * 4),
            col_marginals=validate([0.0] * 4, [1.0] * 4),
        )
        with pytest.raises(TooManyCells):
            mc_joint_freedom(t, 1000, 1)

    def test_cap_boundary_accepted(self):
        t = CrossTable(
            row_marginals=validate([0.0] * 3, [1.0] * 3),
            col_marginals=validate([0.0] * 4, [1.0] * 4),
        )
        est = mc_joint_freedom(t, 5_000, 1)
        assert est.mean == 1.0

    def test_one_cell_table(self):
        one = IntervalAssignment(("all",), (0.0,), (1.0,))
        with pytest.raises(DomainError, match="at least 2 cells"):
            mc_joint_freedom(CrossTable(one, one), 1000, 1)

    def test_sample_domain(self):
        t = CrossTable(
            row_marginals=validate([0, 0], [1, 1]),
            col_marginals=validate([0, 0], [1, 1]),
        )
        with pytest.raises(DomainError):
            mc_joint_freedom(t, 0, 1)
