"""Cross-classified systems: joint-cell bounds, dependency, and joint volume.

Two option systems observed jointly give a K x M table of joint
probabilities p_ij whose row and column sums are interval-constrained.  Each
cell's necessity and possibility inherit Frechet-style bounds from the
margins:

    max(0, ne_i. + ne_.j - 1) <= ne_ij <= min(ne_i., ne_.j)
    max(0, po_i. + po_.j - 1) <= po_ij <= min(po_i., po_.j)

and the joint nonspecificity (volume of admissible joint tables) has no
closed form here; it is estimated by rejection sampling over the full
(KM-1)-simplex.

The cell functions check a row and a column margin as the two-option
``IntervalAssignment`` (option 0 the row, 1 the column): every violation at
once, the order test on the bounds as given, and the snapped bounds used.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .core import TOLERANCE, IntervalAssignment
from .errors import (
    DegenerateCell,
    DomainError,
    FrechetViolation,
    TooManyCells,
    ValidationError,
    Violation,
)
from . import oracle
from .oracle import MCEstimate

# Rejection sampling over the joint simplex degrades quickly with cell
# count; beyond 12 cells the acceptance rate is no longer honest desk-scale.
CELL_CAP = 12

CASE1 = "case1"
CASE2 = "case2"
CASE3A = "case3a"
CASE3B = "case3b"
BOUNDARY = "boundary"


def _check_unit(name: str, v: float) -> float:
    v = float(v)
    if not math.isfinite(v) or v < -TOLERANCE or v > 1.0 + TOLERANCE:
        raise ValidationError([Violation("RangeError", f"{name} = {v!r} outside [0, 1]")])
    return min(max(v, 0.0), 1.0)


def _margins(ne_row, po_row, ne_col, po_col):
    """(ne_row, ne_col) and (po_row, po_col) of the checked row/col assignment."""
    a = IntervalAssignment(("row", "col"), (ne_row, ne_col), (po_row, po_col))
    return a.ne, a.po


def _frechet(a: float, b: float) -> tuple[float, float]:
    """The Frechet interval [max(0, a + b - 1), min(a, b)] of a cell whose
    row and column hold a and b."""
    return max(0.0, a + b - 1.0), min(a, b)


class CellBounds(NamedTuple):
    """Frechet bounds on one cell's necessity and possibility."""

    ne_lower: float
    ne_upper: float
    po_lower: float
    po_upper: float


def cell_bounds(
    ne_row: float, po_row: float, ne_col: float, po_col: float
) -> CellBounds:
    """Bounds on ne_ij and po_ij induced by one row and one column margin,
    checked and snapped as the module docstring says."""
    (ne_row, ne_col), (po_row, po_col) = _margins(ne_row, po_row, ne_col, po_col)
    return CellBounds(*_frechet(ne_row, ne_col), *_frechet(po_row, po_col))


def dependency(p_joint: float, p_row: float, p_col: float) -> float:
    """Dependency index of a cell with point probabilities:

        D = (p_ij - B) / (A - B),  A = min(p_i., p_.j),  B = max(0, p_i. + p_.j - 1)

    D = 1 means maximal overlap, D = 0 maximal disjointness.  D = 1/2 does
    not in general mean statistical independence.  Raises DegenerateCell
    when the Frechet interval [B, A] has zero width (a margin of 0 or 1).
    """
    p_joint = _check_unit("p_joint", p_joint)
    p_row = _check_unit("p_row", p_row)
    p_col = _check_unit("p_col", p_col)
    b, a = _frechet(p_row, p_col)
    if a - b <= 1e-12:
        raise DegenerateCell(
            f"Frechet interval [{b:.12g}, {a:.12g}] has zero width; D undefined"
        )
    if p_joint < b - TOLERANCE or p_joint > a + TOLERANCE:
        raise FrechetViolation(
            f"p_joint = {p_joint:.12g} outside Frechet bounds [{b:.12g}, {a:.12g}]"
        )
    return min(1.0, max(0.0, (p_joint - b) / (a - b)))


class CellCase(NamedTuple):
    """Which dependency extreme maximizes the cell's nonspecificity.

    ``d_maximizing`` is the dependency value (0.0 or 1.0) at which the
    induced p_ij interval is widest, or None on an exact boundary tie.
    """

    case_tag: str
    d_maximizing: float | None


def classify_cell(
    ne_row: float, po_row: float, ne_col: float, po_col: float
) -> CellCase:
    """Classify a cell by its margins and report the extremizing dependency.

    case1 (ne_i. + ne_.j > 1) and case2 (po_i. + po_.j < 1) use strict
    inequalities; everything else is case 3, split by comparing
    1 - min(ne_i., ne_.j) against max(po_i., po_.j) and tagged ``boundary``
    on an exact tie.  The extremizing direction follows the induced-width
    algebra (see :func:`cell_width_vs_dependency`): with w(D) linear in D,

        w(1) - w(0) = (1 - min(ne_i., ne_.j)) - max(po_i., po_.j)

    inside case 3, so the ``>`` branch is widest at D = 1 and the ``<``
    branch at D = 0.  Case 1 is always widest at D = 0 and case 2 at D = 1.
    The margins are checked and snapped as in :func:`cell_bounds`.
    """
    (ne_row, ne_col), (po_row, po_col) = _margins(ne_row, po_row, ne_col, po_col)
    if ne_row + ne_col > 1.0:
        return CellCase(case_tag=CASE1, d_maximizing=0.0)
    if po_row + po_col < 1.0:
        return CellCase(case_tag=CASE2, d_maximizing=1.0)
    lhs = 1.0 - min(ne_row, ne_col)
    rhs = max(po_row, po_col)
    if lhs == rhs:
        return CellCase(case_tag=BOUNDARY, d_maximizing=None)
    if lhs > rhs:
        return CellCase(case_tag=CASE3A, d_maximizing=1.0)
    return CellCase(case_tag=CASE3B, d_maximizing=0.0)


def cell_width_vs_dependency(
    ne_row: float, po_row: float, ne_col: float, po_col: float, d: float
) -> float:
    """Width of the induced p_ij interval with the dependency pinned at d.

    With D fixed, p_ij = D*min(a, b) + (1-D)*max(0, a+b-1) as the true
    marginals (a, b) range over their intervals.  That map is nondecreasing
    in both a and b, so the induced set spans exactly from the lower margin
    corner to the upper one; the width is the difference of the two corner
    values.  The margins are checked as in :func:`cell_bounds`, then d.
    """
    (ne_row, ne_col), (po_row, po_col) = _margins(ne_row, po_row, ne_col, po_col)
    d = _check_unit("d", d)

    def pinned(a: float, b: float) -> float:
        lo, hi = _frechet(a, b)
        return d * hi + (1.0 - d) * lo

    return max(0.0, pinned(po_row, po_col) - pinned(ne_row, ne_col))


class _CrossTableFields(NamedTuple):
    row_marginals: IntervalAssignment
    col_marginals: IntervalAssignment
    joint: tuple[tuple[float, ...], ...] | None = None


class CrossTable(_CrossTableFields):
    """Interval-constrained margins of a K x M table, plus an optional point
    joint table for dependency analysis.

    A supplied joint must be a K x M matrix of probabilities in [0, 1]
    summing to 1, with every cell inside the Frechet bounds of its margins
    and every row/column sum inside its marginal interval.  ``_make`` and
    ``_replace`` build through the same checks.
    """

    __slots__ = ()

    def __new__(cls, row_marginals, col_marginals, joint=None) -> CrossTable:
        if joint is None:
            return super().__new__(cls, row_marginals, col_marginals)
        rows, cols = row_marginals, col_marginals
        k, m = rows.m, cols.m
        joint = tuple(tuple(float(x) for x in row) for row in joint)
        if len(joint) != k or any(len(row) != m for row in joint):
            raise ValidationError(
                [Violation("LengthMismatch", f"joint must be {k}x{m}")]
            )
        for i, row in enumerate(joint):
            for j, v in enumerate(row):
                _check_unit(f"joint[{i}][{j}]", v)
        total = math.fsum(x for row in joint for x in row)
        if abs(total - 1.0) > TOLERANCE:
            raise ValidationError(
                [Violation("Infeasible", f"joint sums to {total:.12g}, not 1")]
            )
        for i in range(k):
            for j in range(m):
                lo = _frechet(rows.ne[i], cols.ne[j])[0]
                hi = _frechet(rows.po[i], cols.po[j])[1]
                if joint[i][j] < lo - TOLERANCE or joint[i][j] > hi + TOLERANCE:
                    raise FrechetViolation(
                        f"joint[{i}][{j}] = {joint[i][j]:.12g} outside "
                        f"Frechet bounds [{lo:.12g}, {hi:.12g}] of its margins"
                    )
        bad: list[Violation] = []
        for what, margin, lines in (("row", rows, joint), ("column", cols, zip(*joint))):
            for i, line in enumerate(lines):
                s = math.fsum(line)
                ne, po = margin.ne[i], margin.po[i]
                if s < ne - TOLERANCE or s > po + TOLERANCE:
                    bad.append(
                        Violation(
                            "MarginMismatch",
                            f"{what} {i} sums to {s:.12g}, outside [{ne:.12g}, {po:.12g}]",
                            i,
                        )
                    )
        if bad:
            raise ValidationError(bad)
        return super().__new__(cls, row_marginals, col_marginals, joint)

    @classmethod
    def _make(cls, iterable) -> CrossTable:
        return cls(*iterable)

    @property
    def shape(self) -> tuple[int, int]:
        return self.row_marginals.m, self.col_marginals.m


def case1_census(t: CrossTable) -> list[tuple[int, int]]:
    """All cells (i, j) with ne_i. + ne_.j > 1.

    Two qualifying cells cannot occupy distinct rows and distinct columns
    (their margin necessities would sum past 2, yet each margin's
    necessities total at most 1), so every qualifying cell shares one row
    or one column.  A single row or column necessity above 1/2 can pair
    with several opposite margins, so the census can exceed one cell.
    Conversely, two cells sharing a margin need that margin's necessity to
    exceed 1/2 - TOLERANCE (the opposite necessities total at most
    1 + TOLERANCE), so more than one cell qualifies only when the shared
    row or column necessity is above 1/2, up to TOLERANCE.
    """
    rows, cols = t.row_marginals, t.col_marginals
    return [
        (i, j)
        for i in range(rows.m)
        for j in range(cols.m)
        if rows.ne[i] + cols.ne[j] > 1.0
    ]


def mc_joint_freedom(t: CrossTable, samples: int, seed: int) -> MCEstimate:
    """Rejection estimate of the joint nonspecificity of a cross table.

    Samples uniform joint tables from the (KM-1)-simplex (cells flattened
    row-major) and accepts those whose row and column sums fall inside the
    marginal intervals; the mean is the accepted fraction, i.e. the volume
    fraction relative to the full joint simplex, the direct generalization
    of the single-margin measure (vacuous margins give exactly 1).

    Sum checks allow a 1e-12 slack.  Every row and column sum is exact
    integer arithmetic on the sorted draws, so it guards no rounding; it
    stays because the estimate's bits depend on it.  Raises TooManyCells
    beyond 12 cells and warns when fewer than 100 samples are accepted.
    """
    samples = oracle._check_samples(samples)
    k, m = t.shape
    cells = k * m
    if cells > CELL_CAP:
        raise TooManyCells(
            f"{k}x{m} = {cells} cells exceeds the {CELL_CAP}-cell sampling cap"
        )
    if cells < 2:
        raise DomainError("need at least 2 cells")
    # table cell (i, j) is spacing i*m + j: each row is one run of m
    # consecutive spacings, each column every m-th spacing from j
    rows, cols = t.row_marginals, t.col_marginals
    tests = [
        (range(i * m, (i + 1) * m), ne - 1e-12, po + 1e-12)
        for i, (ne, po) in enumerate(zip(rows.ne, rows.po))
    ] + [
        (range(j, cells, m), ne - 1e-12, po + 1e-12)
        for j, (ne, po) in enumerate(zip(cols.ne, cols.po))
    ]
    return oracle._estimate(cells - 1, samples, seed, tests)
