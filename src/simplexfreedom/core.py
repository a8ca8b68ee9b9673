"""Interval probability assignments: validation, tightening, classification.

An assignment gives every option i a necessity lower bound ne_i and a
possibility upper bound po_i on its (unknown) probability p_i.  The feasible
region is the part of the probability simplex compatible with all bounds:

    {p : p_i >= 0, sum(p) = 1, ne_i <= p_i <= po_i for all i}

which is nonempty exactly when ne_i <= po_i everywhere, sum(ne) <= 1 and
sum(po) >= 1.
"""

from __future__ import annotations

import enum
import math
import operator
from typing import NamedTuple

from .errors import DomainError, ValidationError, Violation

# Absolute tolerance for invariant comparisons.  Inputs are human-entered
# decimals, not computed quantities; 1e-9 absorbs their rounding.
TOLERANCE = 1e-9


class AssignmentClass(enum.Enum):
    """Coarse classification of an assignment, judged on its tightened form."""

    VACUOUS = "vacuous"  # all po = 1, ne = 0: total ignorance
    POINT = "point"      # all po = ne: a single probability vector
    PARTIAL = "partial"


class _AssignmentFields(NamedTuple):
    options: tuple[str, ...]
    ne: tuple[float, ...]
    po: tuple[float, ...]


class IntervalAssignment(_AssignmentFields):
    """Immutable necessity/possibility bounds over a set of named options.

    Construction checks only per-option structure (matching lengths, values
    in [0,1], ne_i <= po_i) and snaps values within TOLERANCE of those
    constraints onto them.  It builds through one checked path, which
    :func:`validate` takes too with the full feasibility contract added (at
    least two options, sum(ne) <= 1 <= sum(po)); so do ``_make``,
    ``_replace`` and :func:`tighten`.  The relaxed constructor serves bounds
    that do not fit that contract: the sub-assignment passed to
    ``freedom_conditional`` or ``mc_freedom_conditional`` (sum(po) may be
    below 1) and a one-option cross-table margin.
    """

    __slots__ = ()

    def __new__(cls, options, ne, po) -> IntervalAssignment:
        options = tuple(str(x) for x in options)
        return cls._checked(options, [float(x) for x in ne], [float(x) for x in po])

    @classmethod
    def _checked(cls, options, ne, po, whole=False) -> IntervalAssignment:
        """Raise every violation of the converted bounds (with ``whole``, the
        set checks' too), else snap po onto [0, 1], ne onto [0, po] and build."""
        violations = _structural_violations(ne, po, len(options), whole)
        if violations:
            raise ValidationError(violations)
        po = [min(max(v, 0.0), 1.0) for v in po]
        ne = [min(max(v, 0.0), p) for v, p in zip(ne, po)]
        return super().__new__(cls, options, tuple(ne), tuple(po))

    @classmethod
    def _make(cls, iterable) -> IntervalAssignment:
        return cls(*iterable)

    @property
    def m(self) -> int:
        """Number of options."""
        return len(self.options)

    @property
    def widths(self) -> tuple[float, ...]:
        return tuple(p - n for n, p in zip(self.ne, self.po))


def _structural_violations(
    ne: list[float], po: list[float], n_labels: int, whole: bool = False
) -> list[Violation]:
    if not (len(ne) == len(po) == n_labels):
        shape = f"{n_labels} labels, {len(ne)} ne values, {len(po)} po values"
        return [Violation("LengthMismatch", f"got {shape}")]
    if not ne and not whole:  # with whole, _set_violations names this case
        return [Violation("TooFewOptions", "at least one option required")]
    out: list[Violation] = []
    for i, (lo, hi) in enumerate(zip(ne, po)):
        for name, v in (("ne", lo), ("po", hi)):
            if not math.isfinite(v) or v < -TOLERANCE or v > 1.0 + TOLERANCE:
                out.append(
                    Violation("RangeError", f"{name}[{i}] = {v!r} outside [0, 1]", i)
                )
        if math.isfinite(lo) and math.isfinite(hi) and lo > hi + TOLERANCE:
            out.append(
                Violation("BoundOrder", f"ne[{i}] = {lo!r} exceeds po[{i}] = {hi!r}", i)
            )
    if whole:
        out += _set_violations(ne, po)
    return out


def _integer(value, name: str) -> int:
    """``value`` as an int: Python and numpy integers pass, a float or a
    string is a DomainError rather than a silent truncation."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None


def _conditional_mass(q: float) -> float:
    q = float(q)
    if not (0.0 < q <= 1.0):
        raise DomainError(f"q = {q!r} outside (0, 1]")
    return q


def validate(
    raw_ne, raw_po, labels: list[str] | tuple[str, ...] | None = None
) -> IntervalAssignment:
    """Build a fully validated assignment or raise naming every violation.

    Checks, all collected into one :class:`ValidationError`:

    * ``TooFewOptions`` -- fewer than two options,
    * ``RangeError``    -- any bound outside [0, 1],
    * ``BoundOrder``    -- ne_i > po_i,
    * ``Infeasible``    -- sum(ne) > 1 or sum(po) < 1 (empty region).

    Labels default to ``opt1..optM`` when absent.  The per-option checks and
    the snapping are the constructor's: both build through one checked path.
    """
    ne = [float(x) for x in raw_ne]
    po = [float(x) for x in raw_po]
    if labels is None:
        labels = [f"opt{i + 1}" for i in range(len(ne))]
    labels = tuple(str(s) for s in labels)
    return IntervalAssignment._checked(labels, ne, po, whole=True)


def _set_violations(ne, po) -> list[Violation]:
    """The checks of :func:`validate` on the bounds as a whole, for two
    sequences of one length and type: at least two options, and (when every
    bound is finite) sum(ne) <= 1 <= sum(po)."""
    out: list[Violation] = []
    if len(ne) < 2:
        out.append(Violation("TooFewOptions", f"need at least 2 options, got {len(ne)}"))
    if all(math.isfinite(v) for v in ne + po):
        s_ne = math.fsum(ne)
        s_po = math.fsum(po)
        if s_ne > 1.0 + TOLERANCE:
            out.append(Violation("Infeasible", f"sum(ne) = {s_ne:.12g} exceeds 1"))
        if s_po < 1.0 - TOLERANCE:
            out.append(Violation("Infeasible", f"sum(po) = {s_po:.12g} is below 1"))
    return out


def tightened_bounds(a: IntervalAssignment) -> tuple[list[float], list[float]]:
    """Reachable bounds as plain vectors, without revalidation.

    po_i' = min(po_i, 1 - sum_{j!=i} ne_j), ne_i' = max(ne_i, 1 - sum_{j!=i} po_j).
    On a valid assignment these are the exact projections of the feasible
    region onto each coordinate; on an infeasible one they may cross
    (ne' > po'), which callers treat as an empty region.

    A change within TOLERANCE is discarded: the caps only restate simplex
    constraints already active in the region, so keeping the original bound
    leaves the region identical while already-tight decimal inputs come back
    bit-for-bit unchanged.
    """
    s_ne = math.fsum(a.ne)
    s_po = math.fsum(a.po)
    po2 = []
    ne2 = []
    for i in range(a.m):
        cap = 1.0 - (s_ne - a.ne[i])
        po2.append(cap if cap < a.po[i] - TOLERANCE else a.po[i])
        floor = 1.0 - (s_po - a.po[i])
        ne2.append(floor if floor > a.ne[i] + TOLERANCE else a.ne[i])
    return ne2, po2


def tighten(a: IntervalAssignment) -> IntervalAssignment:
    """Shrink bounds to their reachable form; the feasible region is unchanged.

    Every tightened bound is attained by some point of the region, so
    tightening is idempotent and never widens an interval.
    """
    ne2, po2 = tightened_bounds(a)
    return IntervalAssignment(a.options, tuple(ne2), tuple(po2))


def classify(a: IntervalAssignment) -> AssignmentClass:
    """Classify the tightened assignment as vacuous, point, or partial.

    Raises the :class:`ValidationError` that :func:`tighten` would when the
    tightened bounds cross (an empty region).  Otherwise the bounds are
    judged as they come: the snapping that :func:`tighten` adds moves none
    of them across these tests.
    """
    ne, po = tightened_bounds(a)
    violations = _structural_violations(ne, po, a.m)
    if violations:
        raise ValidationError(violations)
    bounds = list(zip(ne, po))
    if all(n <= TOLERANCE and p >= 1.0 - TOLERANCE for n, p in bounds):
        return AssignmentClass.VACUOUS
    if all(p - n <= TOLERANCE for n, p in bounds):
        return AssignmentClass.POINT
    return AssignmentClass.PARTIAL
