"""Impact of possibility versus necessity changes on the freedom measure.

Lowering po_k and raising ne_k both shrink the feasible region, but not
symmetrically: raising ne_k also consumes probability mass available to the
other options.  The dominance condition

    sum_{i != k} ne_i  <  1 - sum_{i != k} po_i

identifies when the possibility side matters more.  For impositions on a
vacuous coordinate (po_k = 1 - eps versus ne_k = eps) the condition is exact:
the po imposition removes at least as much volume if and only if it holds.
For small perturbations of already-tight bounds the two sides act at
interior positions of the region and either one can dominate regardless of
the condition, so reports carry the measured losses rather than trusting it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import TOLERANCE, IntervalAssignment, _set_violations
from .errors import (
    DomainError,
    IndexOutOfRange,
    InvalidPerturbation,
    NotVacuous,
    ValidationError,
)
from .measures import _require_measurable, _volumes
from .oracle import _integer

PO_DOMINATES = "po_dominates"
NE_DOMINATES = "ne_dominates"
TIE = "tie"


@dataclass(frozen=True)
class SensitivityReport:
    """Freedom lost to a possibility cut versus a necessity raise at one
    coordinate.  ``delta`` is the perturbation (or imposition) magnitude."""

    index: int
    delta: float
    loss_from_po: float
    loss_from_ne: float
    condition_holds: bool
    verdict: str


def _check_index(a: IntervalAssignment, k: int) -> int:
    k = _integer(k, "index")
    if not 0 <= k < a.m:
        raise IndexOutOfRange(f"index {k} outside [0, {a.m - 1}]")
    return k


def dominance_condition(a: IntervalAssignment, k: int) -> bool:
    """True when the possibility side dominates at coordinate k:
    sum of the other necessities < 1 - sum of the other possibilities."""
    k = _check_index(a, k)
    s_ne = math.fsum(a.ne[j] for j in range(a.m) if j != k)
    s_po = math.fsum(a.po[j] for j in range(a.m) if j != k)
    return s_ne < 1.0 - s_po


def _verdict(loss_po: float, loss_ne: float) -> str:
    diff = loss_po - loss_ne
    if abs(diff) <= TOLERANCE:
        return TIE
    return PO_DOMINATES if diff > 0.0 else NE_DOMINATES


def impact_compare(a: IntervalAssignment, k: int, delta: float) -> SensitivityReport:
    """Compare F(a) - F(po_k - delta) against F(a) - F(ne_k + delta).

    The perturbations apply to the bounds exactly as given; a bound with
    reachable slack absorbs part of the perturbation without moving the
    region, so comparisons are most meaningful on tightened assignments.
    Raises InvalidPerturbation when either perturbed assignment would be
    invalid.
    """
    k = _check_index(a, k)
    delta = float(delta)
    if delta < 0.0 or not math.isfinite(delta):
        raise DomainError(f"delta = {delta!r} must be finite and nonnegative")
    if a.po[k] - delta < a.ne[k] - TOLERANCE:
        raise InvalidPerturbation(
            f"po[{k}] - {delta:.12g} falls below ne[{k}] = {a.ne[k]:.12g}"
        )
    if a.ne[k] + delta > a.po[k] + TOLERANCE:
        raise InvalidPerturbation(
            f"ne[{k}] + {delta:.12g} exceeds po[{k}] = {a.po[k]:.12g}"
        )
    po_k = max(a.po[k] - delta, a.ne[k])
    ne_k = min(a.ne[k] + delta, a.po[k])
    # both perturbed assignments pass every per-option check, so only the
    # checks on the bounds as a whole can fail; the po side is judged first
    for ne, po in (
        (a.ne, a.po[:k] + (po_k,) + a.po[k + 1 :]),
        (a.ne[:k] + (ne_k,) + a.ne[k + 1 :], a.po),
    ):
        violations = _set_violations(ne, po)
        if violations:
            raise InvalidPerturbation(
                f"perturbed assignment invalid: {ValidationError(violations)}"
            )
    return _report(a, k, delta, po_k, ne_k)


def _report(
    a: IntervalAssignment, k: int, size: float, po_k: float, ne_k: float
) -> SensitivityReport:
    """Losses from lowering option k's possibility to po_k <= po[k] and from
    raising its necessity to ne_k >= ne[k], all three freedoms from one sweep
    over the other options: nested regions, so no loss is negative, and a
    new bound past the other one leaves freedom exactly 0."""
    _require_measurable(a)
    terms = [(1.0, a.ne[k], a.po[k]), (1.0, a.ne[k], po_k), (1.0, ne_k, a.po[k])]
    f0, f_po, f_ne = _volumes(list(a.ne), list(a.po), k, terms)
    loss_po, loss_ne = f0 - f_po, f0 - f_ne
    return SensitivityReport(
        index=k,
        delta=size,
        loss_from_po=loss_po,
        loss_from_ne=loss_ne,
        condition_holds=dominance_condition(a, k),
        verdict=_verdict(loss_po, loss_ne),
    )


def imposition_compare(a: IntervalAssignment, k: int, eps: float) -> SensitivityReport:
    """Compare imposing po_k = 1 - eps against imposing ne_k = eps on a
    currently vacuous coordinate (the two impositions are complementary:
    1 - po_k = ne_k = eps).

    Either imposition may annihilate the region entirely (freedom 0); the
    loss then equals F(a).  The dominance condition decides this comparison
    exactly whenever the losses differ.  Each imposition is clamped to the
    bounds, which may lie within TOLERANCE of vacuous; one they meet loses 0.
    """
    k = _check_index(a, k)
    eps = float(eps)
    if not (0.0 < eps < 1.0):
        raise DomainError(f"eps = {eps!r} outside (0, 1)")
    if a.ne[k] > TOLERANCE or a.po[k] < 1.0 - TOLERANCE:
        raise NotVacuous(
            f"coordinate {k} has ne = {a.ne[k]:.12g}, po = {a.po[k]:.12g}; "
            "imposition needs ne = 0 and po = 1"
        )
    return _report(a, k, eps, min(1.0 - eps, a.po[k]), max(eps, a.ne[k]))
