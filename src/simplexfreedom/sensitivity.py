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
from dataclasses import dataclass, replace

from .core import TOLERANCE, IntervalAssignment, validate
from .errors import (
    DomainError,
    IndexOutOfRange,
    InvalidPerturbation,
    NotVacuous,
    ValidationError,
)
from .measures import _require_measurable, _volumes

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


def _check_index(a: IntervalAssignment, k: int) -> None:
    if not 0 <= k < a.m:
        raise IndexOutOfRange(f"index {k} outside [0, {a.m - 1}]")


def dominance_condition(a: IntervalAssignment, k: int) -> bool:
    """True when the possibility side dominates at coordinate k:
    sum of the other necessities < 1 - sum of the other possibilities."""
    _check_index(a, k)
    s_ne = math.fsum(a.ne[j] for j in range(a.m) if j != k)
    s_po = math.fsum(a.po[j] for j in range(a.m) if j != k)
    return s_ne < 1.0 - s_po


def _verdict(loss_po: float, loss_ne: float) -> str:
    diff = loss_po - loss_ne
    if abs(diff) <= TOLERANCE:
        return TIE
    return PO_DOMINATES if diff > 0.0 else NE_DOMINATES


def impact_compare(
    a: IntervalAssignment, k: int, delta: float, *, force_cap: bool = False
) -> SensitivityReport:
    """Compare F(a) - F(po_k - delta) against F(a) - F(ne_k + delta).

    The perturbations apply to the bounds exactly as given; a bound with
    reachable slack absorbs part of the perturbation without moving the
    region, so comparisons are most meaningful on tightened assignments.
    Raises InvalidPerturbation when either perturbed assignment would be
    invalid.
    """
    _check_index(a, k)
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
    po2 = list(a.po)
    po2[k] = max(po2[k] - delta, a.ne[k])
    ne2 = list(a.ne)
    ne2[k] = min(ne2[k] + delta, a.po[k])
    try:
        a_po = validate(a.ne, po2, a.options)
        a_ne = validate(ne2, a.po, a.options)
    except ValidationError as exc:
        raise InvalidPerturbation(f"perturbed assignment invalid: {exc}") from exc
    return _report(a, k, delta, a_po, a_ne, force_cap)


def _report(
    a: IntervalAssignment,
    k: int,
    delta: float,
    a_po: IntervalAssignment,
    a_ne: IntervalAssignment,
    force_cap: bool,
) -> SensitivityReport:
    """Losses of a_po and a_ne, which differ from a only at option k, with
    all three freedoms from one sweep over the other options."""
    _require_measurable(a, force_cap)
    terms = [(1.0, b.ne[k], b.po[k]) for b in (a, a_po, a_ne)]
    f0, f_po, f_ne = _volumes(list(a.ne), list(a.po), k, terms)
    loss_po = max(0.0, f0 - f_po)
    loss_ne = max(0.0, f0 - f_ne)
    return SensitivityReport(
        index=k,
        delta=delta,
        loss_from_po=loss_po,
        loss_from_ne=loss_ne,
        condition_holds=dominance_condition(a, k),
        verdict=_verdict(loss_po, loss_ne),
    )


def imposition_compare(
    a: IntervalAssignment, k: int, eps: float, *, force_cap: bool = False
) -> SensitivityReport:
    """Compare imposing po_k = 1 - eps against imposing ne_k = eps on a
    currently vacuous coordinate (the two impositions are complementary:
    1 - po_k = ne_k = eps).

    Either imposition may annihilate the region entirely (freedom 0); the
    loss then equals F(a).  The dominance condition decides this comparison
    exactly whenever the losses differ.
    """
    _check_index(a, k)
    eps = float(eps)
    if not (0.0 < eps < 1.0):
        raise DomainError(f"eps = {eps!r} outside (0, 1)")
    if a.ne[k] > TOLERANCE or a.po[k] < 1.0 - TOLERANCE:
        raise NotVacuous(
            f"coordinate {k} has ne = {a.ne[k]:.12g}, po = {a.po[k]:.12g}; "
            "imposition needs ne = 0 and po = 1"
        )
    po2 = list(a.po)
    po2[k] = 1.0 - eps
    ne2 = list(a.ne)
    ne2[k] = eps
    a_po = replace(a, po=tuple(po2))
    a_ne = replace(a, ne=tuple(ne2))
    return _report(a, k, eps, a_po, a_ne, force_cap)
