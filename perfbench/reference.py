"""Exact references and output checks for the benchmark.

The closed-form reference evaluates the inclusion-exclusion sum of
``simplexfreedom.measures`` on Python integers.  Every float is k * 2^-e, so
scaling all bounds by one common power of two makes every term exact; the
sum is rounded once, as a Fraction.  Options that share a width are grouped
with binomial weights, so equal-width inputs cost prod(c_v + 1) terms
instead of 2^M.  Nothing here imports the package under test.

Each check records into a ``Verdict``.  ``strict`` is the check that feeds
the failed-request count: a printed number must lie within 1e-9
relative of its exact value.  ``hard`` is the looser bound that no correct
float implementation can miss (the round-off bound of float
inclusion-exclusion, exact integer identities of the sampler reports, the
margin formulas); a miss there is a wrong program, not a known defect.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import mul

import numpy as np

TOLERANCE = 1e-9  # the package's documented input tolerance
REL_CHECK = 1e-9  # relative accuracy a printed closed-form number must meet
_U = 2.0**-53


@dataclass(frozen=True)
class Exact:
    """Exact volume of one box-simplex region and the cost of its sum."""

    value: Fraction
    terms: int  # terms the ungrouped, pruned recursion visits
    abs_sum: float  # sum of |term| over those terms, rescaled like value

    def float_error_bound(self, m: int) -> float:
        """Worst-case error of the float recursion: each term carries about
        2M(M+2) ulps from its argument and power, and recursive summation
        adds terms * ulp * sum|term|."""
        return self.terms * _U * (self.abs_sum + 8.0 * m * m)


def _scaled(values: list[float]) -> tuple[list[int], int]:
    """Integers n_i and one exponent e with values[i] == n_i / 2**e exactly."""
    ratios = [v.as_integer_ratio() for v in values]
    e = max(d.bit_length() - 1 for _, d in ratios)
    return [n << (e - (d.bit_length() - 1)) for n, d in ratios], e


def box_simplex_volume(
    ne: list[float], po: list[float], mass: float = 1.0
) -> Exact:
    """Exact value of sum_T (-1)^|T| max(0, mass - W_T)^(M-1) for float bounds.

    The pruned subsets are enumerated group by group in integer arrays
    (exact: every argument is an integer multiple of 2^-e), then the powers
    are summed on Python integers.
    """
    m = len(ne)
    ints, e = _scaled([float(x) for x in (*ne, *po, mass)])
    n_int, p_int, q_int = ints[:m], ints[m : 2 * m], ints[2 * m]
    base = q_int - sum(n_int)
    if base <= 0 or sum(p_int) <= q_int:
        return Exact(Fraction(0), 1, 0.0)
    dtype = np.int64 if e <= 62 else object  # every argument is below 2^e
    args = np.array([base], dtype=dtype)
    weights = np.array([1], dtype=np.int64)  # signed binomial weights
    for w, c in sorted(Counter(p - n for n, p in zip(n_int, p_int)).items()):
        parts_a, parts_w = [args], [weights]
        a, wt = args, weights
        for k in range(1, c + 1):
            a = a - w
            keep = a > 0
            if not keep.any():
                break
            a, wt = a[keep], wt[keep]
            parts_a.append(a)
            parts_w.append(wt * ((-1) ** k * math.comb(c, k)))
        args, weights = np.concatenate(parts_a), np.concatenate(parts_w)
    power = m - 1
    total = sum(map(mul, weights.tolist(), map(pow, args.tolist(), repeat(power))))
    scaled_args = args.astype(np.float64) * 2.0**-e
    abs_sum = float(np.abs(weights) @ scaled_args**power)
    return Exact(Fraction(total, 1 << (e * power)), int(np.abs(weights).sum()), abs_sum)


class ClosedForms:
    """Memoized exact closed forms over the float bounds exactly as given."""

    def __init__(self) -> None:
        self._memo: dict[tuple, Exact] = {}

    def volume(self, ne, po, mass: float = 1.0) -> Exact:
        key = (tuple(ne), tuple(po), mass)
        if key not in self._memo:
            self._memo[key] = box_simplex_volume(list(ne), list(po), mass)
        return self._memo[key]


@dataclass
class Verdict:
    strict: bool = True
    hard: bool = True
    notes: list[str] | None = None

    def fail(self, what: str, hard: bool) -> None:
        self.strict = False
        self.hard = self.hard and not hard
        self.notes = (self.notes or []) + [what]


def _close(printed: float, exact: Fraction | float, rel: float) -> bool:
    exact = Fraction(exact)
    return abs(Fraction(printed) - exact) <= rel * abs(exact)


def _round12(x: float) -> float:
    return float(f"{x:.12g}")


def check_closed(v: Verdict, what: str, printed: float, ex: Exact, m: int) -> None:
    """Strict: within REL_CHECK of exact.  Hard: within the float round-off bound."""
    if _close(printed, ex.value, REL_CHECK):
        return
    err = abs(Fraction(printed) - ex.value)
    hard = err > REL_CHECK * abs(ex.value) + Fraction(ex.float_error_bound(m))
    v.fail(f"{what}: printed {printed!r}, exact {float(ex.value)!r}", hard)


def check_loss(
    v: Verdict, what: str, printed: float, f0: Exact, f1: Exact, m: int
) -> Fraction:
    """A sensitivity loss max(0, F0 - F1); returns the exact loss."""
    exact = max(Fraction(0), f0.value - f1.value)
    if not _close(printed, exact, REL_CHECK):
        err = abs(Fraction(printed) - exact)
        slack = f0.float_error_bound(m) + f1.float_error_bound(m)
        hard = err > REL_CHECK * exact + Fraction(slack)
        v.fail(f"{what}: printed {printed!r}, exact {float(exact)!r}", hard)
    return exact


def check_equal(v: Verdict, what: str, printed, expected) -> None:
    if printed != expected:
        v.fail(f"{what}: printed {printed!r}, expected {expected!r}", True)


def check_float(v: Verdict, what: str, printed: float, expected: float) -> None:
    """A float the program computes by a formula the benchmark can repeat."""
    if printed != _round12(expected) and not _close(printed, expected, REL_CHECK):
        v.fail(f"{what}: printed {printed!r}, expected {expected!r}", True)


def yager_exact(po: list[float]) -> Fraction:
    p = sorted((Fraction(x) for x in po), reverse=True) + [Fraction(0)]
    return 1 - sum((p[i] - p[i + 1]) / (i + 1) for i in range(len(po)))


def hartley_float(po: list[float]) -> float:
    p = sorted(po, reverse=True) + [0.0]
    return math.fsum((p[i] - p[i + 1]) * math.log2(i + 1) for i in range(len(po)))


def tightened(ne: list[float], po: list[float]) -> tuple[list[float], list[float]]:
    """The package's documented tightening rule, repeated in floats."""
    s_ne, s_po = math.fsum(ne), math.fsum(po)
    ne2, po2 = [], []
    for n, p in zip(ne, po):
        cap = 1.0 - (s_ne - n)
        po2.append(cap if cap < p - TOLERANCE else p)
        floor = 1.0 - (s_po - p)
        ne2.append(floor if floor > n + TOLERANCE else n)
    return ne2, po2


def classification(ne: list[float], po: list[float]) -> str:
    t_ne, t_po = tightened(ne, po)
    if all(n <= TOLERANCE and p >= 1.0 - TOLERANCE for n, p in zip(t_ne, t_po)):
        return "vacuous"
    if all(p - n <= TOLERANCE for n, p in zip(t_ne, t_po)):
        return "point"
    return "partial"


def check_estimate(v: Verdict, what: str, mean: float, se: float, samples: int) -> int:
    """A rejection estimate is accepted/samples with its binomial SE.
    Returns the accepted count."""
    accepted = round(mean * samples)
    if _round12(accepted / samples) != mean or not 0 <= accepted <= samples:
        v.fail(f"{what}: mean {mean!r} is not k/{samples}", True)
    frac = accepted / samples
    check_float(v, f"{what} std_error", se, math.sqrt(frac * (1.0 - frac) / samples))
    return accepted


def cell_expectation(ne_r: float, po_r: float, ne_c: float, po_c: float) -> dict:
    """Frechet bounds and case tag of one cell, from the margin formulas."""
    if ne_r + ne_c > 1.0:
        case, d = "case1", 0.0
    elif po_r + po_c < 1.0:
        case, d = "case2", 1.0
    else:
        lhs, rhs = 1.0 - min(ne_r, ne_c), max(po_r, po_c)
        case, d = (
            ("boundary", None) if lhs == rhs
            else ("case3a", 1.0) if lhs > rhs
            else ("case3b", 0.0)
        )
    return {
        "ne_lower": max(0.0, ne_r + ne_c - 1.0),
        "ne_upper": min(ne_r, ne_c),
        "po_lower": max(0.0, po_r + po_c - 1.0),
        "po_upper": min(po_r, po_c),
        "case": case,
        "d_maximizing": d,
    }
