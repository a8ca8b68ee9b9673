"""Closed-form nonspecificity measures on interval probability assignments.

The freedom measure is the fraction of the probability simplex compatible
with the bounds.  Writing W_T = sum_{i in T} po_i + sum_{j not in T} ne_j,
inclusion-exclusion over all subsets T of the M options gives

    F = sum_T (-1)^|T| * max(0, 1 - W_T)^(M-1)

It is evaluated exactly, on integers, by meet in the middle over two halves
of the options (about 2^(M/2) subsets each, not 2^M), and rounded once to
the nearest float.  So F is 1 exactly for the vacuous assignment and 0
exactly when the region has no volume, as when an interval collapses to a
point.  One split sweep serves every closed-form value: splitting each
subset on whether it holds one option k leaves a sum G over the other
M - 1 options, and each value, at any mass and with any bounds for k, is a
difference of two G values.  So F, the conditional freedom at a mass q and
sensitivity's three F values take one enumeration per request.  The rival
measures A (anxiety ordering over sorted possibilities) and I (a
Hartley-style bit count) use only the possibility vector and are
insensitive to distinctions F resolves.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .core import TOLERANCE, IntervalAssignment
from .errors import CapExceeded, DomainError, ValidationError, Violation

# Hard cap on the option count for closed-form evaluation: the two halves
# of the meet-in-the-middle sum enumerate at most about 2^12 subsets each at
# 24 options, which keeps the worst case at desk scale.  Pass force_cap=True
# to exceed it.
OPTION_CAP = 24


def _check_cap(m: int, force_cap: bool) -> None:
    if m > OPTION_CAP and not force_cap:
        raise CapExceeded(
            f"{m} options exceed the closed-form cap of {OPTION_CAP} options "
            f"(pass force_cap=True to override)"
        )


def _require_measurable(a: IntervalAssignment, force_cap: bool) -> None:
    """The closed form's guards, in this order: 2 options, then the cap."""
    if a.m < 2:
        raise ValidationError(
            [Violation("TooFewOptions", "the measure needs at least 2 options")]
        )
    _check_cap(a.m, force_cap)


def _scaled(values: list[float]) -> tuple[list[int], int]:
    """Integers n_i and one exponent e with values[i] == n_i / 2**e exactly."""
    ratios = [v.as_integer_ratio() for v in values]
    e = max(d.bit_length() - 1 for _, d in ratios)
    return [n << (e - (d.bit_length() - 1)) for n, d in ratios], e


def _width_sums(
    groups: list[tuple[int, int]], base: int
) -> list[tuple[int, int]]:
    """(W, b) for every choice of k_v options from each group (width w_v,
    count c_v) with W = sum_v k_v * w_v < base; b = prod_v (-1)^k_v C(c_v, k_v).
    A larger W gives a zero term, and so does every extension of it."""
    sums = [(0, 1)]
    for w, c in groups:
        grown = []
        for k in range(c + 1):
            shift = k * w
            if shift >= base:
                break
            coef = (-1) ** k * math.comb(c, k)
            grown.extend((s + shift, b * coef) for s, b in sums if s + shift < base)
        sums = grown
    return sums


def _sweep(widths: list[int], cuts: list[int], exponent: int) -> list[int]:
    """For each integer cut c, the exact sum over every subset T of the
    options of (-1)^|T| * max(0, c - W_T)^exponent, where W_T sums the
    (nonnegative integer) widths in T.

    Options of equal width form one group with binomial weights, and the
    groups are split into two halves (meet in the middle), each enumerated
    once and pruned at the largest cut.  With x = c - W_A for a subset A of
    the first half and n = exponent, the second half's subsets with W_B < x
    contribute

        sum_B b_B (x - W_B)^n = sum_j nu_j x^(n-j),
        nu_j = (-1)^j C(n, j) sum_B b_B W_B^j,

    so the x of every cut, tagged with the cut and merged into one sorted
    list, are swept against the sorted second half: the sweep carries the
    n + 1 running moments nu_j and adds each x's Horner value to its cut's
    total.  A cut <= 0 sums to 0.
    """
    top = max(cuts)
    halves: tuple[list, list] = ([], [])
    sizes = [len(cuts), 1]  # first-half subsets are swept once per cut
    for group in sorted(Counter(widths).items(), key=lambda g: -g[1]):
        h = sizes[1] < sizes[0]  # the half with less work so far
        halves[h].append(group)
        sizes[h] *= group[1] + 1
    first = sorted(
        (c - s, v, b)
        for s, b in _width_sums(halves[0], top)
        for v, c in enumerate(cuts)
        if s < c
    )
    second = sorted(_width_sums(halves[1], top))

    coefs = [(-1) ** j * math.comb(exponent, j) for j in range(exponent + 1)]
    nu = [0] * (exponent + 1)
    totals = [0] * len(cuts)
    i = 0
    for x, v, bx in first:
        while i < len(second) and second[i][0] < x:
            w, t = second[i]
            i += 1
            for j, c in enumerate(coefs):
                nu[j] += c * t
                t *= w
        h = 0
        for u in nu:
            h = h * x + u
        totals[v] += bx * h
    return totals


def _volumes(
    ne: list[float], po: list[float], k: int, terms: list[tuple[float, float, float]]
) -> list[float]:
    """For each term (t, n, p), the volume of {p >= 0, sum(p) = t,
    ne <= p <= po} with option k's bounds replaced by [n, p], rescaled so the
    unconstrained mass-1 simplex has volume 1, each correctly rounded.

    Splitting every subset T on whether it holds k gives the volume as
    G(t - n) - G(t - p), where G(x) sums (-1)^|T| *
    max(0, x - sum_{i != k} ne_i - W_T)^(M-1) over the subsets T of the
    other options.  Every float is an integer over a power of two, so
    scaling all bounds and terms by one 2^e makes each G exact on Python
    integers: one sweep (see _sweep) for every distinct cut, each
    difference divided once.  A term with a zero width (k's own p <= n
    included) or with t outside (sum(ne), sum(po)) leaves an empty or
    measure-zero region, whose exact volume is 0; it is not swept.  Total
    for any bounds.
    """
    m = len(ne)
    ints, e = _scaled([*ne, *po, *(x for term in terms for x in term)])
    lo, hi = ints[:m], ints[m : 2 * m]
    del lo[k], hi[k]
    widths = [b - a for a, b in zip(lo, hi)]
    base, top = sum(lo), sum(hi)
    live = min(widths) > 0
    # each term's two cuts, or None where the region has measure zero
    splits = [
        (t - base - n, t - base - p) if live and n < p and base + n < t < top + p
        else None
        for t, n, p in zip(ints[2 * m :: 3], ints[2 * m + 1 :: 3], ints[2 * m + 2 :: 3])
    ]
    cuts = sorted({c for pair in splits if pair for c in pair})
    g = dict(zip(cuts, _sweep(widths, cuts, m - 1))) if cuts else {}
    scale = 1 << (e * (m - 1))
    return [(g[pair[0]] - g[pair[1]]) / scale if pair else 0.0 for pair in splits]


def _conditional_mass(q: float) -> float:
    q = float(q)
    if not (0.0 < q <= 1.0):
        raise DomainError(f"q = {q!r} outside (0, 1]")
    return q


def freedom(a: IntervalAssignment, *, force_cap: bool = False) -> float:
    """Fraction of the simplex volume compatible with the bounds, in [0, 1].

    Computed on the bounds as given: tightening leaves the region, and so
    the exact value, unchanged.  Raises CapExceeded for more than OPTION_CAP
    options unless forced.
    """
    _require_measurable(a, force_cap)
    return _volumes(list(a.ne), list(a.po), 0, [(1.0, a.ne[0], a.po[0])])[0]


def freedom_conditional(
    a: IntervalAssignment, q: float, *, force_cap: bool = False
) -> float:
    """Unnormalized conditional freedom of a K-option subsystem.

    When the other options have absorbed probability 1-q as point values, the
    retained options range over the right-simplex of height q, and the major
    constant 1 in the freedom expansion is replaced by q:

        F_cond = sum_T (-1)^|T| * max(0, q - W_T)^(K-1)

    This is a volume, not a fraction of the sub-simplex (no division by
    q^(K-1)); at q = 1 it coincides with :func:`freedom`.
    """
    _require_measurable(a, force_cap)
    q = _conditional_mass(q)
    return _volumes(list(a.ne), list(a.po), 0, [(q, a.ne[0], a.po[0])])[0]


def _normed(f: float, m: int) -> float:
    """f ** (1/(m-1)), returning f itself at m = 2 and at 0 and 1."""
    if m == 2 or f == 0.0 or f == 1.0:
        return f
    return f ** (1.0 / (m - 1))


def normed_freedom(a: IntervalAssignment, *, force_cap: bool = False) -> float:
    """freedom(a) ** (1/(M-1)): partially corrects for the option count
    when comparing assignments of different sizes."""
    return _normed(freedom(a, force_cap=force_cap), a.m)


def yager_ambiguity(a: IntervalAssignment) -> float:
    """Anxiety/ambiguity score over the sorted possibility vector.

    With po sorted descending as p(1) >= ... >= p(M) and p(M+1) = 0:

        A = 1 - sum_i (p(i) - p(i+1)) / i

    A crisp singleton (one po = 1, rest 0) scores 0.  Uses only the po
    vector as given; ties are permitted in the sort.
    """
    p = sorted(a.po, reverse=True)
    p.append(0.0)
    return 1.0 - math.fsum((p[i] - p[i + 1]) / (i + 1) for i in range(a.m))


def hartley_nonspecificity(a: IntervalAssignment) -> float:
    """Hartley-style nonspecificity in bits over the sorted possibilities:

        I = sum_i (p(i) - p(i+1)) * log2(i)

    Ranges over [0, log2(M)]; note log2(1) = 0, so the largest possibility
    never contributes and raising it leaves I unchanged.
    """
    p = sorted(a.po, reverse=True)
    p.append(0.0)
    return math.fsum((p[i] - p[i + 1]) * math.log2(i + 1) for i in range(a.m))


@dataclass(frozen=True)
class MeasureReport:
    """All four measures of one assignment (plus the optional conditional)."""

    freedom: float
    yager_ambiguity: float
    hartley_nonspecificity: float
    normed_freedom: float
    m: int
    conditional_freedom: float | None = None
    q: float | None = None


def measure_report(
    a: IntervalAssignment, q: float | None = None, *, force_cap: bool = False
) -> MeasureReport:
    """Bundle F, A, I, S for one assignment.

    Freedom (and its normed form) is computed on the bounds as given, like
    the possibility-only measures, which use only the po vector.  When q is
    supplied the unnormalized conditional freedom at mass q is included,
    from the same sweep as F, and the report holds q as the float used.
    """
    _require_measurable(a, force_cap)
    masses = [1.0] if q is None else [1.0, _conditional_mass(q)]
    terms = [(t, a.ne[0], a.po[0]) for t in masses]
    f, *cond = _volumes(list(a.ne), list(a.po), 0, terms)
    return MeasureReport(
        freedom=f,
        yager_ambiguity=yager_ambiguity(a),
        hartley_nonspecificity=hartley_nonspecificity(a),
        normed_freedom=_normed(f, a.m),
        m=a.m,
        conditional_freedom=cond[0] if cond else None,
        q=masses[1] if cond else None,
    )


@dataclass(frozen=True)
class SubsetEntry:
    """Conditional freedom of one retained subset of options."""

    indices: tuple[int, ...]
    labels: tuple[str, ...]
    q: float
    conditional_freedom: float


@dataclass(frozen=True)
class SubsetScan:
    entries: tuple[SubsetEntry, ...]
    omitted: int


def subset_scan(a: IntervalAssignment, *, force_cap: bool = False) -> SubsetScan:
    """Conditional freedom for every proper subset whose complement is
    entirely point-valued.

    For each proper subset K with |K| >= 2 whose complement options all have
    ne_j = po_j (within tolerance), the complement mass is fixed and the
    retained options move in a right-simplex of height q = 1 - sum of the
    complement's point values; the entry reports F_cond at that q.  Subsets
    whose complement carries interval-valued belief have no defined
    conditional mass and are omitted (counted in ``omitted``).  Singletons
    are excluded: a one-option measure is degenerate.  Only complements of
    point-valued options are visited, 2^P of them for P such options, and
    entries come in increasing order of the kept options' bit mask.
    """
    if a.m < 3:
        raise ValidationError(
            [Violation("TooFewOptions", "subset scan needs at least 3 options")]
        )
    _check_cap(a.m, force_cap)
    m = a.m
    points = sum(1 << i for i in range(m) if a.po[i] - a.ne[i] <= TOLERANCE)
    entries: list[SubsetEntry] = []
    r = points  # the complement: each nonempty submask of points, decreasing
    while r:
        if r.bit_count() <= m - 2:
            kept = [i for i in range(m) if not r >> i & 1]
            q = 1.0 - math.fsum(a.ne[j] for j in range(m) if r >> j & 1)
            if q <= 1e-12:  # no mass left beyond the complement's rounding
                value = 0.0
                q = max(q, 0.0)
            else:
                ne, po = [a.ne[i] for i in kept], [a.po[i] for i in kept]
                value = _volumes(ne, po, 0, [(q, ne[0], po[0])])[0]
            entries.append(
                SubsetEntry(
                    indices=tuple(kept),
                    labels=tuple(a.options[i] for i in kept),
                    q=q,
                    conditional_freedom=value,
                )
            )
        r = (r - 1) & points
    # every other subset with 2 <= |K| < M, of 2^M - M - 2, is omitted
    return SubsetScan(entries=tuple(entries), omitted=(1 << m) - m - 2 - len(entries))
