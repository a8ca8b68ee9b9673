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
sensitivity's three F values take one enumeration per request.  The same
region measured from the possibility vertex (p_i = po_i - y_i) is a sum of
the same form over the same widths, at the mass sum(po) - t instead of
t - sum(ne); each mass is summed from the vertex of the box nearer it,
since the enumeration is pruned at that distance.  F and the conditional
split on the option whose width the fewest others share, which costs the
equal-width grouping least.  A large sweep is split once more, on its
narrowest option z, into G'(c) - G'(c - w_z) over the other options, and
the helper process (``helper``) sums the second part while this thread
sums the first; the exact integers are subtracted, so no bit depends on
where they were summed.  The rival measures A (anxiety ordering over
sorted possibilities) and I (a Hartley-style bit count) use only the
possibility vector and are insensitive to distinctions F resolves.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from collections.abc import Sequence
from typing import NamedTuple

from . import helper
from .core import TOLERANCE, IntervalAssignment, _conditional_mass, _scaled
from .errors import CapExceeded, ValidationError, Violation

# The closed form's work limit: the subsets _sweep keeps (the first half
# once per cut, plus the second half) times (exponent + 1)^2, for the
# exponent + 1 moments each subset updates and their size.  No input of at
# most 24 options passes it: 23 distinct other widths and 4 cuts keep at
# most 12,288 subsets at exponent 23.
_WORK = 12_288 * 24**2
# Lending part of a sweep to the helper process pays above this much work,
# in _WORK's unit (see _work).  A helper idle for a millisecond takes about
# 0.2 ms to wake, so when requests are served one after another, M = 14
# with distinct widths (75,264) read 0.85 -> 1.00 ms lent, and M = 15
# (115,200) 1.27 -> 1.23 ms; grouped decimal sweeps stay under 55,000.
_LEND = 100_000
# What forking the helper costs, counted in the work that lending saves:
# about 3.4 ms (the fork and first lend 3.0 ms, pickle's import included,
# and closing it at exit 0.3 ms), at about 6 ns per unit saved.
_FORK = 600_000
# The work this process's sweeps would have saved so far by lending: the
# closed form forks the helper only once this passes _FORK (ski rental).
_forgone = 0


def _require_measurable(a: IntervalAssignment) -> None:
    if a.m < 2:
        raise ValidationError(
            [Violation("TooFewOptions", "the measure needs at least 2 options")]
        )


def _width_sums(
    groups: list[tuple[int, int]], base: int, room: int
) -> list[tuple[int, int]]:
    """(W, b) for every choice of k_v options from each group (width w_v,
    count c_v) with W = sum_v k_v * w_v < base; b = prod_v (-1)^k_v C(c_v, k_v).
    A larger W gives a zero term, and so does every extension of it.  Raises
    CapExceeded as soon as more than room sums are kept."""
    sums = [(0, 1)]
    for w, c in groups:
        grown = []
        for k in range(c + 1):
            shift = k * w
            if shift >= base:
                break
            coef = (-1) ** k * math.comb(c, k)
            grown.extend((s + shift, b * coef) for s, b in sums if s + shift < base)
            if len(grown) > room:
                raise CapExceeded(
                    f"the closed form would keep over {room} subsets in one "
                    f"half of its sum, past its work limit"
                )
        sums = grown
    return sums


@functools.lru_cache(maxsize=4)
def _halves(widths: tuple[int, ...], cuts: int) -> tuple[list, list]:
    """The equal-width groups (width, count) of _sweep's two halves for
    ``cuts`` cuts, each group going to the half with less work so far.
    Cached, since _split_sweep's estimate and the sweep it runs next take
    the same halves."""
    halves: tuple[list, list] = ([], [])
    sizes = [cuts, 1]  # first-half subsets are swept once per cut
    for group in Counter(widths).most_common():  # stable: ties keep their order
        h = sizes[1] < sizes[0]  # the half with less work so far
        halves[h].append(group)
        sizes[h] *= group[1] + 1
    return halves


def _work(widths: list[int], cuts: list[int], exponent: int) -> int:
    """_sweep's work in _WORK's unit, bounded from above: the subsets each
    half keeps when only the widths of at least the largest cut are pruned
    (they are, at once), the first half once per cut, times
    (exponent + 1)^2.  A sweep whose bound is at most _WORK cannot raise
    CapExceeded.  With four cuts and every width below the largest,
    distinct widths read 75,264 at M = 14 and 497,664 at M = 18."""
    top = max(cuts)
    first, second = (
        math.prod([c + 1 for w, c in half if w < top])
        for half in _halves(tuple(widths), len(cuts))
    )
    return (first * len(cuts) + second) * (exponent + 1) ** 2


@functools.cache
def _signed_binomials(n: int) -> tuple[int, ...]:
    """(-1)^j C(n, j) for j = 0..n, each exponent's once per process."""
    return tuple((-1) ** j * math.comb(n, j) for j in range(n + 1))


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
    total.  A cut <= 0 sums to 0.  The second half is enumerated first, and
    the first half, counted once per cut, gets what is left of the _WORK
    limit.
    """
    top = max(cuts)
    halves = _halves(tuple(widths), len(cuts))
    room = _WORK // (exponent + 1) ** 2
    second = sorted(_width_sums(halves[1], top, room))
    first = sorted(
        (c - s, v, b)
        for s, b in _width_sums(halves[0], top, (room - len(second)) // len(cuts))
        for v, c in enumerate(cuts)
        if s < c
    )

    coefs = _signed_binomials(exponent)
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


def _less(widths: list[int], cuts: list[int], shift: int, exponent: int) -> list[int]:
    """_sweep at every cut less ``shift``: a split sweep's part, run with
    shift 0 in this process and w_z in the helper (see _split_sweep).
    helper.lend pickles it by reference, so a test that swaps _sweep for a
    local spy cannot make lending fail with "Can't pickle local object"."""
    return _sweep(widths, [c - shift for c in cuts], exponent)


def _split_sweep(widths: list[int], cuts: list[int], exponent: int) -> list[int]:
    """_sweep(widths, cuts, exponent), with part of a large sweep summed in
    the helper process.

    Splitting every subset on whether it holds option z, the narrowest,
    gives G(c) = G'(c) - G'(c - w_z), where G' is the same sum over the
    other widths.  This thread sums G'(c) while the helper sums
    G'(c - w_z), and the exact integers are subtracted, so no bit depends
    on the split.  Each part does about 1/sqrt(2) of the whole's work, since
    a meet in the middle over one option fewer keeps about that share of
    the subsets.  The helper is lent only when (1) the whole's work passes
    the break-even _LEND, (2) neither the whole nor either part can pass
    _WORK, so CapExceeded is raised on exactly the inputs it was, and (3)
    the helper is running, or forking it costs less than this process's
    sweeps would already have saved with it (_FORK).  The parts share one
    bound: the shifted cuts' lower top keeps a subset of the same _halves.
    """
    global _forgone
    work = _work(widths, cuts, exponent)
    if _LEND < work <= _WORK:
        z = widths.index(min(widths))
        rest = widths[:z] + widths[z + 1 :]
        part = _work(rest, cuts, exponent)
        if part <= _WORK:
            _forgone += work - part
            lent = helper.lend(
                _less,
                (rest, cuts, 0, exponent),
                (rest, cuts, widths[z], exponent),
                fork=_forgone > _FORK,
            )
            if lent:
                return [a - b for a, b in zip(*lent)]
    return _sweep(widths, cuts, exponent)


def _volumes(
    ne: Sequence[float],
    po: Sequence[float],
    k: int,
    terms: list[tuple[float, float, float]],
) -> list[float]:
    """For each term (t, n, p), the volume of {p >= 0, sum(p) = t,
    ne <= p <= po} with option k's bounds replaced by [n, p], rescaled so the
    unconstrained mass-1 simplex has volume 1, each correctly rounded.

    Splitting every subset T on whether it holds k gives the volume as a
    difference of two values of G(x), the sum of (-1)^|T| *
    max(0, x - W_T)^(M-1) over the subsets T of the other options.  With
    Sigma lo and Sigma hi the sums of their ne and po, there are two ways:

        vol(t, n, p) = G(t - Sigma lo - n) - G(t - Sigma lo - p)   (ne vertex)
                     = G(Sigma hi + p - t) - G(Sigma hi + n - t)   (po vertex)

    the second measuring the same region in the reflected coordinates
    po_i - p_i, which have the same widths.  _sweep prunes at its largest
    cut, so each mass t sums from the vertex of the box nearer it: the po
    vertex when sum(po) - t < t - sum(ne) over all M options, else the ne
    vertex.  A term inside option k's own bounds (ne_k <= n, p <= po_k), as
    every caller's is, has its cuts within that distance.  Every float is an
    integer over a power of two, so scaling all bounds and terms by one 2^e
    makes each G exact on Python integers: one sweep (see _sweep, and
    _split_sweep for a large one) for every distinct cut, each difference
    divided once, so either vertex gives the same float.  A zero width on
    any option (k's own p <= n included) or t outside (sum(ne), sum(po))
    leaves an empty or measure-zero region, whose exact volume is 0; it is
    not swept, and a zero width on another option returns before any
    scaling, since equal floats are equal rationals.
    Total for any bounds.
    """
    m = len(ne)
    if any(b <= a for i, (a, b) in enumerate(zip(ne, po)) if i != k):
        return [0.0] * len(terms)
    ints, e = _scaled([*ne, *po, *(x for term in terms for x in term)])
    lo, hi = ints[:m], ints[m : 2 * m]
    # a mass t is nearer the po vertex when sum(po) - t < t - sum(ne)
    middle = sum(lo) + sum(hi)
    del lo[k], hi[k]
    widths = [b - a for a, b in zip(lo, hi)]
    base, top = sum(lo), sum(hi)
    # each term's two cuts from its mass's nearer vertex, or None where the
    # region has measure zero
    splits = [
        (
            (top + p - t, top + n - t)
            if middle < 2 * t
            else (t - base - n, t - base - p)
        )
        if n < p and base + n < t < top + p
        else None
        for t, n, p in zip(ints[2 * m :: 3], ints[2 * m + 1 :: 3], ints[2 * m + 2 :: 3])
    ]
    cuts = sorted({c for pair in splits if pair for c in pair})
    g = dict(zip(cuts, _split_sweep(widths, cuts, m - 1))) if cuts else {}
    scale = 1 << (e * (m - 1))
    return [(g[pair[0]] - g[pair[1]]) / scale if pair else 0.0 for pair in splits]


def _box_volumes(
    ne: Sequence[float], po: Sequence[float], masses: list[float]
) -> list[float]:
    """_volumes of the bounds as given at each mass, split on the first
    option whose width po - ne the fewest others share: _sweep weights a
    group of c equal widths by binomials, and taking the split option out of
    it costs more the larger c is.  Equal exact widths round to equal floats,
    so a unique float width is unique."""
    widths = [p - n for n, p in zip(ne, po)]
    shared = Counter(widths)
    k = min(range(len(widths)), key=lambda i: shared[widths[i]])
    return _volumes(ne, po, k, [(t, ne[k], po[k]) for t in masses])


def freedom(a: IntervalAssignment) -> float:
    """Share of the simplex volume compatible with the bounds, in [0, 1].

    Computed on the bounds as given: tightening leaves the region, and so
    the exact value, unchanged.  Raises CapExceeded when the exact sum would
    pass its work limit, which no input of at most 24 options does.
    """
    _require_measurable(a)
    return _box_volumes(a.ne, a.po, [1.0])[0]


def freedom_conditional(a: IntervalAssignment, q: float) -> float:
    """Unnormalized conditional freedom of a K-option subsystem.

    When the other options have absorbed probability 1-q as point values, the
    retained options range over the right-simplex of height q, and the major
    constant 1 in the freedom expansion is replaced by q:

        F_cond = sum_T (-1)^|T| * max(0, q - W_T)^(K-1)

    This is a volume, not a fraction of the sub-simplex (no division by
    q^(K-1)); at q = 1 it coincides with :func:`freedom`.
    """
    _require_measurable(a)
    q = _conditional_mass(q)
    return _box_volumes(a.ne, a.po, [q])[0]


def _normed(f: float, m: int) -> float:
    """f ** (1/(m-1)); exactly f at m = 2 and at 0 and 1."""
    return f ** (1.0 / (m - 1))


def normed_freedom(a: IntervalAssignment) -> float:
    """freedom(a) ** (1/(M-1)): partially corrects for the option count
    when comparing assignments of different sizes."""
    return _normed(freedom(a), a.m)


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


class MeasureReport(NamedTuple):
    """All four measures of one assignment (plus the optional conditional)."""

    freedom: float
    yager_ambiguity: float
    hartley_nonspecificity: float
    normed_freedom: float
    m: int
    conditional_freedom: float | None = None
    q: float | None = None


def measure_report(a: IntervalAssignment, q: float | None = None) -> MeasureReport:
    """Bundle F, A, I, S for one assignment.

    Freedom (and its normed form) is computed on the bounds as given, like
    the possibility-only measures, which use only the po vector.  When q is
    supplied the unnormalized conditional freedom at mass q is included,
    from the same sweep as F, and the report holds q as the float used.
    """
    _require_measurable(a)
    masses = [1.0] if q is None else [1.0, _conditional_mass(q)]
    f, *cond = _box_volumes(a.ne, a.po, masses)
    return MeasureReport(
        freedom=f,
        yager_ambiguity=yager_ambiguity(a),
        hartley_nonspecificity=hartley_nonspecificity(a),
        normed_freedom=_normed(f, a.m),
        m=a.m,
        conditional_freedom=cond[0] if cond else None,
        q=masses[1] if cond else None,
    )


class SubsetEntry(NamedTuple):
    """Conditional freedom of one retained subset of options."""

    indices: tuple[int, ...]
    labels: tuple[str, ...]
    q: float
    conditional_freedom: float


class SubsetScan(NamedTuple):
    entries: tuple[SubsetEntry, ...]
    omitted: int


def subset_scan(a: IntervalAssignment) -> SubsetScan:
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
    entries come in increasing order of the kept options' bit mask.  An
    entry that keeps an option with no width (po <= ne) is 0 without a
    sweep.  Raises CapExceeded for P > 24, before any entry, and when an
    entry's closed form passes its work limit.
    """
    if a.m < 3:
        raise ValidationError(
            [Violation("TooFewOptions", "subset scan needs at least 3 options")]
        )
    m = a.m
    points = sum(1 << i for i in range(m) if a.po[i] - a.ne[i] <= TOLERANCE)
    if (p := points.bit_count()) > 24:
        raise CapExceeded(
            f"{p} point-valued options would list 2^{p} subsets; "
            f"the scan lists at most 2^24"
        )
    # options with no width at all: a kept one makes the entry exactly 0,
    # as _volumes would find
    flat = sum(1 << i for i in range(m) if a.po[i] <= a.ne[i])
    entries: list[SubsetEntry] = []
    r = points  # the complement: each nonempty submask of points, decreasing
    while r:
        if r.bit_count() <= m - 2:
            kept = [i for i in range(m) if not r >> i & 1]
            q = 1.0 - math.fsum(a.ne[j] for j in range(m) if r >> j & 1)
            if q <= 1e-12:  # no mass left beyond the complement's rounding
                value = 0.0
                q = max(q, 0.0)
            elif flat & ~r:
                value = 0.0
            else:
                ne, po = [a.ne[i] for i in kept], [a.po[i] for i in kept]
                value = _box_volumes(ne, po, [q])[0]
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
