"""Independent verification: seeded sampling, rejection volume estimates, and
exact M=3 region geometry.

Every estimator here is driven by a small, fully specified 64-bit generator
(splitmix64) so that estimates are reproducible bit for bit from (input,
seed, samples) alone, on any platform and in any implementation language.
The update equations, all modulo 2^64:

    state   <- state + 0x9E3779B97F4A7C15
    z       <- state
    z       <- (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9
    z       <- (z XOR (z >> 27)) * 0x94D049BB133111EB
    output  <- z XOR (z >> 31)

A uniform double in [0, 1) is (output >> 11) * 2^-53.  Because the k-th
output is a pure function of seed + k*0x9E3779B97F4A7C15, block generation
vectorizes exactly onto the sequential stream.

Simplex sampling uses the order-statistics spacings construction: sort M-1
uniforms and take successive differences against 0 and 1.  This is exactly
uniform on the simplex and needs no transcendental functions.  All three
rejection estimators (``mc_freedom``, ``mc_freedom_conditional`` and
``crosstab.mc_joint_freedom``, with cells flattened row-major) keep a row
when each of their tests ne <= scale * (sum of some spacings) <= po holds:
one spacing per test for a box, one table row or column per test for a joint
table.  They share one layout: rows come in blocks of 2^20 (the last holds
the rest), coordinate i of row r in a block is word i*rows + r of that
block, and each row is sorted ascending (any correct sort gives the same
bits).  That layout is the contract.  A block is evaluated one sub-block
at a time, each coordinate read from the stream seeked to the start of its
counter run, which is only an order of evaluation: it changes no bit of any
estimate.  So is the sub-block's size: at most 2^15 rows, and fewer as k
grows, so that a process's k + 1 rows of it stay in its L2 cache
(``_rows``).  So is the process: with a second CPU, the one helper
process (``helper``) counts the odd sub-blocks of an estimate while the
caller counts the even ones.  splitmix64 is counter-based, so any split of
the counter space draws the same words (Steele, Lea & Flood, OOPSLA 2014;
Salmon et al., SC 2011).  Each process has one sub-block workspace, cut from
one buffer so that its rows and masks start on 4 KiB pages: k coordinate
rows, one spare row and two boolean masks.  One kernel, ``_fill``, runs the
update equations on a whole row in place, and fills each coordinate row with
the spare row as its scratch; a sorting network for k wires then sorts the
rows in place through the spare row, and the spare row then holds each
test's sum in turn.  No row allocates a temporary.

The contract above is stated in doubles, and a float implementation of it
gets the same bits as this one, which evaluates it in the 53-bit integers
x = output >> 11 behind the uniforms x * 2^-53.  Every uniform is an exact
multiple of 2^-53 in [0, 1), so every spacing u[0], u[j] - u[j-1] and
1 - u[-1] is exact in floating point, and so is every row or column sum of
joint-table spacings, because it is at most 1.  Each tested double is
therefore exactly s * 2^-53 for an integer s in [0, 2^53] (times q for the
conditional form, rounded once), a nondecreasing function of s, so each
acceptance test holds exactly on a run lo <= s <= hi of integers.  The
sampler sorts and sums the integers and compares them with those cuts, found
once per estimate from the midpoints beside the bounds, reading the float
test only at a tie (``_cuts``).  A run of consecutive spacings a..z sums to
one difference x[z+1] - x[a] of the sorted integers x = (0, u_0, ...,
u_{k-1}, 2^53), so no spacing is formed on its own.

numpy is imported only inside the functions that build or touch arrays, so
it loads on the first sampling call (``verify`` and ``crosstab``).  A helper
forked by an estimate is forked after it, so that it inherits numpy; one
that the closed form forked first imports numpy on its first sampling job.
"""

from __future__ import annotations

import functools
import math
import warnings
from typing import TYPE_CHECKING, NamedTuple

from . import helper
from .core import IntervalAssignment, _integer
from .errors import DomainError, LowAcceptanceWarning, WrongDimension
from .measures import _conditional_mass

if TYPE_CHECKING:
    from numbers import Rational

    import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Samples per internal block.  Fixed constant: the coordinate-major stream
# layout in the module docstring depends on it, and changing it would change
# estimates.
_CHUNK = 1 << 20
# The kernel works on the 53-bit integers x = output >> 11 behind the
# uniforms x * 2^-53; 1.0 is this integer.
_ONE = 1 << 53
# Rows per sub-block at most, in every process, and the rows of
# ``SplitMix64.uniforms``' one scratch row: 2^16 measured 10-35% slower
# than 2^15 (M = 8: 49-52 -> 54-69 ms per 10^6 samples).  Only the order of
# evaluation depends on it; estimates do not.
_SUB = 1 << 15
# A process's k + 1 uint64 rows of one sub-block fit in this many bytes
# (``_rows``), three quarters of a core's 2 MiB L2: 2^15 rows for k <= 5,
# 2^14 for k = 6..11, 2^13 for k = 12..23, and so on down to one row.  Per
# estimate at 10^6 samples on two workers, 2^15 against 2^14 rows: 3x4
# tables (k = 11) 26.1 against 22.4 ms, 3x3 16.0 against 14.5, 2x4 13.3
# against 12.5, M = 8 13.4 against 12.7 and M = 7 10.8 against 10.6 ms;
# at k <= 5, 2^14 rows measured 2-7% slower.
_L2 = 3 << 19
# Each estimate's workspace starts on a page: where the heap put it moved a
# whole estimate (16 vs 0 mod 64 bytes at 10^6 samples: M = 6 14.0 vs
# 12.6 ms, M = 9 23.2 vs 22.1 ms).
_PAGE = 1 << 12
# An estimate from fewer accepted rows than this is noisy: the estimators
# warn with _NOISY, which verify prints, and crosstab reports low_acceptance.
MIN_ACCEPTED = 100
_NOISY = "only {} of {} samples accepted; the estimate is noisy"


@functools.cache
def _network(k: int) -> tuple[tuple[int, int], ...]:
    """Comparators (i, j), i < j, of Batcher's merge-exchange network on k
    wires: Knuth, TAOCP vol. 3, 5.3.4, Algorithm M.  12, 16, 19, 26, 31 and
    37 comparators for k = 6..11.

    Every k takes this one path: any correct sort gives the same bits.  The
    comparator count grows as k (log k)^2, but two contiguous min/max passes
    per comparator took 0.2-0.5 of the time of a strided np.sort of the same
    (k, 2^15) sub-block for k = 6..16, and 0.5-0.8 of it up to k = 80."""
    pairs: list[tuple[int, int]] = []
    # 2^(t-1) for the least t with 2^t >= k
    p = top = (1 << (k - 1).bit_length()) >> 1
    while p:
        q, r, d = top, 0, p
        while True:
            pairs += [(i, i + d) for i in range(k - d) if i & p == r]
            if q == p:
                break
            d, q, r = q - p, q >> 1, p
        p >>= 1
    return tuple(pairs)


def mix64(x: int) -> int:
    """The splitmix64 output function on one 64-bit word."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


class SplitMix64:
    """Counter-based splitmix64 stream; scalar and block draws agree bitwise."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = _seed(seed)

    def next_uint64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return mix64(self._state)

    def random(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.next_uint64() >> 11) * 2.0**-53

    def uniforms(self, n: int) -> np.ndarray:
        """The next n draws of the stream as one vectorized float64 row of
        the doubles (output >> 11) * 2^-53."""
        import numpy as np

        n = _integer(n, "n")
        if n < 0:
            raise DomainError(f"n = {n} must be >= 0")
        row = np.empty(n, dtype=np.uint64)
        scratch = np.empty(min(n, _SUB), dtype=np.uint64)
        for start in range(0, n, _SUB):
            w = row[start : start + _SUB]
            _fill(w, self._state, scratch[: len(w)])
            self._state = (self._state + len(w) * _GOLDEN) & _MASK64
        # exact: every word is below 2^53, and each double lands on its own word
        return np.multiply(row, 2.0**-53, out=row.view(np.float64))


@functools.cache
def _constants() -> tuple:
    """Read-only counter offsets k * 0x9E3779B97F4A7C15 for k = 1.._SUB,
    then the shifts and multipliers of the update equations as numpy
    scalars."""
    import numpy as np

    offsets = np.arange(1, _SUB + 1, dtype=np.uint64)
    offsets *= np.uint64(_GOLDEN)
    offsets.flags.writeable = False
    return offsets, *map(np.uint64, (30, _MIX1, 27, _MIX2, 31, 11))


def _fill(w: np.ndarray, state: int, scratch: np.ndarray) -> None:
    """The 53-bit integers output >> 11 of the next len(w) <= _SUB words of
    the stream at ``state``, written into the uint64 row ``w`` with every
    shift going through ``scratch``, a uint64 row as long: the update
    equations, and no temporaries."""
    import numpy as np

    offsets, s30, m1, s27, m2, s31, s11 = _constants()
    np.add(offsets[: len(w)], np.uint64(state & _MASK64), out=w)
    np.right_shift(w, s30, out=scratch)
    w ^= scratch
    w *= m1
    np.right_shift(w, s27, out=scratch)
    w ^= scratch
    w *= m2
    np.right_shift(w, s31, out=scratch)
    w ^= scratch
    w >>= s11


class MCEstimate(NamedTuple):
    """A Monte-Carlo volume estimate, its binomial standard error, and the
    count of accepted samples behind it."""

    mean: float
    std_error: float
    samples: int
    seed: int  # reduced mod 2^64, as the stream uses it
    accepted: int


def _seed(value) -> int:
    """The seed as the stream uses it: an integer reduced mod 2^64."""
    return _integer(value, "seed") & _MASK64


def _check_samples(samples: int) -> int:
    """Every estimator checks its sample count before its other arguments,
    and goes on with the int this returns."""
    samples = _integer(samples, "samples")
    if samples < 1:
        raise DomainError("samples must be >= 1")
    return samples


def _estimate(
    k: int, samples: int, seed: int, tests, scale: float = 1.0
) -> MCEstimate:
    """The one rejection sampler: ``samples`` rows of k sorted uniforms in the
    layout above, spaced into p_0 .. p_k.  ``tests`` lists the acceptance
    tests as (cells, ne, po), stated in floats: a row is kept when
    ne <= scale * sum(p_c for c in cells) <= po for every test.  The
    accepted fraction and its binomial SE are scaled by scale^k.  Warns at
    the estimator's caller when fewer than 100 rows are accepted.

    Each test becomes integer cuts (``_cuts``) and the sorted integers its
    sum adds and subtracts (``_ends``), summed into the spare row; uint64
    arithmetic wraps modulo 2^64, and every sum ends in [0, 2^53], so the
    order of the terms is free.  Each sub-block holds ``_rows(k)`` rows
    (the last of a block the rest).  The helper process counts the odd
    sub-blocks (``helper.lend``) unless there is one worker or one
    sub-block, or another thread holds it; then this thread counts them
    all."""
    seed = _seed(seed)
    plans = [(*_ends(cells), _cuts(ne, po, scale)) for cells, ne, po in tests]
    sub = _rows(k)
    # every sub-block of every block, as (block start, rows, start, length)
    subs = [
        (done, rows, start, min(sub, rows - start))
        for done in range(0, samples, _CHUNK)
        for rows in [min(_CHUNK, samples - done)]
        for start in range(0, rows, sub)
    ]
    width = min(sub, samples)
    counts = None
    if len(subs) > 1:
        _constants()  # numpy and the counter offsets, for a helper forked here
        counts = helper.lend(
            _accepted,
            (k, seed, plans, subs[::2], width),
            (k, seed, plans, subs[1::2], width),
        )
    accepted = sum(counts) if counts else _accepted(k, seed, plans, subs, width)
    if accepted < MIN_ACCEPTED:
        warnings.warn(_NOISY.format(accepted, samples), LowAcceptanceWarning, stacklevel=3)
    factor = math.prod([scale] * k, start=1.0)
    frac = accepted / samples
    se = factor * math.sqrt(frac * (1.0 - frac) / samples)
    return MCEstimate(frac * factor, se, samples, seed, accepted)


def _rows(k: int) -> int:
    """Rows per sub-block at k coordinates: the largest power of two, at most
    ``_SUB`` and at least 1, whose k + 1 uint64 rows fit in ``_L2`` bytes."""
    return min(_SUB, 1 << max(0, (_L2 // (8 * (k + 1))).bit_length() - 1))


def _workspace(k: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """k coordinate rows and a spare row of ``width`` uint64 words, which the
    comparators rotate through and the tests sum into, and two boolean masks
    as long, cut from one buffer so that rows and masks start on a page."""
    import numpy as np

    rows = (k + 1) * width * 8
    at = -(-rows // _PAGE) * _PAGE  # the masks' start, on the next page
    buf = np.empty(_PAGE + at + 2 * width, dtype=np.uint8)
    buf = buf[-buf.ctypes.data % _PAGE :]
    work = buf[:rows].view(np.uint64).reshape(k + 1, width)
    masks = buf[at : at + 2 * width].view(bool).reshape(2, width)
    return work, masks


def _accepted(k, seed, plans, subs, width) -> int:
    """Rows accepted in the sub-blocks ``subs``, each at most ``width`` rows
    long, evaluated one at a time in one workspace from ``_workspace``."""
    import numpy as np

    top = np.uint64(_ONE)
    work, (ok, hit) = _workspace(k, width)
    accepted = 0
    for done, rows, start, b in subs:
        *u, spare = work[:, :b]
        # coordinate i of the block is the counter run starting at word
        # done*k + i*rows; this sub-block reads it from word start on,
        # through the spare row, which is idle until the network starts
        for i, row in enumerate(u):
            _fill(row, seed + (done * k + i * rows + start) * _GOLDEN, spare)
        for i, j in _network(k):
            np.minimum(u[i], u[j], out=spare)
            np.maximum(u[i], u[j], out=u[j])
            u[i], spare = spare, u[i]
        # x[0] = 0 is never a term
        x = [None, *u, top]
        okb, hitb = ok[:b], hit[:b]
        okb.fill(True)
        for plus, minus, cut in plans:
            s = x[plus[0]]
            for i in plus[1:]:
                s = np.add(s, x[i], out=spare)
            for i in minus:
                s = np.subtract(s, x[i], out=spare)
            _within(s, cut, okb, hitb, spare)
        accepted += int(np.count_nonzero(okb))
    return accepted


def _ends(cells) -> tuple[list[int], list[int]]:
    """The sum of the spacings ``cells`` as sum(x[plus]) - sum(x[minus]) over
    the sorted integers x = (0, u_0, ..., u_{k-1}, 2^53).  Spacing c is
    x[c+1] - x[c], so each run of consecutive spacings a..z sums to one
    difference x[z+1] - x[a]; x[0] = 0 is left out, so a lone run that
    starts at spacing 0 is just x[z+1]."""
    cells = set(cells)
    plus = sorted(c + 1 for c in cells if c + 1 not in cells)
    minus = sorted(c for c in cells if c and c - 1 not in cells)
    return plus, minus


def _cuts(ne: float, po: float, scale: float = 1.0) -> tuple[int, int]:
    """Integer cuts (lo, hi): an integer s in [0, 2^53] passes the float
    test ne <= (s * 2^-53) * scale <= po exactly when lo <= s <= hi, or
    (1, 0) when none does.  The tested double fails po where it reaches the
    double above po."""
    lo = _least(ne, scale)
    hi = _least(math.nextafter(po, math.inf), scale) - 1
    return (lo, hi) if lo <= hi else (1, 0)


def _least(x: float, scale: float) -> int:
    """The least s in [0, 2^53] with s * 2^-53 * scale >= x, or 2^53 + 1.
    The exact product is rounded once to nearest, so for x > 0 the test
    holds once it passes the midpoint m below x, or sits on m and the tie
    goes up (Goldberg, "What every computer scientist should know about
    floating-point arithmetic", 1991).  The least s reaching m is a ceiling
    on integer ratios; the float test, read there once, tells the tie."""
    if x <= 0:
        return 0
    (a, b), (c, d) = math.nextafter(x, 0).as_integer_ratio(), x.as_integer_ratio()
    n, e = scale.as_integer_ratio()
    # 2m = (a*d + c*b) / (b*d), and s * 2^-53 * scale >= m
    s = -(-((a * d + c * b) * e << 52) // (b * d * n))
    if s <= _ONE and not s * 2.0**-53 * scale >= x:  # a tie that rounds down
        s += 1
    return min(s, _ONE + 1)


def _within(
    x, cut: tuple[int, int], ok: np.ndarray, hit: np.ndarray, spare: np.ndarray
) -> None:
    """ok &= lo <= x <= hi for the integers ``x`` in [0, 2^53] and a cut from
    ``_cuts``, through the scratch mask ``hit``; a side every x passes is
    skipped.  Both sides at once are one test, x - lo <= hi - lo on uint64,
    where x < lo wraps past every hi - lo < 2^53; the difference goes into
    the scratch row ``spare``, which may be ``x`` itself.  A lower side alone
    keeps its own test: 14% of crosstab-joint cuts are one, and taking them
    the two-sided way cost 7% more per joint estimate."""
    import numpy as np

    lo, hi = cut
    if lo > hi:  # the empty cut; hi - lo would wrap
        ok.fill(False)
    elif lo > 0 and hi < _ONE:
        np.subtract(x, np.uint64(lo), out=spare)
        np.less_equal(spare, np.uint64(hi - lo), out=hit)
        ok &= hit
    elif lo > 0:
        np.greater_equal(x, np.uint64(lo), out=hit)
        ok &= hit
    elif hi < _ONE:
        np.less_equal(x, np.uint64(hi), out=hit)
        ok &= hit


def _box_tests(a: IntervalAssignment) -> list:
    """The box ne_i <= p_i <= po_i as one test per spacing, for M >= 2."""
    if a.m < 2:
        raise DomainError("need at least 2 options")
    return [((i,), ne, po) for i, (ne, po) in enumerate(zip(a.ne, a.po))]


def mc_freedom(a: IntervalAssignment, samples: int, seed: int) -> MCEstimate:
    """Rejection estimate of the freedom volume fraction.

    Uniform simplex samples are accepted when ne_i <= p_i <= po_i for all i
    (closed bounds, no tolerance: the boundary has measure zero).  The
    estimate is a pure function of (assignment, samples, seed).  Warns with
    LowAcceptanceWarning when fewer than 100 samples are accepted.
    """
    samples = _check_samples(samples)
    tests = _box_tests(a)
    return _estimate(a.m - 1, samples, seed, tests)


def mc_freedom_conditional(
    a: IntervalAssignment, q: float, samples: int, seed: int
) -> MCEstimate:
    """Rejection estimate of the unnormalized conditional freedom at mass q.

    Samples uniformly from {p >= 0, sum(p) = q} (a scaled simplex), accepts
    within the box, and multiplies the acceptance fraction by q^(K-1) so the
    mean matches the closed form.  The standard error is the binomial error
    of the acceptance fraction scaled by the same factor.
    """
    samples = _check_samples(samples)
    tests = _box_tests(a)
    q = _conditional_mass(q)
    return _estimate(a.m - 1, samples, seed, tests, q)


class RegionPolygon(NamedTuple):
    """The M=3 feasible region projected to (p1, p2), as a convex polygon.

    ``area_fraction`` is the polygon area divided by 1/2 (the area of the
    full triangle p1, p2 >= 0, p1 + p2 <= 1), i.e. the freedom measure, bit
    for bit.  Each vertex coordinate and the area are exact, rounded once.
    Degenerate regions (a point or segment) keep their distinct vertices but
    have zero area; an empty region has no vertices.
    """

    vertices: tuple[tuple[float, float], ...]
    area_fraction: float


def _clip_halfplane(
    points: list[tuple[Rational, Rational]], a: int, b: int, c: Rational
) -> list[tuple[Rational, Rational]]:
    """Keep the part of a convex polygon with a*x + b*y <= c."""
    out: list[tuple[Rational, Rational]] = []
    n = len(points)
    for i in range(n):
        x1, y1 = points[i]
        x2, y2 = points[(i + 1) % n]
        d1 = a * x1 + b * y1 - c
        d2 = a * x2 + b * y2 - c
        if d1 <= 0:
            out.append((x1, y1))
        if (d1 < 0 < d2) or (d2 < 0 < d1):
            t = d1 / (d1 - d2)
            out.append((x1 + t * (x2 - x1), y1 + t * (y2 - y1)))
    return out


def region_polygon(a: IntervalAssignment) -> RegionPolygon:
    """Exact feasible-region polygon for a three-option assignment.

    The triangle {(p1, p2): p1, p2 >= 0, p1 + p2 <= 1} is clipped by the six
    half-planes ne_1 <= p1 <= po_1, ne_2 <= p2 <= po_2 and
    ne_3 <= 1 - p1 - p2 <= po_3 in turn (Sutherland-Hodgman), on the exact
    rationals of the float bounds; a vertex that repeats is dropped.
    Vertices come back counter-clockwise; the exact shoelace area over the
    half-triangle area, rounded once, is a sampling-free second route to the
    freedom measure, and equals ``freedom(a)`` bit for bit.
    """
    from fractions import Fraction  # it loads decimal: only M = 3 polygons pay for that

    if a.m != 3:
        raise WrongDimension(f"region polygon needs exactly 3 options, got {a.m}")
    ne, po = [list(map(Fraction, bounds)) for bounds in (a.ne, a.po)]
    points: list[tuple[Rational, Rational]] = [(0, 0), (1, 0), (0, 1)]
    halfplanes = (
        (1, 0, po[0]),  # p1 <= po1
        (-1, 0, -ne[0]),  # p1 >= ne1
        (0, 1, po[1]),  # p2 <= po2
        (0, -1, -ne[1]),  # p2 >= ne2
        (1, 1, 1 - ne[2]),  # p3 >= ne3
        (-1, -1, po[2] - 1),  # p3 <= po3
    )
    for h in halfplanes:
        points = _clip_halfplane(points, *h)
        if not points:
            return RegionPolygon((), 0.0)
    points = list(dict.fromkeys(points))  # ring order, each vertex once
    # shoelace signed sum equals area/(1/2) directly
    ring = zip(points, points[1:] + points[:1])
    signed = sum(x1 * y2 - x2 * y1 for (x1, y1), (x2, y2) in ring)
    return RegionPolygon(tuple((float(x), float(y)) for x, y in points), float(signed))
