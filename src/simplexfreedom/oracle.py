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
``crosstab.mc_joint_freedom``, with cells flattened row-major) share one
layout: rows come in blocks of 2^20 (the last holds the rest), coordinate i
of row r in a block is word i*rows + r of that block, and each row is sorted
ascending (any correct sort gives the same bits).  That layout is the
contract.  A block is evaluated 2^15 rows at a time, each coordinate read
from its own stream seeked to the start of its counter run, which is only an
order of evaluation: it changes no bit of any estimate.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import IntervalAssignment
from .errors import DomainError, LowAcceptanceWarning, WrongDimension

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# Distinct odd increment used only for worker-seed derivation, so derived
# seeds never collide with counters of the parent stream.
_DERIVE = 0xD1B54A32D192ED03

# Samples per internal block.  Fixed constant: the coordinate-major stream
# layout in the module docstring depends on it, and changing it would change
# estimates.
_CHUNK = 1 << 20
# Rows per sub-block: each block is drawn, sorted and tested 2^15 rows at a
# time so its working set (k * 256 KiB of doubles) stays in cache.  Only the
# order of evaluation depends on it; estimates do not.
_SUB = 1 << 15

# Optimal sorting networks (comparator index pairs) for tiny widths; wider
# sorts fall back to numpy.
_NETWORKS: dict[int, tuple[tuple[int, int], ...]] = {
    1: (),
    2: ((0, 1),),
    3: ((0, 1), (0, 2), (1, 2)),
    4: ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2)),
    5: ((0, 1), (2, 3), (0, 2), (1, 4), (0, 1), (2, 3), (1, 2), (3, 4), (2, 3)),
}


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
        self._state = int(seed) & _MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return mix64(self._state)

    def random(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.next_uint64() >> 11) * 2.0**-53

    def uniforms(self, n: int) -> np.ndarray:
        """The next n doubles of the stream as one vectorized block."""
        z = np.arange(1, n + 1, dtype=np.uint64)
        z *= np.uint64(_GOLDEN)
        z += np.uint64(self._state)
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        z >>= np.uint64(11)
        self._state = (self._state + n * _GOLDEN) & _MASK64
        out = z.astype(np.float64)
        out *= 2.0**-53
        return out


def derive_worker_seed(seed: int, worker_index: int) -> int:
    """Deterministic per-worker seed for partitioned sampling.

    Defined as mix64(seed + (worker_index + 1) * 0xD1B54A32D192ED03).  The
    canonical results for verification are single-worker; this derivation
    exists so a fixed worker count also reproduces exactly.
    """
    if worker_index < 0:
        raise DomainError("worker_index must be nonnegative")
    return mix64((int(seed) + (worker_index + 1) * _DERIVE) & _MASK64)


@dataclass(frozen=True)
class MCEstimate:
    """A Monte-Carlo volume estimate and its binomial standard error."""

    mean: float
    std_error: float
    samples: int
    seed: int


def _check_samples(samples: int) -> None:
    """Every estimator checks its sample count before its other arguments."""
    if samples < 1:
        raise DomainError("samples must be >= 1")


def _estimate(k: int, samples: int, seed: int, accept, factor=1.0) -> MCEstimate:
    """The one rejection sampler: ``samples`` rows of k sorted uniforms in the
    layout above, handed to ``accept`` as (k, b) sub-blocks; the accepted
    fraction and its binomial SE are scaled by ``factor``.  Warns at the
    estimator's caller when fewer than 100 rows are accepted."""
    accepted = 0
    for done in range(0, samples, _CHUNK):
        rows = min(_CHUNK, samples - done)
        # coordinate i of this block is the counter run starting at word
        # done*k + i*rows; one stream each, walked a sub-block at a time
        streams = [
            SplitMix64(int(seed) + (done * k + i * rows) * _GOLDEN) for i in range(k)
        ]
        for start in range(0, rows, _SUB):
            b = min(_SUB, rows - start)
            u = np.empty((k, b))
            for i, stream in enumerate(streams):
                u[i] = stream.uniforms(b)
            if k in _NETWORKS:
                for i, j in _NETWORKS[k]:
                    lo = np.minimum(u[i], u[j])
                    np.maximum(u[i], u[j], out=u[j])
                    u[i] = lo
            else:
                u.sort(axis=0)
            accepted += int(np.count_nonzero(accept(u)))
    if accepted < 100:
        warnings.warn(
            f"only {accepted} of {samples} samples accepted; the estimate is noisy",
            LowAcceptanceWarning,
            stacklevel=3,
        )
    frac = accepted / samples
    se = factor * math.sqrt(frac * (1.0 - frac) / samples)
    return MCEstimate(
        mean=frac * factor, std_error=se, samples=samples, seed=int(seed)
    )


def _box_test(ne, po, scale: float):
    """Predicate: every spacing times ``scale`` lies in [ne_i, po_i], tested
    one coordinate at a time (no (M, rows) array of spacings)."""
    m = len(ne)

    def accept(u: np.ndarray) -> np.ndarray:
        ok = np.ones(u.shape[1], dtype=bool)
        prev: np.ndarray | float = 0.0
        for i in range(m):
            cut = u[i] if i < m - 1 else 1.0
            p = cut - prev
            if scale != 1.0:
                p = p * scale
            ok &= (p >= ne[i]) & (p <= po[i])
            prev = cut
        return ok

    return accept


def _ipow(x: float, n: int) -> float:
    """x**n by repeated multiplication: exact control over rounding, no libm."""
    r = 1.0
    for _ in range(n):
        r *= x
    return r


def mc_freedom(a: IntervalAssignment, samples: int, seed: int) -> MCEstimate:
    """Rejection estimate of the freedom volume fraction.

    Uniform simplex samples are accepted when ne_i <= p_i <= po_i for all i
    (closed bounds, no tolerance: the boundary has measure zero).  The
    estimate is a pure function of (assignment, samples, seed).  Warns with
    LowAcceptanceWarning when fewer than 100 samples are accepted.
    """
    _check_samples(samples)
    if a.m < 2:
        raise DomainError("need at least 2 options")
    return _estimate(a.m - 1, samples, seed, _box_test(a.ne, a.po, 1.0))


def mc_freedom_conditional(
    a: IntervalAssignment, q: float, samples: int, seed: int
) -> MCEstimate:
    """Rejection estimate of the unnormalized conditional freedom at mass q.

    Samples uniformly from {p >= 0, sum(p) = q} (a scaled simplex), accepts
    within the box, and multiplies the acceptance fraction by q^(K-1) so the
    mean matches the closed form.  The standard error is the binomial error
    of the acceptance fraction scaled by the same factor.
    """
    _check_samples(samples)
    if a.m < 2:
        raise DomainError("need at least 2 options")
    q = float(q)
    if not (0.0 < q <= 1.0):
        raise DomainError(f"q = {q!r} outside (0, 1]")
    return _estimate(
        a.m - 1, samples, seed, _box_test(a.ne, a.po, q), _ipow(q, a.m - 1)
    )


@dataclass(frozen=True)
class RegionPolygon:
    """The M=3 feasible region projected to (p1, p2), as a convex polygon.

    ``area_fraction`` is the polygon area divided by 1/2 (the area of the
    full triangle p1, p2 >= 0, p1 + p2 <= 1), i.e. the same quantity the
    freedom measure computes.  Degenerate regions (a point or segment) keep
    their vertices but have zero area; an empty region has no vertices.
    """

    vertices: tuple[tuple[float, float], ...]
    area_fraction: float


def _clip_halfplane(
    points: list[tuple[float, float]], a: float, b: float, c: float
) -> list[tuple[float, float]]:
    """Keep the part of a convex polygon with a*x + b*y <= c."""
    if not points:
        return []
    out: list[tuple[float, float]] = []
    n = len(points)
    for i in range(n):
        x1, y1 = points[i]
        x2, y2 = points[(i + 1) % n]
        d1 = a * x1 + b * y1 - c
        d2 = a * x2 + b * y2 - c
        if d1 <= 0.0:
            out.append((x1, y1))
        if (d1 < 0.0 < d2) or (d2 < 0.0 < d1):
            t = d1 / (d1 - d2)
            out.append((x1 + t * (x2 - x1), y1 + t * (y2 - y1)))
    return out


def _dedup_ring(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    out: list[tuple[float, float]] = []
    for p in points:
        if not out or (abs(p[0] - out[-1][0]) > 1e-12 or abs(p[1] - out[-1][1]) > 1e-12):
            out.append(p)
    while len(out) > 1 and abs(out[0][0] - out[-1][0]) <= 1e-12 and abs(
        out[0][1] - out[-1][1]
    ) <= 1e-12:
        out.pop()
    return out


def region_polygon(a: IntervalAssignment) -> RegionPolygon:
    """Exact feasible-region polygon for a three-option assignment.

    The triangle {(p1, p2): p1, p2 >= 0, p1 + p2 <= 1} is clipped by the six
    half-planes ne_1 <= p1 <= po_1, ne_2 <= p2 <= po_2 and
    ne_3 <= 1 - p1 - p2 <= po_3 in turn (Sutherland-Hodgman).  Vertices come
    back counter-clockwise; the shoelace area over the half-triangle area
    gives a sampling-free second check of the freedom measure.
    """
    if a.m != 3:
        raise WrongDimension(f"region polygon needs exactly 3 options, got {a.m}")
    ne, po = a.ne, a.po
    points: list[tuple[float, float]] = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    halfplanes = (
        (1.0, 0.0, po[0]),          # p1 <= po1
        (-1.0, 0.0, -ne[0]),        # p1 >= ne1
        (0.0, 1.0, po[1]),          # p2 <= po2
        (0.0, -1.0, -ne[1]),        # p2 >= ne2
        (1.0, 1.0, 1.0 - ne[2]),    # p3 >= ne3
        (-1.0, -1.0, -(1.0 - po[2])),  # p3 <= po3
    )
    for h in halfplanes:
        points = _clip_halfplane(points, *h)
        if not points:
            return RegionPolygon(vertices=(), area_fraction=0.0)
    points = _dedup_ring(points)
    if not points:
        return RegionPolygon(vertices=(), area_fraction=0.0)
    # shoelace signed sum equals area/(1/2) directly
    n = len(points)
    signed = math.fsum(
        points[i][0] * points[(i + 1) % n][1] - points[(i + 1) % n][0] * points[i][1]
        for i in range(n)
    )
    return RegionPolygon(
        vertices=tuple(points), area_fraction=min(1.0, max(0.0, signed))
    )
