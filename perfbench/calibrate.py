"""Machine-speed calibration: a fixed reference kernel timed between requests.

The 2-vCPU virtual machine (Intel Xeon) this benchmark was written on shares
its cores with other tenants.  How much they run changes from second to
second and from minute to minute, and the same requests take up to 1.4x as
long in a busy stretch as in a quiet one, so raw wall times of two runs of
the same code can disagree by more than a useful regression bound.

So a run also times a small fixed kernel after every request.  Its "core"
part is an interpreter loop (the closed-form workloads spend their time in
the interpreter) and a numpy sort, array arithmetic and one splitmix64
mixing step on 2^17 elements, in preallocated arrays.  Its "stream" part
copies and sums 16 MiB: the Monte-Carlo workloads stream their sample blocks
through memory, which other tenants' memory traffic slows more than
cache-resident work.  Each workload names the parts that match its requests
(run.py).  The kernel lives here, in the benchmark; no change to the package
moves it.  The run's slowdown is the mean over the parts of the median part
time over the run divided by its NOMINAL_S, and the calibrated times are
the wall times divided by that slowdown: what the requests would have taken
with the machine at its nominal speed.  The measured spreads with and
without calibration are in README.md.

Anything that makes the benchmark process itself busy between requests, such
as a thread the package leaves running, slows the kernel as well and would
be partly calibrated away; the uncalibrated times are printed beside the
calibrated ones for that reason.
"""

from __future__ import annotations

import mmap
import statistics
import time

import numpy as np

# about the median time of each kernel part on the machine above
NOMINAL_S = {"core": 2.4e-3, "stream": 3.4e-3}

_N = 1 << 17
_ARRAY = np.random.default_rng(0).random(_N)
_WORDS = np.arange(_N, dtype=np.uint64)
# preallocated outputs: the kernel allocates nothing, so its time does not
# depend on the state the package's requests left the allocator in
_FLOATS = np.empty(_N)
_MIXED = np.empty(_N, dtype=np.uint64)
_SHIFTED = np.empty(_N, dtype=np.uint64)
_INTS = list(range(200))


def _stream_buffer(n: int) -> np.ndarray:
    """n doubles in plain anonymous memory.  numpy asks for huge pages on
    large arrays, and the kernel that backs them later makes copies faster
    part-way through a run; these pages stay 4 KiB."""
    return np.frombuffer(mmap.mmap(-1, 8 * n), dtype=np.float64)


_STREAM_N = 2 << 20  # 16 MiB per buffer, more than the caches hold
_SOURCE = _stream_buffer(_STREAM_N)
_SOURCE[:] = 1.0
_TARGET = _stream_buffer(_STREAM_N)


def _core() -> None:
    total = 0
    for _ in range(300):  # interpreter loop, like the closed form's recursion
        total += sum(_INTS)
    np.copyto(_FLOATS, _ARRAY)  # cache-resident array work, like the samplers'
    _FLOATS.sort()
    np.multiply(_ARRAY, 3.0, out=_FLOATS)
    np.add(_FLOATS, 1.0, out=_FLOATS)
    _FLOATS.sum()
    np.multiply(_WORDS, np.uint64(0xBF58476D1CE4E5B9), out=_MIXED)
    np.right_shift(_MIXED, np.uint64(31), out=_SHIFTED)
    np.bitwise_xor(_MIXED, _SHIFTED, out=_MIXED)


def _stream() -> None:
    """Memory-bound: the samplers stream 10^6-sample blocks through memory."""
    np.copyto(_TARGET, _SOURCE)
    _TARGET.sum()


PARTS = {"core": _core, "stream": _stream}


def time_kernel(parts: tuple[str, ...]) -> tuple[float, ...]:
    """Wall time of each named kernel part, in seconds.  A first, untimed run
    of each brings its data back to where it was, so the time does not depend
    on what memory the request before it touched."""
    times = []
    for name in parts:
        PARTS[name]()
        start = time.perf_counter()
        PARTS[name]()
        times.append(time.perf_counter() - start)
    return tuple(times)


def slowdown(parts: tuple[str, ...], samples: list[tuple[float, ...]]) -> float:
    """Mean over the parts of each part's median time over its nominal time."""
    return statistics.fmean(
        statistics.median(s[i] for s in samples) / NOMINAL_S[name]
        for i, name in enumerate(parts))
