"""One helper process, forked on the first lend and lent to one caller at a
time: it runs one function on one part of a job while the caller runs it
on the other part, and sends its result back over a pipe.

Two routes lend it, each with one function that combines exactly into the
one-process result.  The sampler (``oracle._accepted``) counts the even
sub-blocks of an estimate here and the odd ones there, and adds the
integer counts.  The closed form (``measures._less``) sums the two parts
of a large inclusion-exclusion sweep, and subtracts the exact integers.
So no bit depends on whether, or where, the helper ran.

A forked helper has the modules its caller had: one forked by the sampler
has numpy.  One forked by the closed form before numpy was loaded is closed
at the first lend after numpy is, which forks another that has it, so that
a sampling caller does not wait while the helper imports numpy.
"""

from __future__ import annotations

import atexit
import contextlib
import os
import sys
import threading

# Processes that share one job: the caller, and the helper on Linux where
# this process may run on a second CPU (macOS makes fork unsafe).  Two
# threads, which share the interpreter lock, measured slower than two
# processes (M = 8: 16.8 vs 12.9 ms per 10^6 samples).
_WORKERS = min(2, len(os.sched_getaffinity(0))) if hasattr(os, "sched_getaffinity") else 1

# The helper once forked, as (pid, its job pipe's write end, its reply
# pipe's read end, whether numpy was loaded when it was forked), and the
# lock that lends it to one caller at a time.
_process = None
_lock = threading.Lock()


def lend(fn, mine: tuple, theirs: tuple, fork: bool = True):
    """(fn(*mine), fn(*theirs)), with fn(*theirs) run in the helper while
    this thread runs fn(*mine); or None, with neither run, when there is no
    helper to lend: one worker, another thread holding it, or none forked
    yet and ``fork`` false.  fn pickles by reference, so it must be a
    module-level function.  Once this process has imported numpy, a
    helper forked before that is closed first, and another forked.  Either
    side's exception is raised here.  One on this side, or a dead helper,
    closes the helper, so that no later lend can read this one's reply; a
    failed fork reaches the caller."""
    global _process
    if _WORKERS < 2 or (_process is None and not fork):
        return None
    if not _lock.acquire(blocking=False):
        return None
    try:
        import pickle

        if _process is not None and not _process[3] and "numpy" in sys.modules:
            close()
        if _process is None:
            _process = _fork()
        pid, jobs, replies, _ = _process
        try:
            _write(jobs, pickle.dumps((fn, theirs)))
            ours = fn(*mine)
            # a reader per reply: a child forked meanwhile inherits no lock
            reply = pickle.load(open(replies, "rb", closefd=False))
        except BaseException as exc:
            close()
            if isinstance(exc, (BrokenPipeError, EOFError)):
                raise ChildProcessError(f"helper process {pid} has exited") from exc
            raise
    finally:
        _lock.release()
    if isinstance(reply, Exception):
        raise reply
    return ours, reply


def _fork() -> tuple:
    numpy = "numpy" in sys.modules
    (jobs_r, jobs), (replies, replies_w) = os.pipe(), os.pipe()
    try:
        pid = os.fork()
    except OSError:  # EAGAIN or ENOMEM: no helper, and no pipe left open
        for fd in (jobs_r, jobs, replies, replies_w):
            os.close(fd)
        raise
    if pid == 0:
        try:
            os.close(jobs)
            os.close(replies)
            _serve(jobs_r, replies_w)
        finally:
            os._exit(0)  # never back into the caller's stack
    os.close(jobs_r)
    os.close(replies_w)
    return pid, jobs, replies, numpy


def _serve(jobs: int, replies: int) -> None:
    """The helper's loop: the result of each job, or the exception that
    stopped it, goes back to the caller, until either pipe ends.  SIGINT is
    the caller's to handle."""
    import pickle
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    reader = open(jobs, "rb")
    while True:
        fn, args = pickle.load(reader)
        try:
            reply = fn(*args)
        except Exception as exc:  # raised again in the caller
            reply = exc
        _write(replies, pickle.dumps(reply))


def _write(fd: int, data: bytes) -> None:
    # unbuffered: a forked child inherits no writer's lock or half a job
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view) :]


def close() -> None:
    """Close the helper's pipes and reap it once it ends its job: at exit,
    and in a forked child, which closes its copies and cannot reap it (and
    runs every job itself if its copy of the lock is held)."""
    global _process
    if _process is not None:
        (pid, jobs, replies, _), _process = _process, None
        os.close(jobs)
        os.close(replies)
        with contextlib.suppress(ChildProcessError):
            os.waitpid(pid, 0)


atexit.register(close)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=close)
