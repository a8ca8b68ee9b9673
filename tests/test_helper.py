"""The helper process's pipes, each case in a fresh interpreter with two
workers: jobs and replies past a pipe's buffer, a child forked while
another thread waits on a lend, and a helper forked before numpy was
loaded, replaced by the first lend after it is."""

from __future__ import annotations

from conftest import fresh_interpreter

from simplexfreedom import freedom, helper, mc_freedom, validate


def fresh(script: str) -> list[str]:
    """Run ``script`` in a fresh interpreter; return its stdout lines."""
    proc = fresh_interpreter("-c", script)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_a_job_and_a_reply_past_the_pipe_buffer_round_trip():
    # 200,000 bytes each way, past a Linux pipe's 64 KiB
    lines = fresh(
        "from simplexfreedom import helper\n"
        "helper._WORKERS = 2\n"
        "print(helper.lend(len, (b'x',), (b'y' * 200_000,)))\n"
        "print(helper.lend(bytes, (1,), (200_000,)) == (bytes(1), bytes(200_000)))\n"
        "print(helper._process is not None)\n"
    )
    assert lines == ["(1, 200000)", "True", "True"]


# A thread waits on the helper's half-second reply while the main thread
# forks.  The child's at-fork hook closes its copies of the pipes; its copy
# of the lend lock is held, so it lends nothing and exits 0.  The parent
# kills a child that has not exited by the deadline, then prints whether it
# had, its exit status, and whether the waiting thread finished.
FORK_MID_LEND = """\
import os, signal, threading, time
from simplexfreedom import helper
helper._WORKERS = 2
helper.lend(abs, (0,), (-1,))  # forks the helper
waiting = threading.Thread(target=helper.lend, args=(time.sleep, (0,), (0.5,)))
waiting.start()
while not helper._lock.locked():
    time.sleep(0.001)
time.sleep(0.1)
pid = os.fork()
if pid == 0:
    os._exit(helper.lend(abs, (0,), (-1,)) is not None)
deadline = time.monotonic() + 10
while not (done := os.waitpid(pid, os.WNOHANG))[0] and time.monotonic() < deadline:
    time.sleep(0.01)
if not done[0]:
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
waiting.join(timeout=10)
print(bool(done[0]), done[1], waiting.is_alive())
"""


def test_a_child_forked_during_a_lend_exits():
    assert fresh(FORK_MID_LEND) == ["True 0 False"]


# Every closed-form sweep lends, and the first forks the helper before
# numpy is loaded.  A thread's lend then holds that helper until told to
# let go, while numpy is imported and the process's first sampling call,
# finding the helper held, counts alone and keeps it.  Then one thread
# keeps lending sweeps while another makes a sampling call; the first of
# their lends replaces the helper, and later sampling calls keep the
# replacement.  Prints whether the closed form forked first, whether the
# first sampling call kept the helper, each route's distinct results and any
# errors, whether the helper was replaced and then kept, and what a probe
# lent to the replacement sees.
REFORK_UNDER_THREADS = """\
import sys, threading
from simplexfreedom import freedom, helper, measures, mc_freedom, validate
helper._WORKERS = 2
measures._LEND, measures._FORK = 0, -1

def has_numpy(_):
    return "numpy" in sys.modules

def hold(events):
    # the caller's side says it holds the helper and waits to let go; the
    # helper's side, given None, returns at once
    if events:
        held, release = events
        held.set()
        release.wait()

a = validate([0.0] * 10, [0.25 + 0.01 * i for i in range(10)])
freedom(a)
print(helper._process is not None and "numpy" not in sys.modules)
forked = helper._process[0]
results = {"closed": set(), "sampled": set(), "held": set()}
errors = []

def run(name, fn, *args):
    try:
        results[name].add(repr(fn(*args)))
    except BaseException as exc:
        errors.append(repr(exc))

def thread(*args):
    t = threading.Thread(target=run, args=args)
    t.start()
    return t

held, release = threading.Event(), threading.Event()
holder = thread("held", helper.lend, hold, ((held, release),), (None,))
held.wait()
import numpy
run("sampled", mc_freedom, a, 100_000, 0)
print(helper._process[0] == forked)
release.set()
holder.join()
sampler = thread("sampled", mc_freedom, a, 100_000, 0)
while sampler.is_alive():
    run("closed", freedom, a)
sampler.join()
print(sorted(results["closed"]), sorted(results["sampled"]), errors)
replaced = helper._process[0]
run("sampled", mc_freedom, a, 100_000, 0)
print(replaced != forked, helper._process[0] == replaced, len(results["sampled"]))
print(helper.lend(has_numpy, (None,), (None,)))
"""


def test_a_helper_forked_without_numpy_is_replaced(monkeypatch):
    # the script's results against those of one process
    monkeypatch.setattr(helper, "_WORKERS", 1)
    a = validate([0.0] * 10, [0.25 + 0.01 * i for i in range(10)])
    closed, sampled = repr(freedom(a)), repr(mc_freedom(a, 100_000, 0))
    assert fresh(REFORK_UNDER_THREADS) == [
        "True",
        "True",
        f"[{closed!r}] [{sampled!r}] []",
        "True True 1",
        "(True, True)",
    ]
