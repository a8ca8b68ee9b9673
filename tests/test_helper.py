"""The helper process's pipes, each case in a fresh interpreter with two
workers: jobs and replies past a pipe's buffer, and a child forked while
another thread waits on a lend."""

from __future__ import annotations

from conftest import fresh_interpreter


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
