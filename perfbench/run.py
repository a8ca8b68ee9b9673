"""Benchmark of the simplexfreedom CLI, one workload per process.

    python3 perfbench/run.py --workload verify-mc --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

One closed-loop client, no threads: each request is a real CLI command run
in-process through ``simplexfreedom.cli.main(argv)`` with stdout captured,
on input files generated from the seed under ``.bench_work/``.  The timed
loop serves whole blocks of the corpus (each holds the same size mix), for
at least ``--seconds`` and MIN_REQUESTS requests.  Every corpus entry is
then checked against exact references (untimed); see checks.py.

``--trace 0`` reports the end-to-end metrics, calibrated to the machine's
nominal speed by a kernel timed after every request (see calibrate.py).
``--trace 1`` serves every request twice in a row, untraced and traced,
reports the per-layer metrics from the spans and the tracing overhead, and
requires both to print byte-identical reports.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``attempted`` is the number of corpus entries
and ``failed`` the entries whose report has a non-zero exit or a number
outside 1e-9 relative of its exact value, known defects included; reports
are pure functions of the entry, so the counts depend on the seed alone.
``correct`` is false only on what no correct program can print (see
reference.py).  ``--workload all`` runs every workload in its own process.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from calibrate import slowdown, time_kernel
from checks import check_output
from corpus import SAMPLES, WORKLOADS, build
from reference import ClosedForms
from tracing import LAYER_UNITS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDENS = HERE / "goldens.json"
MIN_REQUESTS = 100  # p90 then has ten requests beyond it
COLD_CALLS = 5
KERNEL_RUNS = 9  # calibration kernel runs after each cold call
# calibration kernel parts per workload (see calibrate.py): the Monte-Carlo
# workloads stream sample blocks through memory, the closed form does not
KERNEL = {"verify-mc": ("core", "stream"), "closed-form-distinct": ("core",),
          "closed-form-decimal": ("core",), "crosstab-joint": ("core", "stream")}

END_TO_END_UNITS = {"requests_per_s": "1/s", "latency_p50_ms": "ms",
                    "latency_p90_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


def _load_package():
    if not (SRC / "simplexfreedom" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no simplexfreedom sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    from simplexfreedom import cli
    return cli


def serve(cli, argv: list[str]) -> tuple[int, str]:
    """Run one CLI command in-process; return (exit code, stdout)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed request, not a benchmark error
            return -1, traceback.format_exc()
    return code, out.getvalue()


def cold_call(argv: list[str]) -> tuple[float, int, str]:
    """One CLI call in a fresh interpreter, as the console script runs it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import sys; from simplexfreedom.cli import main; sys.exit(main(sys.argv[1:]))"
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    return time.perf_counter() - start, proc.returncode, proc.stdout


def estimates(text: str) -> list[float] | None:
    """The Monte-Carlo estimate a report prints, if any."""
    try:
        res = json.loads(text)["results"]
    except (ValueError, KeyError, TypeError):
        return None
    if "mc_mean" in res:
        return [res["mc_mean"], res["std_error"]]
    joint = res.get("joint_freedom")
    return [joint["mean"], joint["std_error"]] if joint else None


def estimates_digest(outputs: list[tuple[int, str]]) -> str:
    """SHA-256 of every entry's estimate, in corpus order.  Closed-form
    numbers are left out: they are checked against exact references, and a
    more accurate closed form must not read as a changed estimate."""
    blob = json.dumps([estimates(text) for _, text in outputs])
    return hashlib.sha256(blob.encode()).hexdigest()


class Served:
    """First response of every corpus entry, and any repeat that differed."""

    def __init__(self, size: int) -> None:
        self.outputs: list[tuple[int, str] | None] = [None] * size
        self.mismatches: list[str] = []

    def record(self, idx: int, response: tuple[int, str], label: str = "repeat") -> None:
        first = self.outputs[idx]
        if first is None:
            self.outputs[idx] = response
        elif first != response:
            self.mismatches.append(f"entry {idx}: {label} printed a different report")


def timed_loop(cli, corpus, served: Served, seconds: float, floor: int,
               kernel: tuple[str, ...]):
    """Closed loop over whole blocks of the corpus, so every run serves the
    same request mix, with the calibration kernel timed after each request;
    returns (entry indices, ns per request, summed request s, kernel s)."""
    order, lat, kernel_s = [], [], []
    n = len(corpus.entries)
    deadline = time.perf_counter() + seconds
    while (len(order) < floor or len(order) % corpus.block
           or time.perf_counter() < deadline):
        idx = len(order) % n
        t0 = time.perf_counter_ns()
        response = serve(cli, corpus.entries[idx].argv)
        lat.append(time.perf_counter_ns() - t0)
        kernel_s.append(time_kernel(kernel))
        order.append(idx)
        served.record(idx, response)
    return order, lat, sum(lat) / 1e9, kernel_s


def traced_loop(cli, corpus, served: Served, tracer, seconds: float):
    """Whole blocks in which every request is served twice in a row, untraced
    and traced, alternating which goes first, so machine drift and cache
    warmth cancel out of the tracing overhead; returns (entry indices,
    untraced ns, traced ns)."""
    order, lat_u, lat_t = [], [], []
    n = len(corpus.entries)
    deadline = time.perf_counter() + seconds
    while len(order) % corpus.block or time.perf_counter() < deadline:
        idx = len(order) % n
        argv = corpus.entries[idx].argv
        for traced in ((False, True) if len(order) % 2 == 0 else (True, False)):
            if traced:
                tracer.request = len(order)
                tracer.install()
            try:
                t0 = time.perf_counter_ns()
                response = serve(cli, argv)
                (lat_t if traced else lat_u).append(time.perf_counter_ns() - t0)
            finally:
                if traced:
                    tracer.uninstall()
            served.record(idx, response, "traced run" if traced else "repeat")
        order.append(idx)
    return order, lat_u, lat_t


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta((n+1)p, (n+1)(1-p))
    weighted mean of the order statistics.  On a mix of request sizes the
    sample median jumps from one size class to the next as the seed or a
    few slow requests shift it; this estimate moves smoothly instead."""
    x = np.sort(np.asarray(values, dtype=float))
    n, fine = len(x), 64
    a, b = (n + 1) * p, (n + 1) * (1.0 - p)
    grid = np.linspace(0.0, 1.0, n * fine + 1)[1:-1]
    log_pdf = (a - 1.0) * np.log(grid) + (b - 1.0) * np.log1p(-grid)
    pdf = np.concatenate(([0.0], np.exp(log_pdf - log_pdf.max()), [0.0]))
    cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2.0)))
    weights = np.diff(cdf[::fine]) / cdf[-1]
    return float(weights @ x)


def check_corpus(cli, corpus, served: Served, refs):
    """Serve entries the loop did not reach (untimed), then check every entry."""
    for idx, e in enumerate(corpus.entries):
        if served.outputs[idx] is None:
            served.record(idx, serve(cli, e.argv))
    return [check_output(e, *served.outputs[idx], refs, SAMPLES)
            for idx, e in enumerate(corpus.entries)]


def golden_status(workload: str, seed: int, value: str) -> str:
    goldens = json.loads(GOLDENS.read_text()) if GOLDENS.is_file() else {}
    want = goldens.get(workload, {}).get(str(seed))
    if want is None:
        return "none"
    return "match" if want == value else "MISMATCH"


def run_workload(args) -> int:
    cli = _load_package()
    os.chdir(ROOT)
    workdir = Path(".bench_work") / f"{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        refs = ClosedForms()
        corpus = build(args.workload, args.seed, workdir, refs)
        served = Served(len(corpus.entries))
        problems: list[str] = []
        kernel = KERNEL[args.workload]
        first = corpus.entries[0].argv
        cold, cold_raw = [], []
        if not args.trace:
            for _ in range(COLD_CALLS):
                wall, code, text = cold_call(first)
                cold_raw.append(wall)
                cold.append(wall / slowdown(kernel, [time_kernel(kernel)
                                                     for _ in range(KERNEL_RUNS)]))
                served.record(0, (code, text), "cold call")
        served.record(0, serve(cli, first), "warm-up")

        if args.trace:
            tracer = Tracer()
            order, lat_u, lat_t = traced_loop(cli, corpus, served, tracer, args.seconds)
            metrics = tracer.layer_metrics(len(order), sum(lat_t))
            metrics["measures.distinct_width_ratio"] = \
                corpus.properties["distinct_width_ratio"]
            metrics["trace.overhead_ratio"] = sum(lat_t) / sum(lat_u) - 1.0
            tracer.write(Path(".bench_out") / f"spans-{args.workload}-{args.seed}.jsonl")
            units = LAYER_UNITS
            counts = {k: len(order) for k in metrics}
        else:
            order, lat, busy, kernel_s = timed_loop(cli, corpus, served, args.seconds,
                                                    MIN_REQUESTS, kernel)
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            speed = slowdown(kernel, kernel_s)
            ms = [x / 1e6 for x in lat]
            raw = {"requests_per_s": len(order) / busy,
                   "latency_p50_ms": quantile(ms, 0.5),
                   "latency_p90_ms": quantile(ms, 0.9),
                   "setup_s": statistics.median(cold_raw)}
            metrics = {
                "requests_per_s": raw["requests_per_s"] * speed,
                "latency_p50_ms": raw["latency_p50_ms"] / speed,
                "latency_p90_ms": raw["latency_p90_ms"] / speed,
                "setup_s": statistics.median(cold),
                "peak_rss_mb": peak_kb / 1024.0,
            }
            units = END_TO_END_UNITS
            counts = {k: len(order) for k in metrics}
            counts.update(setup_s=len(cold), peak_rss_mb=1)

        verdicts = check_corpus(cli, corpus, served, refs)
        # one verdict per corpus entry: every repeat of an entry must print the
        # same report (else ``correct`` is false), so counting repeats would
        # only weigh entries by how many passes fitted in the run
        attempted = len(verdicts)
        failed = sum(not v.strict for v in verdicts)
        problems += served.mismatches
        for idx, v in enumerate(verdicts):
            if not v.hard:
                problems.append(f"entry {idx} {corpus.entries[idx].argv[0]}: "
                                + "; ".join(v.notes))
        est_digest = estimates_digest(served.outputs)
        golden = golden_status(args.workload, args.seed, est_digest)
        if golden == "MISMATCH":
            problems.append("estimates digest differs from the recorded golden")

        print(f"{args.workload} seed={args.seed} trace={args.trace} "
              f"requests={len(order)} corpus={len(corpus.entries)}")
        for name, value in metrics.items():
            print(f"  {name:45s} {value:14.6g} {units[name]:10s} n={counts[name]}")
        if not args.trace:
            print(f"  uncalibrated (kernel {'+'.join(kernel)} ran {speed:.3f}x its "
                  "nominal time): "
                  + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
        print(f"  failed_ratio {failed / attempted:.4f} ({failed}/{attempted} entries)")
        classes: dict[str, int] = {}
        for v in verdicts:
            for note in v.notes or []:
                key = note.split(":")[0].split(" (")[0]
                classes[key] = classes.get(key, 0) + 1
        for key, count in sorted(classes.items()):
            print(f"    failing check {key}: {count} of {len(verdicts)} entries")
        print(f"  input properties {json.dumps(corpus.properties, sort_keys=True)}")
        print(f"  estimates digest sha256:{est_digest} golden={golden}")
        for p in problems[:20]:
            print(f"  INCORRECT {p}")
        print(json.dumps({
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args) -> int:
    """Each workload in its own process (so peak RSS is per workload)."""
    status = 0
    for w in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", w,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {WORKLOADS}")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
