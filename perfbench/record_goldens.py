"""Record the golden estimate digests of the Monte-Carlo workloads.

    python3 perfbench/record_goldens.py --seeds 0-20

For each seed, serves every corpus entry of verify-mc and crosstab-joint
once, untimed, and stores the SHA-256 of all estimates (see
``run.estimates_digest``) in goldens.json.  Run it only on the commit whose
estimates are the reference: estimates are pure functions of (input, seed,
samples), so a later change that moves one bit of one estimate shows as a
golden mismatch, and the run reports ``correct: false``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
from pathlib import Path

import run
from corpus import build
from reference import ClosedForms

MC_WORKLOADS = ("verify-mc", "crosstab-joint")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-20", help="inclusive range, as A-B")
    args = parser.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    cli = run._load_package()
    os.chdir(run.ROOT)
    goldens = json.loads(run.GOLDENS.read_text()) if run.GOLDENS.is_file() else {}
    for workload in MC_WORKLOADS:
        for seed in range(lo, hi + 1):
            workdir = Path(".bench_work") / f"golden-{workload}-{seed}"
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            try:
                corpus = build(workload, seed, workdir, ClosedForms())
                outputs = [run.serve(cli, e.argv) for e in corpus.entries]
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            goldens.setdefault(workload, {})[str(seed)] = run.estimates_digest(outputs)
            print(workload, seed, goldens[workload][str(seed)], flush=True)
    run.GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
