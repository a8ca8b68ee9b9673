"""Seeded request corpus for every workload.

``build(workload, seed, workdir)`` writes one JSON input file per corpus
entry and returns the entries (CLI argv plus what the output checks need)
and the input properties the benchmark reports.  The same (workload, seed)
always gives byte-identical files and argv.  Inputs are drawn with
``random.Random`` seeded from a string, so they do not depend on the
package under test.

M (or the table shape) is stratified: every block of the corpus holds each
size exactly once in a seeded order, so the size mix, and with it the work
per request, is the same on every seed; the seed moves only the bounds.
The first entry always has the same size, because its cold CLI call is the
set-up time.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from reference import ClosedForms, tightened

SAMPLES = 1_000_000


@dataclass
class Entry:
    argv: list[str]
    kind: str  # "verify", "measure", "sensitivity" or "crosstab"
    m: int
    ne: list[float] = field(default_factory=list)
    po: list[float] = field(default_factory=list)
    extra: dict = field(default_factory=dict)


@dataclass
class Corpus:
    entries: list[Entry]
    properties: dict
    block: int  # entries per block; every block holds the same size mix


def _stratified(rnd: random.Random, sizes: list, blocks: int, first) -> list:
    order = []
    for _ in range(blocks):
        block = list(sizes)
        rnd.shuffle(block)
        order.extend(block)
    i = order.index(first)
    order[0], order[i] = order[i], order[0]
    return order


def _criterion4_draw(rnd: random.Random, m: int) -> tuple[list[float], list[float]]:
    """The test suite's random valid assignment (po summing past 1.02,
    ne uniform under po, rescaled when sum(ne) nears 1)."""
    while True:
        po = [0.02 + 0.98 * rnd.random() for _ in range(m)]
        if sum(po) >= 1.02:
            break
    ne = [p * rnd.random() for p in po]
    s = sum(ne)
    if s > 0.95:
        ne = [x * 0.9 / s for x in ne]
    return ne, po


def _low_volume_draw(rnd: random.Random, m: int) -> tuple[list[float], list[float]]:
    """Necessities summing to 1 - b, so F <= b^(M-1) < 1e-7."""
    b = rnd.uniform(0.2, 1.0) * 10.0 ** (-7.0 / (m - 1))
    cuts = sorted(rnd.random() for _ in range(m - 1))
    point = [hi - lo for lo, hi in zip([0.0] + cuts, cuts + [1.0])]
    ne = [p * (1.0 - b) for p in point]
    po = [min(1.0, n + rnd.uniform(0.05, 0.5)) for n in ne]
    return ne, po


def _write(workdir: Path, name: str, doc: dict) -> str:
    path = workdir / name
    path.write_text(json.dumps(doc))
    return str(path)


def _assignment_doc(ne, po) -> dict:
    return {"options": [{"ne": n, "po": p} for n, p in zip(ne, po)]}


def _distinct_width_ratio(ne, po) -> float:
    t_ne, t_po = tightened(ne, po)
    return len({p - n for n, p in zip(t_ne, t_po)}) / len(ne)


VERIFY_SIZES = range(2, 9)


def _verify_mc(rnd, workdir, refs) -> tuple[list[Entry], dict]:
    entries = []
    low = 0
    for i, m in enumerate(_stratified(rnd, VERIFY_SIZES, 10, 5)):
        low_volume = i % 10 == 9
        while True:
            ne, po = (_low_volume_draw if low_volume else _criterion4_draw)(rnd, m)
            f = refs.volume(ne, po).value
            if (0 < f < 1e-6) if low_volume else (1e-3 <= f <= 0.999):
                break
        low += low_volume
        path = _write(workdir, f"v{i:03d}.json", _assignment_doc(ne, po))
        seed = rnd.getrandbits(32)
        argv = ["verify", path, "--samples", str(SAMPLES), "--seed", str(seed)]
        entries.append(Entry(argv, "verify", m, ne, po))
    return entries, {"low_volume_share": low / len(entries)}


# sum(po) levels: even M takes the first pair, odd M the second
PO_SUMS = ((1.3, 2.0), (1.6, 2.4))
CLOSED_FORM_PAIRS = [(m, c) for m in range(10, 19) for c in PO_SUMS[m % 2]]
CLOSED_FORM_BLOCKS = 3


def _closed_form(rnd, workdir, decimal: bool) -> tuple[list[Entry], dict]:
    """Inputs shared by one measure and one sensitivity request each.

    Each M = 10..18 appears with two levels of sum(po) from PO_SUMS, once
    in each of CLOSED_FORM_BLOCKS blocks.  sum(po) sets both the work (the
    pruned inclusion-exclusion visits more of its 2^M subsets as sum(po)
    nears 1) and the cancellation (F shrinks), so fixing it per input keeps
    the work mix, and the share of ill-conditioned inputs, the same on every
    seed.  ``decimal`` puts po on
    a 0.05 grid with ne = 0 (human-entered decimals, many equal widths);
    otherwise bounds are full-precision floats with sum(ne) = 0.1, and every
    tightened width is distinct.  The perturbed option always has room for
    delta, so both perturbed regions stay full-dimensional.  The work per
    input still varies with its bounds, and a few inputs at M = 17, 18 carry
    most of it, so each (M, sum(po)) stratum holds several inputs: that keeps
    the seed's share of the spread of latency and throughput small.
    """
    entries = []
    for i, (m, c) in enumerate(_stratified(rnd, CLOSED_FORM_PAIRS, CLOSED_FORM_BLOCKS,
                                           (14, 2.0))):
        if decimal:
            units = [1] * m  # po in units of 0.05
            for _ in range(round(c / 0.05) - m):
                units[rnd.randrange(m)] += 1
            po = [round(0.05 * u, 2) for u in units]
            k = rnd.choice([j for j in range(m) if units[j] > 1])
            ne = [0.0] * m
            q = 0.9
            delta = 0.05
        else:
            k = rnd.randrange(m)
            po = [rnd.uniform(0.6, 1.4) for _ in range(m)]
            ne = [p * rnd.uniform(0.0, 0.2) for p in po]
            po = [p * c / math.fsum(po) for p in po]
            ne = [n * 0.1 / math.fsum(ne) for n in ne]
            q = rnd.uniform(0.88, 0.9)
            delta = (po[k] - ne[k]) * rnd.uniform(0.1, 0.5)
        path = _write(workdir, f"c{i:03d}.json", _assignment_doc(ne, po))
        entries.append(Entry(["measure", path, "--q", repr(q)], "measure", m, ne, po,
                             {"q": q}))
        entries.append(Entry(
            ["sensitivity", path, "--index", str(k + 1), "--delta", repr(delta)],
            "sensitivity", m, ne, po, {"k": k, "delta": delta}))
    return entries, {"po_sum_levels": sorted(c for pair in PO_SUMS for c in pair)}


def _feasible_margin(rnd: random.Random, n: int) -> tuple[list[float], list[float], list[float]]:
    """Loose interval margins around a random point, and that point."""
    cuts = sorted(rnd.random() for _ in range(n - 1))
    point = [hi - lo for lo, hi in zip([0.0] + cuts, cuts + [1.0])]
    ne = [p * rnd.uniform(0.0, 0.6) for p in point]
    po = [min(1.0, p + rnd.uniform(0.1, 0.5)) for p in point]
    return ne, po, point


_SHAPES = [(k, m) for k in (2, 3) for m in (2, 3, 4)]  # 4 to 12 = CELL_CAP cells


def _crosstab_joint(rnd, workdir) -> tuple[list[Entry], dict]:
    entries = []
    joints = 0
    for i, (k, m) in enumerate(_stratified(rnd, _SHAPES, 6, (2, 3))):
        r_ne, r_po, r_pt = _feasible_margin(rnd, k)
        c_ne, c_po, c_pt = _feasible_margin(rnd, m)
        doc = {"rows": [{"ne": n, "po": p} for n, p in zip(r_ne, r_po)],
               "cols": [{"ne": n, "po": p} for n, p in zip(c_ne, c_po)]}
        if i % 2 == 0:
            # product of feasible row and column points: sums match the
            # points and every cell lies inside its Frechet bounds
            doc["joint"] = [[a * b for b in c_pt] for a in r_pt]
            joints += 1
        path = _write(workdir, f"x{i:03d}.json", doc)
        seed = rnd.getrandbits(32)
        argv = ["crosstab", path, "--samples", str(SAMPLES), "--seed", str(seed)]
        entries.append(Entry(argv, "crosstab", k * m, extra={"shape": f"{k}x{m}",
            "rows": (r_ne, r_po), "cols": (c_ne, c_po), "joint": doc.get("joint")}))
    return entries, {"joint_table_share": joints / len(entries)}


WORKLOADS = ("verify-mc", "closed-form-distinct", "closed-form-decimal", "crosstab-joint")
# entries per block of _stratified; each closed-form input gives two requests
BLOCK = {"verify-mc": len(VERIFY_SIZES), "closed-form-distinct": 2 * len(CLOSED_FORM_PAIRS),
         "closed-form-decimal": 2 * len(CLOSED_FORM_PAIRS), "crosstab-joint": len(_SHAPES)}


def build(workload: str, seed: int, workdir: Path, refs: ClosedForms) -> Corpus:
    rnd = random.Random(f"{workload}:{seed}")
    if workload == "verify-mc":
        entries, props = _verify_mc(rnd, workdir, refs)
    elif workload == "closed-form-distinct":
        entries, props = _closed_form(rnd, workdir, decimal=False)
    elif workload == "closed-form-decimal":
        entries, props = _closed_form(rnd, workdir, decimal=True)
    elif workload == "crosstab-joint":
        entries, props = _crosstab_joint(rnd, workdir)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    assignments = [e for e in entries if e.ne]
    sizes = Counter(e.extra.get("shape", e.m) for e in entries)
    props["size_histogram"] = {str(k): v for k, v in sorted(sizes.items(), key=str)}
    props["distinct_width_ratio"] = (
        sum(_distinct_width_ratio(e.ne, e.po) for e in assignments) / len(assignments)
        if assignments else 0.0)
    return Corpus(entries, props, BLOCK[workload])
