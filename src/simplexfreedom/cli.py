"""Command-line interface: file ingestion, dispatch, machine-readable reports.

Commands map one-to-one onto the library; ``COMMANDS`` is the one table of
them (handler and help line).  One flat parser takes the command, the input
and the flags in any order.  Reports are JSON (default) or CSV
on stdout; numbers carry 12 significant digits; identical inputs and flags
produce byte-identical output.  Exit codes: 0 success, 1 validation/domain
error, 2 I/O or parse error, 3 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import warnings
from dataclasses import dataclass

from . import crosstab as ct
from . import measures, oracle, sensitivity
from .core import IntervalAssignment, classify, tighten, validate
from .errors import FreedomError, LowAcceptanceWarning, ParseError, TooManyCells

@dataclass
class RunConfig:
    command: str
    input_path: str
    samples: int = 1_000_000
    seed: int = 42
    q: float | None = None
    index: int | None = None  # 1-based option index, as on the command line
    delta: float | None = None
    eps: float | None = None
    format: str = "json"
    force_cap: bool = False


def _round12(obj):
    """Round every float to 12 significant digits, recursively."""
    if isinstance(obj, float):
        if math.isfinite(obj):
            return float(f"{obj:.12g}")
        return obj
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _parse_entries(entries, key: str, label_prefix: str) -> IntervalAssignment:
    if not isinstance(entries, list):
        raise ParseError(f'"{key}" must be a list')
    ne, po, labels = [], [], []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ParseError(f"{key}[{i}] must be an object")
        for field in ("ne", "po"):
            if field not in entry:
                raise ParseError(f'{key}[{i}] is missing "{field}"')
            if not isinstance(entry[field], (int, float)) or isinstance(
                entry[field], bool
            ):
                raise ParseError(f"{key}[{i}].{field} must be a number")
        ne.append(float(entry["ne"]))
        po.append(float(entry["po"]))
        labels.append(str(entry.get("name", f"{label_prefix}{i + 1}")))
    return validate(ne, po, labels)


def parse_assignment(data: bytes | str) -> IntervalAssignment:
    """Parse an assignment file: {"options": [{"name", "ne", "po"}, ...]}.

    Names are optional (auto-generated as opt1..optM); ne and po are
    required numbers.  Validation errors from the core rules propagate.
    """
    doc = _load_json(data)
    if not isinstance(doc, dict) or "options" not in doc:
        raise ParseError('top-level object must contain an "options" list')
    return _parse_entries(doc["options"], "options", "opt")


def _parse_marginals(doc: dict, key: str) -> IntervalAssignment:
    if key not in doc:
        raise ParseError(f'top-level object must contain "{key}"')
    return _parse_entries(doc[key], key, key[:-1])


def parse_crosstable(data: bytes | str) -> ct.CrossTable:
    """Parse a cross-table file: {"rows": [...], "cols": [...], "joint": opt}."""
    doc = _load_json(data)
    if not isinstance(doc, dict):
        raise ParseError("top-level value must be an object")
    rows = _parse_marginals(doc, "rows")
    cols = _parse_marginals(doc, "cols")
    joint = None
    if doc.get("joint") is not None:
        raw = doc["joint"]
        if not isinstance(raw, list) or not all(isinstance(r, list) for r in raw):
            raise ParseError('"joint" must be a matrix (list of lists)')
        for i, row in enumerate(raw):
            for j, v in enumerate(row):
                if not isinstance(v, (int, float)) or isinstance(v, bool):
                    raise ParseError(f"joint[{i}][{j}] must be a number")
        joint = tuple(tuple(float(v) for v in row) for row in raw)
    return ct.CrossTable(row_marginals=rows, col_marginals=cols, joint=joint)


def _load_json(data: bytes | str):
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not UTF-8: {exc}") from exc
    try:
        return json.loads(data)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


# ---------------------------------------------------------------------------
# command handlers: each returns its results dict


def _cmd_validate(cfg: RunConfig, data: bytes):
    a = parse_assignment(data)
    t = tighten(a)
    return {
        "valid": True,
        "m": a.m,
        "options": list(a.options),
        "ne": list(a.ne),
        "po": list(a.po),
        "tightened_ne": list(t.ne),
        "tightened_po": list(t.po),
        "classification": classify(a).value,
    }


def _cmd_measure(cfg: RunConfig, data: bytes):
    a = parse_assignment(data)
    rep = measures.measure_report(a, q=cfg.q, force_cap=cfg.force_cap)
    results = {
        "m": rep.m,
        "freedom": rep.freedom,
        "yager_ambiguity": rep.yager_ambiguity,
        "hartley_nonspecificity": rep.hartley_nonspecificity,
        "normed_freedom": rep.normed_freedom,
        "classification": classify(a).value,
    }
    if cfg.q is not None:
        results["q"] = rep.q
        # unnormalized conditional freedom (volume, not sub-simplex fraction)
        results["conditional_freedom_unnormalized"] = rep.conditional_freedom
    return results


def _cmd_verify(cfg: RunConfig, data: bytes):
    a = parse_assignment(data)
    f = measures.freedom(a, force_cap=cfg.force_cap)
    est = oracle.mc_freedom(a, cfg.samples, cfg.seed)
    diff = abs(f - est.mean)
    within = diff <= 4.0 * est.std_error
    return {
        "closed_form": f,
        "mc_mean": est.mean,
        "std_error": est.std_error,
        "abs_diff": diff,
        "within_4se": within,
    }


def _cmd_subsets(cfg: RunConfig, data: bytes):
    a = parse_assignment(data)
    scan = measures.subset_scan(a, force_cap=cfg.force_cap)
    return {
        "entries": [
            {
                "options": list(e.labels),
                "indices": [i + 1 for i in e.indices],
                "q": e.q,
                "conditional_freedom_unnormalized": e.conditional_freedom,
            }
            for e in scan.entries
        ],
        "omitted": scan.omitted,
    }


def _cmd_sensitivity(cfg: RunConfig, data: bytes):
    a = parse_assignment(data)
    k = cfg.index - 1  # library indices are 0-based
    if cfg.eps is not None:
        rep = sensitivity.imposition_compare(a, k, cfg.eps, force_cap=cfg.force_cap)
        mode = "imposition"
    else:
        delta = 0.05 if cfg.delta is None else cfg.delta
        rep = sensitivity.impact_compare(a, k, delta, force_cap=cfg.force_cap)
        mode = "perturbation"
    return {
        "mode": mode,
        "index": rep.index + 1,
        "delta": rep.delta,
        "loss_from_po": rep.loss_from_po,
        "loss_from_ne": rep.loss_from_ne,
        "condition_holds": rep.condition_holds,
        "verdict": rep.verdict,
    }


def _cmd_crosstab(cfg: RunConfig, data: bytes):
    table = parse_crosstable(data)
    rows, cols = table.row_marginals, table.col_marginals
    k, m = table.shape
    cells = []
    case2_count = 0
    for i in range(k):
        row_out = []
        for j in range(m):
            b = ct.cell_bounds(rows.ne[i], rows.po[i], cols.ne[j], cols.po[j])
            cc = ct.classify_cell(rows.ne[i], rows.po[i], cols.ne[j], cols.po[j])
            if cc.case_tag == ct.CASE2:
                case2_count += 1
            row_out.append(
                {
                    "ne_lower": b.ne_lower,
                    "ne_upper": b.ne_upper,
                    "po_lower": b.po_lower,
                    "po_upper": b.po_upper,
                    "case": cc.case_tag,
                    "d_maximizing": cc.d_maximizing,
                }
            )
        cells.append(row_out)
    results = {
        "rows": k,
        "cols": m,
        "cells": cells,
        "case1_census": [[i + 1, j + 1] for i, j in ct.case1_census(table)],
        "case2_count": case2_count,
        "case2_fraction": case2_count / (k * m),
    }
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LowAcceptanceWarning)
            est = ct.mc_joint_freedom(table, cfg.samples, cfg.seed)
        results["joint_freedom"] = {
            "mean": est.mean,
            "std_error": est.std_error,
            "low_acceptance": est.accepted < oracle.MIN_ACCEPTED,
        }
    except TooManyCells as exc:
        results["joint_freedom"] = None
        results["joint_freedom_skipped"] = str(exc)
    if table.joint is not None:
        dep = []
        row_sums = [math.fsum(r) for r in table.joint]
        col_sums = [
            math.fsum(table.joint[i][j] for i in range(k)) for j in range(m)
        ]
        for i in range(k):
            dep_row = []
            for j in range(m):
                try:
                    dep_row.append(
                        ct.dependency(table.joint[i][j], row_sums[i], col_sums[j])
                    )
                except FreedomError:
                    dep_row.append(None)
            dep.append(dep_row)
        results["dependency"] = dep
    return results


def _cmd_region(cfg: RunConfig, data: bytes):
    a = parse_assignment(data)
    poly = oracle.region_polygon(a)
    return {
        "vertices": [[x, y] for x, y in poly.vertices],
        "area_fraction": poly.area_fraction,
    }


# the command table: name -> (handler, one-line help)
COMMANDS = {
    "validate": (_cmd_validate, "check an assignment file and report its tightened form"),
    "measure": (_cmd_measure, "closed-form freedom, ambiguity, and nonspecificity"),
    "verify": (_cmd_verify, "cross-check closed-form freedom against Monte Carlo"),
    "subsets": (_cmd_subsets, "conditional freedom over point-conditioned subsets"),
    "sensitivity": (_cmd_sensitivity, "possibility- vs necessity-side impact at one option"),
    "crosstab": (_cmd_crosstab, "cell bounds, cases, and joint freedom of a cross table"),
    "region": (_cmd_region, "feasible-region polygon for a three-option assignment"),
}


def _check_flags(cfg: RunConfig) -> str | None:
    """Return a usage-error message when a flag is outside its range."""
    if cfg.command not in COMMANDS:
        return f"unknown command {cfg.command!r}"
    if cfg.samples < 1:
        return "--samples must be a positive integer"
    if cfg.q is not None and not (0.0 < cfg.q <= 1.0):
        return "--q must lie in (0, 1]"
    if cfg.delta is not None and not math.isfinite(cfg.delta):
        return "--delta must be finite"
    if cfg.delta is not None and cfg.delta < 0.0:
        return "--delta must be nonnegative"
    if cfg.eps is not None and not (0.0 < cfg.eps < 1.0):
        return "--eps must lie in (0, 1)"
    if cfg.command == "sensitivity":
        if cfg.index is None:
            return "sensitivity requires --index"
        if cfg.index < 1:
            return "--index is 1-based and must be >= 1"
        if cfg.delta is not None and cfg.eps is not None:
            return "--delta and --eps are mutually exclusive"
    if cfg.format not in ("json", "csv"):
        return "--format must be json or csv"
    return None


def _emit_json(report: dict) -> None:
    sys.stdout.write(json.dumps(_round12(report), indent=2) + "\n")


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.12g}"
    if isinstance(v, (list, tuple)):
        return json.dumps(_round12(v))
    return str(v)


def _emit_csv(cfg: RunConfig, report: dict) -> None:
    """One row per report; subsets emit one row per entry, crosstab one per
    cell (documented column orders in the README)."""
    res = report["results"]
    head = {
        "command": report["command"],
        "input": report["input"],
        "seed": report["seed"],
        "samples": report["samples"],
    }
    rows: list[dict]
    if cfg.command == "subsets":
        rows = [
            {
                **head,
                "subset": ";".join(e["options"]),
                "q": e["q"],
                "conditional_freedom_unnormalized": e[
                    "conditional_freedom_unnormalized"
                ],
                "omitted": res["omitted"],
            }
            for e in res["entries"]
        ] or [{**head, "subset": "", "q": None,
               "conditional_freedom_unnormalized": None,
               "omitted": res["omitted"]}]
    elif cfg.command == "crosstab":
        joint = res.get("joint_freedom") or {}
        rows = []
        dep = res.get("dependency")
        for i in range(res["rows"]):
            for j in range(res["cols"]):
                cell = res["cells"][i][j]
                rows.append(
                    {
                        **head,
                        "row": i + 1,
                        "col": j + 1,
                        **{f: cell[f] for f in (
                            "ne_lower", "ne_upper", "po_lower", "po_upper",
                            "case", "d_maximizing")},
                        "dependency": dep[i][j] if dep is not None else None,
                        "case1_count": len(res["case1_census"]),
                        "case2_count": res["case2_count"],
                        "joint_mean": joint.get("mean"),
                        "joint_std_error": joint.get("std_error"),
                    }
                )
    else:
        flat = dict(head)
        for key, value in res.items():
            flat[key] = value
        rows = [flat]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _csv_cell(v) for k, v in row.items()})
    sys.stdout.write(buf.getvalue())


def run(cfg: RunConfig) -> int:
    """Execute one command; print its report; return the exit code."""
    usage = _check_flags(cfg)
    if usage is not None:
        sys.stderr.write(f"usage error: {usage}\n")
        return 3
    try:
        with open(cfg.input_path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        sys.stderr.write(f"cannot read {cfg.input_path}: {exc}\n")
        return 2
    try:
        results = COMMANDS[cfg.command][0](cfg, data)
    except ParseError as exc:
        _emit_error(cfg, "ParseError", str(exc))
        return 2
    except FreedomError as exc:
        _emit_error(cfg, type(exc).__name__, str(exc))
        return 1
    sampled = cfg.command in ("verify", "crosstab")
    report = {
        "command": cfg.command,
        "input": cfg.input_path,
        "results": results,
        "seed": cfg.seed if sampled else None,
        "samples": cfg.samples if sampled else None,
    }
    if cfg.format == "csv":
        _emit_csv(cfg, report)
    else:
        _emit_json(report)
    if cfg.command == "verify" and not results["within_4se"]:
        return 1
    return 0


def _emit_error(cfg: RunConfig, kind: str, message: str) -> None:
    _emit_json(
        {
            "command": cfg.command,
            "input": cfg.input_path,
            "error": {"type": kind, "message": message},
        }
    )
    sys.stderr.write(f"{kind}: {message}\n")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the documented usage exit code is 3."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="simplexfreedom",
        description="Freedom/nonspecificity measures for interval probability "
        "assignments.",
        epilog="commands:\n"
        + "\n".join(f"  {name:<13}{text}" for name, (_, text) in COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
        argument_default=argparse.SUPPRESS,  # the defaults are RunConfig's
    )
    parser.add_argument("command", choices=COMMANDS, metavar="command",
                        help="one of the commands below")
    parser.add_argument("input_path", metavar="input", help="path to the JSON input file")
    parser.add_argument("--samples", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--q", type=float)
    parser.add_argument("--index", type=int, help="1-based option index (sensitivity)")
    parser.add_argument("--delta", type=float)
    parser.add_argument("--eps", type=float)
    parser.add_argument("--format", choices=("json", "csv"))
    parser.add_argument("--force-cap", action="store_true",
                        help="override the closed-form option-count cap")
    return parser


def main(argv: list[str] | None = None) -> int:
    cfg = RunConfig(**vars(_build_parser().parse_args(argv)))
    cfg.seed %= 1 << 64
    return run(cfg)

if __name__ == "__main__":
    sys.exit(main())
