"""Command-line interface: file ingestion, dispatch, machine-readable reports.

``main(argv)`` is the one entry point, for the console and for in-process
use: it returns the exit code, and a usage error that argparse catches
raises ``SystemExit(3)``.  Commands map one-to-one onto the library;
``COMMANDS`` is the one table of them (input parser, handler and help line).
One flat parser, built once per process, takes the command, the input and
the flags in any order.  Reports are JSON (default) or CSV on stdout; numbers
carry 12 significant digits; identical inputs and flags produce byte-identical
output.  Exit codes: 0 success, 1 validation/domain error, 2 I/O or parse
error, 3 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import warnings

from . import crosstab as ct
from . import measures, oracle, sensitivity
from .core import IntervalAssignment, classify, tighten, validate
from .errors import (
    FreedomError,
    IndexOutOfRange,
    LowAcceptanceWarning,
    ParseError,
    TooManyCells,
)


def _round12(obj):
    """Round every float to 12 significant digits, recursively."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
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
            if not isinstance(entry[field], float):
                raise ParseError(f"{key}[{i}].{field} must be a number")
        ne.append(entry["ne"])
        po.append(entry["po"])
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
    joint = doc.get("joint")
    if joint is not None:
        if not isinstance(joint, list) or not all(isinstance(r, list) for r in joint):
            raise ParseError('"joint" must be a matrix (list of lists)')
        for i, row in enumerate(joint):
            for j, v in enumerate(row):
                if not isinstance(v, float):
                    raise ParseError(f"joint[{i}][{j}] must be a number")
    return ct.CrossTable(row_marginals=rows, col_marginals=cols, joint=joint)


def _load_json(data: bytes | str):
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not UTF-8: {exc}") from exc
    try:
        # every number is a float: an integer literal too large for one is
        # inf, which validation rejects, not an OverflowError or a ValueError
        return json.loads(data, parse_int=float)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def _sample(estimator, *args) -> oracle.MCEstimate:
    """Call a sampling estimator with its LowAcceptanceWarning silenced: the
    commands report low acceptance from the estimate's accepted count.
    Other warnings pass through."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LowAcceptanceWarning)
        return estimator(*args)


# ---------------------------------------------------------------------------
# command handlers: each takes its parsed input and returns its results dict


def _cmd_validate(cfg: argparse.Namespace, a: IntervalAssignment):
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


def _cmd_measure(cfg: argparse.Namespace, a: IntervalAssignment):
    rep = measures.measure_report(a, q=cfg.q)
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


def _cmd_verify(cfg: argparse.Namespace, a: IntervalAssignment):
    f = measures.freedom(a)
    est = _sample(oracle.mc_freedom, a, cfg.samples, cfg.seed)
    if est.accepted < oracle.MIN_ACCEPTED:
        noisy = oracle._NOISY.format(est.accepted, est.samples)
        sys.stderr.write(f"{LowAcceptanceWarning.__name__}: {noisy}\n")
    diff = abs(f - est.mean)
    within = diff <= 4.0 * est.std_error
    return {
        "closed_form": f,
        "mc_mean": est.mean,
        "std_error": est.std_error,
        "abs_diff": diff,
        "within_4se": within,
    }


def _cmd_subsets(cfg: argparse.Namespace, a: IntervalAssignment):
    scan = measures.subset_scan(a)
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


def _cmd_sensitivity(cfg: argparse.Namespace, a: IntervalAssignment):
    k = cfg.index - 1  # library indices are 0-based
    try:
        if cfg.eps is not None:
            rep = sensitivity.imposition_compare(a, k, cfg.eps)
            mode = "imposition"
        else:
            delta = 0.05 if cfg.delta is None else cfg.delta
            rep = sensitivity.impact_compare(a, k, delta)
            mode = "perturbation"
    except IndexOutOfRange:  # in the flag's 1-based numbering
        raise IndexOutOfRange(f"--index {cfg.index} outside [1, {a.m}]") from None
    return {"mode": mode, **rep._asdict(), "index": rep.index + 1}


def _cmd_crosstab(cfg: argparse.Namespace, table: ct.CrossTable):
    rows, cols = table.row_marginals, table.col_marginals
    k, m = table.shape
    cells = []
    for i in range(k):
        row_out = []
        for j in range(m):
            margins = (rows.ne[i], rows.po[i], cols.ne[j], cols.po[j])
            cc = ct.classify_cell(*margins)
            row_out.append(
                {
                    **ct.cell_bounds(*margins)._asdict(),
                    "case": cc.case_tag,
                    "d_maximizing": cc.d_maximizing,
                }
            )
        cells.append(row_out)
    case2_count = sum(c["case"] == ct.CASE2 for row in cells for c in row)
    results = {
        "rows": k,
        "cols": m,
        "cells": cells,
        "case1_census": [[i + 1, j + 1] for i, j in ct.case1_census(table)],
        "case2_count": case2_count,
        "case2_fraction": case2_count / (k * m),
    }
    try:
        est = _sample(ct.mc_joint_freedom, table, cfg.samples, cfg.seed)
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
        col_sums = [math.fsum(col) for col in zip(*table.joint)]
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


def _cmd_region(cfg: argparse.Namespace, a: IntervalAssignment):
    return oracle.region_polygon(a)._asdict()


# the command table: name -> (input parser, handler, one-line help)
COMMANDS = {
    "validate": (parse_assignment, _cmd_validate,
                 "check an assignment file and report its tightened form"),
    "measure": (parse_assignment, _cmd_measure,
                "closed-form freedom, ambiguity, and nonspecificity"),
    "verify": (parse_assignment, _cmd_verify,
               "cross-check closed-form freedom against Monte Carlo"),
    "subsets": (parse_assignment, _cmd_subsets,
                "conditional freedom over point-conditioned subsets"),
    "sensitivity": (parse_assignment, _cmd_sensitivity,
                    "possibility- vs necessity-side impact at one option"),
    "crosstab": (parse_crosstable, _cmd_crosstab,
                 "cell bounds, cases, and joint freedom of a cross table"),
    "region": (parse_assignment, _cmd_region,
               "feasible-region polygon for a three-option assignment"),
}


def _check_flags(cfg: argparse.Namespace) -> str | None:
    """Return a usage-error message when a flag is outside its range."""
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


def _emit_csv(cfg: argparse.Namespace, report: dict) -> None:
    """One row per report; subsets emit one row per entry, crosstab one per
    cell (documented column orders in the README)."""
    import csv  # only CSV output pays for loading it

    res = report["results"]
    head = {key: report[key] for key in ("command", "input", "seed", "samples")}
    if cfg.command == "subsets":
        rows = [
            {
                **head,
                "subset": ";".join(e["options"]),
                "q": e["q"],
                "conditional_freedom_unnormalized": e["conditional_freedom_unnormalized"],
                "omitted": res["omitted"],
            }
            for e in res["entries"]
        ] or [{**head, "subset": "", "q": None,
               "conditional_freedom_unnormalized": None,
               "omitted": res["omitted"]}]
    elif cfg.command == "crosstab":
        joint = res.get("joint_freedom") or {}
        dep = res.get("dependency")
        rows = [
            {
                **head,
                "row": i + 1,
                "col": j + 1,
                **res["cells"][i][j],
                "dependency": dep[i][j] if dep is not None else None,
                "case1_count": len(res["case1_census"]),
                "case2_count": res["case2_count"],
                "joint_mean": joint.get("mean"),
                "joint_std_error": joint.get("std_error"),
            }
            for i in range(res["rows"])
            for j in range(res["cols"])
        ]
    else:
        rows = [{**head, **res}]
    writer = csv.DictWriter(sys.stdout, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows({k: _csv_cell(v) for k, v in row.items()} for row in rows)


def _emit_error(cfg: argparse.Namespace, kind: str, message: str) -> None:
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


@functools.cache
def _build_parser() -> _Parser:
    """The one parser, built on first use.  ``parse_args`` leaves it as it
    is, and help and usage errors read the streams and ``COLUMNS`` when they
    print, so every call can share it."""
    parser = _Parser(
        prog="simplexfreedom",
        description="Freedom/nonspecificity measures for interval probability "
        "assignments.",
        epilog="commands:\n"
        + "\n".join(f"  {name:<13}{text}" for name, (*_, text) in COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=COMMANDS, metavar="command",
                        help="one of the commands below")
    parser.add_argument("input_path", metavar="input", help="path to the JSON input file")
    parser.add_argument("--samples", type=int, default=1_000_000)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--q", type=float)
    parser.add_argument("--index", type=int, help="1-based option index (sensitivity)")
    parser.add_argument("--delta", type=float)
    parser.add_argument("--eps", type=float)
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Execute one command line; print its report; return the exit code."""
    cfg = _build_parser().parse_args(argv)
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
    sampled = cfg.command in ("verify", "crosstab")
    parse, handler, _ = COMMANDS[cfg.command]
    try:
        results = handler(cfg, parse(data))
    except ParseError as exc:
        _emit_error(cfg, "ParseError", str(exc))
        return 2
    except FreedomError as exc:
        _emit_error(cfg, type(exc).__name__, str(exc))
        return 1
    report = {
        "command": cfg.command,
        "input": cfg.input_path,
        "results": results,
        # the seed as the stream uses it: reduced mod 2^64
        "seed": oracle._seed(cfg.seed) if sampled else None,
        "samples": cfg.samples if sampled else None,
    }
    if cfg.format == "csv":
        _emit_csv(cfg, report)
    else:
        _emit_json(report)
    if cfg.command == "verify" and not results["within_4se"]:
        return 1
    return 0

if __name__ == "__main__":
    sys.exit(main())
