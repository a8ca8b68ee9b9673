"""Output checks for one served request, against the exact references."""

from __future__ import annotations

import json
import math
from fractions import Fraction

from corpus import Entry
from reference import (
    REL_CHECK,
    ClosedForms,
    Verdict,
    cell_expectation,
    check_closed,
    check_equal,
    check_estimate,
    check_float,
    check_loss,
    classification,
    hartley_float,
    yager_exact,
)


def _check_measure(v: Verdict, e: Entry, res: dict, refs: ClosedForms) -> None:
    m, q = e.m, e.extra["q"]
    f = refs.volume(e.ne, e.po)
    check_equal(v, "m", res["m"], m)
    check_closed(v, "freedom", res["freedom"], f, m)
    normed = float(f.value) ** (1.0 / (m - 1)) if 0 < f.value < 1 else float(f.value)
    check_float(v, "normed_freedom vs printed freedom", res["normed_freedom"],
                res["freedom"] ** (1.0 / (m - 1)))
    if not math.isclose(res["normed_freedom"], normed, rel_tol=1e-9, abs_tol=0.0):
        v.fail(f"normed_freedom: printed {res['normed_freedom']!r}, exact {normed!r}",
               hard=False)
    check_float(v, "yager_ambiguity", res["yager_ambiguity"], float(yager_exact(e.po)))
    check_float(v, "hartley_nonspecificity", res["hartley_nonspecificity"],
                hartley_float(e.po))
    check_equal(v, "classification", res["classification"], classification(e.ne, e.po))
    check_float(v, "q", res["q"], q)
    check_closed(v, "conditional_freedom_unnormalized",
                 res["conditional_freedom_unnormalized"], refs.volume(e.ne, e.po, q), m)


def perturbed(e: Entry) -> tuple[tuple[list, list], tuple[list, list]]:
    """The two assignments the sensitivity command compares, as it builds them."""
    k, delta = e.extra["k"], e.extra["delta"]
    po2, ne2 = list(e.po), list(e.ne)
    po2[k] = max(po2[k] - delta, e.ne[k])
    ne2[k] = min(ne2[k] + delta, e.po[k])
    return (e.ne, po2), (ne2, e.po)


def _check_sensitivity(v: Verdict, e: Entry, res: dict, refs: ClosedForms) -> None:
    m, k = e.m, e.extra["k"]
    f0 = refs.volume(e.ne, e.po)
    (ne_a, po_a), (ne_b, po_b) = perturbed(e)
    loss_po = check_loss(v, "loss_from_po", res["loss_from_po"], f0,
                         refs.volume(ne_a, po_a), m)
    loss_ne = check_loss(v, "loss_from_ne", res["loss_from_ne"], f0,
                         refs.volume(ne_b, po_b), m)
    check_equal(v, "mode", res["mode"], "perturbation")
    check_equal(v, "index", res["index"], k + 1)
    check_float(v, "delta", res["delta"], e.extra["delta"])
    s_ne = math.fsum(e.ne[j] for j in range(m) if j != k)
    s_po = math.fsum(e.po[j] for j in range(m) if j != k)
    check_equal(v, "condition_holds", res["condition_holds"], s_ne < 1.0 - s_po)
    diff = loss_po - loss_ne
    verdict = ("tie" if abs(diff) <= 1e-9
               else "po_dominates" if diff > 0 else "ne_dominates")
    if res["verdict"] != verdict:
        v.fail(f"verdict: printed {res['verdict']!r}, exact {verdict!r}", hard=False)


def _check_verify(v: Verdict, e: Entry, res: dict, refs: ClosedForms,
                  samples: int) -> bool:
    f = refs.volume(e.ne, e.po)
    check_closed(v, "closed_form", res["closed_form"], f, e.m)
    check_estimate(v, "mc", res["mc_mean"], res["std_error"], samples)
    # the gap of the unrounded closed form: as accurate as the closed form
    gap = abs(f.value - Fraction(res["mc_mean"]))
    err = abs(Fraction(res["abs_diff"]) - gap)
    if err > REL_CHECK * max(f.value, gap):
        hard = err > REL_CHECK * max(f.value, gap) + Fraction(f.float_error_bound(e.m))
        v.fail(f"abs_diff: printed {res['abs_diff']!r}, exact {float(gap)!r}", hard)
    within = res["abs_diff"] <= 4.0 * res["std_error"]
    if res["within_4se"] != within and not math.isclose(
            res["abs_diff"], 4.0 * res["std_error"], rel_tol=1e-9):
        v.fail(f"within_4se: printed {res['within_4se']}, recomputed {within}", True)
    return res["within_4se"]


def _check_crosstab(v: Verdict, e: Entry, res: dict, samples: int) -> None:
    (r_ne, r_po), (c_ne, c_po) = e.extra["rows"], e.extra["cols"]
    k, m = len(r_ne), len(c_ne)
    check_equal(v, "shape", (res["rows"], res["cols"]), (k, m))
    case1, case2 = [], 0
    for i in range(k):
        for j in range(m):
            want = cell_expectation(r_ne[i], r_po[i], c_ne[j], c_po[j])
            got = res["cells"][i][j]
            for key in ("ne_lower", "ne_upper", "po_lower", "po_upper"):
                check_float(v, f"cell[{i}][{j}].{key}", got[key], want[key])
            check_equal(v, f"cell[{i}][{j}].case", got["case"], want["case"])
            check_equal(v, f"cell[{i}][{j}].d_maximizing", got["d_maximizing"],
                        want["d_maximizing"])
            if r_ne[i] + c_ne[j] > 1.0:
                case1.append([i + 1, j + 1])
            case2 += want["case"] == "case2"
    check_equal(v, "case1_census", res["case1_census"], case1)
    check_equal(v, "case2_count", res["case2_count"], case2)
    check_float(v, "case2_fraction", res["case2_fraction"], case2 / (k * m))
    joint = res["joint_freedom"]
    accepted = check_estimate(v, "joint_freedom", joint["mean"], joint["std_error"],
                              samples)
    check_equal(v, "low_acceptance", joint["low_acceptance"], accepted < 100)
    table = e.extra["joint"]
    if table is None:
        check_equal(v, "dependency", res.get("dependency"), None)
        return
    row_sums = [math.fsum(r) for r in table]
    col_sums = [math.fsum(table[i][j] for i in range(k)) for j in range(m)]
    for i in range(k):
        for j in range(m):
            a = min(row_sums[i], col_sums[j])
            b = max(0.0, row_sums[i] + col_sums[j] - 1.0)
            got = res["dependency"][i][j]
            if a - b <= 1e-12:
                check_equal(v, f"dependency[{i}][{j}]", got, None)
            else:
                want = min(1.0, max(0.0, (table[i][j] - b) / (a - b)))
                check_float(v, f"dependency[{i}][{j}]", got, want)


def check_output(e: Entry, code: int, text: str, refs: ClosedForms,
                 samples: int) -> Verdict:
    """Check one request's exit code and report.

    ``strict`` fails on a non-zero exit or any number outside 1e-9
    relative of its exact value; ``hard`` fails only on what no correct program can print.
    """
    v = Verdict()
    try:
        report = json.loads(text)
        res = report["results"]
        check_equal(v, "command", report["command"], e.kind)
        if e.kind == "measure":
            _check_measure(v, e, res, refs)
        elif e.kind == "sensitivity":
            _check_sensitivity(v, e, res, refs)
        elif e.kind == "verify":
            within = _check_verify(v, e, res, refs, samples)
            check_equal(v, "exit code", code, 0 if within else 1)
            if not within:
                # the known 0/n defect: a zero SE makes any nonzero gap "disagree"
                v.fail(f"verify exited 1 (std_error {res['std_error']!r})", hard=False)
            return v
        else:
            _check_crosstab(v, e, res, samples)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        v.fail(f"malformed report: {exc!r}", True)
        return v
    check_equal(v, "exit code", code, 0)
    return v
