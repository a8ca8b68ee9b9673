"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass lines.
All randomness is seeded; reruns are bit-identical.
"""

from __future__ import annotations

import math
import time

from simplexfreedom import (
    SplitMix64,
    case1_census,
    classify_cell,
    freedom,
    freedom_conditional,
    hartley_nonspecificity,
    imposition_compare,
    mc_freedom,
    region_polygon,
    tighten,
    validate,
    yager_ambiguity,
)
from simplexfreedom.core import TOLERANCE
from simplexfreedom.crosstab import CASE1, CrossTable
from simplexfreedom.sensitivity import NE_DOMINATES, PO_DOMINATES, TIE

from conftest import (
    derive_worker_seed,
    random_assignment_with_volume,
    random_valid_assignment,
)
from test_crosstab import grid_width

BASE_SEED = 20260810


def _passed(num: int, description: str, elapsed: float, extra: str = ""):
    print(f"[PASS] criterion {num:2d}: {description} ({elapsed:.3f} s){extra}")


def test_criterion_01_two_option_reproduction():
    """Worked two-option values: F = 0.2/0.4 and A = 0.4/0.2 to 1e-12."""
    case1 = validate([0.6, 0.2], [0.8, 0.4])
    case2 = validate([0.6, 0.0], [1.0, 0.4])
    freedom(case1), yager_ambiguity(case1)  # warm up
    start = time.perf_counter()
    f1, a1 = freedom(case1), yager_ambiguity(case1)
    f2, a2 = freedom(case2), yager_ambiguity(case2)
    elapsed = time.perf_counter() - start
    assert abs(f1 - 0.2) <= 1e-12
    assert abs(f2 - 0.4) <= 1e-12
    assert abs(a1 - 0.4) <= 1e-12
    assert abs(a2 - 0.2) <= 1e-12
    assert elapsed < 1e-3
    _passed(1, "two-option F/A reproduction", elapsed)


def test_criterion_02_bit_measure_reproduction():
    """Worked two-option values: F = 0.6/0.4 and I = 0.6/0.7 bits to 1e-12."""
    case1 = validate([0.4, 0.0], [1.0, 0.6])
    case2 = validate([0.3, 0.3], [0.7, 0.7])
    freedom(case1), hartley_nonspecificity(case1)  # warm up
    start = time.perf_counter()
    f1, i1 = freedom(case1), hartley_nonspecificity(case1)
    f2, i2 = freedom(case2), hartley_nonspecificity(case2)
    elapsed = time.perf_counter() - start
    assert abs(f1 - 0.6) <= 1e-12
    assert abs(f2 - 0.4) <= 1e-12
    assert abs(i1 - 0.6) <= 1e-12
    assert abs(i2 - 0.7) <= 1e-12
    assert elapsed < 1e-3
    _passed(2, "two-option F/I reproduction", elapsed)


def test_criterion_03_three_option_contrast():
    """F triples from 0.25 to 0.50 while I stays at 0.5*log2(3)."""
    low = validate([0, 0, 0], [0.5, 0.5, 0.5])
    high = validate([0, 0, 0], [1.0, 0.5, 0.5])
    freedom(low)  # warm up
    start = time.perf_counter()
    f_low, f_high = freedom(low), freedom(high)
    i_low, i_high = hartley_nonspecificity(low), hartley_nonspecificity(high)
    elapsed = time.perf_counter() - start
    expected_bits = 0.5 * math.log2(3.0)
    assert abs(f_low - 0.25) <= 1e-12
    assert abs(f_high - 0.50) <= 1e-12
    assert abs(i_low - expected_bits) <= 1e-12
    assert abs(i_high - expected_bits) <= 1e-12
    assert elapsed < 1e-3
    _passed(3, "three-option factor-of-two contrast", elapsed)


def test_criterion_04_sampling_oracle_equivalence():
    """Closed form vs 10^6-sample rejection estimate: within 4 SE in at
    least 99 of 100 randomized assignments for every option count 2..6."""
    start = time.perf_counter()
    summary = []
    for m in range(2, 7):
        gen = SplitMix64(derive_worker_seed(BASE_SEED, m))
        failures = 0
        for i in range(100):
            a = random_assignment_with_volume(gen, m)
            seed = derive_worker_seed(BASE_SEED, 1000 * m + i)
            est = mc_freedom(a, 10**6, seed)
            if abs(freedom(a) - est.mean) > 4.0 * est.std_error:
                failures += 1
        assert failures <= 1, f"M={m}: {failures} of 100 beyond 4 SE"
        summary.append(f"M={m}:{100 - failures}/100")
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _passed(4, "Monte-Carlo oracle equivalence", elapsed, " " + " ".join(summary))


def test_criterion_05_geometric_oracle():
    """Polygon area fraction equals the closed form to 1e-9 on 200 random
    three-option assignments."""
    gen = SplitMix64(derive_worker_seed(BASE_SEED, 5))
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        a = random_valid_assignment(gen, 3)
        diff = abs(region_polygon(a).area_fraction - freedom(a))
        worst = max(worst, diff)
        assert diff <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed(5, "polygon area equals closed form", elapsed, f" worst {worst:.2e}")


def test_polygon_area_is_the_closed_form_bit_for_bit():
    """Beside criterion 5: both routes are exact and rounded once, so they
    agree bit for bit, on 6,000 three-option assignments in three families:
    full-precision bounds, bounds rounded to 2 decimals, and ne = 0 with po
    rounded to 3 decimals."""
    gen = SplitMix64(derive_worker_seed(BASE_SEED, 15))
    for i in range(6000):
        a = random_valid_assignment(gen, 3)
        if i % 3 == 1:
            a = validate([round(x, 2) for x in a.ne], [round(x, 2) for x in a.po])
        elif i % 3 == 2:
            a = validate([0.0] * 3, [round(x, 3) for x in a.po])
        assert region_polygon(a).area_fraction == freedom(a), a


def test_criterion_06_extremal_characterization():
    """freedom is exactly 1 on vacuous assignments and exactly 0 whenever a
    tightened interval collapses, over 50 constructed cases each."""
    start = time.perf_counter()
    for i in range(50):
        m = 2 + i % 10
        assert freedom(validate([0.0] * m, [1.0] * m)) == 1.0

    gen = SplitMix64(derive_worker_seed(BASE_SEED, 6))

    def dyadic_composition(m: int) -> list[float]:
        # m exact multiples of 1/64 summing exactly to 1.0
        while True:
            cuts = sorted({1 + int(gen.random() * 62) for _ in range(m - 1)})
            if len(cuts) == m - 1:
                break
        parts = []
        prev = 0
        for c in cuts:
            parts.append((c - prev) / 64.0)
            prev = c
        parts.append((64 - prev) / 64.0)
        return parts

    degenerate = []
    for i in range(13):  # point assignments
        m = 2 + i % 3
        p = [gen.random() + 0.05 for _ in range(m)]
        total = sum(p)
        p = [x / total for x in p]
        degenerate.append(validate(p, p))
    for i in range(13):  # one interval pinned, the rest wide
        m = 3 + i % 3
        c = 0.5 * gen.random()
        ne = [0.0] * m
        po = [1.0] * m
        ne[i % m] = c
        po[i % m] = c
        degenerate.append(validate(ne, po))
    for i in range(12):  # necessities exhaust the whole mass (dyadic, exact)
        m = 2 + i % 3
        ne = dyadic_composition(m)
        degenerate.append(validate(ne, [1.0] * m))
    for i in range(12):  # possibilities sum exactly to 1 (dyadic, exact)
        m = 2 + i % 3
        po = dyadic_composition(m)
        degenerate.append(validate([0.0] * m, po))

    assert len(degenerate) == 50
    for a in degenerate:
        t = tighten(a)
        assert any(p - n <= 1e-9 for n, p in zip(t.ne, t.po))
        assert freedom(a) == 0.0
    elapsed = time.perf_counter() - start
    _passed(6, "extremal values exact on constructed families", elapsed)


def test_criterion_07_dominance_condition_audit():
    """Over 500 randomized imposition triples the dominance condition
    matches the loss comparison in every non-tie case."""
    gen = SplitMix64(derive_worker_seed(BASE_SEED, 7))
    start = time.perf_counter()
    checked = 0
    ties = 0
    while checked < 500:
        m = 2 + int(gen.random() * 4)
        k = int(gen.random() * m)
        ne = [0.0] * m
        po = [1.0] * m
        for j in range(m):
            if j == k:
                continue
            po[j] = 0.02 + 0.98 * gen.random()
            ne[j] = po[j] * gen.random()
        s = sum(ne)
        if s > 0.95:
            ne = [x * 0.9 / s if j != k else 0.0 for j, x in enumerate(ne)]
        a = validate(ne, po)
        eps = 0.01 + 0.98 * gen.random()
        rep = imposition_compare(a, k, eps)
        checked += 1
        if rep.verdict == TIE:
            ties += 1
            continue
        expected = PO_DOMINATES if rep.condition_holds else NE_DOMINATES
        assert rep.verdict == expected, (
            f"counterexample: ne={ne} po={po} k={k} eps={eps:.6f} "
            f"condition={rep.condition_holds} losses=({rep.loss_from_po:.3e}, "
            f"{rep.loss_from_ne:.3e})"
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _passed(7, "dominance condition audit", elapsed, f" ties {ties}/500")


def test_criterion_08_case1_uniqueness():
    """Case-1 uniqueness, in its provable form, over 1000 randomized cross
    tables (margins up to 5x5).

    The literal claim, that no table has more than one cell with
    ne_i. + ne_.j > 1, is false: one margin necessity above 1/2 can push
    several opposite-margin cells past 1 (row necessities (0.825, 0)
    against column necessities (0.386, 0.223) give two qualifying cells in
    the first row).  On every table this asserts what does hold:

    - the census is exactly the cells :func:`classify_cell` tags case 1,
      in row-major order;
    - all qualifying cells share one row or one column (two cells in
      distinct rows and columns would need margin necessities summing
      past 2);
    - more than one cell qualifies only when the shared margin's necessity
      exceeds 1/2 - TOLERANCE (validation admits sum(ne) <= 1 + TOLERANCE),
      so the literal one-cell claim holds on every table whose margin
      necessities are all at most 1/2 - TOLERANCE.

    The pass line reports how many tables refute the literal claim and the
    largest census seen.
    """
    counterexample = CrossTable(
        row_marginals=validate([0.825, 0.0], [1.0, 1.0]),
        col_marginals=validate([0.386, 0.223], [1.0, 1.0]),
    )
    assert case1_census(counterexample) == [(0, 0), (0, 1)]

    gen = SplitMix64(derive_worker_seed(BASE_SEED, 8))
    start = time.perf_counter()
    max_seen = 0
    multi = 0
    for idx in range(1000):
        k = 2 + int(gen.random() * 4)
        m = 2 + int(gen.random() * 4)
        rows = random_valid_assignment(gen, k)
        cols = random_valid_assignment(gen, m)
        cells = case1_census(CrossTable(row_marginals=rows, col_marginals=cols))
        context = (
            f"table {idx}: cells {cells}, row ne={rows.ne}, row po={rows.po}, "
            f"col ne={cols.ne}, col po={cols.po}"
        )
        tagged = [
            (i, j)
            for i in range(k)
            for j in range(m)
            if classify_cell(rows.ne[i], rows.po[i], cols.ne[j], cols.po[j]).case_tag
            == CASE1
        ]
        assert cells == tagged, f"classify_cell tags {tagged}; {context}"
        n = len(cells)
        max_seen = max(max_seen, n)
        if n > 1:
            multi += 1
            rows_used = {i for i, _ in cells}
            cols_used = {j for _, j in cells}
            assert len(rows_used) == 1 or len(cols_used) == 1, context
            if len(rows_used) == 1:
                shared = rows.ne[cells[0][0]]
            else:
                shared = cols.ne[cells[0][1]]
            assert shared > 0.5 - TOLERANCE, f"shared ne {shared}; {context}"
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _passed(
        8,
        "case-1 census exact, one shared margin above 1/2",
        elapsed,
        f" literal one-cell bound refuted by {multi}/1000 tables, max {max_seen}",
    )


def test_criterion_09_case_classification_vs_width_oracle():
    """The extremizing dependency from the case rules matches the grid
    evaluation of the pinned-interval width on 200 non-boundary draws."""
    gen = SplitMix64(derive_worker_seed(BASE_SEED, 9))
    start = time.perf_counter()
    checked = 0
    by_case: dict[str, int] = {}
    while checked < 200:
        ne_r = 0.9 * gen.random()
        po_r = ne_r + (1.0 - ne_r) * gen.random()
        ne_c = 0.9 * gen.random()
        po_c = ne_c + (1.0 - ne_c) * gen.random()
        cc = classify_cell(ne_r, po_r, ne_c, po_c)
        if cc.case_tag == "boundary":
            continue
        w0 = grid_width(ne_r, po_r, ne_c, po_c, 0.0)
        w1 = grid_width(ne_r, po_r, ne_c, po_c, 1.0)
        if abs(w0 - w1) <= 1e-12:
            continue
        expected = 0.0 if w0 > w1 else 1.0
        assert cc.d_maximizing == expected, (
            f"margins ({ne_r:.6f},{po_r:.6f},{ne_c:.6f},{po_c:.6f}) "
            f"tag {cc.case_tag}: d_max {cc.d_maximizing} but widths ({w0:.6f},{w1:.6f})"
        )
        by_case[cc.case_tag] = by_case.get(cc.case_tag, 0) + 1
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _passed(9, "case extremization matches width oracle", elapsed, f" {by_case}")


def test_criterion_10_conditional_reduction_and_invariance():
    """freedom_conditional(a, 1) and freedom(tighten(a)) both reproduce
    freedom(a) to 1e-12 over 200 randomized assignments."""
    gen = SplitMix64(derive_worker_seed(BASE_SEED, 10))
    start = time.perf_counter()
    for i in range(200):
        m = 2 + i % 5
        a = random_valid_assignment(gen, m)
        f = freedom(a)
        assert abs(freedom_conditional(a, 1.0) - f) <= 1e-12
        assert abs(freedom(tighten(a)) - f) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed(10, "conditional reduction and tightening invariance", elapsed)
