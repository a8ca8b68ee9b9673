"""The cell functions check their margins through the assignment's one path.

``cell_bounds``, ``classify_cell`` and ``cell_width_vs_dependency`` read a
row margin (ne_row, po_row) and a column margin (ne_col, po_col).  They
check and snap them as the two-option ``IntervalAssignment`` whose option 0
is the row and option 1 the column: the same violations, in the same order
and with the same messages, and on acceptance the result on its snapped
bounds.  A seeded corpus of margin 4-tuples on and just past the edges of
[0, 1] holds every call to that.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from simplexfreedom import IntervalAssignment, ValidationError
from simplexfreedom.crosstab import cell_bounds, cell_width_vs_dependency, classify_cell

from test_validation_golden import EDGES

N_TUPLES = 20_000


def _functions(d: float):
    """The three cell functions, each taking (ne_row, po_row, ne_col, po_col)."""
    return (
        cell_bounds,
        classify_cell,
        lambda *margins: cell_width_vs_dependency(*margins, d),
    )


def _corpus(n: int = N_TUPLES):
    """(ne_row, po_row, ne_col, po_col, d) for ``n`` cells.  A bound is an
    edge value three times in ten and uniform on [0, 1] otherwise; half the
    margins put the smaller value in ne; one margin in ten then has ne cross
    po by 5e-10 (within TOLERANCE) or by 2e-9 (beyond it).  d is in [0, 1]."""
    rnd = random.Random("crosstab-margins")

    def value() -> float:
        return rnd.choice(EDGES) if rnd.random() < 0.3 else rnd.random()

    for _ in range(n):
        margins = []
        for _ in range(2):
            ne, po = value(), value()
            if rnd.random() < 0.5 and ne > po:
                ne, po = po, ne
            if rnd.random() < 0.1:
                ne = po + rnd.choice((5e-10, 2e-9))
            margins += [ne, po]
        yield (*margins, rnd.random())


def _assignment(ne_row, po_row, ne_col, po_col) -> IntervalAssignment:
    return IntervalAssignment(("row", "col"), (ne_row, ne_col), (po_row, po_col))


def _outcome(f, *margins) -> str:
    try:
        return repr(f(*margins))
    except ValidationError as exc:
        return f"ValidationError: {exc} {exc.codes!r}"


@pytest.mark.parametrize(
    "margins",
    [(1 + 6e-10, 1 - 6e-10, 0.5, 0.5), (6e-10, -6e-10, 0.5, 0.5)],
    ids=["past-one", "past-zero"],
)
def test_a_crossing_past_an_end_is_a_bound_order(margins):
    # each bound is within TOLERANCE of [0, 1], but ne exceeds po by 1.2e-9
    # as given; clamping both onto the end first would hide the crossing
    for f in _functions(0.5):
        with pytest.raises(ValidationError) as exc:
            f(*margins)
        assert exc.value.codes == ("BoundOrder",)
        assert str(exc.value).startswith("BoundOrder: ne[0] = ")


def test_every_range_violation_is_reported_at_once():
    for f in _functions(0.5):
        with pytest.raises(ValidationError) as exc:
            f(-0.5, 0.9, 0.1, 1.5)
        assert exc.value.codes == ("RangeError", "RangeError")
        assert str(exc.value) == (
            "RangeError: ne[0] = -0.5 outside [0, 1]; "
            "RangeError: po[1] = 1.5 outside [0, 1]"
        )


def test_the_cell_functions_check_margins_as_the_assignment_does():
    seen = Counter()
    for *margins, d in _corpus():
        try:
            a = _assignment(*margins)
        except ValidationError as exc:
            expected = f"ValidationError: {exc} {exc.codes!r}"
            snapped = None
            seen.update(exc.codes)
        else:
            snapped = (a.ne[0], a.po[0], a.ne[1], a.po[1])
            seen["snapped" if snapped != tuple(margins) else "as given"] += 1
        for f in _functions(d):
            got = _outcome(f, *margins)
            if snapped is not None:
                expected = _outcome(f, *snapped)
                assert not expected.startswith("ValidationError"), (margins, expected)
            assert got == expected, (margins, d)
    # the corpus reaches every branch: rejected for each reason, accepted
    # with bounds that snap and with bounds that stand as given
    assert {"RangeError", "BoundOrder", "snapped", "as given"} <= set(seen), seen
    assert min(seen.values()) >= 500, seen
