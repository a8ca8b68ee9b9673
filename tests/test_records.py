"""What every exported result record promises: immutability, a readable
repr, fields in declaration order, and equal records hashing equal."""

from __future__ import annotations

import pytest

import simplexfreedom as sf


def _assignment():
    return sf.validate([0.2, 0.1, 0.1], [0.6, 0.5, 0.4], ["a", "b", "c"])


def _scan():
    # c is point-valued, so the scan keeps the subset {a, b}
    return sf.subset_scan(sf.validate([0.2, 0.1, 0.3], [0.6, 0.5, 0.3]))


def _table():
    half = sf.validate([0.5, 0.5], [0.5, 0.5])
    return sf.CrossTable(half, half, ((0.25, 0.25), (0.25, 0.25)))


# record -> (a call that builds one, its fields in declaration order)
RECORDS = {
    sf.Violation: (
        lambda: sf.Violation("RangeError", "ne[0] = 2.0 outside [0, 1]", 0),
        ("code", "message", "index"),
    ),
    sf.IntervalAssignment: (_assignment, ("options", "ne", "po")),
    sf.CellBounds: (
        lambda: sf.cell_bounds(0.2, 0.6, 0.3, 0.7),
        ("ne_lower", "ne_upper", "po_lower", "po_upper"),
    ),
    sf.CellCase: (
        lambda: sf.classify_cell(0.2, 0.6, 0.3, 0.7),
        ("case_tag", "d_maximizing"),
    ),
    sf.CrossTable: (_table, ("row_marginals", "col_marginals", "joint")),
    sf.MeasureReport: (
        lambda: sf.measure_report(_assignment(), q=0.9),
        ("freedom", "yager_ambiguity", "hartley_nonspecificity", "normed_freedom",
         "m", "conditional_freedom", "q"),
    ),
    sf.SubsetEntry: (
        lambda: _scan().entries[0],
        ("indices", "labels", "q", "conditional_freedom"),
    ),
    sf.SubsetScan: (_scan, ("entries", "omitted")),
    sf.MCEstimate: (
        lambda: sf.mc_freedom(_assignment(), 1000, 7),
        ("mean", "std_error", "samples", "seed", "accepted"),
    ),
    sf.RegionPolygon: (
        lambda: sf.region_polygon(_assignment()),
        ("vertices", "area_fraction"),
    ),
    sf.SensitivityReport: (
        lambda: sf.impact_compare(_assignment(), 0, 0.05),
        ("index", "delta", "loss_from_po", "loss_from_ne", "condition_holds",
         "verdict"),
    ),
}


def test_every_exported_record_is_listed():
    exported = {
        obj for name in sf.__all__
        if isinstance(obj := getattr(sf, name), type) and hasattr(obj, "_fields")
    }
    assert exported == set(RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
class TestRecord:
    def test_immutable(self, cls):
        build, fields = RECORDS[cls]
        record = build()
        assert type(record) is cls
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_repr_names_every_field(self, cls):
        build, fields = RECORDS[cls]
        record = build()
        body = ", ".join(f"{name}={getattr(record, name)!r}" for name in fields)
        assert repr(record) == f"{cls.__name__}({body})"

    def test_asdict_keeps_declaration_order(self, cls):
        build, fields = RECORDS[cls]
        record = build()
        assert list(record._asdict()) == list(fields)
        assert list(record._asdict().values()) == [getattr(record, f) for f in fields]

    def test_equal_records_hash_equal(self, cls):
        build, _ = RECORDS[cls]
        first, second = build(), build()
        assert first is not second
        assert first == second
        assert hash(first) == hash(second)
