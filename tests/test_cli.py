"""End-to-end command-line behavior: reports, formats, exit codes."""

from __future__ import annotations

import argparse
import csv
import io
import json
import warnings
from pathlib import Path

import pytest

from simplexfreedom import oracle
from simplexfreedom.cli import (
    COMMANDS,
    _build_parser,
    main,
    parse_assignment,
    parse_crosstable,
)
from simplexfreedom.errors import LowAcceptanceWarning, ParseError, ValidationError

from conftest import RAN_PROBE, SUBMODULES, fresh_interpreter, hard_input

EX1_CASE1 = {
    "options": [
        {"name": "a", "ne": 0.6, "po": 0.8},
        {"name": "b", "ne": 0.2, "po": 0.4},
    ]
}

F3_QUARTER = {
    "options": [
        {"name": "x", "ne": 0, "po": 0.5},
        {"name": "y", "ne": 0, "po": 0.5},
        {"name": "z", "ne": 0, "po": 0.5},
    ]
}

VACUOUS_2X2 = {"rows": [{"ne": 0, "po": 1}] * 2, "cols": [{"ne": 0, "po": 1}] * 2}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestParsers:
    def test_assignment_round_trip(self):
        a = parse_assignment(json.dumps(EX1_CASE1).encode())
        assert a.options == ("a", "b")
        assert a.ne == (0.6, 0.2)

    def test_missing_field_named(self):
        doc = {"options": [{"name": "a", "ne": 0.6}]}
        with pytest.raises(ParseError, match=r"options\[0\].*po"):
            parse_assignment(json.dumps(doc))

    def test_empty_options_rejected_by_validation(self):
        with pytest.raises(ValidationError):
            parse_assignment(json.dumps({"options": []}))

    def test_bad_json_has_location(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_assignment(b"{not json")

    def test_crosstable_round_trip(self):
        doc = {
            "rows": [{"ne": 0, "po": 1}, {"ne": 0, "po": 1}],
            "cols": [{"ne": 0, "po": 1}, {"ne": 0, "po": 1}],
            "joint": [[0.25, 0.25], [0.25, 0.25]],
        }
        t = parse_crosstable(json.dumps(doc))
        assert t.shape == (2, 2)
        assert t.joint is not None

    def test_crosstable_missing_cols(self):
        doc = {"rows": [{"ne": 0, "po": 1}, {"ne": 0, "po": 1}]}
        with pytest.raises(ParseError, match="cols"):
            parse_crosstable(json.dumps(doc))


class TestCommands:
    def test_measure_worked_case(self, tmp_path, capsys):
        path = write(tmp_path, "a.json", EX1_CASE1)
        code, rep = run_json(capsys, ["measure", path])
        assert code == 0
        assert rep["command"] == "measure"
        assert rep["results"]["freedom"] == pytest.approx(0.2, abs=1e-12)
        assert rep["results"]["yager_ambiguity"] == pytest.approx(0.4, abs=1e-12)
        assert rep["seed"] is None and rep["samples"] is None

    def test_measure_with_conditional(self, tmp_path, capsys):
        path = write(tmp_path, "a.json", F3_QUARTER)
        code, rep = run_json(capsys, ["measure", path, "--q", "0.5"])
        assert code == 0
        assert "conditional_freedom_unnormalized" in rep["results"]

    def test_validate_reports_tightened_form(self, tmp_path, capsys):
        path = write(tmp_path, "a.json", EX1_CASE1)
        code, rep = run_json(capsys, ["validate", path])
        assert code == 0
        assert rep["results"]["valid"] is True
        assert rep["results"]["classification"] == "partial"
        assert rep["results"]["tightened_po"] == [0.8, 0.4]

    def test_validate_infeasible_exit_1(self, tmp_path, capsys):
        doc = {"options": [{"ne": 0.7, "po": 0.8}, {"ne": 0.5, "po": 0.6}]}
        path = write(tmp_path, "bad.json", doc)
        code, rep = run_json(capsys, ["validate", path])
        assert code == 1
        assert "Infeasible" in rep["error"]["message"]

    def test_verify_worked_case(self, tmp_path, capsys):
        path = write(tmp_path, "a.json", F3_QUARTER)
        code, rep = run_json(
            capsys, ["verify", path, "--samples", "100000", "--seed", "42"]
        )
        assert code == 0
        assert rep["results"]["within_4se"] is True
        assert rep["results"]["closed_form"] == pytest.approx(0.25, abs=1e-12)
        assert rep["seed"] == 42 and rep["samples"] == 100_000

    def test_verify_disagreement_exit_1(self, tmp_path, capsys, monkeypatch):
        def far_off(a, samples, seed):
            return oracle.MCEstimate(0.9, 0.01, samples, seed, 90)

        monkeypatch.setattr(oracle, "mc_freedom", far_off)
        path = write(tmp_path, "a.json", F3_QUARTER)
        code, rep = run_json(capsys, ["verify", path, "--samples", "100"])
        assert code == 1
        assert rep["results"]["within_4se"] is False

    def test_verify_low_acceptance_is_one_stderr_line(self, tmp_path, capsys):
        doc = {"options": [{"ne": 0.0, "po": 0.13125}] * 8}
        path = write(tmp_path, "a.json", doc)
        for fmt in ("json", "csv"):
            main(["verify", path, "--samples", "20000", "--format", fmt])
            assert capsys.readouterr().err == (
                "LowAcceptanceWarning: only 0 of 20000 samples accepted; "
                "the estimate is noisy\n"
            )

    def test_verify_passes_other_warnings_on(self, tmp_path, capsys, monkeypatch):
        # the command silences only low acceptance, which it reports itself
        noisy = "only 0 of 100 samples accepted; the estimate is noisy"

        def warns(a, samples, seed):
            warnings.warn(noisy, LowAcceptanceWarning)
            warnings.warn("other", RuntimeWarning)
            return oracle.MCEstimate(0.25, 0.01, samples, seed, 0)

        monkeypatch.setattr(oracle, "mc_freedom", warns)
        path = write(tmp_path, "a.json", F3_QUARTER)
        with pytest.warns(RuntimeWarning, match="other") as record:
            assert main(["verify", path, "--samples", "100"]) == 0
        assert [w.category for w in record] == [RuntimeWarning]
        assert capsys.readouterr().err == f"LowAcceptanceWarning: {noisy}\n"

    def test_subsets(self, tmp_path, capsys):
        doc = {
            "options": [
                {"ne": 0, "po": 0.5},
                {"ne": 0, "po": 0.5},
                {"ne": 0.5, "po": 0.5},
            ]
        }
        path = write(tmp_path, "a.json", doc)
        code, rep = run_json(capsys, ["subsets", path])
        assert code == 0
        assert rep["results"]["omitted"] == 2
        entry = rep["results"]["entries"][0]
        assert entry["indices"] == [1, 2]
        assert entry["q"] == pytest.approx(0.5)

    def test_sensitivity_perturbation(self, tmp_path, capsys):
        doc = {
            "options": [
                {"ne": 0.2, "po": 0.6},
                {"ne": 0.2, "po": 0.6},
                {"ne": 0.0, "po": 1.0},
            ]
        }
        path = write(tmp_path, "a.json", doc)
        code, rep = run_json(
            capsys, ["sensitivity", path, "--index", "3", "--delta", "0.1"]
        )
        assert code == 0
        assert rep["results"]["mode"] == "perturbation"
        assert rep["results"]["index"] == 3
        assert rep["results"]["verdict"] == "ne_dominates"

    def test_sensitivity_imposition(self, tmp_path, capsys):
        doc = {
            "options": [
                {"ne": 0.1, "po": 0.3},
                {"ne": 0.1, "po": 0.3},
                {"ne": 0.0, "po": 1.0},
            ]
        }
        path = write(tmp_path, "a.json", doc)
        code, rep = run_json(
            capsys, ["sensitivity", path, "--index", "3", "--eps", "0.4"]
        )
        assert code == 0
        assert rep["results"]["mode"] == "imposition"
        assert rep["results"]["verdict"] == "po_dominates"

    def test_sensitivity_requires_index(self, tmp_path, capsys):
        path = write(tmp_path, "a.json", EX1_CASE1)
        assert main(["sensitivity", path]) == 3

    @pytest.mark.parametrize("mode", [[], ["--eps", "0.4"]], ids=["delta", "eps"])
    def test_sensitivity_index_out_of_range_is_1_based(self, tmp_path, capsys, mode):
        path = write(tmp_path, "a.json", EX1_CASE1)
        code, rep = run_json(capsys, ["sensitivity", path, "--index", "3", *mode])
        assert code == 1
        assert rep["error"] == {"type": "IndexOutOfRange",
                                "message": "--index 3 outside [1, 2]"}

    def test_sensitivity_rejects_both_modes(self, tmp_path):
        path = write(tmp_path, "a.json", EX1_CASE1)
        argv = ["sensitivity", path, "--index", "1", "--delta", "0.1", "--eps", "0.1"]
        assert main(argv) == 3

    def test_crosstab_with_joint(self, tmp_path, capsys):
        doc = {
            "rows": [{"ne": 0, "po": 1}, {"ne": 0, "po": 1}],
            "cols": [{"ne": 0, "po": 1}, {"ne": 0, "po": 1}],
            "joint": [[0.25, 0.25], [0.25, 0.25]],
        }
        path = write(tmp_path, "t.json", doc)
        code, rep = run_json(
            capsys, ["crosstab", path, "--samples", "20000", "--seed", "7"]
        )
        assert code == 0
        res = rep["results"]
        assert res["rows"] == 2 and res["cols"] == 2
        assert res["joint_freedom"]["mean"] == 1.0
        assert res["dependency"][0][0] == pytest.approx(0.5, abs=1e-9)
        assert res["case1_census"] == []

    def test_crosstab_census_one_based(self, tmp_path, capsys):
        doc = {
            "rows": [{"ne": 0.6, "po": 1.0}, {"ne": 0.0, "po": 0.4}],
            "cols": [{"ne": 0.7, "po": 1.0}, {"ne": 0.0, "po": 0.3}],
        }
        path = write(tmp_path, "t.json", doc)
        code, rep = run_json(capsys, ["crosstab", path, "--samples", "1000"])
        assert code == 0
        assert rep["results"]["case1_census"] == [[1, 1]]

    def test_crosstab_low_acceptance_is_reported_not_warned(self, tmp_path, capsys):
        # point margins accept no table; vacuous ones accept every table
        for bound, low in ((0.5, True), (1.0, False)):
            side = [{"ne": 1.0 - bound, "po": bound}] * 2
            path = write(tmp_path, "t.json", {"rows": side, "cols": side})
            assert main(["crosstab", path, "--samples", "1000"]) == 0
            out, err = capsys.readouterr()
            assert json.loads(out)["results"]["joint_freedom"]["low_acceptance"] is low
            assert err == ""

    def test_crosstab_too_many_cells_skips_joint(self, tmp_path, capsys):
        doc = {
            "rows": [{"ne": 0, "po": 1}] * 4,
            "cols": [{"ne": 0, "po": 1}] * 4,
        }
        path = write(tmp_path, "t.json", doc)
        code, rep = run_json(capsys, ["crosstab", path, "--samples", "1000"])
        assert code == 0
        assert rep["results"]["joint_freedom"] is None
        assert "cap" in rep["results"]["joint_freedom_skipped"]

    def test_crosstab_degenerate_margin_has_null_dependency(self, tmp_path, capsys):
        # column 2 of the joint sums to 0, so its cells' Frechet intervals
        # have zero width and their dependency is undefined
        vacuous = {"ne": 0, "po": 1}
        doc = {
            "rows": [vacuous] * 2,
            "cols": [vacuous] * 3,
            "joint": [[0.3, 0.2, 0.0], [0.1, 0.4, 0.0]],
        }
        path = write(tmp_path, "t.json", doc)
        code, rep = run_json(capsys, ["crosstab", path, "--samples", "1000"])
        assert code == 0
        dep = rep["results"]["dependency"]
        assert [row[2] for row in dep] == [None, None]
        assert [row[:2] for row in dep] == [
            [pytest.approx(0.75), pytest.approx(0.25)],
            [pytest.approx(0.25), pytest.approx(0.75)],
        ]

    def test_region(self, tmp_path, capsys):
        path = write(tmp_path, "a.json", F3_QUARTER)
        code, rep = run_json(capsys, ["region", path])
        assert code == 0
        assert rep["results"]["area_fraction"] == pytest.approx(0.25, abs=1e-12)
        assert all(len(v) == 2 for v in rep["results"]["vertices"])

    def test_region_wrong_dimension(self, tmp_path, capsys):
        path = write(tmp_path, "a.json", EX1_CASE1)
        code, rep = run_json(capsys, ["region", path])
        assert code == 1
        assert rep["error"]["type"] == "WrongDimension"

    def test_region_area_equals_measure_freedom(self, tmp_path, capsys):
        doc = {
            "options": [
                {"ne": 0.1, "po": 0.55},
                {"ne": 0.05, "po": 0.6},
                {"ne": 0.0, "po": 0.7},
            ]
        }
        path = write(tmp_path, "a.json", doc)
        _, rep1 = run_json(capsys, ["region", path])
        _, rep2 = run_json(capsys, ["measure", path])
        assert rep1["results"]["area_fraction"] == pytest.approx(
            rep2["results"]["freedom"], abs=1e-9
        )


class TestOutputDiscipline:
    def test_reports_are_byte_identical(self, tmp_path, capsys):
        path = write(tmp_path, "a.json", F3_QUARTER)
        argv = ["verify", path, "--samples", "20000", "--seed", "1"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_twelve_significant_digits(self, tmp_path, capsys):
        doc = {
            "options": [
                {"ne": 1 / 3, "po": 2 / 3},
                {"ne": 1 / 7, "po": 6 / 7},
            ]
        }
        path = write(tmp_path, "a.json", doc)
        _, rep = run_json(capsys, ["measure", path])
        for v in rep["results"].values():
            if isinstance(v, float):
                assert float(f"{v:.12g}") == v

    def test_csv_measure(self, tmp_path, capsys):
        path = write(tmp_path, "a.json", EX1_CASE1)
        code = main(["measure", path, "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        header, row = out.strip().splitlines()
        assert header.startswith("command,input,seed,samples,m,freedom")
        assert row.startswith(f"measure,{path}")

    def test_csv_subsets_one_row_per_entry(self, tmp_path, capsys):
        doc = {
            "options": [
                {"ne": 0.2, "po": 0.2},
                {"ne": 0.3, "po": 0.3},
                {"ne": 0.5, "po": 0.5},
            ]
        }
        path = write(tmp_path, "a.json", doc)
        main(["subsets", path, "--format", "csv"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 + 3  # header + the three point-conditioned pairs

    def test_csv_bool_and_list_cells(self, tmp_path, capsys):
        path = write(tmp_path, "a.json", F3_QUARTER)
        assert main(["verify", path, "--samples", "20000", "--format", "csv"]) == 0
        (row,) = csv.DictReader(io.StringIO(capsys.readouterr().out))
        assert row["within_4se"] == "true"
        assert main(["validate", path, "--format", "csv"]) == 0
        (row,) = csv.DictReader(io.StringIO(capsys.readouterr().out))
        assert row["options"] == '["x", "y", "z"]'
        assert row["tightened_po"] == "[0.5, 0.5, 0.5]"

    def test_csv_crosstab_one_row_per_cell(self, tmp_path, capsys):
        doc = {
            "rows": [{"ne": 0, "po": 1}, {"ne": 0, "po": 1}],
            "cols": [{"ne": 0, "po": 1}, {"ne": 0, "po": 1}, {"ne": 0, "po": 1}],
        }
        path = write(tmp_path, "t.json", doc)
        main(["crosstab", path, "--samples", "1000", "--format", "csv"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 + 6


class TestExitCodes:
    def test_missing_file_is_io_error(self, capsys):
        assert main(["measure", "/nonexistent/file.json"]) == 2

    def test_parse_error_exit_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        assert main(["measure", str(path)]) == 2

    @pytest.mark.parametrize("digits", [400, 5_000], ids=["past-float", "past-int-limit"])
    @pytest.mark.parametrize(
        "command,doc,where",
        [
            ("measure", {"options": [{"ne": 0, "po": "BIG"}, {"ne": 0, "po": 1}]}, "po[0]"),
            ("crosstab", {**VACUOUS_2X2, "cols": [{"ne": "BIG", "po": 1}] * 2}, "ne[0]"),
            (
                "crosstab",
                {**VACUOUS_2X2, "joint": [[0.25, 0.25], [0.25, "BIG"]]},
                "joint[1][1]",
            ),
        ],
        ids=["option-bound", "margin", "joint-cell"],
    )
    def test_huge_integer_literal_is_inf_and_exit_1(
        self, tmp_path, capsys, command, doc, where, digits
    ):
        # read as a float, the literal is inf, as 1e400 is
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc).replace('"BIG"', "1" + "0" * digits))
        assert main([command, str(path), "--samples", "1000"]) == 1
        message = json.loads(capsys.readouterr().out)["error"]["message"]
        assert where in message and "inf" in message

    @pytest.mark.parametrize(
        "command,content,message",
        [
            ("measure", b'{"options": 5}', '"options" must be a list'),
            ("measure", b'{"options": [1, 2]}', "options[0] must be an object"),
            (
                "measure",
                b'{"options": [{"ne": true, "po": 1}]}',
                "options[0].ne must be a number",
            ),
            ("measure", b"[]", 'top-level object must contain an "options" list'),
            ("crosstab", b"[]", "top-level value must be an object"),
            (
                "crosstab",
                json.dumps({**VACUOUS_2X2, "joint": 5}).encode(),
                '"joint" must be a matrix (list of lists)',
            ),
            (
                "crosstab",
                json.dumps({**VACUOUS_2X2, "joint": [[0.5, "x"], [0, 0]]}).encode(),
                "joint[0][1] must be a number",
            ),
            (
                "crosstab",
                json.dumps({**VACUOUS_2X2, "joint": [[0.5, 0.5], [True, 0]]}).encode(),
                "joint[1][0] must be a number",
            ),
            (
                "crosstab",
                json.dumps({**VACUOUS_2X2, "rows": [{"ne": 0, "po": None}] * 2}).encode(),
                "rows[0].po must be a number",
            ),
            ("measure", b"\xff", "input is not UTF-8: "),
        ],
        ids=[
            "options-not-list",
            "option-not-object",
            "bound-not-number",
            "no-options",
            "crosstab-not-object",
            "joint-not-matrix",
            "joint-cell-not-number",
            "joint-cell-bool",
            "margin-bound-null",
            "not-utf8",
        ],
    )
    def test_parse_error_report(self, tmp_path, capsys, command, content, message):
        path = tmp_path / "in.json"
        path.write_bytes(content)
        assert main([command, str(path)]) == 2
        out, err = capsys.readouterr()
        report = json.loads(out)
        assert report["error"]["type"] == "ParseError"
        assert report["error"]["message"].startswith(message)
        assert err == f"ParseError: {report['error']['message']}\n"

    @pytest.mark.parametrize("command", ["validate", "crosstab"])
    def test_deep_nesting_is_a_parse_error(self, tmp_path, capsys, command):
        # past the recursion limit json raises RecursionError, not a decode error
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert main([command, str(path)]) == 2
        out, err = capsys.readouterr()
        report = json.loads(out)
        assert report["error"]["type"] == "ParseError"
        assert "too deeply" in report["error"]["message"]
        assert err == f"ParseError: {report['error']['message']}\n"

    @pytest.mark.parametrize(
        "command,doc",
        [
            ("measure", {"options": [{"ne": 0, "po": 1}, {"ne": 0, "po": 1}]}),
            ("crosstab", {**VACUOUS_2X2, "joint": [[1, 0], [0, 0]]}),
        ],
        ids=["options", "margins-and-joint"],
    )
    def test_integer_literals_read_as_floats(self, tmp_path, capsys, command, doc):
        # 0 and 1 print the report of 0.0 and 1.0, from the same path; every
        # digit in doc is a whole number 0 or 1
        path = tmp_path / "in.json"
        reports = []
        ints = json.dumps(doc)
        for text in (ints, ints.replace("0", "0.0").replace("1", "1.0")):
            path.write_text(text)
            for fmt in ("json", "csv"):
                code = main([command, str(path), "--samples", "1000", "--format", fmt])
                reports.append((text, fmt, code, *capsys.readouterr()))
        assert "0.0" not in reports[0][0] and "0.0" in reports[2][0]
        assert [r[1:] for r in reports[:2]] == [r[1:] for r in reports[2:]]
        assert reports[0][2] == 0

    @pytest.mark.parametrize(
        "argv", [["validate"], ["subsets", "--format", "csv"]], ids=["json", "csv"]
    )
    def test_a_lone_surrogate_name_is_a_parse_error(self, tmp_path, capsys, argv):
        # "\ud800" is valid JSON, but UTF-8 cannot encode it, so no report
        # can print it; a fresh process checks the console's own stdout
        path = tmp_path / "in.json"
        path.write_text(
            '{"options": [{"name": "\\ud800", "ne": 0.1, "po": 0.8},'
            ' {"ne": 0.1, "po": 0.8}, {"name": "p", "ne": 0.2, "po": 0.2}]}'
        )
        argv = [argv[0], str(path), *argv[1:]]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        proc = fresh_interpreter("-m", "simplexfreedom.cli", *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, out, err)
        message = "options[0].name is not encodable as UTF-8"
        assert json.loads(out)["error"] == {"type": "ParseError", "message": message}
        assert err == f"ParseError: {message}\n"

    def test_validation_exit_1(self, tmp_path, capsys):
        doc = {"options": [{"ne": 0.9, "po": 0.95}, {"ne": 0.5, "po": 0.6}]}
        path = write(tmp_path, "bad.json", doc)
        assert main(["measure", path]) == 1

    def test_work_limit_exit_1(self, tmp_path, capsys):
        a = hard_input(25)
        doc = {"options": [{"ne": n, "po": p} for n, p in zip(a.ne, a.po)]}
        path = write(tmp_path, "hard.json", doc)
        assert main(["measure", path]) == 1
        out, err = capsys.readouterr()
        error = json.loads(out)["error"]
        assert error["type"] == "CapExceeded"
        assert error["message"].startswith("the closed form would keep over ")
        assert err == f"CapExceeded: {error['message']}\n"

    def test_usage_exit_3_for_bad_flag(self, tmp_path):
        path = write(tmp_path, "a.json", EX1_CASE1)
        assert main(["measure", path, "--q", "1.5"]) == 3
        assert main(["measure", path, "--samples", "0"]) == 3

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--index", "1", "--delta", "-0.1"], "--delta must be nonnegative"),
            (["--index", "1", "--delta", "nan"], "--delta must be finite"),
            (["--index", "1", "--delta", "inf"], "--delta must be finite"),
            (["--index", "1", "--eps", "1.0"], "--eps must lie in (0, 1)"),
            (["--index", "0"], "--index is 1-based and must be >= 1"),
        ],
        ids=["negative-delta", "nan-delta", "inf-delta", "eps-out-of-range", "index-zero"],
    )
    def test_run_usage_error_exit_3(self, tmp_path, capsys, flags, message):
        path = write(tmp_path, "a.json", EX1_CASE1)
        assert main(["sensitivity", path, *flags]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"usage error: {message}\n"

    def test_main_routes_args(self, tmp_path, capsys):
        path = write(tmp_path, "a.json", F3_QUARTER)
        code = main(["measure", path])
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["results"]["freedom"] == pytest.approx(0.25, abs=1e-12)

    def test_main_reduces_seed_modulo_2_64(self, tmp_path, capsys):
        for command, doc in (("verify", F3_QUARTER), ("crosstab", VACUOUS_2X2)):
            path = write(tmp_path, f"{command}.json", doc)
            reports = []
            for seed in ("-1", str(2**64 - 1)):
                assert main([command, path, "--samples", "10000", "--seed", seed]) == 0
                reports.append(json.loads(capsys.readouterr().out))
            assert reports[0]["seed"] == reports[1]["seed"] == 18446744073709551615
            assert reports[0]["results"] == reports[1]["results"]

    def test_main_unknown_command_exit_3(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", "x.json"])
        assert exc.value.code == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["measure", "{path}", "--format", "xml"],
            ["measure"],
            ["verify", "{path}", "--samples", "many"],
            ["measure", "{path}", "--force-cap"],
            ["verify", "{path}", "--seed", "1.5"],
            ["sensitivity", "{path}", "--index", "1.5"],
        ],
        ids=["format-xml", "missing-input", "non-integer-samples", "no-force-cap",
             "non-integer-seed", "non-integer-index"],
    )
    def test_main_usage_error_exit_3(self, tmp_path, capsys, argv):
        path = write(tmp_path, "a.json", EX1_CASE1)
        with pytest.raises(SystemExit) as exc:
            main([arg.replace("{path}", path) for arg in argv])
        assert exc.value.code == 3
        assert capsys.readouterr().out == ""


# the help line of every command, as `simplexfreedom --help` prints it
HELP = {
    "validate": "check an assignment file and report its tightened form",
    "measure": "closed-form freedom, ambiguity, and nonspecificity",
    "verify": "cross-check closed-form freedom against Monte Carlo",
    "subsets": "conditional freedom over point-conditioned subsets",
    "sensitivity": "possibility- vs necessity-side impact at one option",
    "crosstab": "cell bounds, cases, and joint freedom of a cross table",
    "region": "feasible-region polygon for a three-option assignment",
}


class TestCommandLine:
    def test_help_lists_every_command_with_its_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        lines = capsys.readouterr().out.splitlines()
        assert list(COMMANDS) == list(HELP)
        for name, text in HELP.items():
            assert any(line.split()[:1] == [name] and text in line for line in lines), name

    def test_one_parser_per_call(self, tmp_path, capsys, monkeypatch):
        # one flat parser, no subparser tree, and it is built once per
        # process: two calls on an empty cache build one parser in all
        path = write(tmp_path, "a.json", F3_QUARTER)
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(type(self))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        _build_parser.cache_clear()
        assert main(["measure", path]) == 0
        assert main(["validate", path, "--format", "csv"]) == 0
        assert len(built) == 1

    def test_help_after_a_call_follows_columns(self, tmp_path, capsys, monkeypatch):
        path = write(tmp_path, "a.json", F3_QUARTER)
        assert main(["measure", path]) == 0
        capsys.readouterr()
        helps = {}
        for columns in ("50", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            for fresh in (False, True):
                if fresh:
                    _build_parser.cache_clear()
                with pytest.raises(SystemExit) as exc:
                    main(["--help"])
                assert exc.value.code == 0
                helps[columns, fresh] = capsys.readouterr().out
            # the shared parser prints what a parser built now would print
            assert helps[columns, False] == helps[columns, True]
            lines = helps[columns, False].splitlines()
            for name, text in HELP.items():
                assert any(line.split()[:1] == [name] and text in line for line in lines)
        assert helps["50", False] != helps["200", False]

    def test_usage_error_after_a_call_exits_3(self, tmp_path, capsys):
        path = write(tmp_path, "a.json", F3_QUARTER)
        assert main(["measure", path]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["measure", path, "--format", "xml"])
        assert exc.value.code == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: simplexfreedom ")
        assert "argument --format: invalid choice: 'xml'" in err

    def test_flags_do_not_carry_over(self, tmp_path, capsys):
        path = write(tmp_path, "a.json", F3_QUARTER)
        assert main(["measure", path, "--q", "0.5"]) == 0
        assert "q" in json.loads(capsys.readouterr().out)["results"]
        assert main(["measure", path]) == 0
        assert "q" not in json.loads(capsys.readouterr().out)["results"]

    def test_flags_may_precede_the_command(self, tmp_path, capsys):
        path = write(tmp_path, "a.json", F3_QUARTER)
        assert main(["measure", path, "--format", "csv", "--q", "0.5"]) == 0
        after = capsys.readouterr().out
        assert main(["--format", "csv", "measure", "--q", "0.5", path]) == 0
        assert capsys.readouterr().out == after

    def test_readme_table_lists_the_commands(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        section = readme.read_text().split("\n## Command line\n", 1)[1].split("\n#", 1)[0]
        listed = [
            line.split("`")[1]
            for line in section.splitlines()
            if line.startswith("| `")
        ]
        assert listed == list(COMMANDS)


# the sampler's lazy imports: numpy, and pickle, which numpy loads too and
# which carries the helper process's jobs and replies; and modules no JSON
# call loads at all: fractions and decimal (the M = 3 region clips on
# integers), dataclasses (the result records are named tuples) and csv
# (only --format csv needs it)
SAMPLER_MODULES = ("numpy", "pickle")
UNUSED_MODULES = ("fractions", "decimal", "dataclasses", "csv")
LAZY_MODULES = SAMPLER_MODULES + UNUSED_MODULES

# the package modules that the closed form never runs: each is registered
# lazily, so it sits in sys.modules from the package import on, and any
# attribute read loads it; only a loaded one is a plain ModuleType, so the
# probe reads the type, not the key
PACKAGE_MODULES = ("oracle", "crosstab", "sensitivity", "helper")
PACKAGE_PROBE = (
    "[type(sys.modules[f'simplexfreedom.{m}']) is types.ModuleType"
    f" for m in {PACKAGE_MODULES!r}]"
)
# the ones each cold call of a command runs: verify runs the helper module
# too once an estimate has more than one sub-block
RUNS = {"sensitivity": ("sensitivity",), "region": ("oracle",), "verify": ("oracle",)}

# one CLI call in a fresh interpreter; the last three stderr lines say
# whether the call forked the helper process, whether each lazily imported
# module was loaded by the time the command had run, and which of
# PACKAGE_MODULES it ran (probed before the first line reads the helper)
CHILD = (
    "import sys, types\n"
    "from simplexfreedom.cli import main\n"
    "code = main(sys.argv[1:])\n"
    f"ran = {PACKAGE_PROBE}\n"
    f"loaded = [m in sys.modules for m in {LAZY_MODULES!r}]\n"
    "from simplexfreedom import helper\n"
    "print(helper._process is not None, loaded, ran, sep='\\n', file=sys.stderr)\n"
    "sys.exit(code)\n"
)


def runs(*modules: str) -> str:
    """The PACKAGE_MODULES probe line of a call that ran ``modules``."""
    return str([m in modules for m in PACKAGE_MODULES])


class TestNumpyFreeStart:
    """The closed-form commands start and run without loading numpy or
    pickle; the sampling commands load both on their first estimate.  A
    closed-form call that forks the helper process loads pickle for its
    pipes, and still not numpy.  No command with JSON output loads
    fractions, decimal, dataclasses or csv.  Of the package's lazily
    loaded modules, each call runs only those its command uses
    (``RUNS``), and a bare package import runs none."""

    def test_package_import_leaves_numpy_unloaded(self):
        proc = fresh_interpreter(
            "-c",
            "import sys, types, simplexfreedom\n"
            f"print([m in sys.modules for m in {LAZY_MODULES!r}])\n"
            f"print({PACKAGE_PROBE})",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"{[False] * len(LAZY_MODULES)}\n{runs()}\n"

    @pytest.mark.parametrize(
        "argv, loads_sampler",
        [
            (["validate"], False),
            (["measure", "--q", "0.9"], False),
            (["subsets"], False),
            (["sensitivity", "--index", "1"], False),
            (["region"], False),
            (["verify", "--samples", "1000"], True),
        ],
        ids=lambda v: v[0] if isinstance(v, list) else None,
    )
    def test_cold_call_matches_in_process(self, tmp_path, capsys, argv, loads_sampler):
        path = write(tmp_path, "a.json", F3_QUARTER)
        argv = [argv[0], path, *argv[1:]]
        proc = fresh_interpreter("-c", CHILD, *argv)
        loads = [loads_sampler] * len(SAMPLER_MODULES)
        loads += [False] * len(UNUSED_MODULES)
        ran = runs(*RUNS.get(argv[0], ()))
        assert proc.stderr.splitlines()[-3:] == ["False", str(loads), ran], proc.stderr
        code = main(argv)
        assert (proc.returncode, proc.stdout) == (code, capsys.readouterr().out)

    def test_cold_verify_of_several_sub_blocks_runs_the_helper_module(
        self, tmp_path, capsys
    ):
        # 10^5 samples at M = 3 fill four sub-blocks, so the estimate offers
        # the odd ones to the helper (forked only where there are two CPUs)
        argv = ["verify", write(tmp_path, "a.json", F3_QUARTER), "--samples", "100000"]
        proc = fresh_interpreter("-c", CHILD, *argv)
        loads = [True] * len(SAMPLER_MODULES) + [False] * (len(LAZY_MODULES) - 2)
        assert proc.stderr.splitlines()[-2:] == [str(loads), runs("oracle", "helper")]
        code = main(argv)
        assert (proc.returncode, proc.stdout) == (code, capsys.readouterr().out)

    def test_cold_call_that_forks_matches_in_process(self, tmp_path, capsys):
        # at M = 24 with distinct widths one sweep saves more than forking
        # the helper costs, so the closed form forks it in its first call
        a = hard_input(24)
        doc = {"options": [{"ne": n, "po": p} for n, p in zip(a.ne, a.po)]}
        argv = ["measure", write(tmp_path, "a.json", doc), "--q", "0.9"]
        proc = fresh_interpreter("-c", CHILD, *argv)
        loads = [False, True] + [False] * (len(LAZY_MODULES) - 2)  # pickle only
        lines = ["True", str(loads), runs("helper")]
        assert proc.stderr.splitlines()[-3:] == lines, proc.stderr
        code = main(argv)
        assert (proc.returncode, proc.stdout) == (code, capsys.readouterr().out)

    def test_cold_call_that_declines_to_fork_loads_no_pickle(self, tmp_path, capsys):
        # at M = 16 with distinct widths the one sweep passes the break-even
        # and offers the helper a part, but saves less than a fork costs: on
        # two workers the lend declines before it imports pickle
        a = hard_input(16)
        doc = {"options": [{"ne": n, "po": p} for n, p in zip(a.ne, a.po)]}
        argv = ["measure", write(tmp_path, "a.json", doc), "--q", "0.9"]
        child = (
            "import sys\n"
            "from simplexfreedom import helper\n"
            "from simplexfreedom.cli import main\n"
            "helper._WORKERS = 2\n"
            "lend, lent = helper.lend, []\n"
            "helper.lend = lambda *args, **kw: lent.append(lend(*args, **kw)) or lent[-1]\n"
            "code = main(sys.argv[1:])\n"
            "print(lent, helper._process, 'pickle' in sys.modules, file=sys.stderr)\n"
            "sys.exit(code)\n"
        )
        proc = fresh_interpreter("-c", child, *argv)
        assert proc.stderr.splitlines()[-1] == "[None] None False", proc.stderr
        code = main(argv)
        assert (proc.returncode, proc.stdout) == (code, capsys.readouterr().out)


class TestLoadingRule:
    """Each cold call compiles only the package modules its command reads:
    the closed form (``measures``) only for the commands that evaluate it.
    The module entry point runs ``cli`` as ``__main__``, so the package
    must not register ``cli`` itself, or runpy warns."""

    # with the submodules each call runs beyond core and errors; at these
    # sizes no sweep lends and no estimate has a second sub-block, so none
    # runs the helper module
    @pytest.mark.parametrize(
        "argv, runs",
        [
            pytest.param(argv, runs, id=argv[0])
            for argv, runs in [
                (["validate"], ()),
                (["region"], ("oracle",)),
                (["crosstab", "--samples", "1000"], ("oracle", "crosstab")),
                (["measure", "--q", "0.9"], ("measures",)),
                (["subsets"], ("measures",)),
                (["sensitivity", "--index", "1"], ("measures", "sensitivity")),
                (["verify", "--samples", "1000"], ("measures", "oracle")),
            ]
        ],
    )
    def test_cold_call_runs_only_the_modules_its_command_reads(
        self, tmp_path, argv, runs
    ):
        doc = VACUOUS_2X2 if argv[0] == "crosstab" else F3_QUARTER
        argv = [argv[0], write(tmp_path, "a.json", doc), *argv[1:]]
        child = (
            "import sys, types\n"
            "from simplexfreedom.cli import main\n"
            "code = main(sys.argv[1:])\n"
            f"print({RAN_PROBE}, file=sys.stderr)\n"
            "sys.exit(code)\n"
        )
        proc = fresh_interpreter("-c", child, *argv)
        ran = [m for m in SUBMODULES if m in {"core", "errors", *runs}]
        assert (proc.returncode, proc.stderr.splitlines()[-1:]) == (0, [str(ran)])

    def test_module_entry_point_matches_in_process(self, tmp_path, capsys):
        argv = ["validate", write(tmp_path, "a.json", F3_QUARTER)]
        proc = fresh_interpreter("-W", "error", "-m", "simplexfreedom.cli", *argv)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert main(argv) == 0
        assert proc.stdout == capsys.readouterr().out
