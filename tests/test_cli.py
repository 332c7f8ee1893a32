import csv
import hashlib
import io
import json
import math
import os
import platform
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hirschbundles.cli import (
    CSV_CHUNK,
    MAX_THETA_COUNT,
    MAX_TRIALS,
    CliError,
    Corpus,
    IndexDef,
    ThetaGrid,
    _blocks,
    _certified_columns,
    _fields,
    _parse_rows,
    _range_or_error,
    main,
    parse_theta_grid_flag,
    read_sources,
)
from hirschbundles import cli, funcspace, solver, thresholds
from hirschbundles.errors import BundleError, NoRootError
from hirschbundles.funcspace import RankFrequencyFunction, citation_integrals, from_citation_counts
from hirschbundles.operators import OperatorKind
from hirschbundles.solver import sample_bundle
from hirschbundles.thresholds import (
    AdmissibleRange,
    PowerThreshold,
    admissible_range,
    is_certified,
)

from oracles import oracle_root

CSV_FIXTURE = "id,counts\nalice,10;8;5;4;3;2;1\nbob,9;7;2\n"


@pytest.fixture
def csv_file(tmp_path):
    p = tmp_path / "sources.csv"
    p.write_text(CSV_FIXTURE)
    return str(p)


@pytest.fixture
def json_file(tmp_path):
    p = tmp_path / "sources.json"
    p.write_text(
        json.dumps(
            [
                {"id": "alice", "counts": [10, 8, 5, 4, 3, 2, 1]},
                {"id": "bob", "counts": [9, 7, 2]},
            ]
        )
    )
    return str(p)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestIndexCommand:
    def test_worked_values(self, csv_file, capsys):
        code, out, _ = run_cli(["index", csv_file], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        by_key = {(r["id"], r["index"]): r["value"] for r in rows}
        assert by_key[("alice", "h")] == "4"
        assert by_key[("alice", "g")] == "6"

    def test_json_input_equivalent(self, csv_file, json_file, capsys):
        code_a, out_a, _ = run_cli(["index", csv_file], capsys)
        code_b, out_b, _ = run_cli(["index", json_file], capsys)
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_statuses_do_not_abort_batch(self, csv_file, capsys):
        # bob's averaged transform never dips to theta=1 on its domain
        code, out, _ = run_cli(["index", csv_file], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert {r["value"] for r in rows if r["id"] == "bob"} >= {"NoRoot"}

    def check_integral_sqrt_root(self, tmp_path, capsys, counts, theta, value):
        """``index`` prints the root of T(f) = theta sqrt(x) on [0, 1] as ``value``, the oracle's."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"indices": [{"name": "n05", "operator": "integral", "p": 0.5}]}))
        src = tmp_path / "s.csv"
        src.write_text(f"id,counts\nr,{';'.join(map(str, counts))}\n")
        args = ["index", str(src), "--config", str(cfg), "--theta-grid", f"{theta}:{theta}:1"]
        code, out, err = run_cli(args, capsys)
        assert (code, out.splitlines()[1], err) == (0, f"r,n05,{theta:g},{value}", "")
        root = oracle_root(from_citation_counts(counts), "integral", theta, 0.0, 1.0, 0.5)
        assert format(float(root), ".12g") == value

    def test_integral_sqrt_root_next_to_the_shift(self, tmp_path, capsys):
        # the root of 10 x = 1e-5 sqrt(x) lies at 1e-12, inside the last bisection
        # bracket; was NoRoot, then 2.9e-11 from a bisection that stopped at ABS_TOL_X
        self.check_integral_sqrt_root(tmp_path, capsys, [10, 8, 5, 4, 3, 2, 1], 1e-5, "1e-12")

    def test_integral_sqrt_root_of_one_count(self, tmp_path, capsys):
        # 8594 x = 0.5 sqrt(x) at 0.25 / 8594^2; bisection to ABS_TOL_X printed
        # 3.40514816344e-09, wrong in the third digit
        self.check_integral_sqrt_root(tmp_path, capsys, [8594], 0.5, "3.38492702287e-09")

    def test_malformed_counts_exit_2(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_text("id,counts\nok,3;2;1\nbroken,\n")
        code, _, err = run_cli(["index", str(p)], capsys)
        assert code == 2
        assert "line 3" in err

    @pytest.mark.parametrize("counts", ["inf;2", "nan;3;1"])
    def test_non_finite_counts_exit_2(self, tmp_path, capsys, counts):
        p = tmp_path / "bad.csv"
        p.write_text(f"id,counts\nok,3;2;1\nbroken,{counts}\n")
        code, out, err = run_cli(["bundle", str(p)], capsys)
        assert code == 2
        assert out == ""
        assert "line 3" in err and "finite" in err

    @pytest.mark.parametrize("literal", ["Infinity", "NaN"])
    def test_non_finite_json_counts_exit_2(self, tmp_path, capsys, literal):
        p = tmp_path / "bad.json"
        p.write_text(f'[{{"id": "ok", "counts": [3, 2]}}, {{"id": "x", "counts": [{literal}, 1]}}]')
        code, out, err = run_cli(["bundle", str(p)], capsys)
        assert code == 2
        assert out == ""
        assert "record 1" in err and "finite" in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", ["index", "bundle", "admissible"])
    def test_json_id_not_encodable_as_utf8_exit_2(self, tmp_path, capsys, command, fmt):
        p = tmp_path / "bad.json"
        p.write_text(
            '[{"id": "ok", "counts": [3, 2, 1]}, {"id": "bad\\ud800", "counts": [5, 3, 1]}]'
        )
        code, out, err = run_cli([command, str(p), "--format", fmt], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {p}: record 1: 'id' is not encodable as UTF-8\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", ["index", "bundle", "admissible"])
    def test_index_name_not_encodable_as_utf8_exit_2(
        self, csv_file, tmp_path, capsys, command, fmt
    ):
        p = tmp_path / "cfg.json"
        p.write_text('{"indices": [{"name": "h\\ud800", "operator": "identity"}]}')
        code, out, err = run_cli([command, csv_file, "--config", str(p), "--format", fmt], capsys)
        assert (code, out) == (2, "")
        assert err == "error: bad config: index 'h\\ud800': 'name' is not encodable as UTF-8\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", ["index", "bundle", "admissible"])
    @pytest.mark.parametrize("name, shown", [("5", "5"), ("null", "None"), ('["h"]', "['h']")])
    def test_index_name_not_a_string_exit_2(
        self, csv_file, tmp_path, capsys, command, fmt, name, shown
    ):
        p = tmp_path / "cfg.json"
        p.write_text(f'{{"indices": [{{"name": {name}, "operator": "identity"}}]}}')
        code, out, err = run_cli([command, csv_file, "--config", str(p), "--format", fmt], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: bad config: index {shown}: 'name' must be a string\n"

    # the exact exit code and message for each kind of bad token, in both input formats
    @pytest.mark.parametrize(
        "token, problem",
        [
            ("1 2", "counts must be numbers"),
            ("nan", "counts must be finite"),
            ("1e400", "counts must be finite"),
            # as a JSON number, an integer beyond the float range
            pytest.param(str(10**401), "counts must be finite", id="401-digit-integer"),
            ("-1", "counts must be non-negative"),
            # as JSON literals, float() would read them as 1.0 and 0.0
            ("true", "counts must be numbers"),
            ("false", "counts must be numbers"),
        ],
    )
    def test_bad_count_token_messages(self, tmp_path, capsys, token, problem):
        p = tmp_path / "bad.csv"
        p.write_text(f"id,counts\nok,3;2;1\nbad,4;{token}\n")
        assert run_cli(["index", str(p)], capsys) == (2, "", f"error: {p}: line 3: {problem}\n")
        q = tmp_path / "bad.json"
        q.write_text(json.dumps([{"id": "ok", "counts": [3, 2, 1]}, {"id": "x", "counts": [4, token]}]))
        assert run_cli(["index", str(q)], capsys) == (2, "", f"error: {q}: record 1: {problem}\n")
        if token not in ("1 2", "nan"):  # also valid as a bare JSON value
            q.write_text(f'[{{"id": "ok", "counts": [3, 2, 1]}}, {{"id": "x", "counts": [4, {token}]}}]')
            assert run_cli(["index", str(q)], capsys) == (
                2, "", f"error: {q}: record 1: {problem}\n"
            )

    def test_json_integer_beyond_digit_limit_exit_2(self, tmp_path, capsys):
        # Python 3.11 refuses to parse it (4,300-digit limit); older versions overflow
        q = tmp_path / "long.json"
        q.write_text('[{"id": "x", "counts": [' + "9" * 5000 + ", 1]}]")
        code, out, err = run_cli(["index", str(q)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {q}: ")

    # each was a traceback and exit 1, which is verify's failure code
    @pytest.mark.parametrize("suffix", [".csv", ".json"])
    def test_directory_input_exit_2(self, tmp_path, capsys, suffix):
        p = tmp_path / f"input{suffix}"
        p.mkdir()
        code, out, err = run_cli(["index", str(p)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {p}: cannot read: ") and err.count("\n") == 1

    def test_non_utf8_csv_exit_2(self, tmp_path, capsys):
        p = tmp_path / "latin.csv"
        p.write_bytes(b"id,counts\nok,3;2;1\na,3;2\xff\n")
        assert run_cli(["index", str(p)], capsys) == (
            2, "", f"error: {p}: line 3: not UTF-8 text: invalid start byte\n"
        )

    @pytest.mark.parametrize("line", [2, 3])
    def test_field_beyond_csv_limit_exit_2(self, tmp_path, capsys, line):
        p = tmp_path / "big.csv"
        big = "big," + "1;" * 70_000 + "1\n"
        p.write_text("id,counts\n" + "ok,3;2;1\n" * (line - 2) + big)
        assert run_cli(["index", str(p)], capsys) == (
            2, "", f"error: {p}: line {line}: field larger than field limit (131072)\n"
        )

    def test_header_beyond_csv_limit_exit_2(self, tmp_path, capsys):
        p = tmp_path / "big.csv"
        p.write_text("id,counts" + "s" * 140_000 + "\nok,3;2;1\n")
        assert run_cli(["index", str(p)], capsys) == (
            2, "", f"error: {p}: line 1: field larger than field limit (131072)\n"
        )

    def test_missing_header_exit_2(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_text("name,cites\nx,1;2\n")
        code, _, err = run_cli(["index", str(p)], capsys)
        assert code == 2
        assert "line 1" in err

    def test_unsorted_counts_warn_and_sort(self, tmp_path, capsys):
        p = tmp_path / "unsorted.csv"
        p.write_text("id,counts\ncarol,1;5;3\ndan,4;4;1\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(["index", str(p)], capsys)
        assert code == 0
        assert err == "warning: source 'carol': counts not sorted non-increasingly; sorting\n"
        assert caught == []
        assert out == (
            "id,index,theta,value\ncarol,h,1,2.33333333333\ncarol,g,1,3.36092084343\n"
            "dan,h,1,2.5\ndan,g,1,3.27698396495\n"
        )

    @pytest.mark.parametrize("command", ["index", "bundle"])
    def test_no_function_digest_on_cli_path(self, csv_file, capsys, monkeypatch, command):
        args = [command, csv_file, "--theta-grid", "0.5:2:4"]
        code, expected, _ = run_cli(args, capsys)
        assert code == 0

        def digest(self):
            raise AssertionError("the CLI identifies records by their id")

        monkeypatch.setattr(RankFrequencyFunction, "digest", digest)
        assert run_cli(args, capsys)[:2] == (0, expected)

    def test_json_output_format(self, csv_file, capsys):
        code, out, _ = run_cli(["index", csv_file, "--format", "json"], capsys)
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["id"] == "alice"


class TestBundleCommand:
    def test_header_and_values(self, csv_file, capsys):
        code, out, _ = run_cli(["bundle", csv_file, "--theta-grid", "0.5:2:3"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "id,index,operator,p,shift,theta,m,status"

    def test_round_trip_against_solver(self, csv_file, capsys):
        code, out, _ = run_cli(["bundle", csv_file, "--theta-grid", "0.5:2:3"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        f = from_citation_counts([10, 8, 5, 4, 3, 2, 1])
        grid = [0.5, 1.25, 2.0]
        entries = sample_bundle(f, OperatorKind.IDENTITY, PowerThreshold(1.0, 0.0), grid)
        api = {
            format(e.theta, ".12g"): (format(e.m, ".12g") if math.isfinite(e.m) else "")
            for e in entries
        }
        for row in rows:
            if row["id"] == "alice" and row["index"] == "h":
                assert row["m"] == api[row["theta"]]

    def test_per_row_solves_only_for_declined_cells(self, tmp_path, capsys, monkeypatch):
        # the kernel answers h and g for whole chunks; the zero record's cells are
        # declined, so that record alone is built and solved row by row
        records = [(k, sorted(c, reverse=True)) for k, c in golden_records()[:12]]
        records.insert(5, ("zero", [0, 0, 0]))
        p = tmp_path / "thirteen.csv"
        p.write_text("id,counts\n" + "".join(f"{k},{';'.join(map(str, c))}\n" for k, c in records))
        thetas = ThetaGrid(0.5, 2.0, 7).values()
        declined, built = 0, set()
        for k, counts in records:
            record = np.array(counts, dtype=float)
            columns = solver._CitationColumns(record, np.array([0, len(counts)]))
            for idx in cli.DEFAULT_INDICES:
                _, code = solver._bundle_cells(columns, *idx.resolve_at(0.0), thetas)
                declined += int((code == solver._DECLINED).sum())
                if (code == solver._DECLINED).any():
                    built.add(k)
        assert (declined, built) == (2 * 7, {"zero"})
        # the rows of sample_bundle, one record and one index at a time
        want = ["id,index,operator,p,shift,theta,m,status"]
        for k, counts in records:
            f = from_citation_counts(counts)
            for idx in cli.DEFAULT_INDICES:
                for entry in sample_bundle(f, *idx.resolve(f), thetas):
                    m = cli._fmt(entry.m) if math.isfinite(entry.m) else ""
                    want.append(
                        f"{k},{idx.name},{idx.operator},1,0,{cli._fmt(entry.theta)},{m},"
                        f"{entry.status.value}"
                    )
        calls = {"solve": 0, "build": 0}
        solve, build = solver._solve, funcspace.from_citation_counts

        def counting_solve(setup, theta):  # the per-theta solve on a set-up
            calls["solve"] += 1
            return solve(setup, theta)

        def counting_build(counts):
            calls["build"] += 1
            return build(counts)

        monkeypatch.setattr(solver, "_solve", counting_solve)
        for module in (funcspace, cli):
            monkeypatch.setattr(module, "from_citation_counts", counting_build)
        monkeypatch.setattr(cli, "CSV_CHUNK", 4)  # four kernel chunks
        code, out, _ = run_cli(["bundle", str(p), "--theta-grid", "0.5:2:7"], capsys)
        assert code == 0
        assert out.splitlines() == want
        assert calls == {"solve": declined, "build": len(built)}
        assert cli.sample_bundle is solver.sample_bundle

    def test_theta_grid_flag_log_spacing(self):
        grid = parse_theta_grid_flag("0.5:2:3:log")
        assert grid.values() == pytest.approx([0.5, 1.0, 2.0])
        with pytest.raises(CliError):
            parse_theta_grid_flag("1:2")
        with pytest.raises(CliError):
            parse_theta_grid_flag("0:2:3")

    def test_tol_flag_is_unknown(self, csv_file, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["index", csv_file, "--tol", "1e-8"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --tol" in capsys.readouterr().err

    def test_strictly_decreasing_along_theta(self, csv_file, capsys):
        code, out, _ = run_cli(["bundle", csv_file, "--theta-grid", "0.5:2:4"], capsys)
        rows = [
            r
            for r in csv.DictReader(io.StringIO(out))
            if r["id"] == "alice" and r["index"] == "h"
        ]
        ms = [float(r["m"]) for r in rows if r["m"]]
        assert all(b < a for a, b in zip(ms, ms[1:]))


class TestConfig:
    # written by hand: JSON has no inf literal, but 1e400 parses to inf
    @pytest.mark.parametrize(
        "solver",
        ['{"abs_tol_x": 1e-10, "scan_points": 1024}', "[]", '{"abs_tol_x": 1e400}'],
        ids=["object", "list", "inf-tolerance"],
    )
    def test_solver_section_is_ignored_with_a_note(self, csv_file, tmp_path, capsys, solver):
        grid = '"theta_grid": {"min": 0.5, "max": 2.0, "count": 4}'
        plain = tmp_path / "plain.json"
        plain.write_text(f"{{{grid}}}")
        legacy = tmp_path / "legacy.json"
        legacy.write_text(f'{{{grid}, "solver": {solver}}}')
        code_p, out_p, err_p = run_cli(["bundle", csv_file, "--config", str(plain)], capsys)
        code_l, out_l, err_l = run_cli(["bundle", csv_file, "--config", str(legacy)], capsys)
        assert code_p == code_l == 0
        assert out_l == out_p
        assert err_p == ""
        assert err_l.count("note:") == 1
        assert "ignoring config section 'solver'" in err_l


class TestAdmissibleCommand:
    def test_counts_fixture_ranges(self, csv_file, capsys):
        code, out, _ = run_cli(["admissible", csv_file], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        by_key = {(r["id"], r["index"]): r for r in rows}
        # theta unbounded for h (the ingested record descends to zero)
        assert by_key[("alice", "h")]["theta_min"] == "0"
        assert by_key[("alice", "h")]["theta_max"] == "inf"
        assert by_key[("alice", "h")]["certified"] == "true"
        # averaged transform keeps a positive floor: 4.75 / 8
        assert by_key[("alice", "g")]["theta_min"] == "0.59375"

    def test_certified_ranges_build_nothing_per_record(self, tmp_path, capsys, monkeypatch):
        src = tmp_path / "s.csv"
        src.write_text(CSV_FIXTURE + "zed,0;0\n")
        code, expected, _ = run_cli(["admissible", str(src)], capsys)
        assert code == 0
        assert "zed,h,,,error: the zero function admits no positive theta" in expected
        build = funcspace.from_citation_counts

        def zero_records_only(counts):
            if any(counts):
                raise AssertionError("a certified range needs no function")
            return build(counts)

        def no_range(*args, **kwargs):
            raise AssertionError("certified ranges are formatted from their columns")

        for module in (cli, funcspace):
            monkeypatch.setattr(module, "from_citation_counts", zero_records_only)
        for module in (cli, thresholds):
            monkeypatch.setattr(module, "AdmissibleRange", no_range)
        assert run_cli(["admissible", str(src)], capsys)[:2] == (0, expected)

    def test_uncertified_range_prints_no_caveat(self, tmp_path, capsys):
        # psi_f = I(f)(x) / x falls from f(0) = 4 to 14 / 4; an exact range needs no caveat
        p = tmp_path / "cfg.json"
        p.write_text(
            json.dumps(
                {"indices": [{"name": "iq", "operator": "integral", "p": 1.0, "shift": 0.0}]}
            )
        )
        src = tmp_path / "s.csv"
        src.write_text("id,counts\nx,4;4;4\n")
        code, out, err = run_cli(["admissible", str(src), "--config", str(p)], capsys)
        assert (code, out.splitlines()[1], err) == (0, "x,iq,3.5,4,false", "")

    # A shift at or past the support end S = 8 of the 7-count record leaves
    # the threshold non-positive on [0, S]: no theta is admissible.  The
    # first three ranges are certified, answered by the column pass and by
    # admissible_range; the last is psi_f's image over the solve table.
    @pytest.mark.parametrize(
        "operator, p, shift",
        [
            ("identity", 0.5, 100.0),  # was a TypeError: (S - shift) ** p is complex
            ("averaging", 1.0, 8.0),  # was a ZeroDivisionError
            ("identity", 1.0, 100.0),  # was the range 0, inf, where index reports NoRoot
            ("integral", 1.0, 100.0),  # was a ValueError from a negative theta_min
            # (S - shift)^p underflows to 0.0: the threshold is 0 on [0, S] in
            # floating point; was the range inf, inf with a RuntimeWarning
            ("averaging", 30.0, 7.999999999999999),
            # (S - shift)^p is about 1e-309, so T(f)(S) / (S - shift)^p overflows:
            # no finite theta is admissible either; was inf, inf with a RuntimeWarning
            ("averaging", 30.0, 8.0 - 5e-11),
        ],
    )
    def test_shift_at_or_past_support_end_admits_no_theta(
        self, tmp_path, capsys, operator, p, shift
    ):
        idx = {"name": "x", "operator": operator, "p": p, "shift": shift}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"indices": [idx]}))
        src = tmp_path / "s.csv"
        src.write_text("id,counts\nr,10;8;5;4;3;2;1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run_cli(["admissible", str(src), "--config", str(cfg)], capsys)
        assert code == 0
        message = "no theta is admissible: the threshold is not positive on [0.0, 8.0]"
        assert out.splitlines()[1] == f'r,x,,,"error: {message}"'
        f = from_citation_counts([10, 8, 5, 4, 3, 2, 1])
        with pytest.raises(NoRootError, match=re.escape(message)):
            admissible_range(f, *IndexDef(**idx).resolve(f))
        code, out, _ = run_cli(["index", str(src), "--config", str(cfg)], capsys)
        assert (code, out.splitlines()[1]) == (0, "r,x,1,NoRoot")

    def test_overflowing_power_admits_every_theta(self, tmp_path, capsys):
        # (S - a)^400 overflows: in floating point the threshold reaches inf at
        # S, so every positive theta has a root.  Was an OverflowError (exit 1).
        idx = {"name": "x", "operator": "averaging", "p": 400.0, "shift": "origin"}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"indices": [idx]}))
        src = tmp_path / "s.csv"
        src.write_text("id,counts\nr,10;8;5;4;3;2;1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["admissible", str(src), "--config", str(cfg)], capsys)
            assert (code, out.splitlines()[1], err) == (0, "r,x,0,inf,true", "")
            f = from_citation_counts([10, 8, 5, 4, 3, 2, 1])
            rng = admissible_range(f, *IndexDef(**idx).resolve(f))
            assert (rng.theta_min, rng.theta_max, rng.certified) == (None, math.inf, True)
            code, out, err = run_cli(["index", str(src), "--config", str(cfg)], capsys)
            # bisection to ABS_TOL_X printed 1.0057730547; the root is 1.00577305466968
            assert (code, out.splitlines()[1], err) == (0, "r,x,1,1.00577305467", "")
            root = oracle_root(f, "averaging", 1.0, 1.0, 2.0, 400.0)
            assert format(float(root), ".12g") == "1.00577305467"


class TestOverflowingPower:
    """On the 7-count record, a power (x - shift)^p past the float range is inf."""

    def run(self, tmp_path, capsys, command, idx, *flags):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"indices": [dict(name="x", **idx)]}))
        src = tmp_path / "s.csv"
        src.write_text("id,counts\nr,10;8;5;4;3;2;1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return run_cli([command, str(src), "--config", str(cfg), *flags], capsys)

    # x^2000 overflows past x = 1.43, inside the first bracket of the iteration;
    # was an OverflowError out of the bisection (exit 1).  Bisection to
    # ABS_TOL_X printed 1.00149883839 and 1.00149973881 for identity and integral
    @pytest.mark.parametrize(
        "operator, shift, value",
        [
            ("identity", 0.0, "1.00149883837"),
            ("averaging", "origin", "1.00149898839"),
            ("integral", 0.0, "1.00149973882"),
        ],
    )
    def test_bisection_reads_inf(self, tmp_path, capsys, operator, shift, value):
        idx = {"operator": operator, "p": 2000.0, "shift": shift}
        code, out, err = self.run(tmp_path, capsys, "index", idx, "--theta-grid", "0.5:0.5:1")
        assert (code, out.splitlines()[1], err) == (0, f"r,x,0.5,{value}", "")
        # the root of T(f) = 0.5 x^2000 on the second segment, where f is still close to 10
        f = from_citation_counts([10, 8, 5, 4, 3, 2, 1])
        assert format(float(oracle_root(f, operator, 0.5, 1.0, 2.0, 2000.0)), ".12g") == value

    # At the first iterate x = 1.5, A = 0.5 (x - 0.077)^2000 is about 1.3e306 but
    # p A overflows, so D' is -inf and gives no step; the iteration once read that
    # as a zero step and stopped at 1.5
    @pytest.mark.parametrize(
        "operator, value",
        [
            ("identity", "1.0784910653"),
            ("averaging", "1.07849870231"),
            ("integral", "1.07853656196"),
        ],
    )
    def test_overflowing_slope_halves_the_bracket(self, tmp_path, capsys, operator, value):
        idx = {"operator": operator, "p": 2000.0, "shift": 0.077}
        code, out, err = self.run(tmp_path, capsys, "index", idx, "--theta-grid", "0.5:0.5:1")
        assert (code, out.splitlines()[1], err) == (0, f"r,x,0.5,{value}", "")
        f = from_citation_counts([10, 8, 5, 4, 3, 2, 1])
        root = oracle_root(f, operator, 0.5, 1.0, 2.0, 2000.0, 0.077)
        assert format(float(root), ".12g") == value
        family = PowerThreshold(2000.0, 0.077)
        m, status = solver.solve_bundle_point(f, OperatorKind(operator), family, 0.5)
        assert status is solver.SolveStatus.BISECTION
        assert abs(m - float(root)) <= 1e-12 * float(root)

    def test_uncertified_range_is_open_at_zero(self, tmp_path, capsys):
        # psi underflows to 0 where x^400 overflows; was a ValueError (exit 1)
        idx = {"operator": "integral", "p": 400.0, "shift": 0.0}
        code, out, err = self.run(tmp_path, capsys, "admissible", idx)
        assert (code, out.splitlines()[1], err) == (0, "r,x,0,inf,false", "")
        # was numpy's "overflow encountered in power" RuntimeWarning
        code, out, err = self.run(tmp_path, capsys, "index", idx)
        assert (code, out.splitlines()[1], err) == (0, "r,x,1,1.00578756523", "")

    def test_segment_polynomial_overflow_is_silent(self, tmp_path, capsys):
        # theta * (x0 - shift) overflows to inf at theta = 1e308; was numpy's
        # "overflow encountered in multiply" from the segment polynomial
        idx = {"operator": "integral", "p": 1.0, "shift": 3.5}
        code, out, err = self.run(tmp_path, capsys, "index", idx, "--theta-grid", "1e308:1e308:1")
        # the root is 3.5 + 2.8e-307; bisection to ABS_TOL_X printed 3.50000000003
        assert (code, out.splitlines()[1], err) == (0, "r,x,1e+308,3.5", "")
        f = from_citation_counts([10, 8, 5, 4, 3, 2, 1])
        assert format(float(oracle_root(f, "integral", 1e308, 3.5, 4.0, 1.0, 3.5)), ".12g") == "3.5"

    def test_psi_of_an_underflowing_power_is_silent(self, tmp_path):
        # (x - 0.5)^2000 underflows to 0 near the shift, where psi is inf at two
        # neighbouring points: their difference inf - inf printed numpy's
        # "invalid value encountered in subtract"
        cfg = tmp_path / "cfg.json"
        idx = {"name": "x", "operator": "integral", "p": 2000.0, "shift": 0.5}
        cfg.write_text(json.dumps({"indices": [idx], "theta_grid": {"min": 0.5}}))
        src = tmp_path / "s.csv"
        src.write_text("id,counts\nr,10;8;5;4;3;2;1\n")
        cmd = [sys.executable, "-W", "error", "-m", "hirschbundles", "index", str(src)]
        proc = subprocess.run([*cmd, "--config", str(cfg)], capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.splitlines()[1] == "r,x,0.5,1.50169414507"

    @pytest.mark.parametrize(
        "name, operator, value", [("i05", "identity", "4"), ("n05", "integral", "NoRoot")]
    )
    def test_overflowing_running_integral_is_silent(self, tmp_path, name, operator, value):
        # the running integral of this record overflows: n05 printed numpy's
        # overflow and invalid-value RuntimeWarnings from the integral and the
        # psi turns' coefficients
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"indices": [{"name": name, "operator": operator, "p": 0.5}]}))
        src = tmp_path / "s.csv"
        src.write_text("id,counts\nr,1.7e308;1.7e308;1e308\n")
        cmd = [sys.executable, "-m", "hirschbundles", "index", str(src), "--config", str(cfg)]
        proc = subprocess.run([*cmd, "--theta-grid", "0.5:0.5:1"], capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == f"id,index,theta,value\nr,{name},0.5,{value}\n"

    def test_overflowing_total_integral_is_silent(self, tmp_path):
        # g's total integral of this record overflows to inf: admissible's
        # columnar ranges printed numpy's overflow RuntimeWarning
        src = tmp_path / "s.csv"
        src.write_text("id,counts\nr,1.7e308;1.7e308;1e308\n")
        cmd = [sys.executable, "-m", "hirschbundles", "admissible", str(src)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == (
            "id,index,theta_min,theta_max,certified\nr,h,0,inf,true\n"
            'r,g,,,"error: no theta is admissible: the threshold is not positive on [0.0, 4.0]"\n'
        )


class TestVerifyCommand:
    def test_stock_suite_exit_zero(self, tmp_path, capsys):
        rep = tmp_path / "rep.json"
        code, out, _ = run_cli(
            ["verify", "--trials", "4", "--seed", "5", "--report", str(rep)], capsys
        )
        assert code == 0
        data = json.loads(rep.read_text())
        assert data["counts"]["fail"] == 0
        assert "summary:" in out

    def test_reversal_injection_exit_one(self, tmp_path, capsys):
        rep = tmp_path / "rep.json"
        code, out, _ = run_cli(
            [
                "verify",
                "--trials",
                "4",
                "--seed",
                "5",
                "--inject-reversal",
                "--report",
                str(rep),
            ],
            capsys,
        )
        assert code == 1
        data = json.loads(rep.read_text())
        assert data["counts"]["fail"] == 1

    # sha256 of stdout and of the report; the suite is promised deterministic
    # per (trials, seed), so these change only with the suite's output
    @pytest.mark.parametrize(
        "args, exit_code, stdout_digest, report_digest",
        [
            pytest.param(
                ["--trials", "10", "--seed", "1"],
                0,
                "dcd6ad1c4e59866e013d9e4764d7c055ce479844725aaebc0b02037cd8366f98",
                "262c7e1ba514484188308e0a4042c3009e5a02f9cc4f220fb5c037687047e142",
                id="trials-10-seed-1",
            ),
            pytest.param(
                ["--trials", "6", "--inject-reversal"],
                1,
                "23613e14fdb7498c29dce829a8eb770705fc45240f35a98838afcd1ca921be58",
                "fbdc61b34ed75212505d96ddd21c872748571e4ca27dcbf981febc1257417324",
                id="trials-6-reversal",
            ),
        ],
    )
    def test_golden_suite_output(
        self, tmp_path, capsys, args, exit_code, stdout_digest, report_digest
    ):
        rep = tmp_path / "rep.json"
        code, out, _ = run_cli(["verify", *args, "--report", str(rep)], capsys)
        assert code == exit_code
        assert hashlib.sha256(out.encode()).hexdigest() == stdout_digest
        assert hashlib.sha256(rep.read_bytes()).hexdigest() == report_digest

    def test_zero_trials_vacuous_with_warning(self, tmp_path, capsys):
        rep = tmp_path / "rep.json"
        code, out, err = run_cli(
            ["verify", "--trials", "0", "--report", str(rep)], capsys
        )
        assert code == 0
        assert "vacuous" in err
        data = json.loads(rep.read_text())
        assert data["counts"]["pass"] == 0

    def test_bad_config_exit_2(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text("{not json")
        code, _, err = run_cli(["verify", "--config", str(p)], capsys)
        assert code == 2

    def test_config_byte_order_mark_is_skipped(self, csv_file, tmp_path, capsys):
        # as a spreadsheet or editor may save UTF-8; read like the same config without it
        text = json.dumps({"indices": [{"name": "k2", "p": 2.0}]})
        plain, marked = tmp_path / "plain.json", tmp_path / "marked.json"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        expected = run_cli(["index", csv_file, "--config", str(plain)], capsys)
        assert expected[0] == 0 and "k2" in expected[1]
        assert run_cli(["index", csv_file, "--config", str(marked)], capsys) == expected

    def test_config_not_utf8_exit_2(self, csv_file, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_bytes(b'{"x": "\xff"}')
        assert run_cli(["index", csv_file, "--config", str(p)], capsys) == (
            2,
            "",
            f"error: cannot read config {p}: "
            "'utf-8' codec can't decode byte 0xff in position 7: invalid start byte\n",
        )


class TestMalformedNumbers:
    """Non-numeric or non-finite flags and config values exit 2, naming the problem."""

    def test_negative_trials_flag(self, tmp_path, capsys):
        rep = tmp_path / "rep.json"
        code, _, err = run_cli(["verify", "--trials", "-3", "--report", str(rep)], capsys)
        assert code == 2
        assert "trials" in err

    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_trials_are_bounded(self, tmp_path, capsys, monkeypatch, how):
        # one seed sequence per trial is spawned before the first runs
        def run_property_suite(cfg):
            raise AssertionError("the trial count must be rejected before the suite runs")

        monkeypatch.setattr(cli, "run_property_suite", run_property_suite)
        rep = tmp_path / "rep.json"
        args = ["verify", "--report", str(rep)]
        if how == "flag":
            args += ["--trials", "10000000000"]
        else:
            p = tmp_path / "cfg.json"
            p.write_text('{"trials": 1e10}')
            args += ["--config", str(p)]
        code, out, err = run_cli(args, capsys)
        assert (code, out) == (2, "")
        assert err == f"error: trials must be at most {MAX_TRIALS}, got 10000000000\n"
        assert not rep.exists()

    def test_negative_trials_in_config(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"trials": -2}))
        rep = tmp_path / "rep.json"
        code, _, err = run_cli(["verify", "--config", str(p), "--report", str(rep)], capsys)
        assert code == 2
        assert "trials" in err

    @pytest.mark.parametrize(
        "text",
        ['{"trials": 1e400}', '{"seed": 1e400}', '{"theta_grid": []}'],
        ids=["trials-inf", "seed-inf", "grid-not-object"],
    )
    def test_malformed_config_values(self, tmp_path, capsys, text):
        p = tmp_path / "cfg.json"
        p.write_text(text)
        rep = tmp_path / "rep.json"
        code, _, err = run_cli(["verify", "--config", str(p), "--report", str(rep)], capsys)
        assert code == 2
        assert "bad config" in err

    # int() would truncate these to 3 theta rows, 2 trials and a count of 1
    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"theta_grid": {"count": 3.7}}', "theta_grid.count"),
            ('{"theta_grid": {"count": true}}', "theta_grid.count"),
            ('{"trials": 2.9}', "trials"),
            ('{"trials": false}', "trials"),
            ('{"seed": 1.5}', "seed"),
        ],
    )
    def test_config_integers_must_be_whole(self, tmp_path, capsys, text, key):
        p = tmp_path / "cfg.json"
        p.write_text(text)
        rep = tmp_path / "rep.json"
        code, out, err = run_cli(["verify", "--config", str(p), "--report", str(rep)], capsys)
        assert (code, out) == (2, "")
        assert f"{key} must be an integer" in err

    def test_negative_seed_flag(self, tmp_path, capsys):
        rep = tmp_path / "rep.json"
        code, _, err = run_cli(["verify", "--seed", "-1", "--report", str(rep)], capsys)
        assert code == 2
        assert "seed" in err

    @pytest.mark.parametrize("grid", ["inf:inf:1", "1:inf:3", "nan:2:3"])
    def test_non_finite_theta_grid(self, csv_file, capsys, grid):
        code, out, err = run_cli(["bundle", csv_file, "--theta-grid", grid], capsys)
        assert code == 2
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_theta_grid_count_is_bounded(self, csv_file, tmp_path, capsys, monkeypatch, how):
        def values(self):
            raise AssertionError("the grid must be rejected before it is built")

        monkeypatch.setattr(ThetaGrid, "values", values)
        if how == "flag":
            args = ["bundle", csv_file, "--theta-grid", "1:2:100000000000"]
        else:
            p = tmp_path / "cfg.json"
            p.write_text('{"theta_grid": {"min": 1, "max": 2, "count": 1e12}}')
            args = ["bundle", csv_file, "--config", str(p)]
        t0 = time.perf_counter()
        code, out, err = run_cli(args, capsys)
        assert time.perf_counter() - t0 < 0.5
        assert (code, out) == (2, "")
        assert f"at most {MAX_THETA_COUNT}" in err

    def test_theta_grid_count_limit_itself_is_accepted(self):
        assert parse_theta_grid_flag(f"1:2:{MAX_THETA_COUNT}").count == MAX_THETA_COUNT

    @pytest.mark.parametrize(
        "params",
        [
            {"p": "abc"},
            {"p": None},
            {"p": 1e400},
            {"shift": "inf"},
            {"family": "declin", "ceiling": "abc"},
            {"family": "declin", "ceiling": 1e400},
        ],
        ids=["p-text", "p-null", "p-inf", "shift-inf", "ceiling-text", "ceiling-inf"],
    )
    def test_malformed_index_parameters(self, csv_file, tmp_path, capsys, params):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"indices": [{"name": "bad", "operator": "identity", **params}]}))
        code, out, err = run_cli(["bundle", csv_file, "--config", str(p)], capsys)
        assert code == 2
        assert out == ""
        assert "'bad'" in err

    @pytest.mark.parametrize("command", ["bundle", "index"])
    def test_overflowing_log_grid_is_a_grid_error(self, csv_file, tmp_path, capsys, command):
        # the grid's ratio overflows to inf: named as the grid's error, with or without a record
        empty = tmp_path / "empty.csv"
        empty.write_text("id,counts\n")
        for source in (csv_file, str(empty)):
            code, out, err = run_cli([command, source, "--theta-grid", "1e-300:1e300:3:log"], capsys)
            assert (code, out) == (2, "")
            assert err == "error: theta grid 1e-300:1e+300:3:log overflows: its values must be finite\n"

    # finite bounds whose values pass the largest float: lo + step * i rounds
    # to inf, hi / lo overflows, and a log ratio's power raises OverflowError
    @pytest.mark.parametrize(
        "spec",
        [
            "1.0:1.7976931348623157e+308:7",
            "1e-10:1.7976931348623157e+308:5:log",
            "1.0:1.7976931348623157e+308:5:log",
        ],
        ids=["linear", "log-ratio-inf", "log-power-raises"],
    )
    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_overflowing_grid_is_rejected_before_any_record(
        self, csv_file, tmp_path, capsys, spec, how
    ):
        empty = tmp_path / "empty.csv"
        empty.write_text("id,counts\n")
        lo, hi, count, *log = spec.split(":")
        for source in (csv_file, str(empty)):
            if how == "flag":
                args = ["bundle", source, "--theta-grid", spec]
            else:
                p = tmp_path / "cfg.json"
                grid = {"min": float(lo), "max": float(hi), "count": int(count)}
                p.write_text(json.dumps({"theta_grid": {**grid, "spacing": "log" if log else "linear"}}))
                args = ["bundle", source, "--config", str(p)]
            code, out, err = run_cli(args, capsys)
            assert (code, out) == (2, "")
            assert err == f"error: theta grid {spec} overflows: its values must be finite\n"

    def test_largest_finite_grids_are_accepted(self):
        for spec in ("1:1e308:3", "1e-300:1e300:3", "1:1.7976931348623157e308:2:log"):
            assert math.isfinite(parse_theta_grid_flag(spec).values()[-1])

    @pytest.mark.parametrize("command", ["bundle", "index"])
    def test_errors_in_index_order(self, csv_file, tmp_path, capsys, command):
        # the first record's first index fails its solve before the second
        # index is reached, although that one cannot even be resolved
        indices = [
            {"name": "dl", "operator": "identity", "family": "declin", "ceiling": 3},
            {"name": "bad", "operator": "nope"},
        ]
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"indices": indices}))
        code, out, err = run_cli([command, csv_file, "--config", str(p)], capsys)
        assert (code, out) == (2, "")
        assert "source 'alice', index 'dl': threshold ceiling 3 must exceed" in err
        # with no record, no index is resolved
        empty = tmp_path / "empty.csv"
        empty.write_text("id,counts\n")
        code, out, err = run_cli([command, str(empty), "--config", str(p)], capsys)
        assert (code, err) == (0, "")


def golden_records():
    """300 records from a fixed integer formula: 1 to 83 counts, ties, zeros, some unsorted."""
    records = []
    for i in range(300):
        n = 1 + (i * 37) % 83
        mod = 40 + (i * 13) % 211
        counts = [((i + 1) * 7919 + j * 104729) % mod // (1 + j % 5) for j in range(n)]
        if i % 41 != 3:
            counts.sort(reverse=True)
        records.append((f"r{i:03d}", counts))
    return records


# sha256 of stdout; output is promised byte-identical, so these change only with the output
GOLDEN_STDOUT = {
    "admissible": "f921f19aa19b6a1380aeac7a921af3bb85bcd90ad120779a781ff8acdf08a878",
    "bundle": "49f9a46b057ab9fb9add83372ec64f0cc1eaca3735ba9b7dd89f4e357cc57c9f",
    "index": "194319cf723a64f545cfa6ba43ef9dd51401c0af2ebd0c8ee0ee4b1db3e2774c",
}

# identity, averaging and integral x power at p = 0.5, 1, 2 and shift 0, then g
# and a decreasing-linear family: certified and uncertified admissible ranges
ELEVEN_INDICES = {
    "indices": [
        {"name": f"{prefix}{name}", "operator": operator, "p": p}
        for prefix, operator in (("i", "identity"), ("a", "averaging"), ("n", "integral"))
        for name, p in (("05", 0.5), ("1", 1.0), ("2", 2.0))
    ]
    + [
        {"name": "g", "operator": "averaging", "p": 1.0, "shift": "origin"},
        {"name": "dl", "operator": "identity", "family": "declin", "ceiling": 1000},
    ]
}

# Bisection cells are placed to about one ulp; every status and every other row
# is as it was when the cells stopped at ABS_TOL_X, and each moved cell is at
# least as close to a 60-digit decimal root
GOLDEN_STDOUT_11 = {
    "admissible": "1df82b27b1a5e4b68a087e0f2b4931004956e7d5e629da6d3eedafa6556204af",
    "bundle": "c08850caac6ccfc5ac8cd87d0e4b14f5da76da352a972c424bebab7e88152f81",
    "index": "626d2935e65524ab5f092d78b9dba9307a5f302351ed955f8c6eef2a0a3aa9bc",
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "command, config, digest",
    [pytest.param(c, None, d, id=c) for c, d in sorted(GOLDEN_STDOUT.items())]
    + [
        pytest.param(c, ELEVEN_INDICES, d, id=f"{c}-11-indices")
        for c, d in sorted(GOLDEN_STDOUT_11.items())
    ],
)
def test_golden_corpus_output_is_byte_identical(tmp_path, capsys, fmt, command, config, digest):
    records = golden_records()
    p = tmp_path / f"golden.{fmt}"
    if fmt == "csv":
        p.write_text("id,counts\n" + "".join(f"{k},{';'.join(map(str, c))}\n" for k, c in records))
    else:
        p.write_text(json.dumps([{"id": k, "counts": c} for k, c in records]))
    args = [command, str(p)] + (["--theta-grid", "0.5:2:7"] if command == "bundle" else [])
    if config is not None:
        cfg = tmp_path / "indices.json"
        cfg.write_text(json.dumps(config))
        args += ["--config", str(cfg)]
    code, out, err = run_cli(args, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert err.count("counts not sorted") == 7


# Ids and an index name that csv quotes, or that JSON escapes, and a zero record,
# whose admissible cells hold an error
FREE_TEXT_IDS = ["a,b", 'say "hi"', "two\nlines", "cr\rid", " padded ", "", '""', "ü", "tab\tx"]
FREE_TEXT_INPUTS = {
    "free.json": json.dumps(
        [
            {"id": k, "counts": [3 + i, 2, 1][: 1 + i % 3] + [1] * i}
            for i, k in enumerate(FREE_TEXT_IDS)
        ]
        + [{"id": "zero", "counts": [0, 0]}]
    ),
    "quoted.csv": 'id,counts\n"q""id",3;2;1\nplain,4;1\n',
}
FREE_TEXT_CONFIG = {
    "indices": [
        {"name": "h,1", "operator": "identity", "p": 1.0},
        {"name": "g", "operator": "averaging", "p": 1.0, "shift": "origin"},
    ]
}

# sha256 of stdout with FREE_TEXT_CONFIG and --theta-grid 0.5:2:2, by input, command
# and output format; every run exits 0 with empty stderr
FREE_TEXT_STDOUT = {
    ("free.json", "admissible", "csv"):
        "f1a336fc7c3d8bd62e9148636c244af884f58cecf43eef777aa60a7e0396e692",
    ("free.json", "admissible", "json"):
        "a95a227d874c5895682b30af8870b30291b9300865c5b054662a488111d0c629",
    ("free.json", "bundle", "csv"):
        "cfb8892bfcfbcd35a7c13ecc1f4a46dcceaacb8056fe4e4deb09df31c5126986",
    ("free.json", "bundle", "json"):
        "71e8f7496b4a627bd00172375df54f91df9948953aa11da16ffd826da98495f3",
    ("free.json", "index", "csv"):
        "addfc923fe2a797d14d23f595fcbd785a592f4c78227a4083f45ad3f7df30704",
    ("free.json", "index", "json"):
        "b8113b4926486f7ae981bcdb6eaef96a7835e3bb1264f7542b68e17481c2a70c",
    ("quoted.csv", "admissible", "csv"):
        "58a465577977c57afd9d07ff78e662326f50afb8b1165d3b538a96a81922c2ad",
    ("quoted.csv", "admissible", "json"):
        "a16d5e18ce19d5d492c5677bcc10cfef3c05b83b8066a9a5d58ec3894f11152c",
    ("quoted.csv", "bundle", "csv"):
        "4f24e6fd37b28a9c28491432b022631e08f6f27d93951e49da5f06164fc6167d",
    ("quoted.csv", "bundle", "json"):
        "e109b918bfe9591577a17b12bc75aea91fc33b4f47984de61900456e3bd4614a",
    ("quoted.csv", "index", "csv"):
        "7af11b5bdc42bc536ab67ff1ee0ae2d6acf35346280820eb95f48bd1f181a14a",
    ("quoted.csv", "index", "json"):
        "46e143230201c09dd87a0f3e56e970eae451dd85cd4d9fcf7b7486f4b2596f41",
}


@pytest.mark.parametrize("name, command, fmt", list(FREE_TEXT_STDOUT))
def test_free_text_cells_are_pinned(tmp_path, capsys, name, command, fmt):
    p = tmp_path / name
    p.write_text(FREE_TEXT_INPUTS[name], newline="")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(FREE_TEXT_CONFIG))
    args = [command, str(p), "--config", str(cfg), "--theta-grid", "0.5:2:2", "--format", fmt]
    code, out, err = run_cli(args, capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == FREE_TEXT_STDOUT[name, command, fmt]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", ["bundle", "index"])
def test_error_in_second_chunk_leaves_stdout_empty(tmp_path, capsys, command, fmt):
    # every row of the first chunk is computed before the first record of
    # the second fails; none of them may reach stdout
    p = tmp_path / "late.csv"
    p.write_text("id,counts\n" + "r,3;2;1\n" * CSV_CHUNK + "late," + ";".join(["1"] * 20) + "\n")
    dl = {"name": "dl", "operator": "identity", "family": "declin", "ceiling": 10.0}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"indices": [dl]}))
    code, out, err = run_cli([command, str(p), "--config", str(cfg), "--format", fmt], capsys)
    assert (code, out) == (2, "")
    assert err == (
        "error: source 'late', index 'dl': "
        "threshold ceiling 10.0 must exceed the search domain end 21.0\n"
    )


def test_fmt_prints_inf_and_zero():
    assert cli._fmt(math.inf) == "inf"
    assert cli._fmt(0.0) == "0"


# every float: both zeros, infinities, NaN, subnormals and integers past 2**53
@given(st.floats())
@settings(max_examples=2000, deadline=None)
def test_fmt_is_format_with_12_significant_digits(x):
    assert cli._fmt(x) == format(x, ".12g")


# Irregular CSV input for the reader, which parses a block of whole lines of
# about cli._BLOCK_SIZE characters from the digits of its text, and sends any
# block it cannot parse so through the line-by-line reader.  ONE_CHUNK fills
# the bundle kernel's first chunk of CSV_CHUNK records exactly; ONE_BLOCK, the
# header and 13-character lines, the reader's first block: the next line
# starts the second.
ONE_CHUNK = "".join(f"r{i},{3 + i % 5};2;1\n" for i in range(1000))
ONE_BLOCK = "id,counts\n" + "".join(f"b{i:05d},{3 + i % 5};2;1\n" for i in range(1260))

READER_INPUTS = {
    **{
        name: f"id,counts\nok,3;2;1\nt,{token};1\n"
        for name, token in [
            ("underscore", "1_000"),
            ("padded", " 12 "),
            ("plus", "+5"),
            ("arabic-indic", "\u0661\u0662"),
            ("minus-zero", "-0"),
            ("1e400", "1e400"),
            ("inf", "inf"),
            ("nan", "nan"),
            ("empty-token", ""),
            ("blank-token", " "),
            # 15 digits are exact in float64; 2**53 + 1 is not, and rounds as float() does
            ("15-digits", "999999999999999"),
            ("16-digits", "9007199254740993"),
            ("leading-zeros", "007"),
        ]
    },
    "16-digits-in-full-chunk": (
        "id,counts\n"
        + ONE_CHUNK.replace("r500,3;2;1\n", "r500,9999999999999999;2;1\n")
        + "r1000,2;1\n"
    ),
    "quoted-id-extra-column-blank-line": 'id,counts\n"a,b",3;2;1\nc,4;1,extra\n\nd,5;5\n',
    "crlf": 'id,counts\r\n"a,b",3;2;1\r\nc,4;1\r\n\r\nd,1;5\r\n',
    "signed-zeros": "id,counts\nu,0;-0;1\nv,2;-0;0\n",
    "zero-record": "id,counts\nz,0;0\nok,3;1\n",
    "bad-first-record-of-second-chunk": "id,counts\n" + ONE_CHUNK + "r1000,4;x;1\nr1001,3;2\n",
    "bad-last-record-of-first-chunk": (
        "id,counts\n" + ONE_CHUNK[: ONE_CHUNK.rindex("r999")] + "r999,4;-1\nr1000,3;1\n"
    ),
    "unsorted-then-malformed": "id,counts\nu,1;5;3\n" + ONE_CHUNK + "bad,4;nan\n",
    "unsorted-in-two-chunks": "id,counts\nu,1;5;3\n" + ONE_CHUNK + "w,0;2;1\nz,7;7\n",
    # the csv module refuses a field beyond 131,072 characters
    "bad-line-before-reader-failure": (
        "id,counts\nok,3;2;1\nbad,x\nbig," + "1;" * 70_000 + "1\n"
    ),
    # lines that the reader splits itself, and lines it hands to the csv module
    "empty-file": "",
    "header-only": "id,counts\n",
    "no-trailing-newline": "id,counts\nok,3;2;1\nt,4;1",
    "lone-cr": "id,counts\rok,3;2;1\rt,4;1\r",
    # csv rejects NUL before Python 3.11, and passes it on after
    "nul-in-count": "id,counts\nok,3;2;1\nt,4\x001;1\n",
    "quoted-id-after-1000-records": "id,counts\n" + ONE_CHUNK + '"q,1",3;2\nr1001,2;1\n',
    "crlf-after-1000-records": "id,counts\n" + ONE_CHUNK + "r1000,3;2\r\nr1001,2;1\r\n",
    # a quoted line break inside the counts, where the digit reader finds
    # one line more than the chunk has records
    "line-break-in-counts": 'id,counts\nok,3;2;1\na,"1\n2"\n',
    "line-break-in-counts-after-1000-records": (
        "id,counts\n" + ONE_CHUNK + 'r1000,"4\n3";1\nr1001,2;1\n'
    ),
    # at the seam of the reader's first two blocks
    "bad-first-line-of-second-block": ONE_BLOCK + "bad,4;x;1\nz,3;2\n",
    "line-longer-than-a-block": "id,counts\nok,3;2;1\nlong," + "2;" * 10_000 + "1\nz,2;1\n",
    # the 7-character line fills the first block exactly; the blank line ends it
    "blank-line-then-quoted-line-at-seam": (
        ONE_BLOCK[:-13] + "bb,3;2\n\n" + '"q,1",3;2\nz,2;1\n'
    ),
    # "\udcff" is written as the byte 0xff, which UTF-8 does not decode
    "undecodable-byte-in-second-block-after-bad-count": (
        ONE_BLOCK.replace("b00005,3;2;1\n", "b00005,3;-2;1\n") + "u,3;2\udcff\nz,2;1\n"
    ),
}

# exit code, stderr (of both commands), and sha256 of the stdout of
# `admissible` and of `bundle --theta-grid 0.5:2:7`
READER_OUTPUTS = {
    "underscore": (
        0, "",
        "93b9b89dae3289aa805defe886da260d7364fd60595afe5302a8e733eca62305",
        "cd61b82453392c2b048778280345fb57324c59882110d906156acb757d81236c",
    ),
    "padded": (
        0, "",
        "ac0fe57d28efab863c6df0f7d5c1f326bf90000db983d399cbfda7a7f542bb09",
        "b5441e56feda936bc24cc38c005ddcb87ef77889a448b0cfc2432dc770882bbd",
    ),
    "plus": (
        0, "",
        "d56f08216d03fa897608b08bb687da56dbec125898c15020a8348693e10f0c8f",
        "7b496c96fd80f149ece76b6a7125fcc78284a272d66dc6d0cd5549f24f9468f5",
    ),
    "arabic-indic": (
        0, "",
        "ac0fe57d28efab863c6df0f7d5c1f326bf90000db983d399cbfda7a7f542bb09",
        "b5441e56feda936bc24cc38c005ddcb87ef77889a448b0cfc2432dc770882bbd",
    ),
    "minus-zero": (
        0, "warning: source 't': counts not sorted non-increasingly; sorting\n",
        "bd92832cd58e818f493bfb03b9e88f612cbdb8e1adc3a504d23777872fd8e30c",
        "d5503967c74dfb57dd41ccd4ceb8785577ed37bd222104d51538124a9166f5cd",
    ),
    "1e400": (
        2, "error: {p}: line 3: counts must be finite\n",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "inf": (
        2, "error: {p}: line 3: counts must be finite\n",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "nan": (
        2, "error: {p}: line 3: counts must be finite\n",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "empty-token": (
        0, "",
        "983971fb1ed6a36e8d7e27b739a32c4a37d01ef37374761685c281bbf34f299e",
        "d5503967c74dfb57dd41ccd4ceb8785577ed37bd222104d51538124a9166f5cd",
    ),
    "blank-token": (
        0, "",
        "983971fb1ed6a36e8d7e27b739a32c4a37d01ef37374761685c281bbf34f299e",
        "d5503967c74dfb57dd41ccd4ceb8785577ed37bd222104d51538124a9166f5cd",
    ),
    "15-digits": (
        0, "",
        "e8fde93bc81cd5351c5a19554ea39fc672a6c230405bc0bf6ca20c5af198cb2b",
        "ab451f91602dcb19439556c712bbd6c1f61dd8ff8351950f4497fe00e010b44e",
    ),
    "16-digits": (
        0, "",
        "d7b08c756642da0fb2cdcc5a6479ae31cb97e7c3a85ad5459c2902d3707d00e8",
        "ab451f91602dcb19439556c712bbd6c1f61dd8ff8351950f4497fe00e010b44e",
    ),
    "leading-zeros": (
        0, "",
        "dd23f47a76a9e1fb654d590505e5bc56b4f4529d246187f6e9e8ded45d813038",
        "704c04794577f49b1d1705b87bd7949ef1654e8b1c9a7463beb56f8e2468d98c",
    ),
    "16-digits-in-full-chunk": (
        0, "",
        "7c0972bdd61e8a6c20ba48851c5f03b52e826115f609fdd9525fb7b8111456cb",
        "cb69b8b887a28c38eb1724b37c5160ad9c847a73556041415dd5bb66bb6b5d86",
    ),
    "quoted-id-extra-column-blank-line": (
        0, "",
        "be58f99e35e59b45fefe5b675f1217fd52e4a0f202977cf90c3a66c77fab0f25",
        "60ef77750cc2b83db2ddca09e582023c34972c084e40e72e929be4911e59fde4",
    ),
    "crlf": (
        0, "warning: source 'd': counts not sorted non-increasingly; sorting\n",
        "5c3dc57851ebcb972e3f4b728e385de5eb426532afcf85ac58a5037422caf6b2",
        "2af22630fd048bc4e5f994377c548bf332a572cdbdc6852b5f684034c8d85b3f",
    ),
    "signed-zeros": (
        0, "warning: source 'u': counts not sorted non-increasingly; sorting\n",
        "289750c5fed86e004098407dc410bac02f4d3bfe44a846ada05af6fab1ea74c1",
        "5afad036c5401b078ba4aa11cd305d8704432d212302092710eaa73d478ef6bf",
    ),
    "zero-record": (
        0, "",
        "6ba6e14a3b33d619e56389820fb093012236982e01d1c87380ecb1a5806c03e3",
        "a693f344d1ecfe799e490c07cf21103a78f0a8fb877ac71f6cfb9646e3e142b5",
    ),
    "bad-first-record-of-second-chunk": (
        2, "error: {p}: line 1002: counts must be numbers\n",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "bad-last-record-of-first-chunk": (
        2, "error: {p}: line 1001: counts must be non-negative\n",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "unsorted-then-malformed": (
        2, "error: {p}: line 1003: counts must be finite\n",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "unsorted-in-two-chunks": (
        0,
        "warning: source 'u': counts not sorted non-increasingly; sorting\n"
        "warning: source 'w': counts not sorted non-increasingly; sorting\n",
        "4c066f4b13311d9ec60e45d54e19365d8cb829f56d8f4fc62fe45ad8bc19fda2",
        "5ccc7be475d37dfb7c0d3f7092f26fdbfb5fee3854bbd1f84d8904937f364f71",
    ),
    "bad-line-before-reader-failure": (
        2, "error: {p}: line 3: counts must be numbers\n",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "empty-file": (
        2, "error: {p}: empty file\n",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "header-only": (
        0, "",
        "fcac360922ccef5344772cfae4a7d61595377929a01a283b539760cc1e2c55cb",
        "336de06f4beb684fc0eeddb442e2df470bd8c0ca502ff16b3fdb5a11080c32ea",
    ),
    "no-trailing-newline": (
        0, "",
        "8e34f1dd9daeb533a8035cbff90a83d55dcf38691dd5c6fc610e1a059eeb4102",
        "0224505d3c8f6a2e59026051988a3e2ea5c8cc3597cf2dffcbd0f31600507663",
    ),
    "lone-cr": (
        0, "",
        "8e34f1dd9daeb533a8035cbff90a83d55dcf38691dd5c6fc610e1a059eeb4102",
        "0224505d3c8f6a2e59026051988a3e2ea5c8cc3597cf2dffcbd0f31600507663",
    ),
    "nul-in-count": (
        2,
        # csv reads NUL as a character from Python 3.11 on, and rejects it before
        "error: {p}: line 3: "
        + ("counts must be numbers\n" if sys.version_info >= (3, 11) else "line contains NUL\n"),
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "quoted-id-after-1000-records": (
        0, "",
        "d0f85605319ea7d118618405b95ffc8adb716a9839639df9f65b2c277a3fd302",
        "f89a84cb9d824838c1d0d7cbf7097c4a4f6165d04b3060b7c1927cf3a284b358",
    ),
    "crlf-after-1000-records": (
        0, "",
        "cb317413e1165ca590d51bedc24308d3e74eae7698e802dfa756e0bd22474b92",
        "1111de4e0f69cb77287435892fe0de07837da22a1a895eed872c730f5da3dca1",
    ),
    "line-break-in-counts": (
        2, "error: {p}: line 3: counts must be numbers\n",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "line-break-in-counts-after-1000-records": (
        2, "error: {p}: line 1002: counts must be numbers\n",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "bad-first-line-of-second-block": (
        2, "error: {p}: line 1262: counts must be numbers\n",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "line-longer-than-a-block": (
        0, "",
        "a3976f199124b023a449ba1084a18e50dd4b41a052aa2bba9b51dd807e7e0949",
        "9bdbb80a5cdb1e6a130b134a859a4eba2e5b46a43abdff41f5001503c37c8b72",
    ),
    "blank-line-then-quoted-line-at-seam": (
        0, "",
        "285fd298181ad89923455054e8852de3f32894b14eba441baf12960bf4c0ef80",
        "1de0c0368da7cdc636a4343ca60100dd4220e6d651fae396c4bc7ab57cd93259",
    ),
    "undecodable-byte-in-second-block-after-bad-count": (
        2, "error: {p}: line 7: counts must be non-negative\n",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
}


@pytest.mark.parametrize("name", list(READER_OUTPUTS))
def test_reader_output_is_pinned(tmp_path, capsys, name):
    assert CSV_CHUNK == len(ONE_CHUNK.splitlines())
    assert len(ONE_BLOCK) - 13 <= cli._BLOCK_SIZE < len(ONE_BLOCK)
    p = tmp_path / "input.csv"
    p.write_text(READER_INPUTS[name], newline="", errors="surrogateescape")
    code, err, *digests = READER_OUTPUTS[name]
    for command, digest in zip(["admissible", "bundle"], digests):
        args = [command, str(p)] + (["--theta-grid", "0.5:2:7"] if command == "bundle" else [])
        got_code, out, got_err = run_cli(args, capsys)
        assert (got_code, got_err) == (code, err.format(p=p))
        assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("command", ["index", "bundle", "admissible"])
@pytest.mark.parametrize("suffix", [".csv", ".json"])
def test_byte_order_mark_is_skipped(tmp_path, capsys, command, suffix):
    # as a spreadsheet may save UTF-8; read like the same file without it
    records = [{"id": "alice", "counts": [10, 8, 5, 4, 3, 2, 1]}, {"id": "bob", "counts": [9, 7, 2]}]
    text = CSV_FIXTURE if suffix == ".csv" else json.dumps(records)
    plain, marked = tmp_path / f"plain{suffix}", tmp_path / f"marked{suffix}"
    plain.write_text(text, encoding="utf-8", newline="")
    marked.write_text(text, encoding="utf-8-sig", newline="")
    assert marked.read_bytes()[:3] == b"\xef\xbb\xbf"
    expected = run_cli([command, str(plain)], capsys)
    assert expected[0] == 0
    assert run_cli([command, str(marked)], capsys) == expected


# Count tokens for the reader: integers of 1 to 17 digits, leading zeros
# included, and in some records a token that only float() reads, or none.
integer_tokens = st.integers(min_value=1, max_value=17).flatmap(
    lambda n: st.text(alphabet="0123456789", min_size=n, max_size=n)
)
odd_tokens = st.sampled_from(["2.5", "1e3", " 7 ", "+5", "\u0661\u0662", ""])
integer_records = st.lists(integer_tokens, min_size=1, max_size=8)
odd_records = st.lists(st.one_of(integer_tokens, odd_tokens), min_size=1, max_size=8).filter(any)
token_records = st.one_of(integer_records, integer_records, odd_records).map(
    # sorted non-increasingly, so that the reader has nothing to sort; the
    # empty tokens that it skips sort last
    lambda tokens: sorted(tokens, key=lambda t: float(t) if t else -1.0, reverse=True)
)


@given(st.lists(token_records, min_size=1, max_size=12), st.integers(min_value=1, max_value=120))
@settings(max_examples=200, deadline=None)
def test_reader_counts_are_bitwise_those_of_the_line_reader(tmp_path_factory, records, block):
    text = "id,counts\n" + "".join(f"r{i},{';'.join(r)}\n" for i, r in enumerate(records))
    p = tmp_path_factory.mktemp("reader") / "input.csv"
    p.write_text(text, newline="")
    with pytest.MonkeyPatch.context() as mp:
        # blocks of one line or a few, that mix digit and other tokens
        mp.setattr(cli, "_BLOCK_SIZE", block)
        corpus = read_sources(str(p))
    rows = list(enumerate(csv.reader(io.StringIO(text)), start=1))[1:]
    ids, values, lengths = _parse_rows(p, rows)
    assert corpus.ids == ids
    assert corpus.offsets.tolist() == np.concatenate([[0], np.cumsum(lengths)]).tolist()
    assert [v.hex() for v in corpus.counts.tolist()] == [v.hex() for v in values.tolist()]


def test_non_utf8_byte_is_reported_after_a_bad_line_before_it(tmp_path, capsys):
    # in the same block, and in the same 8 KB that the text layer decodes at once
    p = tmp_path / "latin.csv"
    p.write_bytes(b"id,counts\nok,3;2;1\nbad,4;-1\na,3;2\xff\n")
    assert run_cli(["index", str(p)], capsys) == (
        2, "", f"error: {p}: line 3: counts must be non-negative\n"
    )


def test_kernel_text_is_at_most_a_block_and_a_line(tmp_path, monkeypatch):
    # plain lines of many lengths, then, from a quoted line on, the csv module's rows
    lines = [f"r{i}," + ";".join(["7"] * (1 + i * 37 % 400)) + "\n" for i in range(600)]
    p = tmp_path / "input.csv"
    p.write_text("id,counts\n" + "".join(lines) + '"q",3;2\n' + "".join(lines))
    sizes = []
    kernel = cli._parse_digits

    def spy(text, lines):
        sizes.append(len(text))
        return kernel(text, lines)

    monkeypatch.setattr(cli, "_parse_digits", spy)
    assert len(read_sources(str(p))) == 1201
    assert max(sizes) <= cli._BLOCK_SIZE + max(map(len, lines))


# Minor page faults of read_sources on the seed-1 corpus of 10,000 records
# (3.8 MB) in a fresh process, on glibc: 3,739 to 4,252 in 12 runs with
# blocks of 16 KiB, at two levels 511 apart, against 14,774 to 15,289 with
# chunks of 1,000 records, whose temporaries glibc mapped afresh for every
# chunk (Python 3.11, numpy 2.4, x86-64 Linux).
READ_FAULTS_BOUND = 5_500

_COUNT_FAULTS = """
import resource, sys
from hirschbundles.cli import read_sources
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
read_sources(sys.argv[1])
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _seeded_corpus(path, seed, records):
    """A CSV of Pareto-like integer records of 5 to 300 counts, sorted non-increasingly."""
    rng = np.random.default_rng(seed)
    lines = ["id,counts"]
    for i in range(records):
        n = int(rng.integers(5, 301))
        counts = np.sort(np.floor(rng.uniform(2.0, 30.0) * rng.pareto(1.6, size=n)))[::-1]
        lines.append(f"s{i:05d}," + ";".join(map(str, counts.astype(np.int64).tolist())))
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="fault counts of glibc's malloc")
def test_reader_page_faults_are_bounded(tmp_path):
    p = tmp_path / "corpus.csv"
    _seeded_corpus(p, seed=1, records=10_000)
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _COUNT_FAULTS, str(p)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    assert int(proc.stdout) <= READ_FAULTS_BOUND


def _rows_until_error(rows):
    """The rows, then the csv.Error that ended them, if any."""
    got = []
    try:
        got.extend(rows)
    except csv.Error as e:
        got.append(f"csv.Error: {e}")
    return got


def _block_rows(blocks):
    """The rows of the reader's blocks: csv's row for each plain line, then the csv module's."""
    for _, block in blocks:
        yield from map(_fields, block) if isinstance(block, list) else block


@given(
    st.text(alphabet='a1,;"\r\n\0 \u00fc', max_size=60),
    st.one_of(st.none(), st.integers(min_value=1, max_value=8)),
    st.integers(min_value=1, max_value=12),
)
@settings(max_examples=400, deadline=None)
def test_csv_rows_are_those_of_csv_reader(text, limit, block_size):
    old_limit = csv.field_size_limit()
    try:
        if limit is not None:  # short fields, so that some rows raise
            csv.field_size_limit(limit)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_BLOCK_SIZE", block_size)  # blocks of a few lines, or of one
            fh = io.StringIO(text, newline="")
            got = _rows_until_error(_block_rows(_blocks(fh)))
        want = _rows_until_error(csv.reader(io.StringIO(text, newline="")))
    finally:
        csv.field_size_limit(old_limit)
    assert got == want


# Cells for the table writer: empty, or any mix of what csv quotes or JSON
# escapes, spaces, non-ASCII and a lone surrogate
table_cells = st.text(alphabet=',"\r\n\0\t a1.\u00fc\u2028\ud800', max_size=5)


@st.composite
def cell_tables(draw):
    """Column names, and groups of rows of 1 to 5 fixed and varying cells each."""
    width = draw(st.integers(min_value=2, max_value=6))
    fixed_width = draw(st.integers(min_value=1, max_value=width - 1))
    columns = draw(st.lists(table_cells, min_size=width, max_size=width, unique=True))
    counts = draw(st.lists(st.integers(min_value=0, max_value=3), max_size=5))
    fixed, varying = (
        [draw(st.lists(table_cells, min_size=n, max_size=n)) for _ in range(w)]
        for n, w in ((len(counts), fixed_width), (sum(counts), width - fixed_width))
    )
    return columns, (fixed, varying, counts)


def _table_rows(groups):
    """The rows of ``groups``, each a list of cells in column order."""
    fixed, varying, counts = groups
    rows = []
    for g, n in enumerate(counts):
        for i in range(len(rows), len(rows) + n):
            rows.append([column[g] for column in fixed] + [column[i] for column in varying])
    return rows


@given(cell_tables())
@settings(max_examples=400, deadline=None)
def test_csv_table_is_that_of_csv_writer(table):
    columns, groups = table
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(_table_rows(groups))
    got = io.StringIO()
    cli._emit(columns, groups, "csv", got)
    assert got.getvalue() == want.getvalue()


@given(cell_tables())
@settings(max_examples=400, deadline=None)
def test_json_table_is_that_of_json_dump(table):
    columns, groups = table
    want = io.StringIO()
    json.dump([dict(zip(columns, row)) for row in _table_rows(groups)], want, indent=2)
    want.write("\n")
    got = io.StringIO()
    cli._emit(columns, groups, "json", got)
    assert got.getvalue() == want.getvalue()


# non-integer counts, with ties and zeros drawn often
count_values = st.one_of(
    st.floats(min_value=0.0, max_value=1e12, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, 0.1, 1 / 3, 2.5, 1e-300]),
)


def _descending(counts):
    return sorted(map(float, counts), reverse=True)


# integer counts, whose totals are one prefix sum within funcspace._exact_in_halves:
# small ones, long flat runs of 10**9, records past its bound 2**52 (the last
# two round as a prefix sum) and records of -0.0 (whose prefix sum is -0.0)
integer_count_records = st.one_of(
    st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=40),
    st.integers(min_value=1, max_value=200).map(lambda n: [10**9] * n),
    st.sampled_from([[-0.0], [-0.0, -0.0], [3, -0.0]]),
    st.sampled_from([[2**51, 2**51], [2**52], [2**52, 1], [2766970116572595, 2714609530289398]]),
).map(_descending)
count_records = st.one_of(
    st.lists(count_values, min_size=1, max_size=40).map(_descending), integer_count_records
)


def _comparable(rng):
    if isinstance(rng, BundleError):
        return type(rng), str(rng)
    return rng.theta_min is not None and rng.theta_min.hex(), rng.theta_max.hex(), rng.certified


@given(
    st.one_of(
        st.lists(count_records, min_size=1, max_size=12),
        st.lists(integer_count_records, max_size=12),  # corpora of integer counts only
    )
)
@settings(max_examples=100, deadline=None)
def test_certified_ranges_are_bitwise_those_of_admissible_range(records):
    records = records + [[0.0] * 3]  # the zero function admits no theta
    lengths = [len(r) for r in records]
    corpus = Corpus(
        ids=[f"r{i}" for i in range(len(records))],
        counts=np.array([c for r in records for c in r]),
        offsets=np.concatenate([[0], np.cumsum(lengths)]),
    )
    functions = [from_citation_counts(r) for r in records]
    totals = citation_integrals(corpus.counts, corpus.offsets).tolist()
    assert [t.hex() for t in totals] == [float(f.cumulative[-1]).hex() for f in functions]
    for operator in ("identity", "averaging"):
        for p in (0.5, 1.0, 1.5, 2.0):
            # 100 lies past every record's support, 3.0 past that of the short ones
            for shift in (0.0, "origin", 3.0, 100.0):
                idx = IndexDef(name="x", operator=operator, p=p, shift=shift)
                kind, fam = idx.resolve_at(0.0)
                assert is_certified(kind, fam)
                theta_min, theta_max, errors = _certified_columns(corpus, kind, fam)
                got = [
                    errors[i] if i in errors else AdmissibleRange(low or None, high, True)
                    for i, (low, high) in enumerate(zip(theta_min, theta_max))
                ]
                want = [_range_or_error(f, *idx.resolve(f)) for f in functions]
                assert list(map(_comparable, got)) == list(map(_comparable, want))


class TestDeterminism:
    def test_byte_identical_runs(self, tmp_path):
        src = tmp_path / "s.csv"
        src.write_text(CSV_FIXTURE)
        cmd = [
            sys.executable,
            "-m",
            "hirschbundles",
            "bundle",
            str(src),
            "--theta-grid",
            "0.5:3:7",
            "--seed",
            "42",
        ]
        a = subprocess.run(cmd, capture_output=True)
        b = subprocess.run(cmd, capture_output=True)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout


# What the parser prints for help and for bad arguments, in 80 columns, as
# captured from the parser that added every shared option to each command
# (Python 3.11's argparse): (argv, exit code, stdout, stderr)
USAGE_BUNDLE = """\
usage: hirschbundles bundle [-h] [--config CONFIG] [--seed SEED]
                            [--theta-grid THETA_GRID] [--format {csv,json}]
                            input
"""
USAGE_TOP = "usage: hirschbundles [-h] {index,bundle,admissible,verify} ...\n"
SHARED_HELP = """\
options:
  -h, --help            show this help message and exit
  --config CONFIG       JSON config file
  --seed SEED           master seed
  --theta-grid THETA_GRID
                        min:max:count[:log]
  --format {csv,json}
"""
INPUT_HELP = """\
positional arguments:
  input                 CSV (id,counts with ';'-separated counts) or JSON file
"""
PARSER_TEXT = [
    (
        ["--help"],
        0,
        USAGE_TOP
        + """
Generalized Hirsch-type impact bundles over citation records

positional arguments:
  {index,bundle,admissible,verify}
    index               one value per (source, index, theta)
    bundle              sampled bundle table over the theta grid
    admissible          admissible theta range per source and index
    verify              run the randomized property suite

options:
  -h, --help            show this help message and exit
""",
        "",
    ),
    (["bundle", "--help"], 0, USAGE_BUNDLE + "\n" + INPUT_HELP + "\n" + SHARED_HELP, ""),
    (
        ["verify", "--help"],
        0,
        """\
usage: hirschbundles verify [-h] [--config CONFIG] [--seed SEED]
                            [--theta-grid THETA_GRID] [--format {csv,json}]
                            [--trials TRIALS] [--report REPORT]
                            [--inject-reversal]

"""
        + SHARED_HELP
        + """\
  --trials TRIALS       trials per property
  --report REPORT       machine-readable report path
  --inject-reversal     include the order-reversing configuration in the
                        impact audit (self-test; fails)
""",
        "",
    ),
    (
        ["admissible", "--help"],
        0,
        """\
usage: hirschbundles admissible [-h] [--config CONFIG] [--seed SEED]
                                [--theta-grid THETA_GRID]
                                [--format {csv,json}]
                                input

"""
        + INPUT_HELP
        + "\n"
        + SHARED_HELP,
        "",
    ),
    (
        ["bundle"],
        2,
        "",
        USAGE_BUNDLE + "hirschbundles bundle: error: the following arguments are required: input\n",
    ),
    (
        ["bundle", "x.csv", "--format", "xml"],
        2,
        "",
        USAGE_BUNDLE + "hirschbundles bundle: error: argument --format: invalid choice: 'xml' "
        "(choose from 'csv', 'json')\n",
    ),
    (
        ["frobnicate"],
        2,
        "",
        USAGE_TOP + "hirschbundles: error: argument command: invalid choice: 'frobnicate' "
        "(choose from 'index', 'bundle', 'admissible', 'verify')\n",
    ),
]


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="the text as Python 3.11's argparse formats it"
)
@pytest.mark.parametrize("argv, code, out, err", PARSER_TEXT, ids=lambda v: str(v)[:40])
def test_parser_text_is_pinned(monkeypatch, capsys, argv, code, out, err):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == code
    assert capsys.readouterr() == (out, err)


def test_option_prefixes_and_defaults():
    parser = cli.build_parser()
    args = parser.parse_args(["index", "x.csv", "--form", "json"])
    assert vars(args) == {
        "command": "index",
        "input": "x.csv",
        "config": None,
        "seed": None,
        "theta_grid": None,
        "format": "json",
    }
    args = parser.parse_args(["verify", "--seed", "3"])
    assert (args.seed, args.trials, args.report, args.inject_reversal, args.format) == (
        3,
        None,
        "verification_report.json",
        False,
        "csv",
    )
