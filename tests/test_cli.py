import csv
import hashlib
import io
import json
import math
import subprocess
import sys
import time
import warnings

import pytest

from hirschbundles.cli import MAX_THETA_COUNT, ThetaGrid, main, parse_theta_grid_flag, CliError
from hirschbundles.funcspace import RankFrequencyFunction, from_citation_counts
from hirschbundles.operators import OperatorKind
from hirschbundles.solver import sample_bundle
from hirschbundles.thresholds import PowerThreshold

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
        ],
    )
    def test_bad_count_token_messages(self, tmp_path, capsys, token, problem):
        p = tmp_path / "bad.csv"
        p.write_text(f"id,counts\nok,3;2;1\nbad,4;{token}\n")
        assert run_cli(["index", str(p)], capsys) == (2, "", f"error: {p}: line 3: {problem}\n")
        q = tmp_path / "bad.json"
        q.write_text(json.dumps([{"id": "ok", "counts": [3, 2, 1]}, {"id": "x", "counts": [4, token]}]))
        assert run_cli(["index", str(q)], capsys) == (2, "", f"error: {q}: record 1: {problem}\n")
        if token not in ("1 2", "nan"):  # also valid as a JSON number
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
        sample = sample_bundle(f, OperatorKind.IDENTITY, PowerThreshold(1.0, 0.0), [0.5, 1.25, 2.0])
        api = {
            format(e.theta, ".12g"): (format(e.m, ".12g") if math.isfinite(e.m) else "")
            for e in sample.entries
        }
        for row in rows:
            if row["id"] == "alice" and row["index"] == "h":
                assert row["m"] == api[row["theta"]]

    def test_theta_grid_flag_log_spacing(self):
        grid = parse_theta_grid_flag("0.5:2:3:log")
        assert grid.values() == pytest.approx([0.5, 1.0, 2.0])
        with pytest.raises(CliError):
            parse_theta_grid_flag("1:2")
        with pytest.raises(CliError):
            parse_theta_grid_flag("0:2:3")

    def test_tol_flag_accepted_and_validated(self, csv_file, capsys):
        code, out, _ = run_cli(["index", csv_file, "--tol", "1e-8"], capsys)
        assert code == 0
        code, _, err = run_cli(["index", csv_file, "--tol", "-1"], capsys)
        assert code == 2

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
    def test_legacy_scan_points_key_is_ignored_with_a_note(self, csv_file, tmp_path, capsys):
        cfg = {"theta_grid": {"min": 0.5, "max": 2.0, "count": 4}, "solver": {"abs_tol_x": 1e-10}}
        plain = tmp_path / "plain.json"
        plain.write_text(json.dumps(cfg))
        cfg["solver"]["scan_points"] = 1024
        legacy = tmp_path / "legacy.json"
        legacy.write_text(json.dumps(cfg))
        code_p, out_p, err_p = run_cli(["bundle", csv_file, "--config", str(plain)], capsys)
        code_l, out_l, err_l = run_cli(["bundle", csv_file, "--config", str(legacy)], capsys)
        assert code_p == code_l == 0
        assert out_l == out_p
        assert "scan_points" not in err_p
        assert err_l.count("scan_points") == 1


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

    def test_uncertified_range_prints_caveat(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(
            json.dumps(
                {"indices": [{"name": "iq", "operator": "integral", "p": 1.0, "shift": 0.0}]}
            )
        )
        src = tmp_path / "s.csv"
        src.write_text("id,counts\nx,4;4;4\n")
        code, out, err = run_cli(["admissible", str(src), "--config", str(p)], capsys)
        assert code == 0
        assert "certified=false" in err


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


class TestMalformedNumbers:
    """Non-numeric or non-finite flags and config values exit 2, naming the problem."""

    @staticmethod
    def k05_config(tmp_path, solver="{}"):
        # written by hand: JSON has no inf literal, but 1e400 parses to inf
        p = tmp_path / "k05.json"
        p.write_text(
            '{"indices": [{"name": "k05", "operator": "identity", "family": "power", "p": 0.5}],'
            f' "solver": {solver}}}'
        )
        return str(p)

    def test_negative_trials_flag(self, tmp_path, capsys):
        rep = tmp_path / "rep.json"
        code, _, err = run_cli(["verify", "--trials", "-3", "--report", str(rep)], capsys)
        assert code == 2
        assert "trials" in err

    def test_negative_trials_in_config(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"trials": -2}))
        rep = tmp_path / "rep.json"
        code, _, err = run_cli(["verify", "--config", str(p), "--report", str(rep)], capsys)
        assert code == 2
        assert "trials" in err

    @pytest.mark.parametrize(
        "text",
        ['{"trials": 1e400}', '{"seed": 1e400}', '{"theta_grid": []}', '{"solver": []}'],
        ids=["trials-inf", "seed-inf", "grid-not-object", "solver-not-object"],
    )
    def test_malformed_config_values(self, tmp_path, capsys, text):
        p = tmp_path / "cfg.json"
        p.write_text(text)
        rep = tmp_path / "rep.json"
        code, _, err = run_cli(["verify", "--config", str(p), "--report", str(rep)], capsys)
        assert code == 2
        assert "bad config" in err

    def test_negative_seed_flag(self, tmp_path, capsys):
        rep = tmp_path / "rep.json"
        code, _, err = run_cli(["verify", "--seed", "-1", "--report", str(rep)], capsys)
        assert code == 2
        assert "seed" in err

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol_flag(self, csv_file, tmp_path, capsys, tol):
        cfg = self.k05_config(tmp_path)
        code, out, err = run_cli(["index", csv_file, "--config", cfg, "--tol", tol], capsys)
        assert code == 2
        assert out == ""
        assert "abs_tol_x" in err

    def test_non_finite_tol_in_config(self, csv_file, tmp_path, capsys):
        cfg = self.k05_config(tmp_path, solver='{"abs_tol_x": 1e400}')
        code, out, err = run_cli(["index", csv_file, "--config", cfg], capsys)
        assert code == 2
        assert out == ""
        assert "abs_tol_x" in err

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


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", sorted(GOLDEN_STDOUT))
def test_golden_corpus_output_is_byte_identical(tmp_path, capsys, fmt, command):
    records = golden_records()
    p = tmp_path / f"golden.{fmt}"
    if fmt == "csv":
        p.write_text("id,counts\n" + "".join(f"{k},{';'.join(map(str, c))}\n" for k, c in records))
    else:
        p.write_text(json.dumps([{"id": k, "counts": c} for k, c in records]))
    args = [command, str(p)] + (["--theta-grid", "0.5:2:7"] if command == "bundle" else [])
    code, out, err = run_cli(args, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[command]
    assert err.count("counts not sorted") == 7


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
