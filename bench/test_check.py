"""Tests of the benchmark's output checker and tracer.

Run with ``python3 -m pytest bench -q`` from the repository root.  The
checker is fed real CLI output on a small seeded corpus, then copies of
that output with one row broken.  The tracer and the speed sampler are
run in-process on the same corpus.
"""

import csv
import io
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import check
import inputs
import speed

ROOT = Path(__file__).resolve().parent.parent
GRID = "0.5:2:7"


def run_cli(*argv: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-m", "hirschbundles", *argv],
        capture_output=True, text=True, cwd=ROOT,
        env={"PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0"},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("bench") / "corpus.csv"
    inputs.write_corpus(path, seed=3, records=12)
    return path


@pytest.fixture(scope="module")
def bundle_text(corpus_path):
    return run_cli("bundle", str(corpus_path), "--theta-grid", GRID)


def check_bundle(corpus_path, text):
    return check.check_bundle(check.load_corpus(corpus_path), check.theta_grid(GRID), text, 0)


def edit(text, predicate, change):
    """Apply ``change`` to the first data row matching ``predicate``."""
    rows = list(csv.reader(io.StringIO(text)))
    for row in rows[1:]:
        if predicate(row):
            change(row)
            break
    else:
        raise AssertionError("no row matches")
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def test_bundle_output_accepted(corpus_path, bundle_text):
    v = check_bundle(corpus_path, bundle_text)
    assert v.attempted == 12 * 2 * 7
    assert v.failed == 0, v.problems
    statuses = {row[7] for row in csv.reader(io.StringIO(bundle_text))}
    assert {"ExactSegment", "NoRoot"} <= statuses  # both rules are exercised


def test_m_shifted_by_one_percent_rejected(corpus_path, bundle_text):
    def shift(row):
        row[6] = check.fmt(float(row[6]) * 1.01)

    bad = edit(bundle_text, lambda r: r[7] in check.SOLVED and float(r[6]) > 0, shift)
    v = check_bundle(corpus_path, bad)
    assert v.failed == 1
    assert "fails |D(m)| <= tol" in v.problems[0]


def test_noroot_with_sign_change_rejected(corpus_path, bundle_text):
    def to_noroot(row):
        row[6], row[7] = "", "NoRoot"

    bad = edit(bundle_text, lambda r: r[7] in check.SOLVED, to_noroot)
    v = check_bundle(corpus_path, bad)
    assert v.failed == 1
    assert "NoRoot but D changes sign" in v.problems[0]


def test_nonunique_rejected(corpus_path, bundle_text):
    def to_nonunique(row):
        row[6], row[7] = "", "NonUnique"

    bad = edit(bundle_text, lambda r: r[7] == "NoRoot", to_nonunique)
    v = check_bundle(corpus_path, bad)
    assert v.failed == 1
    assert "NonUnique but D is strictly decreasing" in v.problems[0]


def test_missing_row_and_crash_rejected(corpus_path, bundle_text):
    lines = bundle_text.splitlines(keepends=True)
    v = check_bundle(corpus_path, "".join(lines[:5] + lines[6:]))
    assert v.failed >= 1
    crashed = check.check_bundle(check.load_corpus(corpus_path), check.theta_grid(GRID), "", None)
    assert crashed.failed == crashed.attempted == 12 * 2 * 7


def test_admissible_endpoints(corpus_path):
    text = run_cli("admissible", str(corpus_path))
    corpus = check.load_corpus(corpus_path)
    assert check.check_admissible(corpus, text, 0).failed == 0

    def nudge(row):
        row[2] = check.fmt(float(row[2]) * 1.01)

    def uncertify(row):
        row[4] = "false"

    for change in (nudge, uncertify):
        bad = edit(text, lambda r: r[1] == "g" and r[4] == "true", change)
        assert check.check_admissible(corpus, bad, 0).failed == 1


def verify_text(verdicts=None, trials=None, drop=()):
    """A verify stdout with every property of the suite, as the CLI prints it."""
    verdicts, trials = verdicts or {}, trials or {}
    lines = []
    for name, n in check.VERIFY_REPORTS.items():
        if name in drop:
            continue
        verdict = verdicts.get(name, "PASS")
        n = trials.get(name, n)
        satisfied = 0 if verdict == "VACUOUS" else n
        lines.append(f"{verdict:8s} {name} (trials={n}, satisfied={satisfied}, failures=0)")
    return "\n".join(lines) + "\nsummary: ...\n"


def test_verify_reports_checked():
    items = len(check.VERIFY_REPORTS) * check.VERIFY_TRIALS
    assert items == 33 * 10
    ok = check.check_verify(verify_text(), 0)
    assert (ok.attempted, ok.failed) == (items, 0), ok.problems
    assert check.check_verify(verify_text(), 1).failed == items
    bad_cases = [
        verify_text(verdicts={"impact-axioms/identity-power1": "FAIL"}),
        verify_text(verdicts={"convergence-pointwise/g": "VACUOUS"}),
        verify_text(drop={"threshold-gap-bound"}),
        verify_text(trials={"root-side/identity-power1": 10}),
    ]
    for text in bad_cases:
        v = check.check_verify(text, 0)
        assert v.failed == check.VERIFY_TRIALS, (text, v.problems)


def test_verify_summary():
    text = (
        "PASS     root-side/identity-power1 (trials=90, satisfied=90, failures=0)\n"
        "summary: 1 pass, 1 fail, 0 vacuous\n"
    )
    assert check.verify_summary(text) == {"pass": 1, "fail": 1, "vacuous": 0}


def test_verify_cli_output_accepted(tmp_path):
    text = run_cli("verify", "--trials", str(check.VERIFY_TRIALS), "--seed", "1",
                   "--report", str(tmp_path / "report.json"))
    v = check.check_verify(text, 0)
    assert v.failed == 0, v.problems


def test_tracer_counts_solves(corpus_path, capsys):
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from hirschbundles import cli, solver
        from tracing import Tracer

        original = solver.solve_transformed
        tracer = Tracer()
        tracer.install()
        try:
            assert cli.main(["bundle", str(corpus_path), "--theta-grid", GRID]) == 0
        finally:
            tracer.uninstall()
        assert solver.solve_transformed is original
        assert cli.sample_bundle is solver.sample_bundle
    finally:
        sys.path.remove(str(ROOT / "src"))
    rows = len(capsys.readouterr().out.splitlines()) - 1
    m = tracer.metrics()["metrics"]
    assert m["solver.solve.calls"] == rows == 12 * 2 * 7
    assert sum(m[f"solver.status.{s}"] for s in ("ExactSegment", "Bisection", "NoRoot",
                                                 "NonUnique")) == rows
    assert m["solver.sample_bundle.calls"] == 12 * 2
    assert m["cli.records"] == m["funcspace.build.calls"] == 12
    assert 0 < m["solver.solve.self_s"] < m["solver.sample_bundle.s"] <= m["cli.command.s"]


def test_speed_sampler_leaves_output_alone(corpus_path, bundle_text, capsys):
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from hirschbundles import cli

        with speed.SpeedSampler() as sampler:
            assert cli.main(["bundle", str(corpus_path), "--theta-grid", GRID]) == 0
    finally:
        sys.path.remove(str(ROOT / "src"))
    assert capsys.readouterr().out == bundle_text
    assert len(sampler.samples) >= 2 and min(sampler.samples) > 0
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert speed.at_reference_speed(3.0, 2 * speed.REFERENCE_S) == pytest.approx(1.5)
