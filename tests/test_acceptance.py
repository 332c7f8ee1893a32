"""Acceptance suite: closed-form oracles, dense-grid cross-checks, and the
property batteries at their contracted tolerances and trial counts.

Each test prints one `criterion NN PASS/FAIL` line (visible under
``pytest -s`` or on failure).
"""

import json
import math
import subprocess
import sys
import time

import numpy as np

from hirschbundles.errors import NoRootError, NonUniqueError
from hirschbundles.funcspace import (
    PerturbMode,
    RankFrequencyFunction,
    from_citation_counts,
    perturb,
    random_function,
)
from hirschbundles.operators import Monotonicity, OperatorKind, apply
from hirschbundles.reporting import Verdict
from hirschbundles.solver import (
    g_index,
    h_index,
    kosmulski_index,
    solve_bundle_point,
    solve_transformed,
)
from hirschbundles.thresholds import (
    DecreasingLinearThreshold,
    PowerThreshold,
    admissible_range,
)
from hirschbundles.verify import (
    ReversalFamily,
    check_decreasing_difference,
    check_impact_axioms,
    check_operator_contract,
    check_threshold_gap_bound,
    check_transform_gap_bound,
    reversal_impact_report,
    steep_power_window,
    zero_like,
)

from oracles import oracle_grid_root

IDENTITY = OperatorKind.IDENTITY
AVERAGING = OperatorKind.AVERAGING
INTEGRAL = OperatorKind.INTEGRAL
H_FAMILY = PowerThreshold(1.0, 0.0)

LINE = RankFrequencyFunction([(0.0, 10.0), (10.0, 0.0)])
COUNTS = [10.0, 8.0, 5.0, 4.0, 3.0, 2.0, 1.0]


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number:02d} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _positive_quantiles(f, op, fractions):
    """Abscissas inside the region where the transform stays positive."""
    tf = apply(op, f)
    a, s = f.support_start, f.support_end
    xs = np.linspace(a, s, 512)
    vals = tf.eval_many(xs)
    pos = np.nonzero(vals > 1e-12)[0]
    if len(pos) < 2:
        return tf, []
    hi = float(xs[pos[-1]])
    lo = a + 0.02 * (hi - a)
    return tf, [lo + q * (hi - lo) for q in fractions]


def test_criterion_01_closed_form_indices():
    h_index(LINE, 1.0)  # warm-up outside the timed region
    # best of five: a sub-millisecond region is easily hit by one preemption
    elapsed = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        h1 = h_index(LINE, 1.0)
        h2 = h_index(LINE, 2.0)
        g1 = g_index(LINE, 1.0)
        k2 = kosmulski_index(LINE, 1.0, 2.0)
        elapsed = min(elapsed, time.perf_counter() - t0)
    expected_k2 = (-1.0 + math.sqrt(41.0)) / 2.0
    ok = (
        abs(h1 - 5.0) <= 1e-9
        and abs(h2 - 10.0 / 3.0) <= 1e-9
        and abs(g1 - 20.0 / 3.0) <= 1e-9
        and abs(k2 - expected_k2) <= 1e-9
        and elapsed < 0.0010
    )
    _report(
        1,
        ok,
        f"h1={h1:.12f} h2={h2:.12f} g1={g1:.12f} kosmulski2={k2:.12f} in {elapsed * 1e3:.1f} ms",
    )


def test_criterion_02_discrete_fixture():
    f = from_citation_counts(COUNTS)
    t0 = time.perf_counter()
    h1 = h_index(f, 1.0)
    g1 = g_index(f, 1.0)
    h_oracle, h_spacing = oracle_grid_root(f, "identity", 1.0, "power", 1_000_000, p=1.0, shift=0.0)
    g_oracle, g_spacing = oracle_grid_root(f, "averaging", 1.0, "power", 1_000_000, p=1.0, shift=0.0)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(h1 - 4.0) <= 1e-9
        and abs(g1 - 6.0) <= 1e-9
        and abs(h1 - h_oracle) <= h_spacing + 1e-9
        and abs(g1 - g_oracle) <= g_spacing + 1e-9
        and elapsed < 0.5
    )
    _report(2, ok, f"h={h1:.9f} g={g1:.9f} grid-oracle agrees, {elapsed:.2f} s")


def test_criterion_03_solver_vs_grid_oracle():
    t0 = time.perf_counter()
    setups = [
        ("identity", IDENTITY, PowerThreshold(1.0, 0.0)),  # h
        ("averaging", AVERAGING, PowerThreshold(1.0, 0.0)),  # g
        ("identity", IDENTITY, PowerThreshold(2.0, 0.0)),  # kosmulski p=2
    ]
    fractions = (0.15, 0.3, 0.5, 0.7, 0.85)
    checked = 0
    worst = 0.0
    for seed in range(200):
        f = random_function(seed)
        if f.is_zero():
            f = random_function(seed + 10_000)
        for kind_name, op, fam in setups:
            tf, quantiles = _positive_quantiles(f, op, fractions)
            for x_q in quantiles:
                theta = fam.theta_inverse(x_q, tf.eval(x_q))
                m, _ = solve_transformed(tf, fam, theta)  # raises on any exception
                root, spacing = oracle_grid_root(
                    f, kind_name, theta, "power", 100_000, p=fam.p, shift=fam.shift
                )
                err = abs(m - root)
                worst = max(worst, err - spacing)
                assert err <= spacing + 1e-10
                checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked >= 200 * 3 * 5 and elapsed < 25.0
    _report(3, ok, f"{checked} solves vs 1e5-point grid, worst slack {worst:.2e}, {elapsed:.1f} s")


def test_criterion_04_theta_monotonicity():
    t0 = time.perf_counter()
    violations = 0
    pairs = 0
    for seed in range(500):
        f = random_function(seed)
        if f.is_zero():
            f = random_function(seed + 20_000)
        for op in (IDENTITY, AVERAGING):
            for p in (0.5, 1.0, 2.0):
                fam = PowerThreshold(p, 0.0)
                tf, quantiles = _positive_quantiles(f, op, (0.55,))
                if not quantiles:
                    continue
                theta = fam.theta_inverse(quantiles[0], tf.eval(quantiles[0]))
                try:
                    m1, _ = solve_transformed(tf, fam, theta)
                    m2, _ = solve_transformed(tf, fam, 1.6 * theta)
                except (NoRootError, NonUniqueError):
                    continue
                pairs += 1
                if not m1 - m2 > 1e-12:
                    violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and pairs >= 2500
    _report(4, ok, f"{pairs} theta pairs, {violations} violations, {elapsed:.1f} s")


def _gap13_instance(seed: int, branch: int):
    f = random_function(seed)
    if f.is_zero():
        f = random_function(seed + 30_000)
    rng = np.random.default_rng(seed)
    schedule_n = range(1, 51)
    if branch in (0, 1):
        op = OperatorKind.IDENTITY if branch == 0 else OperatorKind.AVERAGING
        fam = PowerThreshold(p=float(rng.choice([1.0, 2.0])), shift=0.0)
        mode = PerturbMode.MULTIPLICATIVE if rng.random() < 0.5 else PerturbMode.ADDITIVE
        schedule = [perturb(f, mode, 1.0 / n) for n in schedule_n]
        tf = apply(op, f)
        s = f.support_end
        denom = s ** fam.p
        floor_theta = max(apply(op, fn).eval(s) / denom for fn in schedule)
        floor_theta = max(floor_theta, tf.eval(s) / denom)
        tf2, quantiles = _positive_quantiles(f, op, (0.5,))
        if not quantiles:
            return None
        theta = max(1.05 * floor_theta, fam.theta_inverse(quantiles[0], tf2.eval(quantiles[0])))
        return f, schedule, op, fam, theta
    op = INTEGRAL
    fam = DecreasingLinearThreshold(ceiling=2.0 * f.support_end)
    schedule = [perturb(f, PerturbMode.MULTIPLICATIVE, 1.0 / n) for n in schedule_n]
    total = f.integral(f.support_start, f.support_end)
    if total <= 0:
        return None
    theta = 0.45 * total / (fam.ceiling - f.support_end)
    return f, schedule, op, fam, theta


def test_criterion_05_threshold_gap_bound():
    t0 = time.perf_counter()
    satisfied_instances = 0
    failures = 0
    attempts = 0
    seed = 0
    while satisfied_instances < 500 and attempts < 650:
        inst = _gap13_instance(seed, attempts % 3)
        seed += 1
        attempts += 1
        if inst is None:
            continue
        f, schedule, op, fam, theta = inst
        r = check_threshold_gap_bound(f, schedule, op, fam, theta, slack=1e-9)
        if r.satisfied > 0:
            satisfied_instances += 1
        failures += len(r.failures)
    elapsed = time.perf_counter() - t0
    ok = satisfied_instances >= 500 and failures == 0
    _report(
        5,
        ok,
        f"{satisfied_instances} hypothesis-satisfying instances, {failures} violations, {elapsed:.1f} s",
    )


def _gap14_instance(seed: int, branch: int):
    rng = np.random.default_rng(seed)
    schedule_n = range(1, 51)
    if branch == 0:
        f = random_function(seed)
        if f.is_zero():
            f = random_function(seed + 40_000)
        op = INTEGRAL
        fam = PowerThreshold(2.0, 0.0)
        schedule = [perturb(f, PerturbMode.MULTIPLICATIVE, 1.0 / n) for n in schedule_n]
        total = f.integral(f.support_start, f.support_end)
        if total <= 0:
            return None
        theta = 2.4 * total / f.support_end**2
        window = steep_power_window(f, 2.0, theta, envelope_scale=2.0)
        if window is None:
            return None
        return f, schedule, op, fam, theta, window
    fam_r = ReversalFamily(
        span=10.0,
        intercept=float(rng.uniform(8.0, 12.0)),
        slope=float(rng.uniform(0.03, 0.08)),
    )
    f = fam_r.function()
    kappa = 0.4
    schedule = [perturb(f, PerturbMode.MULTIPLICATIVE, kappa / n) for n in schedule_n]
    lo, hi = fam_r.theta_window(scale_max=kappa)
    if not lo < hi:
        return None
    return f, schedule, fam_r.operator(), fam_r.threshold(), lo + 0.5 * (hi - lo), None


def test_criterion_06_transform_gap_bound():
    t0 = time.perf_counter()
    satisfied_instances = 0
    failures = 0
    attempts = 0
    seed = 0
    while satisfied_instances < 500 and attempts < 700:
        inst = _gap14_instance(seed, attempts % 2)
        seed += 1
        attempts += 1
        if inst is None:
            continue
        f, schedule, op, fam, theta, window = inst
        r = check_transform_gap_bound(f, schedule, op, fam, theta, slack=1e-9, x_window=window)
        if r.satisfied > 0:
            satisfied_instances += 1
        failures += len(r.failures)
    # a hypothesis-violating draw must come back vacuous, never pass
    schedule = [perturb(LINE, PerturbMode.MULTIPLICATIVE, 1.0 / n) for n in range(1, 11)]
    vac = check_transform_gap_bound(LINE, schedule, IDENTITY, H_FAMILY, 1.0)
    elapsed = time.perf_counter() - t0
    ok = satisfied_instances >= 500 and failures == 0 and vac.verdict is Verdict.VACUOUS
    _report(
        6,
        ok,
        f"{satisfied_instances} hypothesis-satisfying instances, {failures} violations, "
        f"violating draw -> {vac.verdict.value}, {elapsed:.1f} s",
    )


def _sequence_member(f, n: int):
    eps = ((-1.0) ** n) / n
    if eps <= -1.0:
        return zero_like(f)
    return perturb(f, PerturbMode.MULTIPLICATIVE, eps)


def test_criterion_07_convergence():
    t0 = time.perf_counter()
    n_max = 1000
    settings = [
        (IDENTITY, [0.5, 1.0, 2.0, 3.5, 5.0]),
        (AVERAGING, [0.8, 1.25, 2.0, 3.5, 5.0]),  # grid subset of [0.5, 5]
    ]
    ok = True
    detail = []
    for op, thetas in settings:
        tf = apply(op, LINE)
        base = {t: solve_transformed(tf, H_FAMILY, t)[0] for t in thetas}
        sups = []
        for n in range(1, n_max + 1):
            tfn = apply(op, _sequence_member(LINE, n))
            gap = max(abs(solve_transformed(tfn, H_FAMILY, t)[0] - base[t]) for t in thetas)
            sups.append(gap)
        monotone = all(b <= a + 1e-9 for a, b in zip(sups, sups[1:]))
        final_ok = sups[-1] < 1e-2
        ok = ok and monotone and final_ok
        detail.append(f"{op.value}: final sup {sups[-1]:.2e} monotone={monotone}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _report(7, ok, "; ".join(detail) + f", {elapsed:.1f} s")


def test_criterion_08_impact_axioms():
    t0 = time.perf_counter()
    configs = [
        (IDENTITY, PowerThreshold(0.5, 0.0)),
        (IDENTITY, PowerThreshold(1.0, 0.0)),
        (IDENTITY, PowerThreshold(2.0, 0.0)),
        (AVERAGING, PowerThreshold(1.0, 0.0)),
        (AVERAGING, PowerThreshold(2.0, 0.0)),
    ]
    failures = 0
    for i, (op, fam) in enumerate(configs):
        r = check_impact_axioms(op, fam, master_seed=1000 + i, trials=200)
        failures += len(r.failures)
    rev = reversal_impact_report(master_seed=2024, trials=20)
    kinds = {c.inputs.split(" ")[0] for c in rev.failures}
    rev_has_counterexample = bool(kinds & {"order-preservation", "strict-prefix-order"})
    fam_r = ReversalFamily()
    rev_hypothesis = check_decreasing_difference(
        fam_r.function(), fam_r.operator(), fam_r.threshold(), [fam_r.theta()]
    )
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and rev_has_counterexample and not rev_hypothesis
    _report(
        8,
        ok,
        f"5 configs x 200 trials, {failures} failures; reversal counterexample found="
        f"{rev_has_counterexample}, decreasing-difference={rev_hypothesis}, {elapsed:.1f} s",
    )


def test_criterion_09_operator_properties():
    t0 = time.perf_counter()
    mono_ok = all(
        apply(AVERAGING, random_function(seed)).monotonicity is Monotonicity.DECREASING
        for seed in range(500)
    )
    identity_ok = True
    rng = np.random.default_rng(99)
    for seed in range(100):
        f = random_function(seed)
        mu = apply(OperatorKind.AVERAGING, f)
        integ = apply(OperatorKind.INTEGRAL, f)
        a = f.support_start
        xs = rng.uniform(a, f.support_end, 20)
        lhs = integ.eval_many(xs)
        rhs = (xs - a) * mu.eval_many(xs)
        if not np.allclose(lhs, rhs, atol=1e-12, rtol=1e-12):
            identity_ok = False
    samples = [random_function(seed) for seed in range(300, 312)]
    contract_ok = all(
        check_operator_contract(kind, samples).verdict is Verdict.PASS
        for kind in OperatorKind
    )
    elapsed = time.perf_counter() - t0
    ok = mono_ok and identity_ok and contract_ok
    _report(
        9,
        ok,
        f"mu-decreasing={mono_ok} span-average-identity={identity_ok} "
        f"contract={contract_ok}, {elapsed:.1f} s",
    )


def test_criterion_10_admissible_range_boundary():
    ok = True
    details = []
    for c, s in ((4.0, 8.0), (10.0, 3.0), (7.0, 12.0)):
        f = RankFrequencyFunction([(0.0, c), (s, c)])
        rng = admissible_range(f, IDENTITY, H_FAMILY)
        exact = rng.theta_min == c / s and rng.certified
        below_rejected = False
        try:
            solve_bundle_point(f, IDENTITY, H_FAMILY, c / s - 1e-3)
        except NoRootError:
            below_rejected = True
        m, _ = solve_bundle_point(f, IDENTITY, H_FAMILY, c / s + 1e-3)
        above_ok = 0.0 < m <= s
        ok = ok and exact and below_rejected and above_ok
        details.append(f"c={c:g},S={s:g}: min={rng.theta_min:.6g} exact={exact}")
    _report(10, ok, "; ".join(details))


def test_criterion_11_cli_end_to_end(tmp_path):
    src = tmp_path / "s.csv"
    src.write_text("id,counts\nalice,10;8;5;4;3;2;1\nbob,9;7;2\n")
    bad = tmp_path / "bad.csv"
    bad.write_text("id,counts\nbroken,\n")
    base = [sys.executable, "-m", "hirschbundles"]

    cmd = base + ["bundle", str(src), "--theta-grid", "0.5:3:7", "--seed", "11"]
    a = subprocess.run(cmd, capture_output=True)
    b = subprocess.run(cmd, capture_output=True)
    identical = a.returncode == 0 and a.stdout == b.stdout

    bad_run = subprocess.run(base + ["index", str(bad)], capture_output=True)
    malformed_exit = bad_run.returncode == 2

    rep = tmp_path / "rep.json"
    ok_run = subprocess.run(
        base + ["verify", "--trials", "3", "--seed", "7", "--report", str(rep)],
        capture_output=True,
    )
    fail_run = subprocess.run(
        base
        + [
            "verify",
            "--trials",
            "3",
            "--seed",
            "7",
            "--inject-reversal",
            "--report",
            str(tmp_path / "rep2.json"),
        ],
        capture_output=True,
    )
    verify_codes = ok_run.returncode == 0 and fail_run.returncode == 1
    report_valid = json.loads(rep.read_text())["counts"]["fail"] == 0

    ok = identical and malformed_exit and verify_codes and report_valid
    _report(
        11,
        ok,
        f"byte-identical={identical} malformed-exit2={malformed_exit} "
        f"verify-codes(0/1)={verify_codes}",
    )
