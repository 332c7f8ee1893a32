import hashlib
import itertools
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from hirschbundles import solver, verify
from hirschbundles.errors import DomainMismatchError, NoRootError
from hirschbundles.funcspace import (
    PerturbMode,
    RankFrequencyFunction,
    eq_on_prefix,
    lt_on_prefix,
    perturb,
    random_function,
)
from hirschbundles.operators import Monotonicity, OperatorKind, TransformedFunction, apply
from hirschbundles.reporting import Verdict, VerificationReport
from hirschbundles.solver import solve_bundle_point
from hirschbundles.thresholds import DecreasingLinearThreshold, PowerThreshold, _phi_bounds
from hirschbundles.verify import (
    ReversalFamily,
    SuiteConfig,
    additive_sequence,
    check_convergence_pointwise,
    check_convergence_uniform,
    check_decreasing_difference,
    check_dominance_order,
    check_impact_axioms,
    check_operator_contract,
    check_root_side,
    check_theta_monotonicity,
    check_threshold_gap_bound,
    check_transform_gap_bound,
    classify_difference,
    flatten_tail,
    multiplicative_sequence,
    prefix_bump,
    reversal_impact_report,
    run_property_suite,
    steep_power_window,
    _suite_table,
)

IDENTITY = OperatorKind.IDENTITY
AVERAGING = OperatorKind.AVERAGING
INTEGRAL = OperatorKind.INTEGRAL
H_FAMILY = PowerThreshold(1.0, 0.0)


def _suite_row(name, master_seed, trials):
    """The suite's report ``name`` alone, as run_property_suite builds it."""
    run = dict(_suite_table(SuiteConfig(master_seed=master_seed, trials=trials)))[name]
    return run(name=name)


class TestProfile:
    def test_classic_setting_decreasing_difference(self, line):
        tf = apply(IDENTITY, line)
        assert tf.monotonicity is Monotonicity.DECREASING
        assert H_FAMILY.increasing_in_x
        assert classify_difference(tf, H_FAMILY, 1.0) is Monotonicity.DECREASING

    def test_averaging_setting_decreasing_difference(self, line):
        tf = apply(AVERAGING, line)
        assert classify_difference(tf, H_FAMILY, 1.0) is Monotonicity.DECREASING

    def test_reversal_increasing_difference(self):
        fam = ReversalFamily()
        tf = apply(fam.operator(), fam.function())
        assert tf.monotonicity is Monotonicity.DECREASING
        assert not fam.threshold().increasing_in_x
        d_mono = classify_difference(tf, fam.threshold(), fam.theta())
        assert d_mono is Monotonicity.INCREASING

    def test_table_answers_for_a_window_without_sampling(self, line, monkeypatch):
        # D monotone on [a, S] is monotone on every sub-window
        tf = apply(IDENTITY, line)

        def no_sampling(self, x):
            raise AssertionError("classify_difference sampled D")

        monkeypatch.setattr(TransformedFunction, "eval_many", no_sampling)
        for window in ((2.0, 7.0), (0.0, 10.0)):
            got = classify_difference(tf, PowerThreshold(2.0, 0.0), 1.0, x_window=window)
            assert got is Monotonicity.DECREASING

    # D = I(f) - theta x^p turns within 0.002 of an end, between two points
    # of a 1024-point grid: D(0) = 0 < D(0.001) = 0.005 for p = 2, and
    # D(7.998) - D(8) = 1.5e-6 for p = 0.5
    @pytest.mark.parametrize("p, theta", [(2.0, 5000.0), (0.5, 0.01)])
    def test_turn_next_to_an_end_is_non_monotone(self, counts_fixture, p, theta):
        tf = apply(INTEGRAL, counts_fixture)
        got = classify_difference(tf, PowerThreshold(p, 0.0), theta)
        assert got is Monotonicity.NON_MONOTONE

    # A is not evaluated below the shift (was numpy's "invalid value
    # encountered in power"): on (3.5, 8] D falls, rises, then falls, and a
    # shift of 9 leaves no domain
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("shift", [3.5, 9.0])
    def test_domain_starts_at_the_shift(self, counts_fixture, shift):
        tf = apply(INTEGRAL, counts_fixture)
        got = classify_difference(tf, PowerThreshold(0.5, shift), 1.0)
        assert got is Monotonicity.NON_MONOTONE

    # D = I(f) - theta x^p decreases iff theta >= theta* = max f(x) x^(1 - p) / p:
    # 2 f(2) sqrt(2) for p = 0.5, f(1) / 0.8 for p = 0.8, max f for p = 1
    @pytest.mark.parametrize(
        "p, theta_star", [(0.5, 16.0 * np.sqrt(2.0)), (0.8, 12.5), (1.0, 10.0)]
    )
    def test_theta_star_splits_non_monotone_from_decreasing(self, counts_fixture, p, theta_star):
        tf = apply(INTEGRAL, counts_fixture)
        family = PowerThreshold(p, 0.0)
        assert _phi_bounds(tf, family, 0.0, tf.support_end)[1] == pytest.approx(theta_star)
        got = classify_difference(tf, family, 0.999 * theta_star)
        assert got is Monotonicity.NON_MONOTONE
        assert classify_difference(tf, family, 1.001 * theta_star) is Monotonicity.DECREASING

    # transform-gap-bound's member n = 1, 2 f, meets 2 theta x on its
    # steep_power_window at the window start, where phi = 2 f / (2 x) is
    # greatest: D decreases with theta = max phi, which these records round
    # to one ulp below phi's computed maximum
    @pytest.mark.parametrize(
        "seed",
        [
            13482173405627139420,
            13000951264373890303,
            16719274810745099932,
            5051881750444000207,
            6181196579203150380,
            5611203178012657398,
        ],
    )
    def test_tie_on_the_steep_power_window_decreases(self, seed):
        f = random_function(seed)
        s = f.support_end
        theta = 2.4 * f.integral(f.support_start, s) / (s * s)
        window = steep_power_window(f, 2.0, theta, envelope_scale=2.0)
        member = apply(INTEGRAL, perturb(f, PerturbMode.MULTIPLICATIVE, 1.0))
        got = classify_difference(member, PowerThreshold(2.0, 0.0), theta, x_window=window)
        assert got is Monotonicity.DECREASING

    # a window past S indexed past the segment columns (IndexError), and one
    # starting before a read D off the last segment (DECREASING)
    @pytest.mark.parametrize("window", [(1.0, 12.0), (0.0, 9.0), (5.0, 5.0)])
    def test_window_outside_the_support_raises_as_the_solver(self, window):
        f = RankFrequencyFunction([(1.0, 10.0), (5.0, 2.0), (9.0, 0.0)])
        family = PowerThreshold(1.0, 0.0)
        message = rf"x_window \[{window[0]}, {window[1]}\] not inside \[1.0, 9.0\]"
        with pytest.raises(ValueError, match=message):
            solve_bundle_point(f, INTEGRAL, family, 10.5, x_window=window)
        for kind in (INTEGRAL, IDENTITY):  # the identity's answer is certified
            with pytest.raises(ValueError, match=message):
                classify_difference(apply(kind, f), family, 10.5, x_window=window)

    def test_decreasing_difference_predicate(self, line):
        assert check_decreasing_difference(line, IDENTITY, H_FAMILY, [0.5, 1.0, 2.0])
        fam = ReversalFamily()
        assert not check_decreasing_difference(
            fam.function(), fam.operator(), fam.threshold(), [fam.theta()]
        )


class TestRootSide:
    def test_classic_passes_both_directions(self, line):
        r = check_root_side(line, IDENTITY, H_FAMILY, 1.0, [1.0, 2.0, 4.0, 6.0, 9.0])
        assert r.verdict is Verdict.PASS
        assert r.satisfied == r.trials == 5

    def test_sample_at_solution_is_vacuous(self, line):
        # D(m) = 0: no implication fires
        r = check_root_side(line, IDENTITY, H_FAMILY, 1.0, [5.0])
        assert r.verdict is Verdict.VACUOUS

    def test_reversal_branch(self):
        fam = ReversalFamily()
        xs = np.linspace(0.5, 9.5, 9).tolist()
        r = check_root_side(fam.function(), fam.operator(), fam.threshold(), fam.theta(), xs)
        assert r.verdict is Verdict.PASS
        assert r.satisfied > 0

    def test_reversal_conclusion_actually_flips(self):
        fam = ReversalFamily()
        f, a, theta = fam.function(), fam.threshold(), fam.theta()
        m, _ = solve_bundle_point(f, fam.operator(), a, theta)
        x = 0.5
        d = f.eval(x) - a.value(x, theta)
        assert d < 0 and m > x  # increasing difference: negative sign puts m above x


class TestDominanceOrder:
    def test_strict_multiplicative_preserves(self, line):
        k = perturb(line, PerturbMode.MULTIPLICATIVE, 0.3)
        r = check_dominance_order(k, line, IDENTITY, H_FAMILY, 1.0)
        assert r.verdict is Verdict.PASS

    def test_equal_functions_weak_branch(self, line):
        r = check_dominance_order(line, line, IDENTITY, H_FAMILY, 1.0)
        assert r.verdict is Verdict.PASS

    def test_reversal_inverts_order(self):
        fam = ReversalFamily()
        f = fam.function()
        k = perturb(f, PerturbMode.MULTIPLICATIVE, 0.2)
        theta = fam.theta(scale_max=0.2)
        r = check_dominance_order(k, f, fam.operator(), fam.threshold(), theta)
        assert r.verdict is Verdict.PASS  # the reversed conclusion holds
        mk, _ = solve_bundle_point(k, fam.operator(), fam.threshold(), theta)
        mf, _ = solve_bundle_point(f, fam.operator(), fam.threshold(), theta)
        assert mk < mf  # despite k > f

    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
    def test_premise_broken_between_grid_points_is_vacuous(self, theta):
        # k - f = -0.5 at 5.002 alone, yet k >= f on a 512-point grid
        k = RankFrequencyFunction([(0.0, 10.5), (5.0, 5.5), (5.002, 4.5), (10.0, 0.0)])
        f = RankFrequencyFunction([(0.0, 10.0), (5.002, 5.0), (5.004, 4.0), (10.0, 0.0)])
        r = check_dominance_order(k, f, IDENTITY, H_FAMILY, theta)
        assert (r.trials, r.satisfied, r.failures) == (1, 0, ())

    def test_different_supports_rejected(self, line):
        k = RankFrequencyFunction([(0.0, 10.0), (8.0, 0.0)])
        with pytest.raises(DomainMismatchError):
            check_dominance_order(k, line, IDENTITY, H_FAMILY, 1.0)


class TestThetaMonotonicity:
    def test_h_bundle(self, line):
        r = check_theta_monotonicity(line, IDENTITY, H_FAMILY, 1.0, 2.0)
        assert r.verdict is Verdict.PASS
        assert solve_bundle_point(line, IDENTITY, H_FAMILY, 1.0)[0] == pytest.approx(5.0)
        assert solve_bundle_point(line, IDENTITY, H_FAMILY, 2.0)[0] == pytest.approx(10 / 3)

    def test_g_bundle(self, line):
        r = check_theta_monotonicity(line, AVERAGING, H_FAMILY, 1.0, 2.0)
        assert r.verdict is Verdict.PASS
        assert solve_bundle_point(line, AVERAGING, H_FAMILY, 1.0)[0] == pytest.approx(20 / 3)
        assert solve_bundle_point(line, AVERAGING, H_FAMILY, 2.0)[0] == pytest.approx(4.0)

    def test_reversal_same_monotonicity(self):
        fam = ReversalFamily()
        lo, hi = fam.theta_window()
        t1, t2 = lo + 0.3 * (hi - lo), lo + 0.7 * (hi - lo)
        r = check_theta_monotonicity(fam.function(), fam.operator(), fam.threshold(), t1, t2)
        assert r.verdict is Verdict.PASS
        m1, _ = solve_bundle_point(fam.function(), fam.operator(), fam.threshold(), t1)
        m2, _ = solve_bundle_point(fam.function(), fam.operator(), fam.threshold(), t2)
        assert m1 < m2  # solutions move with theta here

    def test_requires_ordered_thetas(self, line):
        with pytest.raises(ValueError):
            check_theta_monotonicity(line, IDENTITY, H_FAMILY, 2.0, 1.0)


class TestThresholdGapBound:
    def test_classic_multiplicative_schedule(self, line):
        schedule = [perturb(line, PerturbMode.MULTIPLICATIVE, 1.0 / n) for n in range(1, 51)]
        r = check_threshold_gap_bound(line, schedule, IDENTITY, H_FAMILY, 1.0)
        assert r.verdict is Verdict.PASS
        assert r.satisfied == 50

    def test_constant_schedule_gives_zero_gaps(self, line):
        schedule = [line] * 10
        r = check_threshold_gap_bound(line, schedule, IDENTITY, H_FAMILY, 1.0)
        assert r.verdict is Verdict.PASS

    def test_averaging_additive_schedule(self, line):
        schedule = [perturb(line, PerturbMode.ADDITIVE, 1.0 / n) for n in range(1, 51)]
        r = check_threshold_gap_bound(line, schedule, AVERAGING, H_FAMILY, 1.0)
        assert r.verdict is Verdict.PASS
        assert r.satisfied == 50

    def test_integral_against_decreasing_threshold(self, line):
        fam = DecreasingLinearThreshold(20.0)
        schedule = [perturb(line, PerturbMode.MULTIPLICATIVE, 1.0 / n) for n in range(1, 51)]
        theta = 0.45 * line.integral(0.0, 10.0) / 10.0
        r = check_threshold_gap_bound(line, schedule, INTEGRAL, fam, theta)
        assert r.verdict is Verdict.PASS
        assert r.satisfied == 50

    def test_hypothesis_violating_config_is_vacuous(self):
        # decreasing transform against a decreasing threshold matches no branch
        fam = ReversalFamily()
        f = fam.function()
        schedule = [perturb(f, PerturbMode.MULTIPLICATIVE, 0.4 / n) for n in range(1, 11)]
        r = check_threshold_gap_bound(
            f, schedule, fam.operator(), fam.threshold(), fam.theta(scale_max=0.4)
        )
        assert r.verdict is Verdict.VACUOUS

    def test_batch_randomized(self):
        r = _suite_row("threshold-gap-bound", master_seed=5, trials=30)
        assert r.verdict is Verdict.PASS
        assert not r.failures


class TestTransformGapBound:
    def test_reversal_family_schedule(self):
        fam = ReversalFamily()
        f = fam.function()
        schedule = [perturb(f, PerturbMode.MULTIPLICATIVE, 0.4 / n) for n in range(1, 51)]
        r = check_transform_gap_bound(
            f, schedule, fam.operator(), fam.threshold(), fam.theta(scale_max=0.4)
        )
        assert r.verdict is Verdict.PASS
        assert r.satisfied == 50

    def test_integral_with_steep_power_window(self, line):
        theta = 2.4 * line.integral(0.0, 10.0) / 100.0
        window = steep_power_window(line, 2.0, theta, envelope_scale=2.0)
        assert window is not None
        schedule = [perturb(line, PerturbMode.MULTIPLICATIVE, 1.0 / n) for n in range(1, 51)]
        r = check_transform_gap_bound(
            line, schedule, INTEGRAL, PowerThreshold(2.0, 0.0), theta, x_window=window
        )
        assert r.verdict is Verdict.PASS
        assert r.satisfied == 50

    def test_classic_setting_is_vacuous(self, line):
        schedule = [perturb(line, PerturbMode.MULTIPLICATIVE, 1.0 / n) for n in range(1, 11)]
        r = check_transform_gap_bound(line, schedule, IDENTITY, H_FAMILY, 1.0)
        assert r.verdict is Verdict.VACUOUS

    def test_constant_schedule(self):
        fam = ReversalFamily()
        f = fam.function()
        r = check_transform_gap_bound(
            f, [f] * 10, fam.operator(), fam.threshold(), fam.theta()
        )
        assert r.verdict is Verdict.PASS

    def test_batch_randomized(self):
        r = _suite_row("transform-gap-bound", master_seed=6, trials=30)
        assert r.verdict is Verdict.PASS
        assert not r.failures
        assert r.satisfied > 0


class TestConvergence:
    def test_h_gap_closed_form(self, line):
        # multiplicative 1/n inflation moves the crossing by 5/(2n+1) <= 10/(2n)
        for n in (1, 2, 5, 10, 100):
            fn = perturb(line, PerturbMode.MULTIPLICATIVE, 1.0 / n)
            mn, _ = solve_bundle_point(fn, IDENTITY, H_FAMILY, 1.0)
            gap = abs(mn - 5.0)
            assert gap == pytest.approx(5.0 / (2 * n + 1), abs=1e-10)
            assert gap <= 10.0 / (2 * n)

    def test_pointwise_h_and_g(self, line):
        # theta 0.8 stays above the inflated admissible floor of the
        # averaged transform (0.5 * 1.5 at the doubled member)
        for op in (IDENTITY, AVERAGING):
            r = check_convergence_pointwise(
                line,
                multiplicative_sequence(line),
                op,
                H_FAMILY,
                [0.8, 1.0, 2.0],
                n_max=500,
            )
            assert r.verdict is Verdict.PASS
            assert r.satisfied == 3

    def test_pointwise_constant_sequence(self, line):
        r = check_convergence_pointwise(
            line, lambda n: line, IDENTITY, H_FAMILY, [1.0], n_max=100
        )
        assert r.verdict is Verdict.PASS

    def test_uniform_h(self, line):
        r = check_convergence_uniform(
            line,
            additive_sequence(line),
            IDENTITY,
            H_FAMILY,
            theta_min=0.5,
            grid_size=6,
            n_max=256,
        )
        assert r.verdict is Verdict.PASS

    def test_uniform_constant_sequence_sup_zero(self, line):
        r = check_convergence_uniform(
            line, lambda n: line, IDENTITY, H_FAMILY, theta_min=0.5, grid_size=4, n_max=64
        )
        assert r.verdict is Verdict.PASS

    def test_shrinking_theta_min_inflates_first_sup(self, line):
        # additive perturbation: gap(theta) = delta / (1 + theta), largest at small theta
        sups = []
        for theta_min in (2.0, 0.5, 0.12):
            fn = perturb(line, PerturbMode.ADDITIVE, 1.0)
            thetas = np.linspace(theta_min, 5.0, 12)
            gaps = []
            for theta in thetas:
                m, _ = solve_bundle_point(line, IDENTITY, H_FAMILY, float(theta))
                mn, _ = solve_bundle_point(fn, IDENTITY, H_FAMILY, float(theta))
                gaps.append(abs(mn - m))
            sups.append(max(gaps))
        assert sups[0] < sups[1] < sups[2]

    def test_zero_factor_member_is_zero_function(self, line):
        seq = multiplicative_sequence(line)
        assert seq(1).is_zero()


class TestImpactAxioms:
    def test_classic_and_averaging_settings_pass(self):
        for op, p in ((IDENTITY, 1.0), (IDENTITY, 2.0), (AVERAGING, 1.0)):
            r = check_impact_axioms(op, PowerThreshold(p, 0.0), master_seed=17, trials=25)
            assert r.verdict is Verdict.PASS, (op, p, r.failures[:2])

    def test_reversal_family_fails_with_counterexample(self):
        r = reversal_impact_report(master_seed=23, trials=15)
        assert r.verdict is Verdict.FAIL
        kinds = {c.inputs.split(" ")[0] for c in r.failures}
        assert kinds & {"order-preservation", "strict-prefix-order"}

    def test_strict_prefix_gap_exceeds_tolerance(self, line):
        g = prefix_bump(line, 3.0, 5.0, 0.5)
        assert lt_on_prefix(line, g, 3.0)
        theta = line.eval(2.0) / 2.0  # realized on the prefix, so m_f = 2
        mf, _ = solve_bundle_point(line, IDENTITY, H_FAMILY, theta)
        mg, _ = solve_bundle_point(g, IDENTITY, H_FAMILY, theta)
        assert mf == pytest.approx(2.0, abs=1e-10)
        assert mg - mf > 1e-12

    def test_prefix_equal_pair_solves_identically(self, line):
        g = flatten_tail(line, 6.0, softening=0.5)
        assert eq_on_prefix(line, g, 6.0)
        theta = line.eval(4.0) / 4.0  # realized on the shared prefix
        mf, _ = solve_bundle_point(line, IDENTITY, H_FAMILY, theta)
        mg, _ = solve_bundle_point(g, IDENTITY, H_FAMILY, theta)
        assert abs(mf - mg) <= 1e-10


class TestHelpers:
    def test_prefix_bump_keeps_shape(self, line):
        g = prefix_bump(line, 2.0, 4.0, 1.0)
        ys = [y for _, y in g.breakpoints]
        assert all(b <= a for a, b in zip(ys, ys[1:]))
        assert g.eval(5.0) == line.eval(5.0)

    def test_flatten_tail_bounds(self, counts_fixture):
        g = flatten_tail(counts_fixture, 3.0, 0.6)
        assert g.eval(2.0) == counts_fixture.eval(2.0)
        assert g.eval(8.0) >= counts_fixture.eval(8.0)

    def test_steep_power_window_rejects_flat_exponent(self, line):
        assert steep_power_window(line, 1.0, 10.0, 2.0) is None

    # f falls from 10 at 2 to 1 at 9; with p = 2 and envelope 2 the window
    # starts where f(x) = theta * x.
    @pytest.mark.parametrize(
        "theta, window",
        [
            (1.0, (5.5, 9.0)),  # f(x) = x inside the support
            (10.0, (2.0, 9.0)),  # f(2) < 20: steep from the support start
            (0.1, None),  # f(9) > 0.9: never steep
        ],
    )
    def test_steep_power_window_on_a_support_after_zero(self, theta, window):
        f = RankFrequencyFunction([(2.0, 10.0), (9.0, 1.0)])
        got = steep_power_window(f, 2.0, theta, envelope_scale=2.0)
        assert got == (window if window is None else pytest.approx(window))


class TestSuite:
    def test_default_suite_has_no_failures(self):
        cfg = SuiteConfig(trials=8)
        result = run_property_suite(cfg)
        failing = [r.name for r in result.reports if r.verdict is Verdict.FAIL]
        assert not failing, failing

    def test_reproducible_by_seed(self):
        cfg = SuiteConfig(master_seed=77, trials=4)
        a = run_property_suite(cfg).to_dict()
        b = run_property_suite(cfg).to_dict()
        assert a == b

    def test_reversal_injection_fails_exactly_where_expected(self):
        cfg = SuiteConfig(trials=6, include_reversal_in_impact=True)
        result = run_property_suite(cfg)
        failing = [r.name for r in result.reports if r.verdict is Verdict.FAIL]
        assert failing == ["impact-axioms/reversal"]
        assert result.any_fail

    def test_zero_trials_everything_vacuous(self):
        result = run_property_suite(SuiteConfig(trials=0))
        assert all(r.verdict is Verdict.VACUOUS for r in result.reports)
        assert not result.any_fail

    @pytest.mark.parametrize("with_reversal, count", [(False, 33), (True, 34)])
    def test_zero_trials_lists_the_same_properties(self, with_reversal, count):
        def names(trials):
            cfg = SuiteConfig(trials=trials, include_reversal_in_impact=with_reversal)
            return [r.name for r in run_property_suite(cfg).reports]

        assert names(0) == names(1)
        assert len(names(0)) == count


class TestSolveTrace:
    # sha256 of every solve's (theta, m or error, status), one line each, in call order.
    # Solves 870, 871, 894 and 895 (the reversal audit against declin(20)) take their
    # theta from admissible_range, whose bounds are rounded inward: theta moves one ulp.
    GOLDEN = "b18ca09ac4066397ef14e8b14a97c7b10dac9f28adb4ed8b10db47448b07ca57"

    def test_suite_solves_are_pinned(self, monkeypatch):
        # the report reads the same for most seeds when nothing fails, so it
        # cannot tell a changed solve; the solves themselves can
        records = []
        original = solver._solve

        def recording(setup, theta):
            try:
                m, status = original(setup, theta)
            except Exception as e:
                records.append(f"{float(theta).hex()} {type(e).__name__} -")
                raise
            records.append(f"{float(theta).hex()} {m.hex()} {status.name}")
            return m, status

        monkeypatch.setattr(solver, "_solve", recording)
        monkeypatch.setattr(verify, "_solve", recording)
        run_property_suite(SuiteConfig(master_seed=1, trials=3, include_reversal_in_impact=True))
        assert len(records) == 1054
        assert hashlib.sha256("\n".join(records).encode()).hexdigest() == self.GOLDEN


class TestSeedStability:
    def test_sub_seeds_and_report_do_not_depend_on_hash_seed(self, tmp_path):
        probe = "from hirschbundles.verify import _sub_seeds; print(_sub_seeds(7, 'gap13', 2))"
        runs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            seeds = subprocess.run(
                [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
            ).stdout
            rep = tmp_path / f"rep{hash_seed}.json"
            subprocess.run(
                [sys.executable, "-m", "hirschbundles", "verify", "--trials", "2",
                 "--seed", "7", "--report", str(rep)],
                env=env, capture_output=True, check=True,
            )
            runs.append((seeds, rep.read_text()))
        assert runs[0] == runs[1]


class TestReportShape:
    def test_verdict_rules(self):
        assert VerificationReport("x", 5, 3).verdict is Verdict.PASS
        assert VerificationReport("x", 5, 0).verdict is Verdict.VACUOUS

    def test_serialization_round_trip(self):
        r = VerificationReport("x", 2, 2)
        d = r.to_dict()
        assert d["verdict"] == "pass"
        assert d["failures"] == []


class TestReportPin:
    # sha256 of the report's json.dumps: the reversal row fails, so the
    # counterexamples' fields and texts are pinned along with every count
    GOLDEN = "bb7a63cb2e76754eac71be87f6589c1502067650710bc82f4dcada6cae7199b0"

    def test_suite_report_is_pinned(self):
        cfg = SuiteConfig(master_seed=1, trials=3, include_reversal_in_impact=True)
        text = json.dumps(run_property_suite(cfg).to_dict())
        assert hashlib.sha256(text.encode()).hexdigest() == self.GOLDEN


def _solves(*values):
    """A stand-in for ``solver._solve`` answering with ``values`` in turn, cyclically."""
    answers = itertools.cycle(values)

    def solve(setup, theta):
        return next(answers), None

    return solve


def _no_root(setup, theta):
    raise NoRootError("stand-in: no root")


class _Negative:
    """A stand-in T(f) that is -1 everywhere."""

    def eval_many(self, xs):
        return -np.ones(len(xs))


def _line():
    return RankFrequencyFunction([(0.0, 10.0), (10.0, 0.0)])


def _reversal_gap():
    fam = ReversalFamily()
    f = fam.function()
    member = perturb(f, PerturbMode.MULTIPLICATIVE, 0.2)
    return check_transform_gap_bound(
        f, [member], fam.operator(), fam.threshold(), fam.theta(scale_max=0.2)
    )


def _reversal_theta_monotonicity():
    fam = ReversalFamily()
    lo, hi = fam.theta_window()
    return check_theta_monotonicity(
        fam.function(), fam.operator(), fam.threshold(), lo + 0.3 * (hi - lo), lo + 0.7 * (hi - lo)
    )


# (stand-in for verify._solve or verify.apply, the check, the counterexample's
# inputs prefix): each row makes one Counterexample branch fire, with the
# root 5 of the line f = 10 - x at theta = 1 moved to 0 or 10, say
FAILURE_BRANCHES = {
    "contract-positivity": (
        ("apply", lambda kind, f: _Negative()),
        lambda: check_operator_contract(IDENTITY, [_line()]),
        "positivity sample#0",
    ),
    "contract-zero-iff-zero": (
        ("apply", lambda kind, f: _Negative()),
        lambda: check_operator_contract(IDENTITY, [_line()]),
        "zero-iff-zero sample#1",
    ),
    "contract-strict-restriction": (
        ("apply", lambda kind, f: _Negative()),
        lambda: check_operator_contract(IDENTITY, [_line()]),
        "strict-restriction sample#0",
    ),
    "root-side-positive-d": (
        ("_solve", _solves(0.0)),
        lambda: check_root_side(_line(), IDENTITY, H_FAMILY, 1.0, [1.0, 9.0]),
        "D(x)>0 should put m above x=1",
    ),
    "root-side-negative-d": (
        ("_solve", _solves(10.0)),
        lambda: check_root_side(_line(), IDENTITY, H_FAMILY, 1.0, [1.0, 9.0]),
        "D(x)<0 should put m below x=9",
    ),
    "root-side-m-above": (
        ("_solve", _solves(10.0)),
        lambda: check_root_side(_line(), IDENTITY, H_FAMILY, 1.0, [1.0, 9.0]),
        "m above x=9 should force D(x)>=0",
    ),
    "root-side-m-below": (
        ("_solve", _solves(0.0)),
        lambda: check_root_side(_line(), IDENTITY, H_FAMILY, 1.0, [1.0, 9.0]),
        "m below x=1 should force D(x)<=0",
    ),
    "dominance-order": (
        ("_solve", _solves(5.0)),
        lambda: check_dominance_order(
            perturb(_line(), PerturbMode.ADDITIVE, 0.3), _line(), IDENTITY, H_FAMILY, 1.0
        ),
        "premise=gt d=decreasing",
    ),
    "theta-monotonicity-decreasing": (
        ("_solve", _solves(5.0)),
        lambda: check_theta_monotonicity(_line(), IDENTITY, H_FAMILY, 1.0, 2.0),
        "expected m(theta') < m(theta)",
    ),
    "theta-monotonicity-increasing": (
        ("_solve", _solves(5.0)),
        _reversal_theta_monotonicity,
        "expected m(theta) < m(theta')",
    ),
    "threshold-gap-bound": (
        ("_solve", _solves(2.0, 7.0)),
        lambda: check_threshold_gap_bound(_line(), [_line()], IDENTITY, H_FAMILY, 1.0),
        "schedule#1 f=",
    ),
    "transform-gap-bound": (
        ("_solve", _solves(5.0)),
        _reversal_gap,
        "schedule#1 f=",
    ),
    "convergence-pointwise-solution": (
        ("_solve", _solves(3.0, 3.0, 4.0)),
        lambda: check_convergence_pointwise(
            _line(), multiplicative_sequence(_line()), IDENTITY, H_FAMILY, [1.0], 200
        ),
        "solution gap at n=200",
    ),
    "convergence-pointwise-transform": (
        ("_solve", _solves(5.0)),
        lambda: check_convergence_pointwise(
            _line(),
            lambda n: _line() if n == 1 else perturb(_line(), PerturbMode.ADDITIVE, 1.0),
            IDENTITY, H_FAMILY, [1.0], 200,
        ),
        "transform gap at base solution, n=200",
    ),
    "convergence-uniform-rise": (
        ("_solve", _solves(5.0, 5.0, 6.0, 7.0)),
        lambda: check_convergence_uniform(
            _line(), additive_sequence(_line()), IDENTITY, H_FAMILY, 0.5, 1, 4
        ),
        "sup-gap rose between checked indices 0 and 1",
    ),
    "convergence-uniform-terminal": (
        ("_solve", _solves(5.0, 5.0, 6.0, 7.0)),
        lambda: check_convergence_uniform(
            _line(), additive_sequence(_line()), IDENTITY, H_FAMILY, 0.5, 1, 4
        ),
        "terminal sup-gap at n=4",
    ),
    "impact-zero-function": (
        ("_solve", _no_root),
        lambda: check_impact_axioms(
            IDENTITY, H_FAMILY, master_seed=1, trials=1, function_gen=lambda rng: _line()
        ),
        "zero-iff-zero: zero function trial#0",
    ),
    "impact-nonzero-solved-to-zero": (
        ("_solve", _solves(0.0)),
        lambda: check_impact_axioms(
            IDENTITY, H_FAMILY, master_seed=1, trials=1, function_gen=lambda rng: _line()
        ),
        "zero-iff-zero: nonzero f solved to zero trial#0",
    ),
}


@pytest.mark.parametrize("branch", FAILURE_BRANCHES)
def test_failure_branch_reports_its_counterexample(branch, monkeypatch):
    (target, stand_in), check, prefix = FAILURE_BRANCHES[branch]
    monkeypatch.setattr(verify, target, stand_in)
    report = check()
    assert report.verdict is Verdict.FAIL
    assert any(c.inputs.startswith(prefix) for c in report.failures), [
        c.inputs for c in report.failures
    ]
