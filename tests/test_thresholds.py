import math
import warnings

import numpy as np
import pytest

from hirschbundles.errors import (
    DomainError,
    NonPositiveThetaError,
    NoRootError,
    SingularAbscissaError,
    ZeroFunctionError,
    ZeroValueError,
)
from hirschbundles.funcspace import RankFrequencyFunction, random_function
from hirschbundles.operators import OperatorKind, apply
from hirschbundles.solver import solve_bundle_point
from hirschbundles.thresholds import (
    DecreasingLinearThreshold,
    PowerThreshold,
    admissible_range,
    psi,
)

IDENTITY = OperatorKind.IDENTITY
AVERAGING = OperatorKind.AVERAGING
INTEGRAL = OperatorKind.INTEGRAL


class TestEvaluation:
    def test_linear(self):
        assert PowerThreshold(1.0, 0.0).value(4.0, 1.0) == 4.0

    def test_square(self):
        assert PowerThreshold(2.0, 0.0).value(3.0, 2.0) == 18.0

    def test_decreasing_linear(self):
        assert DecreasingLinearThreshold(20.0).value(5.0, 1.0) == 15.0

    def test_theta_must_be_positive(self):
        with pytest.raises(NonPositiveThetaError):
            PowerThreshold(1.0, 0.0).value(1.0, 0.0)

    @pytest.mark.parametrize("theta", [math.inf, math.nan])
    def test_theta_must_be_finite(self, theta):
        families = (PowerThreshold(2.0, 0.0), DecreasingLinearThreshold(20.0))
        for fam in families:
            with pytest.raises(NonPositiveThetaError, match="positive and finite"):
                fam.value(2.0, theta)
            with pytest.raises(NonPositiveThetaError, match="positive and finite"):
                fam.value_many(np.array([2.0]), theta)

    def test_power_domain(self):
        with pytest.raises(DomainError):
            PowerThreshold(2.0, 1.0).value(0.5, 1.0)

    def test_declin_positive_domain(self):
        with pytest.raises(DomainError):
            DecreasingLinearThreshold(20.0).value(20.0, 1.0)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: PowerThreshold(math.inf, 0.0),
            lambda: PowerThreshold(math.nan, 0.0),
            lambda: PowerThreshold(1.0, math.inf),
            lambda: PowerThreshold(1.0, math.nan),
            lambda: DecreasingLinearThreshold(math.inf),
            lambda: DecreasingLinearThreshold(math.nan),
        ],
        ids=["p-inf", "p-nan", "shift-inf", "shift-nan", "ceiling-inf", "ceiling-nan"],
    )
    def test_non_finite_parameters_rejected(self, build):
        with pytest.raises(ValueError, match="finite"):
            build()

    def test_power_strictly_monotone_in_both_arguments(self):
        rng = np.random.default_rng(3)
        fam = PowerThreshold(1.7, 0.0)
        for _ in range(100):
            x1, x2 = sorted(rng.uniform(0.01, 50.0, 2))
            t1, t2 = sorted(rng.uniform(0.01, 10.0, 2))
            if x1 == x2 or t1 == t2:
                continue
            assert fam.value(x1, t1) < fam.value(x2, t1)
            assert fam.value(x1, t1) < fam.value(x1, t2)

    def test_declin_monotonicity(self):
        rng = np.random.default_rng(4)
        fam = DecreasingLinearThreshold(30.0)
        for _ in range(100):
            x1, x2 = sorted(rng.uniform(0.0, 29.0, 2))
            t1, t2 = sorted(rng.uniform(0.01, 10.0, 2))
            if x1 == x2 or t1 == t2:
                continue
            assert fam.value(x1, t1) > fam.value(x2, t1)
            assert fam.value(x1, t1) < fam.value(x1, t2)


class TestThetaInverse:
    def test_linear_inverse(self):
        assert PowerThreshold(1.0, 0.0).theta_inverse(4.0, 4.0) == 1.0

    def test_square_round_trip(self):
        fam = PowerThreshold(2.0, 0.0)
        assert fam.theta_inverse(3.0, fam.value(3.0, 2.0)) == 2.0

    def test_singular_abscissa(self):
        with pytest.raises(SingularAbscissaError):
            PowerThreshold(1.0, 0.0).theta_inverse(0.0, 5.0)
        with pytest.raises(SingularAbscissaError):
            DecreasingLinearThreshold(20.0).theta_inverse(20.0, 5.0)

    def test_round_trip_random(self):
        rng = np.random.default_rng(11)
        for fam in (PowerThreshold(0.5, 0.0), PowerThreshold(2.0, 1.0), DecreasingLinearThreshold(25.0)):
            for _ in range(200):
                x = float(rng.uniform(1.5, 20.0))
                theta = float(rng.uniform(0.01, 50.0))
                back = fam.theta_inverse(x, fam.value(x, theta))
                assert back == pytest.approx(theta, rel=1e-12)


class TestPsi:
    def test_identity_line(self, line):
        assert psi(line, IDENTITY, PowerThreshold(1.0, 0.0), 5.0) == 1.0

    def test_averaging_line(self, line):
        val = psi(line, AVERAGING, PowerThreshold(1.0, 0.0), 20.0 / 3.0)
        assert val == pytest.approx(1.0, rel=1e-12)

    def test_round_trip_through_solver(self):
        cfgs = [
            (IDENTITY, PowerThreshold(1.0, 0.0)),
            (IDENTITY, PowerThreshold(2.0, 0.0)),
            (AVERAGING, PowerThreshold(1.0, 0.0)),
        ]
        for seed in range(20):
            f = random_function(seed)
            if f.is_zero():
                continue
            for op, fam in cfgs:
                x = f.support_start + 0.6 * (f.support_end - f.support_start)
                tf = apply(op, f)
                if tf.eval(x) <= 0:
                    continue
                theta = psi(f, op, fam, x)
                m, _ = solve_bundle_point(f, op, fam, theta)
                assert m == pytest.approx(x, abs=1e-8)

    def test_zero_value_excluded(self, line):
        with pytest.raises(ZeroValueError):
            psi(line, IDENTITY, PowerThreshold(1.0, 0.0), 10.0)  # f(10) = 0


class TestAdmissibleRange:
    def test_line_all_theta(self, line):
        r = admissible_range(line, IDENTITY, PowerThreshold(1.0, 0.0))
        assert r.theta_min is None
        assert math.isinf(r.theta_max)
        assert r.certified

    def test_constant_identity(self, const4):
        r = admissible_range(const4, IDENTITY, PowerThreshold(1.0, 0.0))
        assert r.theta_min == 0.5
        assert r.certified

    def test_constant_averaging(self, const4):
        r = admissible_range(const4, AVERAGING, PowerThreshold(1.0, 0.0))
        assert r.theta_min == 0.5
        assert r.certified

    def test_zero_function_rejected(self):
        zero = RankFrequencyFunction([(0.0, 0.0), (2.0, 0.0)])
        with pytest.raises(ZeroFunctionError):
            admissible_range(zero, IDENTITY, PowerThreshold(1.0, 0.0))

    def test_grid_estimated_path_not_certified(self, const4):
        r = admissible_range(const4, INTEGRAL, PowerThreshold(1.0, 0.0))
        assert not r.certified
        # integral of a constant against a line realizes a single theta
        assert r.theta_min == pytest.approx(4.0, rel=1e-6)
        assert r.theta_max == pytest.approx(4.0, rel=1e-6)

    def test_psi_decreasing_certifies_endpoint(self):
        # the certificate behind the analytic path: psi decreases on a grid
        for seed in range(30):
            f = random_function(seed)
            if f.is_zero():
                continue
            fam = PowerThreshold(1.0, 0.0)
            tf = apply(IDENTITY, f)
            a, s = f.support_start, f.support_end
            xs = np.linspace(a + 0.02 * (s - a), s, 200)
            vals = tf.eval_many(xs)
            mask = vals > 0
            thetas = vals[mask] / xs[mask]
            assert (np.diff(thetas) <= 1e-9).all()

    def test_sampled_range_solvable_and_below_min_fails(self, const4):
        fam = PowerThreshold(1.0, 0.0)
        r = admissible_range(const4, IDENTITY, fam)
        for theta in (r.theta_min, 2 * r.theta_min, 10 * r.theta_min):
            m, _ = solve_bundle_point(const4, IDENTITY, fam, theta)
            assert const4.support_start <= m <= const4.support_end
        with pytest.raises(NoRootError):
            solve_bundle_point(const4, IDENTITY, fam, 0.999 * r.theta_min)

    def test_sampled_certified_ranges_solvable_on_random_functions(self):
        fam = PowerThreshold(1.0, 0.0)
        for seed in range(30):
            f = random_function(seed)
            if f.is_zero():
                continue
            for op in (IDENTITY, AVERAGING):
                r = admissible_range(f, op, fam)
                assert r.certified
                base = r.theta_min if r.theta_min is not None else 1e-3
                for theta in (base, 3 * base, 50 * base):
                    m, _ = solve_bundle_point(f, op, fam, theta)
                    assert f.support_start <= m <= f.support_end
                if r.theta_min is not None:
                    with pytest.raises(NoRootError):
                        solve_bundle_point(f, op, fam, 0.9 * r.theta_min)

    def test_power_value_zero_iff_abscissa_zero(self):
        fam = PowerThreshold(2.0, 0.0)
        for theta in (0.5, 1.0, 7.0):
            assert fam.value(0.0, theta) == 0.0
            for x in (0.1, 1.0, 13.0):
                assert fam.value(x, theta) > 0.0


class TestOverflowingPower:
    """A power (x - shift)**p beyond the float range is inf, never an exception."""

    def test_scalar_values_are_inf_and_zero(self):
        fam = PowerThreshold(2000.0, 0.0)
        assert fam.value(20.0, 0.5) == math.inf
        assert fam.theta_inverse(20.0, 10.0) == 0.0

    def test_origin_power_overflowing_admits_no_theta(self):
        # (a - shift)^p = 2^2000 overflows, so A is inf already at a = 2 for
        # every theta; was an OverflowError out of admissible_range
        f = RankFrequencyFunction([(2.0, 10.0), (9.0, 1.0)])
        fam = PowerThreshold(2000.0, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NoRootError, match="the threshold overflows at 2.0"):
                admissible_range(f, IDENTITY, fam)
            for theta in (1e-300, 1.0):
                with pytest.raises(NoRootError):
                    solve_bundle_point(f, IDENTITY, fam, theta)

    def test_origin_power_underflowing_is_silent(self):
        # (a - shift)^p = 0.5^2000 underflows to 0, so theta_max is inf; was a
        # "divide by zero" RuntimeWarning
        f = RankFrequencyFunction([(1.5, 10.0), (9.0, 1.0)])
        fam = PowerThreshold(2000.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = admissible_range(f, IDENTITY, fam)
            assert (r.theta_min, r.theta_max, r.certified) == (None, math.inf, True)
            m, _ = solve_bundle_point(f, IDENTITY, fam, 1.0)
        assert 1.5 < m < 9.0
