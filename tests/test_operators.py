import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hirschbundles.errors import DomainError
from hirschbundles.funcspace import RankFrequencyFunction, random_function
from hirschbundles.operators import Monotonicity, OperatorKind, apply
from hirschbundles.reporting import Verdict
from hirschbundles.solver import sample_bundle, solve_bundle_point
from hirschbundles.thresholds import PowerThreshold, admissible_range, psi
from hirschbundles.verify import (
    check_decreasing_difference,
    check_operator_contract,
    check_root_side,
    check_theta_monotonicity,
)

from oracles import oracle_integral


class TestApply:
    def test_identity_matches_source(self):
        rng = np.random.default_rng(0)
        for seed in range(10):
            f = random_function(seed)
            tf = apply(OperatorKind.IDENTITY, f)
            xs = rng.uniform(f.support_start, f.support_end, 100)
            assert np.allclose(tf.eval_many(xs), f.eval_many(xs), atol=0, rtol=0)

    def test_averaging_closed_form(self, line):
        # mu(f)(x) = 10 - x/2 for the triangle
        mu = apply(OperatorKind.AVERAGING, line)
        assert mu.eval(4.0) == pytest.approx(8.0, abs=1e-12)
        xs = np.linspace(0.0, 10.0, 64)
        assert np.allclose(mu.eval_many(xs), 10.0 - xs / 2.0, atol=1e-12)

    def test_integral_rectangle(self):
        f = RankFrequencyFunction([(0.0, 3.0), (4.0, 3.0)])
        tf = apply(OperatorKind.INTEGRAL, f)
        assert tf.eval(4.0) == 12.0
        assert tf.eval(0.0) == 0.0

    def test_integral_matches_oracle(self, counts_fixture):
        tf = apply(OperatorKind.INTEGRAL, counts_fixture)
        for x in np.linspace(0.0, 8.0, 33):
            assert tf.eval(float(x)) == pytest.approx(
                oracle_integral(counts_fixture, 0.0, float(x)), abs=1e-12
            )


class TestEval:
    def test_averaging_continuity_value_at_origin(self, line):
        mu = apply(OperatorKind.AVERAGING, line)
        assert mu.eval(0.0) == 10.0

    def test_averaging_of_constant_is_constant(self, const4):
        mu = apply(OperatorKind.AVERAGING, const4)
        xs = np.linspace(0.0, 8.0, 50)
        assert np.allclose(mu.eval_many(xs), 4.0, atol=1e-12)

    def test_integral_zero_at_origin(self, counts_fixture):
        tf = apply(OperatorKind.INTEGRAL, counts_fixture)
        assert tf.eval(0.0) == 0.0

    def test_domain_error(self, line):
        tf = apply(OperatorKind.IDENTITY, line)
        with pytest.raises(DomainError):
            tf.eval(10.5)


class TestClassification:
    def test_averaging_decreasing_for_500_random(self):
        for seed in range(500):
            f = random_function(seed)
            mu = apply(OperatorKind.AVERAGING, f)
            assert mu.monotonicity is Monotonicity.DECREASING

    def test_integral_increasing_when_positive_somewhere(self):
        for seed in range(50):
            f = random_function(seed)
            tf = apply(OperatorKind.INTEGRAL, f)
            if f.is_zero():
                continue
            assert tf.monotonicity is Monotonicity.INCREASING

    def test_identity_constant_counts_as_decreasing(self, const4):
        tf = apply(OperatorKind.IDENTITY, const4)
        assert tf.monotonicity is Monotonicity.DECREASING
        # monotonicity follows from the kind, so it is not stored
        assert [fld.name for fld in dataclasses.fields(tf)] == ["source", "kind"]

    def test_integral_of_zero_counts_as_decreasing(self):
        zero = RankFrequencyFunction([(0.0, 0.0), (5.0, 0.0)])
        assert apply(OperatorKind.INTEGRAL, zero).monotonicity is Monotonicity.DECREASING


class TestAveragingBounds:
    def test_average_between_current_value_and_start(self):
        for seed in range(60):
            f = random_function(seed)
            mu = apply(OperatorKind.AVERAGING, f)
            xs = np.linspace(f.support_start, f.support_end, 300)
            mvals = mu.eval_many(xs)
            assert (mvals <= f.eval(f.support_start) + 1e-12).all()
            assert (mvals >= f.eval_many(xs) - 1e-12).all()

    def test_integral_equals_span_times_average(self):
        for seed in range(60):
            f = random_function(seed)
            mu = apply(OperatorKind.AVERAGING, f)
            integ = apply(OperatorKind.INTEGRAL, f)
            a = f.support_start
            xs = np.linspace(a, f.support_end, 200)[1:]
            assert np.allclose(
                integ.eval_many(xs), (xs - a) * mu.eval_many(xs), atol=1e-12, rtol=1e-12
            )


class TestContract:
    def test_all_three_operators_pass_on_random_inputs(self):
        samples = [random_function(seed) for seed in range(40, 52)]
        for kind in OperatorKind:
            report = check_operator_contract(kind, samples)
            assert report.verdict is Verdict.PASS, report.failures

    def test_zero_function_branch(self):
        zero = RankFrequencyFunction([(0.0, 0.0), (5.0, 0.0)])
        report = check_operator_contract(OperatorKind.AVERAGING, [zero])
        assert report.verdict is Verdict.PASS

    def test_strict_order_preserved_on_prefix(self, line):
        report = check_operator_contract(OperatorKind.AVERAGING, [line])
        assert report.verdict is Verdict.PASS


class TestScalarEval:
    @pytest.mark.parametrize("kind", list(OperatorKind))
    def test_scalar_equals_vectorized(self, kind, counts_fixture):
        """At a, S, every breakpoint, every segment midpoint and inside the
        averaging edge band."""
        for f in [counts_fixture] + [random_function(seed) for seed in range(20)]:
            tf = apply(kind, f)
            span = f.support_end - f.support_start
            xs = np.concatenate(
                [f.xs, (f.xs[:-1] + f.xs[1:]) / 2.0, [f.support_start + 1e-12 * span]]
            )
            for x, v in zip(xs, tf.eval_many(xs)):
                assert tf.eval(float(x)) == v


# breakpoint gaps, with gaps far inside averaging's edge band drawn often
gaps = st.one_of(
    st.floats(min_value=1e-3, max_value=10.0),
    st.sampled_from([1e-15, 1e-12, 1e-9]),
)


@st.composite
def functions(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    start = draw(st.floats(min_value=0.0, max_value=5.0))
    xs = start + np.cumsum([0.0] + draw(st.lists(gaps, min_size=n - 1, max_size=n - 1)))
    ys = sorted(draw(st.lists(st.floats(0.0, 50.0), min_size=n, max_size=n)), reverse=True)
    if not (np.diff(xs) > 0.0).all():  # a gap lost to rounding against a large start
        xs = start + np.arange(n, dtype=float)
    return RankFrequencyFunction(list(zip(xs.tolist(), ys)))


class TestBreakpointValues:
    """The closed form: ys, cumulative, and cumulative / (x - a) outside the edge band."""

    @given(functions())
    @settings(max_examples=200, deadline=None)
    def test_equal_to_eval_many_at_the_breakpoints(self, f):
        for kind in OperatorKind:
            tf = apply(kind, f)
            values = tf.breakpoint_values
            assert not values.flags.writeable
            assert np.array_equal(values, tf.eval_many(f.xs))
            assert values[-1] == tf.eval(f.support_end)

    def test_averaging_edge_band_holds_f_of_a(self):
        # x = 1e-12 is inside the band [0, 1e-9 * 10) of f's support, so it gets f(a)
        f = RankFrequencyFunction([(0.0, 10.0), (1e-12, 9.0), (10.0, 0.0)])
        values = apply(OperatorKind.AVERAGING, f).breakpoint_values
        assert values.tolist() == [10.0, 10.0, float(f.cumulative[-1]) / 10.0]


class TestKindIsTheOperator:
    """Given f, the kind alone fixes the operator: its origin is f's support start.

    f on [1.5, 9] is g on [0, 7.5] moved right by 1.5.  With the threshold
    shift moved along, every public function that takes (f, kind, ...)
    answers for f what it answers for g, with abscissas moved by 1.5.
    """

    OFFSET = 1.5

    @pytest.mark.parametrize("kind", list(OperatorKind))
    def test_moved_support_gives_the_same_answers(self, kind):
        g = RankFrequencyFunction([(0.0, 10.0), (2.5, 6.0), (7.5, 1.0)])
        f = RankFrequencyFunction([(x + self.OFFSET, y) for x, y in g.breakpoints])
        assert (f.support_start, f.support_end) == (1.5, 9.0)
        fam_g = PowerThreshold(p=1.0, shift=0.0)
        fam_f = PowerThreshold(p=1.0, shift=self.OFFSET)
        thetas = [psi(g, kind, fam_g, x) for x in (2.0, 4.0, 6.0)]
        assert psi(f, kind, fam_f, 4.0 + self.OFFSET) == pytest.approx(thetas[1], rel=1e-12)

        theta = thetas[1]
        m_g, status_g = solve_bundle_point(g, kind, fam_g, theta)
        m_f, status_f = solve_bundle_point(f, kind, fam_f, theta)
        assert status_f is status_g
        assert m_f == pytest.approx(m_g + self.OFFSET, abs=1e-9)

        grid = sorted(thetas)
        bundle_g = sample_bundle(g, kind, fam_g, grid)
        bundle_f = sample_bundle(f, kind, fam_f, grid)
        for ef, eg in zip(bundle_f, bundle_g, strict=True):
            assert ef.status is eg.status
            assert ef.m == pytest.approx(eg.m + self.OFFSET, abs=1e-9)

        range_g = admissible_range(g, kind, fam_g)
        range_f = admissible_range(f, kind, fam_f)
        assert range_f.certified is range_g.certified
        assert range_f.theta_max == pytest.approx(range_g.theta_max, rel=1e-9)
        if range_g.theta_min is None:
            assert range_f.theta_min is None
        else:
            assert range_f.theta_min == pytest.approx(range_g.theta_min, rel=1e-9)

        xs = [1.0, 3.0, 5.0, 7.0]
        side_g = check_root_side(g, kind, fam_g, theta, xs)
        side_f = check_root_side(f, kind, fam_f, theta, [x + self.OFFSET for x in xs])
        assert (side_f.verdict, side_f.satisfied) == (side_g.verdict, side_g.satisfied)

        mono_g = check_theta_monotonicity(g, kind, fam_g, grid[0], grid[-1])
        mono_f = check_theta_monotonicity(f, kind, fam_f, grid[0], grid[-1])
        assert (mono_f.verdict, mono_f.satisfied) == (mono_g.verdict, mono_g.satisfied)

        assert check_decreasing_difference(f, kind, fam_f, grid) is check_decreasing_difference(
            g, kind, fam_g, grid
        )
