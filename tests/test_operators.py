import dataclasses

import numpy as np
import pytest

from hirschbundles.errors import DomainError, OriginMismatchError
from hirschbundles.funcspace import RankFrequencyFunction, random_function
from hirschbundles.operators import (
    Monotonicity,
    OperatorKind,
    OperatorSpec,
    TransformedFunction,
    apply,
    as_transformed,
    check_operator_contract,
)
from hirschbundles.reporting import Verdict

from oracles import oracle_integral


def identity_op(f):
    return OperatorSpec(OperatorKind.IDENTITY, origin=f.support_start)


def averaging_op(f):
    return OperatorSpec(OperatorKind.AVERAGING, origin=f.support_start)


def integral_op(f):
    return OperatorSpec(OperatorKind.INTEGRAL, origin=f.support_start)


class TestApply:
    def test_identity_matches_source(self):
        rng = np.random.default_rng(0)
        for seed in range(10):
            f = random_function(seed)
            tf = apply(identity_op(f), f)
            xs = rng.uniform(f.support_start, f.support_end, 100)
            assert np.allclose(tf.eval_many(xs), f.eval_many(xs), atol=0, rtol=0)

    def test_averaging_closed_form(self, line):
        # mu(f)(x) = 10 - x/2 for the triangle
        mu = apply(averaging_op(line), line)
        assert mu.eval(4.0) == pytest.approx(8.0, abs=1e-12)
        xs = np.linspace(0.0, 10.0, 64)
        assert np.allclose(mu.eval_many(xs), 10.0 - xs / 2.0, atol=1e-12)

    def test_integral_rectangle(self):
        f = RankFrequencyFunction([(0.0, 3.0), (4.0, 3.0)])
        tf = apply(integral_op(f), f)
        assert tf.eval(4.0) == 12.0
        assert tf.eval(0.0) == 0.0

    def test_origin_mismatch(self, line):
        with pytest.raises(OriginMismatchError):
            apply(OperatorSpec(OperatorKind.IDENTITY, origin=1.0), line)

    def test_integral_matches_oracle(self, counts_fixture):
        tf = apply(integral_op(counts_fixture), counts_fixture)
        for x in np.linspace(0.0, 8.0, 33):
            assert tf.eval(float(x)) == pytest.approx(
                oracle_integral(counts_fixture, 0.0, float(x)), abs=1e-12
            )


class TestEval:
    def test_averaging_continuity_value_at_origin(self, line):
        mu = apply(averaging_op(line), line)
        assert mu.eval(0.0) == 10.0

    def test_averaging_of_constant_is_constant(self, const4):
        mu = apply(averaging_op(const4), const4)
        xs = np.linspace(0.0, 8.0, 50)
        assert np.allclose(mu.eval_many(xs), 4.0, atol=1e-12)

    def test_integral_zero_at_origin(self, counts_fixture):
        tf = apply(integral_op(counts_fixture), counts_fixture)
        assert tf.eval(0.0) == 0.0

    def test_domain_error(self, line):
        tf = apply(identity_op(line), line)
        with pytest.raises(DomainError):
            tf.eval(10.5)


class TestClassification:
    def test_averaging_decreasing_for_500_random(self):
        for seed in range(500):
            f = random_function(seed)
            mu = apply(averaging_op(f), f)
            assert mu.monotonicity is Monotonicity.DECREASING

    def test_integral_increasing_when_positive_somewhere(self):
        for seed in range(50):
            f = random_function(seed)
            tf = apply(integral_op(f), f)
            if f.is_zero():
                continue
            assert tf.monotonicity is Monotonicity.INCREASING

    def test_identity_constant_counts_as_decreasing(self, const4):
        tf = apply(identity_op(const4), const4)
        assert tf.monotonicity is Monotonicity.DECREASING
        # monotonicity follows from the kind, so it is not stored
        assert [fld.name for fld in dataclasses.fields(tf)] == ["source", "kind"]

    def test_integral_of_zero_counts_as_decreasing(self):
        zero = RankFrequencyFunction([(0.0, 0.0), (5.0, 0.0)])
        assert apply(integral_op(zero), zero).monotonicity is Monotonicity.DECREASING

    def test_as_transformed_passes_a_transform_through(self, line):
        tf = apply(averaging_op(line), line)
        assert as_transformed(line, tf) is tf
        built = as_transformed(line, averaging_op(line))
        assert isinstance(built, TransformedFunction) and built == tf


class TestAveragingBounds:
    def test_average_between_current_value_and_start(self):
        for seed in range(60):
            f = random_function(seed)
            mu = apply(averaging_op(f), f)
            xs = np.linspace(f.support_start, f.support_end, 300)
            mvals = mu.eval_many(xs)
            assert (mvals <= f.eval(f.support_start) + 1e-12).all()
            assert (mvals >= f.eval_many(xs) - 1e-12).all()

    def test_integral_equals_span_times_average(self):
        for seed in range(60):
            f = random_function(seed)
            mu = apply(averaging_op(f), f)
            integ = apply(integral_op(f), f)
            a = f.support_start
            xs = np.linspace(a, f.support_end, 200)[1:]
            assert np.allclose(
                integ.eval_many(xs), (xs - a) * mu.eval_many(xs), atol=1e-12, rtol=1e-12
            )


class TestContract:
    def test_all_three_operators_pass_on_random_inputs(self):
        samples = [random_function(seed) for seed in range(40, 52)]
        for kind in OperatorKind:
            report = check_operator_contract(OperatorSpec(kind, 0.0), samples)
            assert report.verdict is Verdict.PASS, report.failures

    def test_zero_function_branch(self):
        zero = RankFrequencyFunction([(0.0, 0.0), (5.0, 0.0)])
        report = check_operator_contract(
            OperatorSpec(OperatorKind.AVERAGING, 0.0), [zero]
        )
        assert report.verdict is Verdict.PASS

    def test_strict_order_preserved_on_prefix(self, line):
        report = check_operator_contract(OperatorSpec(OperatorKind.AVERAGING, 0.0), [line])
        assert report.verdict is Verdict.PASS


class TestScalarEval:
    @pytest.mark.parametrize("kind", list(OperatorKind))
    def test_scalar_equals_vectorized(self, kind, counts_fixture):
        """At a, S, every breakpoint, every segment midpoint and inside the
        averaging edge band."""
        for f in [counts_fixture] + [random_function(seed) for seed in range(20)]:
            tf = apply(OperatorSpec(kind, f.support_start), f)
            span = f.support_end - f.support_start
            xs = np.concatenate(
                [f.xs, (f.xs[:-1] + f.xs[1:]) / 2.0, [f.support_start + 1e-12 * span]]
            )
            for x, v in zip(xs, tf.eval_many(xs)):
                assert tf.eval(float(x)) == v
