"""Hypothesis-driven invariants, seeded through the deterministic generator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hirschbundles.errors import NoRootError, NonUniqueError
from hirschbundles.funcspace import (
    PerturbMode,
    RankFrequencyFunction,
    leq,
    lt_on_prefix,
    perturb,
    random_function,
)
from hirschbundles.operators import OperatorKind, apply
from hirschbundles.solver import solve_bundle_point
from hirschbundles.thresholds import PowerThreshold, psi

seeds = st.integers(min_value=0, max_value=2**32 - 1)

IDENTITY = OperatorKind.IDENTITY
AVERAGING = OperatorKind.AVERAGING


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_generator_output_is_valid_and_decreasing(seed):
    f = random_function(seed)
    xs = np.linspace(f.support_start, f.support_end, 257)
    vals = f.eval_many(xs)
    assert (vals >= -1e-15).all()
    assert (np.diff(vals) <= 1e-12).all()


@given(seeds, st.floats(min_value=-0.9, max_value=2.0))
@settings(max_examples=60, deadline=None)
def test_multiplicative_perturbation_preserves_invariants(seed, eps):
    f = random_function(seed)
    g = perturb(f, PerturbMode.MULTIPLICATIVE, eps)
    ys = [y for _, y in g.breakpoints]
    assert all(y >= 0 for y in ys)
    assert all(b <= a for a, b in zip(ys, ys[1:]))


@given(seeds, st.floats(min_value=0.0, max_value=5.0))
@settings(max_examples=60, deadline=None)
def test_additive_domination_orders_functions(seed, eps):
    f = random_function(seed)
    g = perturb(f, PerturbMode.ADDITIVE, eps)
    assert leq(f, g)
    if eps > 1e-9:
        a_cut = f.support_start + 0.5 * (f.support_end - f.support_start)
        assert lt_on_prefix(f, g, a_cut)


@given(seeds, st.floats(min_value=0.01, max_value=1.0), st.floats(min_value=0.01, max_value=1.0))
@settings(max_examples=40, deadline=None)
def test_leq_transitive_along_chains(seed, d1, d2):
    f = random_function(seed)
    g = perturb(f, PerturbMode.ADDITIVE, d1)
    h = perturb(g, PerturbMode.ADDITIVE, d2)
    assert leq(f, g) and leq(g, h) and leq(f, h)


@given(seeds, st.floats(min_value=0.15, max_value=0.9))
@settings(max_examples=50, deadline=None)
def test_solver_residual_and_psi_round_trip(seed, frac):
    f = random_function(seed)
    if f.is_zero():
        return
    fam = PowerThreshold(1.0, 0.0)
    x = f.support_start + frac * (f.support_end - f.support_start)
    tf = apply(IDENTITY, f)
    if tf.eval(x) <= 0:
        return
    theta = psi(f, IDENTITY, fam, x)
    m, _ = solve_bundle_point(f, IDENTITY, fam, theta)
    assert m == pytest.approx(x, abs=1e-8)
    assert abs(tf.eval(m) - fam.value(m, theta)) <= 1e-6


@given(seeds, st.floats(min_value=1.2, max_value=4.0))
@settings(max_examples=50, deadline=None)
def test_theta_increase_shrinks_solution(seed, ratio):
    f = random_function(seed)
    if f.is_zero():
        return
    fam = PowerThreshold(1.0, 0.0)
    tf = apply(AVERAGING, f)
    mid = f.support_start + 0.5 * (f.support_end - f.support_start)
    if tf.eval(mid) <= 0:
        return
    theta = psi(f, AVERAGING, fam, mid)
    try:
        m1, _ = solve_bundle_point(f, AVERAGING, fam, theta)
        m2, _ = solve_bundle_point(f, AVERAGING, fam, ratio * theta)
    except (NoRootError, NonUniqueError):
        return
    assert m2 < m1 - 1e-12


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_zero_function_always_solves_to_origin(seed):
    f = random_function(seed)
    zero = RankFrequencyFunction([(f.support_start, 0.0), (f.support_end, 0.0)])
    m, _ = solve_bundle_point(zero, IDENTITY, PowerThreshold(1.0, 0.0), 1.0)
    assert m == f.support_start
