"""Hypothesis-driven invariants, seeded through the deterministic generator."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hirschbundles.errors import NoRootError, NonUniqueError
from hirschbundles.funcspace import (
    PerturbMode,
    RankFrequencyFunction,
    leq,
    lt_on_prefix,
    perturb,
    random_function,
)
from hirschbundles.operators import Monotonicity, OperatorKind, apply
from hirschbundles.solver import solve_bundle_point, solve_transformed
from hirschbundles.thresholds import (
    DecreasingLinearThreshold,
    PowerThreshold,
    admissible_range,
    psi,
)
from hirschbundles.verify import _D_TOL, classify_difference

from oracles import oracle_difference, oracle_psi

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


# the pairs whose D classify_difference decides from breakpoints: no shortcut applies
UNCERTIFIED_PAIRS = [("integral", "power", p) for p in (0.5, 1.0, 1.5, 2.0, 3.0)] + [
    ("identity", "declin", None),
    ("averaging", "declin", None),
]


@pytest.mark.parametrize("pair", UNCERTIFIED_PAIRS, ids=lambda pair: "-".join(map(str, pair)))
@given(seeds, st.floats(min_value=0.02, max_value=0.98), st.floats(min_value=1.05, max_value=4.0))
@settings(max_examples=60, deadline=None)
# f linear and c = 2 S: mu(f) = theta (c - x) exactly, D = 0 up to rounding
@example(seed=147, frac=0.5, ceiling_factor=2.0)
def test_difference_classification_agrees_with_a_dense_grid(pair, seed, frac, ceiling_factor):
    """Where a dense grid sees D rise (fall), it is not classified decreasing (increasing).

    A rise or fall counts when it exceeds both 1e-9 max|D| and the
    ``_D_TOL`` to which classify_difference decides.
    """
    kind_name, family_kind, p = pair
    f = random_function(seed)
    a, s = f.support_start, f.support_end
    if family_kind == "power":
        family, params = PowerThreshold(p, 0.0), {"p": p, "shift": 0.0}
    else:
        ceiling = ceiling_factor * s
        family, params = DecreasingLinearThreshold(ceiling), {"ceiling": ceiling}
    kind = OperatorKind(kind_name)
    tf = apply(kind, f)
    # theta is psi at an interior point, as verify's _psi_candidates draws it
    x = a + frac * (s - a)
    if tf.eval(x) <= 0.0:
        return
    theta = family.theta_inverse(x, tf.eval(x))
    got = classify_difference(tf, family, theta)
    _, d = oracle_difference(f, kind_name, theta, family_kind, 20_000, **params)
    tol = max(1e-9 * float(np.abs(d).max()), _D_TOL)
    if float((d - np.minimum.accumulate(d)).max()) > tol:
        assert got is not Monotonicity.DECREASING
    if float((np.maximum.accumulate(d) - d).max()) > tol:
        assert got is not Monotonicity.INCREASING


# psi_f's range is exact for every pair, so a dense grid of psi_f never leaves
# it, and every theta inside it has a root
RANGE_PAIRS = [
    ("integral", "power", p, shift) for p in (0.5, 1.0, 1.5, 2.0, 3.0) for shift in (0.0, "a")
] + [(kind, "declin", None, None) for kind in ("identity", "averaging", "integral")]


@pytest.mark.parametrize("pair", RANGE_PAIRS, ids=lambda pair: "-".join(map(str, pair)))
@given(seeds, st.floats(min_value=0.02, max_value=0.98), st.floats(min_value=1.05, max_value=4.0))
@settings(max_examples=40, deadline=None)
def test_exact_range_holds_psi_and_admits_its_interior(pair, seed, frac, ceiling_factor):
    kind_name, family_kind, p, shift = pair
    # the support starts at a = 1.5, so the shifts 0 and a give [a, S] and (a, S]
    base = random_function(seed)
    f = RankFrequencyFunction([(x + 1.5, y) for x, y in base.breakpoints])
    if f.is_zero():
        return
    if family_kind == "power":
        shift = f.support_start if shift == "a" else shift
        family, params = PowerThreshold(p, shift), {"p": p, "shift": shift}
    else:
        ceiling = ceiling_factor * f.support_end
        family, params = DecreasingLinearThreshold(ceiling), {"ceiling": ceiling}
    kind = OperatorKind(kind_name)
    rng = admissible_range(f, kind, family)
    low = rng.theta_min or 0.0
    psis = oracle_psi(f, kind_name, family_kind, 20_000, **params)
    assert (psis >= low * (1.0 - 1e-9)).all() and (psis <= rng.theta_max * (1.0 + 1e-9)).all()
    high = rng.theta_max if rng.theta_max < np.inf else 2.0 * float(psis.max())
    theta = low + frac * (high - low)
    if not low * (1.0 + 1e-6) < theta < high * (1.0 - 1e-6):
        return
    try:
        solve_transformed(apply(kind, f), family, theta)
    except NonUniqueError:
        pass
