"""Executable property checks for Hirsch-type bundles.

Every theorem about the bundle theta -> m_theta(f) is a conditional, so
every check here verifies its hypothesis on the concrete inputs before
asserting the conclusion.  Trials whose hypothesis fails count as
vacuous, never as passes: a report comes back Vacuous when no trial ever
reached its conclusion, Fail when an asserted conclusion was violated,
and Pass otherwise.

Hypotheses are decided exactly, not on a sampling grid.  A(x, theta) =
theta A(x, 1), so D' = A'(., 1) (phi - theta) with phi = T(f)' / A'(., 1)
free of theta: D decreases (or increases) on a window iff theta lies on
one side of phi's least or greatest value there, which
``thresholds._phi_bounds`` reads off the breakpoint segments.  On each
segment T is a polynomial of degree at most 2 (over x - a for
averaging), so T(f), and T(k) - T(f) = T(k - f) for two functions, are
monotone between the breakpoints and their few turning points
(``_monotone_points``); the order of two transforms and the operator
contract are read off the values at those points.

The checks cover:

* the operator contract: T(f) >= 0, T(f) = 0 exactly for f = 0, and
  strict order on prefixes;
* root-side equivalences: the sign of D(x) = T(f)(x) - A(x, theta)
  locates the solution relative to x, with direction set by D's
  monotonicity;
* dominance order: pointwise order of transforms carries over to (or,
  for increasing D, reverses on) the solutions;
* theta monotonicity: solutions move against (decreasing D) or with
  (increasing D) the threshold parameter;
* the two gap bounds: the threshold gap at the solutions is bounded by
  the transform gap at the base solution, and vice versa, under the
  matching monotonicity hypotheses;
* pointwise and uniform convergence of bundles along perturbation
  sequences;
* the four impact axioms (zero-iff-zero, order preservation, strict
  prefix order, prefix equality);
* the sufficiency of the "D decreases for all admissible theta"
  hypothesis for the impact axioms.

Checks take the operator as its ``OperatorKind`` and build each T(f)
with ``operators.apply``.  ``run_property_suite`` runs all of them over
seeded random inputs.  The suite is one table (``_suite_table``) of
report names and the runs that build them; each randomized row runs one
trial per sub-seed of its own label and merges the trials' reports.

A deliberately order-reversing configuration (a gently decreasing
function against a faster-decreasing linear threshold, so that D
increases) exercises every reversal branch and supplies the
counterexamples that the impact axioms are expected to reject.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .errors import (
    BundleError,
    NoRootError,
    NonUniqueError,
    SingularAbscissaError,
)
from .funcspace import (
    PerturbMode,
    RankFrequencyFunction,
    _require_same_domain,
    _union_abscissas,
    eq_on_prefix,
    leq,
    lt_on_prefix,
    perturb,
    random_function,
)
from .operators import Monotonicity, OperatorKind, TransformedFunction, apply
from .reporting import Counterexample, Verdict, VerificationReport
from .solver import ABS_TOL_X, _set_up, _SetUp, _solve, solve_transformed
from .thresholds import (
    DecreasingLinearThreshold,
    PowerThreshold,
    ThresholdFamily,
    _phi_bounds,
    _search_window,
    admissible_range,
)

# relative margin on theta for classify_difference's comparisons with phi
_THETA_TOL = 1e-12
# tolerance for the positivity check of the operator contract
_MONO_TOL = 1e-12
# sign threshold for a difference value to fire a strict implication
_SIGN_EPS = 1e-9
# solver-noise margin for comparisons between located solutions
_X_EPS = 1e-8
_STRICT_GAP = 1e-12
# rounding allowance for a rise of the sup-gap in check_convergence_uniform
_SUP_JITTER = 1e-9

# fixed inputs of run_property_suite's gap-bound and convergence properties
_SCHEDULE_LENGTH = 25
_CONVERGENCE_N_MAX = 200


# --------------------------------------------------------------------------
# monotonicity of the difference
# --------------------------------------------------------------------------


def classify_difference(
    tf: TransformedFunction,
    family: ThresholdFamily,
    theta: float,
    x_window: tuple[float, float] | None = None,
) -> Monotonicity:
    """Monotonicity of D = T(f) - A(., theta), never assumed.

    Certified analytically when the transform and threshold pull in
    opposite directions: D is then monotone on [a, S], so on every
    sub-window too.  Otherwise decided exactly on ``x_window`` (default
    [a, S]), or on (shift, hi] where a power shift lies at or past its
    start, as the solver searches (NON_MONOTONE when that is empty):
    D' = A'(., 1) (phi - theta) with a theta-free phi, so theta against
    phi's least and greatest value there (``thresholds._phi_bounds``)
    decides, each to within a relative ``_THETA_TOL``.  Raises ValueError,
    as the solver does, for a window that is not inside [a, S].
    """
    lo, hi = _search_window(tf, x_window)
    if tf.monotonicity is Monotonicity.DECREASING and family.increasing_in_x:
        return Monotonicity.DECREASING
    if tf.monotonicity is Monotonicity.INCREASING and not family.increasing_in_x:
        return Monotonicity.INCREASING
    if isinstance(family, PowerThreshold):
        lo = max(lo, family.shift)
        if lo >= hi:  # the threshold is not positive on the window: nothing is monotone
            return Monotonicity.NON_MONOTONE
    phi_min, phi_max = _phi_bounds(tf, family, lo, hi)
    below, above = theta * (1.0 - _THETA_TOL), theta * (1.0 + _THETA_TOL)
    # A'(., 1) > 0 for a power, so D falls where phi <= theta; it is -1 for declin
    if family.increasing_in_x:
        falls, rises = above >= phi_max, below <= phi_min
    else:
        falls, rises = below <= phi_min, above >= phi_max
    if falls:
        return Monotonicity.DECREASING
    if rises:
        return Monotonicity.INCREASING
    return Monotonicity.NON_MONOTONE


def check_decreasing_difference(
    f: RankFrequencyFunction,
    kind: OperatorKind,
    family: ThresholdFamily,
    theta_grid: Sequence[float],
) -> bool:
    """True iff D decreases at every sampled theta (the impact-sufficiency test)."""
    tf = apply(kind, f)
    return all(
        classify_difference(tf, family, theta) is Monotonicity.DECREASING
        for theta in theta_grid
    )


def _monotone_points(kind: OperatorKind, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Points between which T(u) is monotone, u the piecewise-linear function through (xs, ys).

    They are the breakpoints and the turning points of T(u), so the
    extremes of T(u) on [xs[0], xs[-1]], or on any [xs[0], x], lie among
    them and x.  Per segment, of slope s: the identity has none; I(u)' = u
    vanishes at the vertex of the segment's quadratic; and with
    w = x - xs[0] and the segment's I(u) = P0 + P1 w + (s / 2) w^2,
    mu(u)' = ((s / 2) w^2 - P0) / w^2 vanishes at w = sqrt(P0 / (s / 2)).
    """
    if kind is OperatorKind.IDENTITY:
        return xs
    widths = xs[1:] - xs[:-1]
    cumulative = np.concatenate(([0.0], np.cumsum((ys[:-1] + ys[1:]) / 2.0 * widths)))[:-1]
    x0, y0, half = xs[:-1], ys[:-1], (ys[1:] - ys[:-1]) / widths / 2.0
    # NaN or inf where there is none
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if kind is OperatorKind.INTEGRAL:
            turns = x0 - y0 / (2.0 * half)
        else:
            e = x0 - xs[0]
            turns = xs[0] + np.sqrt((cumulative - e * (y0 - half * e)) / half)
    return np.sort(np.concatenate((xs, turns[(turns > x0) & (turns < xs[1:])])))


def _difference(
    k: RankFrequencyFunction, f: RankFrequencyFunction
) -> tuple[np.ndarray, np.ndarray]:
    """The breakpoints (xs, ys) of the piecewise-linear k - f; k and f must share their support."""
    _require_same_domain(k, f)
    xs = np.array(_union_abscissas(k, f))
    return xs, np.interp(xs, k.xs, k.ys) - np.interp(xs, f.xs, f.ys)


# --------------------------------------------------------------------------
# the operator contract
# --------------------------------------------------------------------------


def check_operator_contract(
    kind: OperatorKind,
    sample_functions: list[RankFrequencyFunction],
) -> VerificationReport:
    """Assert the contract every operator must honor.

    (a) T(f) >= 0 everywhere; (b) T(f) vanishes identically iff f does;
    (c) restriction monotonicity: f < g pointwise implies
    T(f) < T(g) on (support_start, a_cut] for prefix cuts a_cut, checked
    on the dominated pairs g = f + 0.5.  Each is decided exactly: T(f) and
    T(g) - T(f) = T(g - f) are monotone between the points of
    :func:`_monotone_points`, so their extremes lie among them.  At the
    open end a, where the integral's difference is 0, the sign of
    (g - f)(a), which it takes just right of a, decides.  Violations
    become report failures, never exceptions.
    """
    if not sample_functions:
        raise ValueError("need at least one sample function")
    samples = list(sample_functions) + [zero_like(sample_functions[0])]
    failures: list[Counterexample] = []
    satisfied = 0
    for i, f in enumerate(samples):
        tf = apply(kind, f)
        vals = tf.eval_many(_monotone_points(kind, f.xs, f.ys))
        satisfied += 1
        if float(vals.min()) < -_MONO_TOL:
            failures.append(
                Counterexample(
                    inputs=f"positivity sample#{i} ({f.digest()})",
                    lhs=float(vals.min()),
                    rhs=0.0,
                    slack=_MONO_TOL,
                )
            )
        transformed_zero = bool((vals == 0.0).all())
        if transformed_zero != f.is_zero():
            failures.append(
                Counterexample(
                    inputs=f"zero-iff-zero sample#{i} ({f.digest()})",
                    lhs=float(np.abs(vals).max()),
                    rhs=0.0,
                    slack=0.0,
                )
            )
    # strict restriction monotonicity on dominated pairs g = f + 0.5
    for i, f in enumerate(sample_functions):
        g = perturb(f, PerturbMode.ADDITIVE, 0.5)
        a, s = f.support_start, f.support_end
        cuts = [a + frac * (s - a) for frac in (0.25, 0.5, 0.75)]
        xs, ys = _difference(g, f)
        pts = np.sort(np.concatenate((_monotone_points(kind, xs, ys), cuts)))
        gap = apply(kind, g).eval_many(pts) - apply(kind, f).eval_many(pts)
        gap[0] = ys[0]  # the sign of the gap just right of the open end a
        for a_cut in cuts:
            low = float(gap[pts <= a_cut].min())
            satisfied += 1
            if low <= 0.0:
                failures.append(
                    Counterexample(
                        inputs=f"strict-restriction sample#{i} a_cut={a_cut:.6g}",
                        lhs=low,
                        rhs=0.0,
                        slack=0.0,
                    )
                )
    return VerificationReport(
        name=f"operator-contract/{kind.value}",
        trials=satisfied,
        satisfied=satisfied,
        failures=tuple(failures),
    )


# --------------------------------------------------------------------------
# small construction helpers shared by checks and tests
# --------------------------------------------------------------------------


def zero_like(f: RankFrequencyFunction) -> RankFrequencyFunction:
    return RankFrequencyFunction([(f.support_start, 0.0), (f.support_end, 0.0)])


def multiplicative_sequence(
    f: RankFrequencyFunction, scale: float = 1.0, signed: bool = True
) -> Callable[[int], RankFrequencyFunction]:
    """n -> f * (1 + scale * (-1)**n / n) (or +scale/n when unsigned).

    The factor-zero member (scale = 1, n = 1, signed) is the zero
    function, built directly since perturbations stop short of -1.
    """

    def make(n: int) -> RankFrequencyFunction:
        eps = scale * ((-1.0) ** n) / n if signed else scale / n
        if eps <= -1.0:
            return zero_like(f)
        return perturb(f, PerturbMode.MULTIPLICATIVE, eps)

    return make


def additive_sequence(
    f: RankFrequencyFunction, scale: float = 1.0
) -> Callable[[int], RankFrequencyFunction]:
    def make(n: int) -> RankFrequencyFunction:
        return perturb(f, PerturbMode.ADDITIVE, scale / n)

    return make


def prefix_bump(
    f: RankFrequencyFunction, a_cut: float, a_end: float, height: float
) -> RankFrequencyFunction:
    """f plus a plateau of the given height on [a, a_cut], tapering to 0 at a_end.

    The result dominates f strictly on the prefix and equals it from
    a_end on; it stays decreasing because the taper only steepens f.
    """
    a, s = f.support_start, f.support_end
    if not (a < a_cut < a_end <= s):
        raise ValueError("need support_start < a_cut < a_end <= support_end")
    if height <= 0:
        raise ValueError("bump height must be positive")
    xs = sorted({x for x, _ in f.breakpoints} | {a_cut, a_end})

    def bump(x: float) -> float:
        if x <= a_cut:
            return height
        if x >= a_end:
            return 0.0
        return height * (a_end - x) / (a_end - a_cut)

    return RankFrequencyFunction([(x, f.eval(x) + bump(x)) for x in xs])


def flatten_tail(
    f: RankFrequencyFunction, a_cut: float, softening: float = 0.5
) -> RankFrequencyFunction:
    """Equal to f on [a, a_cut], then descending more slowly (factor 1 - softening).

    Keeps the function decreasing and non-negative for any softening in
    (0, 1); used to build pairs that agree on a prefix and diverge after.
    """
    a, s = f.support_start, f.support_end
    if not (a < a_cut < s):
        raise ValueError("a_cut must be interior")
    if not 0.0 < softening < 1.0:
        raise ValueError("softening must lie in (0, 1)")
    pivot = f.eval(a_cut)
    keep = 1.0 - softening
    pts = [(x, y) for x, y in f.breakpoints if x < a_cut]
    pts.append((a_cut, pivot))
    pts.extend(
        (x, pivot + keep * (y - pivot)) for x, y in f.breakpoints if x > a_cut
    )
    return RankFrequencyFunction(pts)


@dataclass(frozen=True)
class ReversalFamily:
    """Order-reversing configuration: gentle line against a steeper-falling threshold.

    f(x) = intercept - slope * x on [0, span] against
    A(x, theta) = theta * (2 * span - x).  For theta inside
    :meth:`theta_window` the difference D = f - A increases strictly and
    crosses zero once, so every order statement flips direction.
    """

    span: float = 10.0
    intercept: float = 10.0
    slope: float = 0.05

    def __post_init__(self) -> None:
        if not self.slope * self.span < self.intercept / 2.0:
            raise ValueError("need slope * span < intercept / 2 for a usable theta window")

    def function(self) -> RankFrequencyFunction:
        return RankFrequencyFunction(
            [(0.0, self.intercept), (self.span, self.intercept - self.slope * self.span)]
        )

    def threshold(self) -> DecreasingLinearThreshold:
        return DecreasingLinearThreshold(ceiling=2.0 * self.span)

    def operator(self) -> OperatorKind:
        return OperatorKind.IDENTITY

    def theta_window(self, scale_max: float = 0.0) -> tuple[float, float]:
        """Thetas valid for f and every multiplicative inflation up to scale_max."""
        worst = 1.0 + scale_max
        lo = max(worst * self.slope, worst * self.intercept / (2.0 * self.span))
        hi = (self.intercept - self.slope * self.span) / self.span
        return lo, hi

    def theta(self, scale_max: float = 0.0, frac: float = 0.5) -> float:
        lo, hi = self.theta_window(scale_max)
        if not lo < hi:
            raise ValueError(f"empty theta window for scale_max={scale_max}")
        return lo + frac * (hi - lo)


def steep_power_window(
    f: RankFrequencyFunction,
    p: float,
    theta: float,
    envelope_scale: float,
) -> tuple[float, float] | None:
    """Sub-interval [x0, S] where the power threshold out-climbs the envelope.

    On it, d/dx (I(f_n) - theta * x**p) <= 0 for every f_n below
    envelope_scale * f, so the integral-transform difference decreases.
    Since f decreases and x**(p - 1) increases, p * theta * x**(p - 1) >=
    envelope_scale * f(x) holds exactly from the one root x0 of
    f(x) = (p * theta / envelope_scale) * x**(p - 1) on, or from the
    support start a when the power already out-climbs f there.  Requires
    p > 1; returns None when no usable window exists.
    """
    if p <= 1.0:
        return None
    slope = p * theta / envelope_scale
    try:
        x0, _ = solve_transformed(
            apply(OperatorKind.IDENTITY, f), PowerThreshold(p=p - 1.0, shift=0.0), slope
        )
    except NoRootError:  # the difference keeps one sign on [a, S]
        x0 = f.support_start
        if f.eval(x0) > slope * x0 ** (p - 1.0):
            return None
    s = f.support_end
    if not x0 < s:
        return None
    return x0, s


# --------------------------------------------------------------------------
# solving helpers
# --------------------------------------------------------------------------


def _try_solve_on(setup: _SetUp, theta: float) -> float | None:
    """The root at theta on a ``solver._set_up``; None for NoRoot and NonUnique."""
    try:
        m, _ = _solve(setup, theta)
        return m
    except (NoRootError, NonUniqueError):
        return None


def _psi_candidates(
    tf: TransformedFunction,
    family: ThresholdFamily,
    fractions: Sequence[float] = (0.3, 0.55, 0.8),
    hi_x: float | None = None,
) -> list[float]:
    """Thetas realized by the function itself at interior quantiles."""
    a, s = tf.origin, tf.support_end
    lo = a
    if isinstance(family, PowerThreshold):
        lo = max(lo, family.shift)
    hi = s if hi_x is None else hi_x
    if isinstance(family, DecreasingLinearThreshold):
        hi = min(hi, family.ceiling - 0.02 * (s - a))
    lo = lo + 0.02 * (hi - lo)
    out = []
    for q in fractions:
        x = lo + q * (hi - lo)
        if not lo <= x <= s:
            continue
        v = tf.eval(x)
        if v <= 0.0:
            continue
        try:
            out.append(family.theta_inverse(x, v))
        except (SingularAbscissaError, BundleError):
            continue
    return out


def _pair_thetas(
    tf: TransformedFunction,
    tg: TransformedFunction,
    family: ThresholdFamily,
    fractions: Sequence[float] = (0.3, 0.55, 0.8),
) -> list[float]:
    """Per quantile, the larger of the two realized thetas.

    For decreasing transforms against a power family that value is
    admissible for both functions of a dominated pair.
    """
    cf = _psi_candidates(tf, family, fractions)
    cg = _psi_candidates(tg, family, fractions)
    return [max(a, b) for a, b in zip(cf, cg)] if cf and cg else cf or cg


# --------------------------------------------------------------------------
# root side: sign of D(x) locates the solution
# --------------------------------------------------------------------------


def check_root_side(
    k: RankFrequencyFunction,
    kind: OperatorKind,
    family: ThresholdFamily,
    theta: float,
    x_samples: Sequence[float],
    name: str = "root-side",
) -> VerificationReport:
    """For monotone D, D(x)'s sign tells on which side of x the solution lies.

    Decreasing D: D(x) > 0 iff m > x and D(x) < 0 iff m < x; increasing D
    swaps the conclusions.  Both directions of each equivalence are
    asserted; samples where neither side fires count as vacuous.
    """
    tf = apply(kind, k)
    trials = len(x_samples)
    d_mono = classify_difference(tf, family, theta)
    if d_mono is Monotonicity.NON_MONOTONE:
        return VerificationReport(name=name, trials=trials, satisfied=0)
    m = _try_solve_on(_set_up(tf, family, None), theta)
    if m is None:
        return VerificationReport(name=name, trials=trials, satisfied=0)
    flip = -1.0 if d_mono is Monotonicity.INCREASING else 1.0
    failures: list[Counterexample] = []
    satisfied = 0
    for x in x_samples:
        d = (tf.eval(x) - family.value(x, theta)) * flip
        # (premise, conclusion, counterexample inputs, lhs, rhs, slack): each
        # equivalence in both directions
        implications = (
            (d > _SIGN_EPS, m > x - _X_EPS, "D(x)>0 should put m above x={:.6g}", m, x, _X_EPS),
            (d < -_SIGN_EPS, m < x + _X_EPS, "D(x)<0 should put m below x={:.6g}", m, x, _X_EPS),
            (x < m - _X_EPS, d >= -_SIGN_EPS, "m above x={:.6g} should force D(x)>=0", d, 0.0,
             _SIGN_EPS),
            (x > m + _X_EPS, d <= _SIGN_EPS, "m below x={:.6g} should force D(x)<=0", d, 0.0,
             _SIGN_EPS),
        )
        fired = False
        for premise, conclusion, inputs, lhs, rhs, slack in implications:
            if premise:
                fired = True
                if not conclusion:
                    failures.append(Counterexample(inputs.format(x), lhs, rhs, slack, theta=theta))
        satisfied += fired
    return VerificationReport(
        name=name, trials=trials, satisfied=satisfied, failures=tuple(failures)
    )


# --------------------------------------------------------------------------
# dominance order between two functions
# --------------------------------------------------------------------------


def check_dominance_order(
    k: RankFrequencyFunction,
    f: RankFrequencyFunction,
    kind: OperatorKind,
    family: ThresholdFamily,
    theta: float,
    name: str = "dominance-order",
) -> VerificationReport:
    """Pointwise order of transforms carries to solutions (or reverses).

    The premise (T(k) vs T(f), strict or weak, either direction) is
    decided exactly before anything is asserted, from the extremes of
    T(k) - T(f) = T(k - f) at the points of :func:`_monotone_points`; k
    and f must share their support.  Decreasing D preserves the order of solutions,
    increasing D reverses it.
    """
    tk = apply(kind, k)
    tf = apply(kind, f)
    xs = _monotone_points(kind, *_difference(k, f))
    gap = tk.eval_many(xs) - tf.eval_many(xs)
    gmin, gmax = float(gap.min()), float(gap.max())
    if gmin > _STRICT_GAP:
        premise = "gt"
    elif gmin >= -_STRICT_GAP:
        premise = "geq"
    elif gmax < -_STRICT_GAP:
        premise = "lt"
    elif gmax <= _STRICT_GAP:
        premise = "leq"
    else:
        return VerificationReport(name=name, trials=1, satisfied=0)
    d_mono = classify_difference(tk, family, theta)
    if d_mono is Monotonicity.NON_MONOTONE:
        return VerificationReport(name=name, trials=1, satisfied=0)
    mk = _try_solve_on(_set_up(tk, family, None), theta)
    mf = _try_solve_on(_set_up(tf, family, None), theta)
    if mk is None or mf is None:
        return VerificationReport(name=name, trials=1, satisfied=0)
    reverse = d_mono is Monotonicity.INCREASING
    # expected relation of mk vs mf
    bigger = premise in ("gt", "geq")
    if reverse:
        bigger = not bigger
    strict = premise in ("gt", "lt")
    if strict:
        ok = mk - mf > _STRICT_GAP if bigger else mf - mk > _STRICT_GAP
    else:
        ok = mk >= mf - _X_EPS if bigger else mf >= mk - _X_EPS
    failures = ()
    if not ok:
        failures = (
            Counterexample(
                inputs=f"premise={premise} d={d_mono.value} k={k.digest()} f={f.digest()}",
                lhs=mk,
                rhs=mf,
                slack=_STRICT_GAP if strict else _X_EPS,
                theta=theta,
            ),
        )
    return VerificationReport(name=name, trials=1, satisfied=1, failures=failures)


# --------------------------------------------------------------------------
# theta monotonicity of the bundle
# --------------------------------------------------------------------------


def check_theta_monotonicity(
    f: RankFrequencyFunction,
    kind: OperatorKind,
    family: ThresholdFamily,
    theta: float,
    theta_prime: float,
    name: str = "theta-monotonicity",
) -> VerificationReport:
    """Raising theta moves the solution down for decreasing D, up for increasing D.

    (Both shipped families increase in theta, so those are the two live
    branches.)  Requires theta < theta_prime and successful solves at
    both; anything else is vacuous.
    """
    if not theta < theta_prime:
        raise ValueError("need theta < theta_prime")
    tf = apply(kind, f)
    d1 = classify_difference(tf, family, theta)
    d2 = classify_difference(tf, family, theta_prime)
    if d1 is not d2 or d1 is Monotonicity.NON_MONOTONE:
        return VerificationReport(name=name, trials=1, satisfied=0)
    setup = _set_up(tf, family, None)
    m = _try_solve_on(setup, theta)
    m_prime = _try_solve_on(setup, theta_prime)
    if m is None or m_prime is None:
        return VerificationReport(name=name, trials=1, satisfied=0)
    if d1 is Monotonicity.DECREASING:
        ok = m - m_prime > _STRICT_GAP
        label = "expected m(theta') < m(theta)"
    else:
        ok = m_prime - m > _STRICT_GAP
        label = "expected m(theta) < m(theta')"
    failures = ()
    if not ok:
        failures = (
            Counterexample(
                inputs=f"{label}; f={f.digest()} theta'={theta_prime:.6g}",
                lhs=m,
                rhs=m_prime,
                slack=_STRICT_GAP,
                theta=theta,
            ),
        )
    return VerificationReport(name=name, trials=1, satisfied=1, failures=failures)


# --------------------------------------------------------------------------
# the two gap bounds
# --------------------------------------------------------------------------


def _gap_bound(
    f: RankFrequencyFunction,
    schedule: Sequence[RankFrequencyFunction],
    kind: OperatorKind,
    family: ThresholdFamily,
    theta: float,
    slack: float,
    name: str,
    hypothesis: Callable[[TransformedFunction], bool],
    *,
    threshold_bounded: bool,
    x_window: tuple[float, float] | None = None,
) -> VerificationReport:
    """One gap bound over a schedule, for the members that meet ``hypothesis``.

    The threshold gap |A(m_n) - A(m)| is bounded by the transform gap
    |T(f_n)(m) - T(f)(m)| when ``threshold_bounded``, and the other way
    round otherwise.  Members failing the hypothesis or the solve are
    vacuous.
    """
    tf = apply(kind, f)
    trials = len(schedule)
    m = _try_solve_on(_set_up(tf, family, x_window), theta)
    if m is None:
        return VerificationReport(name=name, trials=trials, satisfied=0)
    a_m = family.value(m, theta)
    t_m = tf.eval(m)
    satisfied = 0
    failures: list[Counterexample] = []
    for i, fn in enumerate(schedule, start=1):
        tfn = apply(kind, fn)
        if not hypothesis(tfn):
            continue
        mn = _try_solve_on(_set_up(tfn, family, x_window), theta)
        if mn is None:
            continue
        threshold_gap = abs(family.value(mn, theta) - a_m)
        transform_gap = abs(tfn.eval(m) - t_m)
        lhs, rhs = (
            (threshold_gap, transform_gap) if threshold_bounded else (transform_gap, threshold_gap)
        )
        satisfied += 1
        if lhs > rhs + slack:
            failures.append(
                Counterexample(
                    inputs=f"schedule#{i} f={f.digest()}",
                    lhs=lhs,
                    rhs=rhs,
                    slack=slack,
                    theta=theta,
                )
            )
    return VerificationReport(
        name=name, trials=trials, satisfied=satisfied, failures=tuple(failures)
    )


def check_threshold_gap_bound(
    f: RankFrequencyFunction,
    schedule: Sequence[RankFrequencyFunction],
    kind: OperatorKind,
    family: ThresholdFamily,
    theta: float,
    slack: float = 1e-9,
    name: str = "threshold-gap-bound",
) -> VerificationReport:
    """|A(m_n) - A(m)| <= |T(f_n)(m) - T(f)(m)| under the first gap hypothesis.

    The hypothesis, checked per schedule member: T(f_n) decreases while A
    increases in x, or T(f_n) increases while A decreases in x.  Members
    failing it (or failing to solve) are vacuous.
    """
    against = Monotonicity.DECREASING if family.increasing_in_x else Monotonicity.INCREASING
    return _gap_bound(
        f, schedule, kind, family, theta, slack, name,
        hypothesis=lambda tfn: tfn.monotonicity is against,
        threshold_bounded=True,
    )


def check_transform_gap_bound(
    f: RankFrequencyFunction,
    schedule: Sequence[RankFrequencyFunction],
    kind: OperatorKind,
    family: ThresholdFamily,
    theta: float,
    slack: float = 1e-9,
    x_window: tuple[float, float] | None = None,
    name: str = "transform-gap-bound",
) -> VerificationReport:
    """|T(f_n)(m) - T(f)(m)| <= |A(m_n) - A(m)| under the second gap hypothesis.

    Per member: T(f_n) increases while its difference with A decreases,
    or T(f_n) decreases while the difference increases.  ``x_window``
    restricts both the solves and the difference classification to a
    sub-interval on which the hypothesis is certifiable.
    """

    def hypothesis(tfn: TransformedFunction) -> bool:
        d_mono = classify_difference(tfn, family, theta, x_window=x_window)
        return {tfn.monotonicity, d_mono} == {Monotonicity.INCREASING, Monotonicity.DECREASING}

    return _gap_bound(
        f, schedule, kind, family, theta, slack, name, hypothesis,
        threshold_bounded=False, x_window=x_window,
    )


# --------------------------------------------------------------------------
# convergence of bundles
# --------------------------------------------------------------------------


def check_convergence_pointwise(
    f: RankFrequencyFunction,
    sequence: Callable[[int], RankFrequencyFunction],
    kind: OperatorKind,
    family: ThresholdFamily,
    theta_grid: Sequence[float],
    n_max: int,
    name: str = "convergence-pointwise",
) -> VerificationReport:
    """Solutions follow a pointwise-convergent sequence, theta by theta.

    The terminal gap must fall below 10 * ABS_TOL_X + C / n_max where C
    is the observed first-member gap; the transformed values at the base
    solution (the reconstruction of the limit on the range of the
    bundle) must shrink proportionally too.
    """
    tf = apply(kind, f)
    trials = len(theta_grid)
    satisfied = 0
    failures: list[Counterexample] = []
    f1 = sequence(1)
    fn = sequence(n_max)
    tf1 = apply(kind, f1)
    tfn = apply(kind, fn)
    setups = [_set_up(t, family, None) for t in (tf, tf1, tfn)]
    for theta in theta_grid:
        m, m1, mn = (_try_solve_on(setup, theta) for setup in setups)
        if m is None or m1 is None or mn is None:
            continue
        satisfied += 1
        first_gap = abs(m1 - m)
        tol = 10.0 * ABS_TOL_X + first_gap / n_max
        gap = abs(mn - m)
        if gap > tol:
            failures.append(
                Counterexample(
                    inputs=f"solution gap at n={n_max}, f={f.digest()}",
                    lhs=gap,
                    rhs=tol,
                    slack=0.0,
                    theta=theta,
                )
            )
        tv1 = abs(tf1.eval(m) - tf.eval(m))
        tvn = abs(tfn.eval(m) - tf.eval(m))
        tv_tol = 2.0 * tv1 / n_max + 1e-12
        if tvn > tv_tol:
            failures.append(
                Counterexample(
                    inputs=f"transform gap at base solution, n={n_max}, f={f.digest()}",
                    lhs=tvn,
                    rhs=tv_tol,
                    slack=0.0,
                    theta=theta,
                )
            )
    return VerificationReport(
        name=name, trials=trials, satisfied=satisfied, failures=tuple(failures)
    )


def check_convergence_uniform(
    f: RankFrequencyFunction,
    sequence: Callable[[int], RankFrequencyFunction],
    kind: OperatorKind,
    family: ThresholdFamily,
    theta_min: float,
    grid_size: int,
    n_max: int,
    name: str = "convergence-uniform",
) -> VerificationReport:
    """Sup over a theta grid bounded away from zero shrinks monotonically.

    The grid spans [theta_min, 10 * theta_min].  Checks that the sup-gap
    sequence is non-increasing (within rounding) along n = 1, 2, 4, ...,
    n_max and that the final sup meets the first-member-calibrated
    tolerance.
    """
    if not theta_min > 0:
        raise ValueError("theta_min must be positive")
    thetas = np.linspace(theta_min, 10.0 * theta_min, grid_size)
    n_values = []
    n = 1
    while n < n_max:
        n_values.append(n)
        n *= 2
    n_values.append(n_max)
    tf = apply(kind, f)
    setup = _set_up(tf, family, None)
    base: dict[float, float] = {}
    for theta in thetas:
        m = _try_solve_on(setup, float(theta))
        if m is not None:
            base[float(theta)] = m
    trials = len(n_values)
    if not base:
        return VerificationReport(name=name, trials=trials, satisfied=0)
    sups: list[float] = []
    failures: list[Counterexample] = []
    satisfied = 0
    for n in n_values:
        setup = _set_up(apply(kind, sequence(n)), family, None)
        gaps = []
        for theta, m in base.items():
            mn = _try_solve_on(setup, theta)
            if mn is not None:
                gaps.append(abs(mn - m))
        if not gaps:
            continue
        satisfied += 1
        sups.append(max(gaps))
    for i in range(1, len(sups)):
        if sups[i] > sups[i - 1] + _SUP_JITTER:
            failures.append(
                Counterexample(
                    inputs=f"sup-gap rose between checked indices {i - 1} and {i}",
                    lhs=sups[i],
                    rhs=sups[i - 1],
                    slack=_SUP_JITTER,
                )
            )
    if sups:
        tol = 10.0 * ABS_TOL_X + sups[0] / n_values[-1]
        if sups[-1] > tol:
            failures.append(
                Counterexample(
                    inputs=f"terminal sup-gap at n={n_values[-1]}",
                    lhs=sups[-1],
                    rhs=tol,
                    slack=0.0,
                )
            )
    return VerificationReport(
        name=name, trials=trials, satisfied=satisfied, failures=tuple(failures)
    )


# --------------------------------------------------------------------------
# impact axioms
# --------------------------------------------------------------------------


def check_impact_axioms(
    kind: OperatorKind,
    family: ThresholdFamily,
    master_seed: int,
    trials: int,
    function_gen: Callable[[np.random.Generator], RankFrequencyFunction] | None = None,
    pair_theta_fn: Callable[
        [TransformedFunction, TransformedFunction, ThresholdFamily], list[float]
    ] | None = None,
    name: str = "impact-axioms",
) -> VerificationReport:
    """Randomized audit of the four impact axioms for one configuration.

    Per trial: the zero function maps to a zero solution and nonzero
    functions never do (zero-iff-zero); dominated pairs keep their order
    (order preservation); strict dominance on a prefix forces strictly
    larger solutions for every theta realized on that prefix (strict
    prefix order); equality on a prefix forces equal solutions there
    (prefix equality).  Theta draws a function cannot solve make the
    sub-check vacuous.
    """
    failures: list[Counterexample] = []
    satisfied = 0
    attempted = 0
    pick_thetas = pair_theta_fn or _pair_thetas

    def pair_axiom(
        sf: _SetUp,
        tg: TransformedFunction,
        thetas: Sequence[float],
        holds: Callable[[float, float], bool],
        inputs: str,
        slack: float,
        seed: int,
    ) -> int:
        """Check ``holds(m_f, m_g)`` at every theta both solve, f on ``sf``; 1 if any did."""
        fired = 0
        sg = _set_up(tg, family, None)
        for theta in thetas:
            mf = _try_solve_on(sf, theta)
            mg = _try_solve_on(sg, theta)
            if mf is None or mg is None:
                continue
            fired = 1
            if not holds(mf, mg):
                failures.append(
                    Counterexample(
                        inputs=inputs, lhs=mf, rhs=mg, slack=slack, seed=seed, theta=theta
                    )
                )
        return fired

    children = np.random.SeedSequence(master_seed).spawn(trials)
    for idx, child in enumerate(children):
        rng = np.random.default_rng(child)
        sub_seed = int(child.generate_state(1, dtype=np.uint64)[0])
        f = (
            function_gen(rng)
            if function_gen is not None
            else random_function(sub_seed)
        )
        if f.is_zero():
            continue
        tf = apply(kind, f)
        sf = _set_up(tf, family, None)
        a, s = f.support_start, f.support_end

        # zero-iff-zero
        attempted += 1
        zero = zero_like(f)
        m_zero = _try_solve_on(_set_up(apply(kind, zero), family, None), 1.0)
        satisfied += 1
        if m_zero is None or m_zero != a:
            failures.append(
                Counterexample(
                    inputs=f"zero-iff-zero: zero function trial#{idx}",
                    lhs=m_zero if m_zero is not None else math.nan,
                    rhs=a,
                    slack=0.0,
                    seed=sub_seed,
                )
            )
        for theta in _psi_candidates(tf, family):
            m = _try_solve_on(sf, theta)
            if m is None:
                continue
            if not m > _STRICT_GAP:
                failures.append(
                    Counterexample(
                        inputs=f"zero-iff-zero: nonzero f solved to zero trial#{idx}",
                        lhs=m,
                        rhs=0.0,
                        slack=_STRICT_GAP,
                        seed=sub_seed,
                        theta=theta,
                    )
                )

        # order preservation on a dominated pair
        attempted += 1
        mode = _random_mode(rng)
        delta = float(rng.uniform(0.05, 0.5))
        g = perturb(f, mode, delta)
        if leq(f, g):
            tg = apply(kind, g)
            satisfied += pair_axiom(
                sf,
                tg,
                pick_thetas(tf, tg, family),
                lambda mf, mg: mf <= mg + _SIGN_EPS,
                f"order-preservation trial#{idx} mode={mode.value} delta={delta:.4g}",
                _SIGN_EPS,
                sub_seed,
            )

        # strict prefix order
        attempted += 1
        a_cut = a + float(rng.uniform(0.25, 0.6)) * (s - a)
        a_end = a_cut + float(rng.uniform(0.15, 0.35)) * (s - a_cut)
        height = float(rng.uniform(0.1, 0.5)) * (1.0 + 0.2 * f.eval(a))
        g = prefix_bump(f, a_cut, a_end, height)
        if lt_on_prefix(f, g, a_cut):
            tg = apply(kind, g)
            thetas = _psi_candidates(tf, family, hi_x=a_cut) + _psi_candidates(
                tg, family, hi_x=a_cut
            )
            satisfied += pair_axiom(
                sf,
                tg,
                thetas,
                lambda mf, mg: mg - mf > _STRICT_GAP,
                f"strict-prefix-order trial#{idx} a_cut={a_cut:.4g}",
                _STRICT_GAP,
                sub_seed,
            )

        # prefix equality
        attempted += 1
        if f.eval(a_cut) > 0:
            g = flatten_tail(f, a_cut, softening=float(rng.uniform(0.3, 0.7)))
            if eq_on_prefix(f, g, a_cut):
                satisfied += pair_axiom(
                    sf,
                    apply(kind, g),
                    _psi_candidates(tf, family, hi_x=a_cut),
                    lambda mf, mg: abs(mf - mg) <= ABS_TOL_X,
                    f"prefix-equality trial#{idx} a_cut={a_cut:.4g}",
                    ABS_TOL_X,
                    sub_seed,
                )
    return VerificationReport(
        name=name, trials=attempted, satisfied=satisfied, failures=tuple(failures)
    )


# --------------------------------------------------------------------------
# the data-driven property suite
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SuiteConfig:
    master_seed: int = 20240810
    trials: int = 40
    include_reversal_in_impact: bool = False


@dataclass(frozen=True)
class SuiteResult:
    reports: tuple[VerificationReport, ...]

    @property
    def any_fail(self) -> bool:
        return any(r.verdict is Verdict.FAIL for r in self.reports)

    def counts(self) -> dict[str, int]:
        out = {"pass": 0, "fail": 0, "vacuous": 0}
        for r in self.reports:
            out[r.verdict.value] += 1
        return out

    def to_dict(self) -> dict:
        return {
            "counts": self.counts(),
            "reports": [r.to_dict() for r in self.reports],
        }


_STOCK_SETTINGS: tuple[tuple[str, OperatorKind, float], ...] = (
    ("identity-power1", OperatorKind.IDENTITY, 1.0),
    ("identity-power0.5", OperatorKind.IDENTITY, 0.5),
    ("identity-power2", OperatorKind.IDENTITY, 2.0),
    ("averaging-power1", OperatorKind.AVERAGING, 1.0),
    ("averaging-power2", OperatorKind.AVERAGING, 2.0),
)


def _sub_seeds(master: int, label: str, count: int) -> list[int]:
    # crc32, not hash(): str hashes are salted per process
    root = np.random.SeedSequence(master, spawn_key=(zlib.crc32(label.encode()),))
    return [int(c.generate_state(1, dtype=np.uint64)[0]) for c in root.spawn(count)]


def _random_mode(rng: np.random.Generator) -> PerturbMode:
    """Multiplicative or additive with equal odds, from one ``rng.random()`` draw."""
    return PerturbMode.MULTIPLICATIVE if rng.random() < 0.5 else PerturbMode.ADDITIVE


def _random_reversal(rng: np.random.Generator) -> ReversalFamily:
    """A reversal family on [0, 10] with a random intercept, then a random slope."""
    return ReversalFamily(
        span=10.0, intercept=float(rng.uniform(8.0, 12.0)), slope=float(rng.uniform(0.03, 0.08))
    )


def _schedule(
    f: RankFrequencyFunction, mode: PerturbMode, scale: float, length: int
) -> list[RankFrequencyFunction]:
    """f perturbed by scale / n for n = 1, ..., length."""
    return [perturb(f, mode, scale / n) for n in range(1, length + 1)]


def _nonzero_random(seed: int) -> RankFrequencyFunction:
    f = random_function(seed)
    if f.is_zero():  # astronomically unlikely; regenerate deterministically
        f = random_function(seed + 1)
    return f


def _contract(master_seed: int, kind: OperatorKind, name: str) -> VerificationReport:
    # check_operator_contract names its report operator-contract/<kind>
    seeds = _sub_seeds(master_seed, f"contract-{kind.value}", 12)
    return check_operator_contract(kind, [_nonzero_random(s) for s in seeds])


def _root_side_trial(
    kind: OperatorKind, family: PowerThreshold, i: int, seed: int
) -> VerificationReport | None:
    f = _nonzero_random(seed)
    thetas = _psi_candidates(apply(kind, f), family, fractions=(0.5,))
    if not thetas:
        return None
    xs = np.linspace(f.support_start, f.support_end, 11)[1:-1]
    return check_root_side(f, kind, family, thetas[0], xs.tolist())


def _dominance_trial(
    kind: OperatorKind, family: PowerThreshold, i: int, seed: int
) -> VerificationReport | None:
    f = _nonzero_random(seed)
    rng = np.random.default_rng(seed)
    k = perturb(f, _random_mode(rng), float(rng.uniform(0.05, 0.4)))
    thetas = _pair_thetas(apply(kind, f), apply(kind, k), family, fractions=(0.5,))
    if not thetas:
        return None
    return check_dominance_order(k, f, kind, family, thetas[0])


def _theta_monotonicity_trial(
    kind: OperatorKind, family: PowerThreshold, i: int, seed: int
) -> VerificationReport | None:
    f = _nonzero_random(seed)
    thetas = _psi_candidates(apply(kind, f), family, fractions=(0.6,))
    if not thetas:
        return None
    return check_theta_monotonicity(f, kind, family, thetas[0], 1.7 * thetas[0])


def _seeded(
    master_seed: int,
    label: str,
    count: int,
    trial: Callable[[int, int], VerificationReport | None],
    name: str,
) -> VerificationReport:
    """``trial(i, seed)`` on the i-th of ``count`` sub-seeds of ``label``; Nones drop out."""
    per = (trial(i, seed) for i, seed in enumerate(_sub_seeds(master_seed, label, count)))
    return VerificationReport.merge(name, [r for r in per if r is not None])


def _suite_table(cfg: SuiteConfig) -> list[tuple[str, Callable[..., VerificationReport]]]:
    """Every property of the suite as (report name, run), in report order.

    ``run(name=name)`` builds that property's report.  The randomized
    rows run through :func:`_seeded`, each on its own sub-seed label.
    """
    seed, trials = cfg.master_seed, cfg.trials
    table = [
        (f"operator-contract/{kind.value}", partial(_contract, seed, kind))
        for kind in OperatorKind
    ]
    for label, kind, p in _STOCK_SETTINGS:
        family = PowerThreshold(p=p, shift=0.0)
        table += [
            (
                f"{prefix}/{label}",
                partial(_seeded, seed, f"{seed_label}-{label}", trials, partial(trial, kind, family)),
            )
            for prefix, seed_label, trial in (
                ("root-side", "rootside", _root_side_trial),
                ("dominance-order", "dominance", _dominance_trial),
                ("theta-monotonicity", "thetamono", _theta_monotonicity_trial),
            )
        ]

    # reversal branches of the same three checks
    rev = ReversalFamily()
    rev_f, rev_a, rev_kind = rev.function(), rev.threshold(), rev.operator()
    lo_w, hi_w = rev.theta_window()
    table += [
        ("root-side/reversal", partial(
            check_root_side, rev_f, rev_kind, rev_a, rev.theta(),
            np.linspace(0.5, rev.span - 0.5, 9).tolist(),
        )),
        ("dominance-order/reversal", partial(
            check_dominance_order, perturb(rev_f, PerturbMode.MULTIPLICATIVE, 0.2), rev_f,
            rev_kind, rev_a, rev.theta(scale_max=0.2),
        )),
        ("theta-monotonicity/reversal", partial(
            check_theta_monotonicity, rev_f, rev_kind, rev_a,
            lo_w + 0.3 * (hi_w - lo_w), lo_w + 0.7 * (hi_w - lo_w),
        )),
        ("threshold-gap-bound", partial(_seeded, seed, "gap13", trials, _threshold_gap_trial)),
        ("transform-gap-bound", partial(_seeded, seed, "gap14", trials, _transform_gap_trial)),
    ]

    line = RankFrequencyFunction([(0.0, 10.0), (10.0, 0.0)])
    h_family = PowerThreshold(p=1.0, shift=0.0)
    for label, kind in (("h", OperatorKind.IDENTITY), ("g", OperatorKind.AVERAGING)):
        table += [
            (f"convergence-pointwise/{label}", partial(
                check_convergence_pointwise, line, multiplicative_sequence(line), kind, h_family,
                [0.5, 1.0, 2.0, 5.0], _CONVERGENCE_N_MAX,
            )),
            (f"convergence-uniform/{label}", partial(
                check_convergence_uniform, line, additive_sequence(line), kind, h_family,
                0.5, 8, _CONVERGENCE_N_MAX,
            )),
        ]

    table += [
        (f"impact-axioms/{label}", partial(
            check_impact_axioms, kind, PowerThreshold(p=p, shift=0.0),
            _sub_seeds(seed, f"impact-{label}", 1)[0], trials,
        ))
        for label, kind, p in _STOCK_SETTINGS
    ]
    if cfg.include_reversal_in_impact:
        reversal = partial(reversal_impact_report, seed, trials)
        table.append(("impact-axioms/reversal", reversal))
    # sufficiency: settings whose difference decreases everywhere satisfy the axioms
    table.append((
        "monotone-difference-forward",
        partial(_seeded, seed, "thm3fwd", max(trials // 2, 5), _forward_trial),
    ))
    return table


def run_property_suite(config: SuiteConfig | None = None) -> SuiteResult:
    """Run every check over randomized inputs; deterministic per master seed.

    With ``trials=0`` nothing runs and every report is vacuous.
    """
    cfg = config or SuiteConfig()
    table = _suite_table(cfg)
    if cfg.trials == 0:
        return SuiteResult(
            reports=tuple(VerificationReport(name=name, trials=0, satisfied=0) for name, _ in table)
        )
    return SuiteResult(reports=tuple(run(name=name) for name, run in table))


def _threshold_gap_trial(i: int, seed: int) -> VerificationReport | None:
    """One instance of the first gap bound; i picks the branch."""
    f = _nonzero_random(seed)
    rng = np.random.default_rng(seed)
    branch = i % 3
    if branch in (0, 1):
        kind = OperatorKind.IDENTITY if branch == 0 else OperatorKind.AVERAGING
        family = PowerThreshold(p=float(rng.choice([1.0, 2.0])), shift=0.0)
        schedule = _schedule(f, _random_mode(rng), 1.0, _SCHEDULE_LENGTH)
        theta = _theta_for_schedule(f, schedule, kind, family)
        if theta is None:
            return None
    else:
        # increasing transform against a decreasing threshold
        kind = OperatorKind.INTEGRAL
        family = DecreasingLinearThreshold(ceiling=2.0 * f.support_end)
        schedule = _schedule(f, PerturbMode.MULTIPLICATIVE, 1.0, _SCHEDULE_LENGTH)
        total = f.integral(f.support_start, f.support_end)
        if total <= 0:
            return None
        theta = 0.45 * total / (family.ceiling - f.support_end)
    return check_threshold_gap_bound(f, schedule, kind, family, theta)


def _transform_gap_trial(i: int, seed: int) -> VerificationReport | None:
    """One instance of the second gap bound; i picks the branch."""
    rng = np.random.default_rng(seed)
    if i % 2 == 0:
        # increasing transform, decreasing difference on a steep-power window
        f = _nonzero_random(seed)
        kind = OperatorKind.INTEGRAL
        family = PowerThreshold(p=2.0, shift=0.0)
        schedule = _schedule(f, PerturbMode.MULTIPLICATIVE, 1.0, _SCHEDULE_LENGTH)
        total = f.integral(f.support_start, f.support_end)
        if total <= 0:
            return None
        s = f.support_end
        theta = 2.4 * total / (s * s)
        window = steep_power_window(f, 2.0, theta, envelope_scale=2.0)
        if window is None:
            return None
        return check_transform_gap_bound(f, schedule, kind, family, theta, x_window=window)
    # decreasing transform, increasing difference: the reversal family
    fam = _random_reversal(rng)
    f = fam.function()
    kappa = 0.4
    schedule = _schedule(f, PerturbMode.MULTIPLICATIVE, kappa, _SCHEDULE_LENGTH)
    lo, hi = fam.theta_window(scale_max=kappa)
    if not lo < hi:
        return None
    theta = lo + 0.5 * (hi - lo)
    return check_transform_gap_bound(f, schedule, fam.operator(), fam.threshold(), theta)


def _theta_for_schedule(
    f: RankFrequencyFunction,
    schedule: Sequence[RankFrequencyFunction],
    kind: OperatorKind,
    family: PowerThreshold,
) -> float | None:
    """A theta admissible for the base function and the whole schedule.

    For decreasing transforms against a power family the binding
    constraint is the largest right-endpoint realized theta.
    """
    tf = apply(kind, f)
    s = tf.support_end
    denom = (s - family.shift) ** family.p
    floor_theta = tf.eval(s) / denom
    for fn in schedule:
        floor_theta = max(floor_theta, apply(kind, fn).eval(s) / denom)
    cands = _psi_candidates(tf, family, fractions=(0.5,))
    if not cands:
        return None
    return max(1.05 * floor_theta, cands[0])


def reversal_impact_report(
    master_seed: int,
    trials: int,
    name: str = "impact-axioms/reversal",
) -> VerificationReport:
    """Impact audit of the order-reversing configuration; expected to fail."""

    def pick(
        tf: TransformedFunction, tg: TransformedFunction, family: ThresholdFamily
    ) -> list[float]:
        """The middle of the thetas admissible for both at which both Ds increase."""
        lows, highs = [], []
        for t in (tf, tg):
            # against declin D increases for theta >= max phi, here f's steepest descent
            rising = _phi_bounds(t, family, t.origin, t.support_end)[1]
            rng = admissible_range(t.source, t.kind, family)
            lows += [rising, rng.theta_min or 0.0]
            highs.append(rng.theta_max)
        lo, hi = max(lows), min(highs)
        return [lo + 0.5 * (hi - lo)] if lo < hi else []

    return check_impact_axioms(
        OperatorKind.IDENTITY,
        DecreasingLinearThreshold(ceiling=20.0),
        master_seed,
        trials,
        function_gen=lambda rng: _random_reversal(rng).function(),
        pair_theta_fn=pick,
        name=name,
    )


def _forward_trial(i: int, seed: int) -> VerificationReport | None:
    """A stock setting (i picks it) whose difference decreases satisfies the axioms."""
    label, kind, p = _STOCK_SETTINGS[i % len(_STOCK_SETTINGS)]
    family = PowerThreshold(p=p, shift=0.0)
    f = _nonzero_random(seed)
    thetas = _psi_candidates(apply(kind, f), family)
    if not thetas or not check_decreasing_difference(f, kind, family, thetas):
        return None
    return check_impact_axioms(
        kind, family, seed, 1, name=f"monotone-difference-forward/{label}"
    )
