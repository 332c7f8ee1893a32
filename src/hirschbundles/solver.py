"""Root solver for the defining equation T(f)(x) = A(x, theta).

Writing D(x) = T(f)(x) - A(x, theta), the solution m_theta(f) is the
unique zero of D on the search domain [a, S], or on a sub-window of it.
A power threshold is positive only for x > shift, so when the shift lies
at or after the window start the domain is the half-open (shift, hi]: a
zero of D at x = shift itself (the integral operator's trivial root
I(f)(a) = 0 = A(a, theta)) is not a solution.

Existence and uniqueness are decided exactly from the breakpoints of f,
on which T(f) is linear (identity), quadratic (integral) or a quadratic
over (x - a) (averaging).  D = A(., 1) (psi_f - theta) has the sign of
psi_f - theta, and one theta-free table per window
(``thresholds._solve_table``) splits psi_f into monotone runs; identity or
averaging against a power is one falling run.  D changes sign at most
once on a run, found by one float bisection over the run's points.  A
zero of D at a point, or a sign change on a cell, is a root; D = 0 at two
neighbouring points is psi_f = theta on a whole cell.  No root means
theta is not admissible, several mean the configuration left the
uniqueness hypotheses, which is reported rather than silently resolved.
The single root is then solved on its one cell, in closed form where
the segment equation is a polynomial of degree at most 2 and by
bisection otherwise.  Bisection stops once its bracket is narrower than
``ABS_TOL_X`` or down to adjacent floats.  ``verify`` decides the
monotonicity of D itself from its turning points (``_monotone_pieces``).

The identically-zero function is special-cased to m = support_start with
a success status: a zero record has zero impact at every admissible
theta.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, NonPositiveThetaError, NoRootError, NonUniqueError
from .funcspace import RankFrequencyFunction
from .operators import OperatorKind, TransformedFunction, apply
from .thresholds import (
    DecreasingLinearThreshold,
    PowerThreshold,
    ThresholdFamily,
    _power,
    _segment,
    _solve_table,
)

# Width in x at which bisection stops.
ABS_TOL_X = 1e-10

# |D(S)| below this (relative to the largest |D| seen) counts as a root
# at the right endpoint: the closed endpoint belongs to the domain.
_BOUNDARY_TOL = 1e-12


class SolveStatus(Enum):
    EXACT_SEGMENT = "ExactSegment"
    BISECTION = "Bisection"
    NO_ROOT = "NoRoot"
    NON_UNIQUE = "NonUnique"


@dataclass(frozen=True)
class BundleEntry:
    theta: float
    m: float
    status: SolveStatus


def solve_bundle_point(
    f: RankFrequencyFunction,
    kind: OperatorKind,
    family: ThresholdFamily,
    theta: float,
    *,
    x_window: tuple[float, float] | None = None,
) -> tuple[float, SolveStatus]:
    """Solve T(f)(x) = A(x, theta) for x, where T(f) = ``apply(kind, f)``.

    Returns (m, status) on success; raises NoRootError when theta is not
    admissible and NonUniqueError when the equation has more than one
    root.  ``x_window`` restricts the search to a sub-interval of [a, S]
    (the transform still uses the full function).
    """
    return solve_transformed(apply(kind, f), family, theta, x_window=x_window)


def solve_transformed(
    tf: TransformedFunction,
    family: ThresholdFamily,
    theta: float,
    *,
    x_window: tuple[float, float] | None = None,
) -> tuple[float, SolveStatus]:
    if not 0 < theta < math.inf:  # the chained comparison also rejects NaN
        raise NonPositiveThetaError(f"theta must be positive and finite, got {theta}")
    if tf.source.is_zero():
        return tf.origin, SolveStatus.EXACT_SEGMENT
    lo, hi = x_window if x_window is not None else (tf.origin, tf.support_end)
    if not (tf.origin <= lo < hi <= tf.support_end):
        raise ValueError(f"x_window [{lo}, {hi}] not inside [{tf.origin}, {tf.support_end}]")
    if isinstance(family, DecreasingLinearThreshold) and family.ceiling <= hi:
        raise DomainError(
            f"threshold ceiling {family.ceiling} must exceed the search domain end {hi}"
        )
    open_lo = False
    if isinstance(family, PowerThreshold) and family.shift >= lo:
        if family.shift >= hi:
            raise NoRootError(
                f"theta={theta} is not admissible: the threshold is not positive on [{lo}, {hi}]"
            )
        lo, open_lo = family.shift, True

    xs, tvals, base, segs, runs, _, lo_limit = _solve_table(tf, family, lo, hi)
    # each root is (j, exact): a zero of D at xs[j], or a sign change on (xs[j - 1], xs[j])
    roots: list[tuple[int, bool]] = []
    for first, last, rising in runs:
        # the first point past the run's one sign change, D >= 0 (rising) or D <= 0,
        # by the probes of np.searchsorted over the run's values of D or -D
        if rising:
            j = bisect_left(range(last + 1), 0.0, first, key=lambda i: tvals[i] - theta * base[i])
        else:
            j = bisect_left(range(last + 1), 0.0, first, key=lambda i: theta * base[i] - tvals[i])
        if j <= last and tvals[j] - theta * base[j] == 0.0:
            if j < last and tvals[j + 1] - theta * base[j + 1] == 0.0:
                # psi_f is theta on [xs[j], xs[j + 1]]
                raise NonUniqueError(f"D = 0 on [{xs[j]}, {xs[j + 1]}] for theta={theta}")
            if not (j == 0 and open_lo) and (j, True) not in roots:
                roots.append((j, True))
        elif first < j <= last:
            roots.append((j, False))
    if len(roots) > 1:
        raise NonUniqueError(f"{len(roots)} roots found for theta={theta}; solution not unique")
    if roots:
        j, exact = roots[0]
        if exact:
            return xs[j], SolveStatus.EXACT_SEGMENT
        d_lo = tvals[j - 1] - theta * base[j - 1]
        segment = _segment(tf.source, segs[j - 1])
        return _locate(tf, family, theta, xs[j - 1], xs[j], d_lo, segment)
    # No root, so D keeps the sign it has at S.  Where that is the sign before the
    # last run's change (j, last and rising are the last run's), S is a root if
    # |D(S)| is rounding noise against the largest |D|.
    if j > last:
        # D past a limit entry (D is 0 at the shift itself); where an overflowing
        # threshold makes some |D| inf, S is no root
        dvals = [t - theta * b for t, b in zip(tvals[lo_limit:], base[lo_limit:])]
        tol = _BOUNDARY_TOL * max(1.0, float(np.abs(dvals).max()))
        if hi == tf.support_end and abs(dvals[-1]) <= tol < math.inf:
            return hi, SolveStatus.EXACT_SEGMENT
    elif not rising:
        raise NoRootError(f"theta={theta} is not admissible: D < 0 on the domain from {lo} to {hi}")
    bracket = "(" if open_lo else "["
    raise NoRootError(f"theta={theta} is not admissible: no root on {bracket}{lo}, {hi}]")


def _transform_poly(kind: OperatorKind, segment):
    """T(u) on a breakpoint segment as coefficients (c2, c1, c0) in t = x - x0.

    For averaging these are the numerator I(u) of mu(u) = I(u) / (x - a).
    ``segment`` is what :func:`_segment` returns, for one segment or many.
    """
    _, y0, slope, cumulative = segment
    if kind is OperatorKind.IDENTITY:
        return 0.0, slope, y0
    return slope / 2.0, y0, cumulative


def _threshold_poly(family: ThresholdFamily | None, theta: float, x0):
    """A(x, theta) as coefficients (a2, a1, a0) in t = x - x0, or None when of degree > 2.

    ``family`` None stands for A = 0.
    """
    if family is None:
        return 0.0, 0.0, 0.0
    if isinstance(family, DecreasingLinearThreshold):
        return 0.0, -theta, theta * (family.ceiling - x0)
    d = x0 - family.shift
    if family.p == 1.0:
        return 0.0, theta, theta * d
    if family.p == 2.0:
        return theta, 2.0 * theta * d, theta * d * d
    return None


def _segment_poly(
    kind: OperatorKind, origin: float, family: ThresholdFamily | None, theta: float, segment
):
    """Coefficients (c2, c1, c0) in t = x - x0 of D on a breakpoint segment (or several).

    For averaging the polynomial is the cleared-denominator
    (x - a) * D = I(u)(x) - (x - a) * A(x, theta), which has the sign of D
    for x > a.  Returns None when it is not of degree <= 2: a power
    exponent other than 1 or 2, or averaging against p = 2.
    """
    x0 = segment[0]
    threshold = _threshold_poly(family, theta, x0)
    if threshold is None:
        return None
    a2, a1, a0 = threshold
    if kind is OperatorKind.AVERAGING:
        if a2 != 0.0:
            return None
        e = x0 - origin  # multiply A by (x - a) = t + e
        a2, a1, a0 = a1, a1 * e + a0, a0 * e
    t2, t1, t0 = _transform_poly(kind, segment)
    return t2 - a2, t1 - a1, t0 - a0


def _monotone_pieces(
    kind: OperatorKind,
    origin: float,
    family: ThresholdFamily | None,
    theta: float,
    segment,
    ends: np.ndarray,
) -> np.ndarray:
    """``ends`` and the points between them where D = T(u) - A(., theta) can turn, sorted.

    u is piecewise linear, with the :func:`_segment` columns of the
    breakpoint segment under each piece [ends[k], ends[k + 1]] in
    ``segment``; ``origin`` is a, and ``family`` None stands for A = 0.
    D is monotone between neighbouring points of the result.  Per piece:

    * identity: none, as D is linear (A linear) or decreasing (u
      non-increasing against a power threshold);
    * integral: D's vertex where A has degree <= 2, else the zeros of D'
      (:func:`_integral_power_critical_points`);
    * averaging, with A linear in x of slope a1 (against a power p != 1 a
      non-increasing u has a decreasing D, and nothing asks): the zero of
      D' = N / w^2 - a1, where w = x - a and N = u w - I(u).  With the
      piece's I(u) = P0 + P1 w + (s / 2) w^2, N = (s / 2) w^2 - P0, so
      w = sqrt(P0 / (s / 2 - a1)).
    """
    lo, hi = ends[:-1], ends[1:]
    x0, y0, slope, cumulative = segment
    if kind is OperatorKind.IDENTITY:
        turns = np.empty(0)
    elif kind is OperatorKind.INTEGRAL:
        # a theta near the float maximum overflows the coefficients to inf
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            poly = _segment_poly(kind, origin, family, theta, segment)
            if poly is None:
                turns = _integral_power_critical_points(family, theta, segment, ends)
            else:
                c2, c1, _ = poly
                vertex = x0 - c1 / (2.0 * c2)
                turns = vertex[(c2 != 0.0) & (vertex > lo) & (vertex < hi)]
    else:
        _, a1, _ = _threshold_poly(family, theta, x0)
        half, e = slope / 2.0, x0 - origin
        # P0 = I(u) continued along the piece's polynomial to x = a
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            root = origin + np.sqrt((cumulative - e * (y0 - half * e)) / (half - a1))
        turns = root[(root > lo) & (root < hi)]  # NaN or inf where there is none
    return np.sort(np.concatenate((ends, turns)))


def _integral_power_critical_points(
    family: PowerThreshold,
    theta: float,
    segment,
    ends: np.ndarray,
) -> np.ndarray:
    """Zeros of D' = u - theta p (x - shift)^(p - 1) strictly between ``ends``.

    On a segment with slope s, D'' = s - theta p (p - 1) (x - shift)^(p - 2)
    is monotone, so it vanishes at most once, where
    (x - shift)^(p - 2) = s / (theta p (p - 1)).  D' is monotone on each
    side of that point and is bisected wherever it changes sign.
    """
    x0, y0, slope, _ = segment
    p, shift = family.p, family.shift
    ratio = slope / (theta * p * (p - 1.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        inflect = shift + np.power(ratio, 1.0 / (p - 2.0))
    inflect = inflect[(ratio > 0.0) & (inflect > ends[:-1]) & (inflect < ends[1:])]
    cuts = np.sort(np.concatenate((ends, inflect)))
    piece = np.minimum(np.searchsorted(ends, cuts, side="right") - 1, len(x0) - 1)
    u = y0[piece] + slope[piece] * (cuts - x0[piece])
    # (x - shift)^(p - 1) is inf at x = shift for p < 1, and where it overflows
    with np.errstate(divide="ignore", over="ignore"):
        dprime_cuts = u - theta * p * np.power(cuts - shift, p - 1.0)
    signs = np.sign(dprime_cuts)

    def bisect_piece(k: int) -> float:
        px0, py0, pslope = x0.item(piece[k]), y0.item(piece[k]), slope.item(piece[k])

        def dprime(x: float) -> float:
            return py0 + pslope * (x - px0) - theta * p * _power(x - shift, p - 1.0)

        return _bisect(dprime, cuts[k], cuts[k + 1], dprime_cuts[k])

    changes = np.flatnonzero(signs[:-1] * signs[1:] < 0.0)
    return np.array([bisect_piece(k) for k in changes])


def _locate(
    tf: TransformedFunction,
    family: ThresholdFamily,
    theta: float,
    lo: float,
    hi: float,
    d_lo: float,
    segment,
) -> tuple[float, SolveStatus]:
    """The single root of D on (lo, hi), where D is monotone and changes sign.

    [lo, hi] lies in the breakpoint segment ``segment`` (see :func:`_segment`).
    In closed form when the segment polynomial has degree <= 2, by
    bisection otherwise.
    """
    x0 = float(segment[0])
    poly = _segment_poly(tf.kind, tf.origin, family, theta, segment)
    if poly is not None:
        c2, c1, c0 = (float(c) for c in poly)
        # c0 = 0 puts a root at t = 0, the left end; for averaging's first
        # segment it is the spurious root x = a of the cleared denominator,
        # and a true root there would have D(lo) = 0.
        roots = _quadratic_roots(c2, c1, c0) if c0 != 0.0 else _linear_roots(c2, c1)
        eps = 1e-12 * (tf.support_end - tf.origin + 1.0)
        inside = [x0 + t for t in roots if lo - eps <= x0 + t <= hi + eps]
        if len(inside) == 1:
            return min(max(inside[0], lo), hi), SolveStatus.EXACT_SEGMENT

    # D from the segment's own polynomial: no breakpoint search per step
    t2, t1, t0 = (float(c) for c in _transform_poly(tf.kind, segment))
    a = tf.origin if tf.kind is OperatorKind.AVERAGING else None
    if isinstance(family, PowerThreshold):
        shift, p = family.shift, family.p

        def threshold(x: float) -> float:
            return theta * _power(x - shift, p)  # PowerThreshold.value, without its checks

    else:

        def threshold(x: float) -> float:
            return family.value(x, theta)

    def d(x: float) -> float:
        t = x - x0
        value = t0 + t1 * t + t2 * t * t
        if a is not None:
            value /= x - a
        return value - threshold(x)

    return _bisect(d, lo, hi, d_lo), SolveStatus.BISECTION


def _bisect(func: Callable[[float], float], lo: float, hi: float, f_lo: float) -> float:
    """Zero of a continuous ``func`` with a strict sign change on [lo, hi]."""
    lo_positive = f_lo > 0
    while hi - lo > ABS_TOL_X:
        mid = (lo + hi) / 2.0
        if not lo < mid < hi:  # the bracket is down to adjacent floats
            break
        f_mid = func(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0) == lo_positive:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def _linear_roots(c1: float, c0: float) -> list[float]:
    if c1 == 0.0:
        return []
    return [-c0 / c1]


def _quadratic_roots(c2: float, c1: float, c0: float) -> list[float]:
    if c2 == 0.0:
        return _linear_roots(c1, c0)
    disc = c1 * c1 - 4.0 * c2 * c0
    if disc < 0.0:
        return []
    sq = math.sqrt(disc)
    # numerically stable split: q = 0 only for the double root at zero
    q = -(c1 + math.copysign(sq, c1)) / 2.0
    if q == 0.0:
        return [0.0]
    return [q / c2, c0 / q]


def sample_bundle(
    f: RankFrequencyFunction,
    kind: OperatorKind,
    family: ThresholdFamily,
    theta_grid: Sequence[float],
) -> tuple[BundleEntry, ...]:
    """The bundle theta -> m_theta(f) at every theta of a sorted positive grid,
    in grid order; failures become statuses."""
    thetas = [float(t) for t in theta_grid]
    if not all(0 < t < math.inf for t in thetas):
        raise NonPositiveThetaError("theta grid values must be positive and finite")
    if thetas != sorted(thetas):
        raise ValueError("theta grid must be sorted ascending")
    tf = apply(kind, f)
    entries = []
    for theta in thetas:
        try:
            m, status = solve_transformed(tf, family, theta)
        except NoRootError:
            m, status = math.nan, SolveStatus.NO_ROOT
        except NonUniqueError:
            m, status = math.nan, SolveStatus.NON_UNIQUE
        entries.append(BundleEntry(theta=theta, m=m, status=status))
    return tuple(entries)


def h_index(f: RankFrequencyFunction, theta: float = 1.0) -> float:
    """Solution of f(x) = theta * x."""
    family = PowerThreshold(p=1.0, shift=0.0)
    m, _ = solve_bundle_point(f, OperatorKind.IDENTITY, family, theta)
    return m


def g_index(f: RankFrequencyFunction, theta: float = 1.0) -> float:
    """Solution of mu(f)(x) = theta * (x - a): the running average meets the line."""
    family = PowerThreshold(p=1.0, shift=f.support_start)
    m, _ = solve_bundle_point(f, OperatorKind.AVERAGING, family, theta)
    return m


def kosmulski_index(f: RankFrequencyFunction, theta: float = 1.0, p: float = 2.0) -> float:
    """Solution of f(x) = theta * x**p."""
    family = PowerThreshold(p=p, shift=0.0)
    m, _ = solve_bundle_point(f, OperatorKind.IDENTITY, family, theta)
    return m


def g_kosmulski_index(f: RankFrequencyFunction, theta: float = 1.0, p: float = 2.0) -> float:
    """Solution of mu(f)(x) = theta * (x - a)**p, the averaged power variant."""
    family = PowerThreshold(p=p, shift=f.support_start)
    m, _ = solve_bundle_point(f, OperatorKind.AVERAGING, family, theta)
    return m


def polar_radius(f: RankFrequencyFunction, theta: float) -> float:
    """Distance from the origin to the h-type intersection point.

    The solution point (m, theta * m) of the h-setting lies at distance
    m * sqrt(1 + theta**2) from the origin.
    """
    return h_index(f, theta) * math.sqrt(1.0 + theta * theta)
