"""Threshold families A(x, theta), their theta-inverse, and admissible ranges.

A threshold family is positive, continuous, and injective in each
variable separately.  Two concrete families ship:

* ``PowerThreshold``: A(x, theta) = theta * (x - shift)**p with p > 0.
  shift = 0 gives the classical h-index line (p = 1) and its power
  variants; shift = support_start gives the averaged (g-type) forms.
* ``DecreasingLinearThreshold``: A(x, theta) = theta * (ceiling - x),
  a test family whose x-profile decreases; it exercises the
  order-reversing branches of the monotonicity results.

For a fixed x inside the bijection region, theta -> A(x, theta) is
invertible; composing that inverse with T(f) yields psi_f, the map from
an abscissa to the unique theta whose solution lands there.  The image
of psi_f is exactly the set of admissible thetas.

Both families are theta times A(x, 1) > 0, so psi_f = T(f) / A(., 1), and
where it turns does not depend on theta.  ``_solve_table`` builds the
table of one search window: psi_f's monotone runs between the breakpoints
and its stationary points.  On the whole support of a decreasing T(f)
against a power (the h and g settings) it is read straight off the
breakpoint arrays, T(f) being ``breakpoint_values`` there, with one power
of the abscissas.  The solver searches it for every theta; every
admissible range is its least and greatest psi_f, each rounded inward to
the float at which the solver's sign of D (``_d_values``) admits it.
In the same way D' = A'(., 1) (phi - theta) with phi = T(f)' / A'(., 1)
free of theta, so ``_phi_bounds``, phi's least and greatest value on a
window, tells for every theta at once whether D is monotone there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence, Union

import numpy as np

from .errors import (
    DomainError,
    NonPositiveThetaError,
    NoRootError,
    SingularAbscissaError,
    ZeroFunctionError,
    ZeroValueError,
)
from .funcspace import RankFrequencyFunction
from .operators import MONOTONICITY, Monotonicity, OperatorKind, TransformedFunction, apply


@dataclass(frozen=True)
class PowerThreshold:
    """A(x, theta) = theta * (x - shift)**p; increasing in x for x > shift."""

    p: float
    shift: float = 0.0

    def __post_init__(self) -> None:
        # the chained comparisons also reject NaN
        if not 0 < self.p < math.inf:
            raise ValueError(f"exponent p must be positive and finite, got {self.p}")
        if not 0 <= self.shift < math.inf:
            raise ValueError(f"shift must be non-negative and finite, got {self.shift}")

    increasing_in_x = True

    def _check_x(self, x: float) -> None:
        if x < self.shift:
            raise DomainError(f"x={x} below shift {self.shift}")

    def value(self, x: float, theta: float) -> float:
        _check_theta(theta)
        self._check_x(x)
        return theta * _power(x - self.shift, self.p)

    def value_many(self, x: np.ndarray, theta: float) -> np.ndarray:
        _check_theta(theta)
        self._check_x(float(np.min(x, initial=self.shift)))
        return theta * _powers(x - self.shift, self.p)

    def theta_inverse(self, x: float, value: float) -> float:
        if value < 0:
            raise DomainError("threshold values are non-negative")
        if x == self.shift:
            raise SingularAbscissaError(f"theta-inverse undefined at x = shift = {x}")
        self._check_x(x)
        power = _power(x - self.shift, self.p)
        if power == 0.0:  # an underflow: inf for a positive value
            return math.inf if value > 0.0 else 0.0
        return value / power

    def describe(self) -> str:
        return f"power(p={self.p:g},shift={self.shift:g})"


@dataclass(frozen=True)
class DecreasingLinearThreshold:
    """A(x, theta) = theta * (ceiling - x); decreasing in x on [0, ceiling)."""

    ceiling: float

    def __post_init__(self) -> None:
        if not 0 < self.ceiling < math.inf:
            raise ValueError(f"ceiling must be positive and finite, got {self.ceiling}")

    increasing_in_x = False

    def _check_x(self, x: float) -> None:
        if x < 0 or x > self.ceiling:
            raise DomainError(f"x={x} outside [0, {self.ceiling}]")

    def value(self, x: float, theta: float) -> float:
        _check_theta(theta)
        self._check_x(x)
        if x == self.ceiling:
            raise DomainError("A must stay positive: x = ceiling excluded")
        return theta * (self.ceiling - x)

    def value_many(self, x: np.ndarray, theta: float) -> np.ndarray:
        _check_theta(theta)
        for end in (np.min(x, initial=0.0), np.max(x, initial=0.0)):
            self.value(float(end), theta)  # raises as value does for an x outside [0, ceiling)
        return theta * (self.ceiling - x)

    def theta_inverse(self, x: float, value: float) -> float:
        if value < 0:
            raise DomainError("threshold values are non-negative")
        if x == self.ceiling:
            raise SingularAbscissaError(f"theta-inverse undefined at x = ceiling = {x}")
        self._check_x(x)
        return value / (self.ceiling - x)

    def describe(self) -> str:
        return f"declin(ceiling={self.ceiling:g})"


ThresholdFamily = Union[PowerThreshold, DecreasingLinearThreshold]


# A(x, 1) = (x - shift)**p of a power threshold is _power of the gap x - shift,
# or _powers of many gaps, with the same bits: every value, solve table, kernel
# cell and Newton step takes its power from here.  Shared with the solver, yet
# private: bench/tracing.py gives every public function of a layer module a
# span, and _power runs per Newton step.
def _power(gap: float, p: float) -> float:
    """gap**p: 0.0 for gap <= 0; for p = 1, 2 and 1/2 the correctly rounded
    gap, gap * gap and sqrt(gap); otherwise Python's ``**``, inf where it overflows."""
    if not gap > 0.0:
        return 0.0
    if p == 1.0:
        return gap
    if p == 2.0:
        return gap * gap
    if p == 0.5:
        return math.sqrt(gap)
    try:
        return gap**p
    except OverflowError:
        return math.inf


def _powers(gaps: np.ndarray, p: float) -> np.ndarray:
    """:func:`_power` of every gap, bitwise: the same correctly rounded forms
    for p = 1, 2 and 1/2, and ``_power`` itself otherwise, once per distinct
    gap (the ends of a corpus repeat)."""
    gaps = np.where(gaps > 0.0, gaps, 0.0)
    if p == 1.0:
        return gaps
    if p == 2.0:
        with np.errstate(over="ignore"):  # an overflowing square is inf
            return gaps * gaps
    if p == 0.5:
        return np.sqrt(gaps)
    distinct, at = np.unique(gaps, return_inverse=True)
    return np.array([_power(gap, p) for gap in distinct.tolist()])[at.reshape(gaps.shape)]


# D = tvals - theta * base at the points of a solve table: every sign of D that
# the solver, its kernel and the range rounding below decide comes from here.
def _d_values(tvals, theta, base):
    """D at table points, with its sign exact over the floats given: Python
    floats, or numpy arrays of one shape, with theta > 0 and base >= 0.

    The float difference d = tvals - fl(theta * base) where it is not 0: a
    tvals other than the rounded product lies at least half the product's
    ulp from it, and so at least as far as the rounding error (and, were it
    just as far, theta * base would be the float tvals, which rounds to
    itself), so d has D's sign.  Where the product overflows, d is -inf or
    NaN.  At a tie, d = 0, D is minus the rounding error: 0 on arrays where
    both factors fit float32's 24 bits, and otherwise from Dekker's
    two-product of theta and base scaled to [1/2, 1) by powers of 2,
    correctly rounded, and the least subnormal of its sign where it
    underflows.  On arrays, callers ignore overflow, as a product or a
    float32 cast past its range may overflow.
    """
    d = tvals - theta * base
    if isinstance(d, float):
        return _exact_d(tvals, theta, base) if d == 0.0 else d
    ties = np.flatnonzero(d == 0.0)
    if len(ties):  # D = 0 where both factors have float32's 24 bits or fewer: the product is exact
        th, b = theta[ties], base[ties]
        ties = ties[(th != th.astype(np.float32)) | (b != b.astype(np.float32))]
        if len(ties):
            d[ties] = _exact_d(tvals[ties], theta[ties], base[ties])
    return d


def _exact_d(tvals, theta, base):
    """:func:`_d_values` at ties, where tvals = fl(theta * base)."""
    lib = math if isinstance(theta, float) else np
    (m1, e1), (m2, e2) = lib.frexp(theta), lib.frexp(base)
    scale, product = e1 + e2, m1 * m2
    # Veltkamp's split of each factor into 26 and 27 bits; the error of the product is exact
    s1, s2 = m1 * 134217729.0, m2 * 134217729.0
    h1, h2 = s1 - (s1 - m1), s2 - (s2 - m2)
    l1, l2 = m1 - h1, m2 - h2
    error = ((h1 * h2 - product) + h1 * l2 + l1 * h2) + l1 * l2
    # Sterbenz: the scaled tvals less the product is exact (tvals is within a factor
    # 2 of theta * base, or 0, where that underflows), so one rounding remains
    scaled = (lib.ldexp(tvals, -scale) - product) - error
    d = lib.ldexp(scaled, scale)
    return d + (d == 0.0) * (scaled != 0.0) * lib.copysign(5e-324, scaled)


def _inward(tvals, base, sign: float):
    """The ratio bound psi = tvals / base (of floats, or of arrays), where
    finite moved one float towards ``sign`` * inf where D has that sign at
    it: rounded up to the least theta with D <= 0 (sign 1), or down to the
    greatest with D >= 0 (sign -1)."""
    bound = tvals / base
    moved = sign * _d_values(tvals, bound, base) > 0.0
    if isinstance(bound, float):
        return math.nextafter(bound, sign * math.inf) if moved and math.isfinite(bound) else bound
    moved &= np.isfinite(bound)
    bound[moved] = np.nextafter(bound[moved], sign * math.inf)
    return bound


def _check_theta(theta: float) -> None:
    # the chained comparison also rejects NaN
    if not 0 < theta < math.inf:
        raise NonPositiveThetaError(f"theta must be positive and finite, got {theta}")


def psi(
    f: RankFrequencyFunction,
    kind: OperatorKind,
    family: ThresholdFamily,
    x: float,
) -> float:
    """The theta whose solution sits at x: the theta-inverse of T(f)(x).

    Solving at theta = psi(f, T, A, x) recovers x (within solver
    tolerance); raises if the inverse is singular at x or T(f)(x) = 0.
    """
    value = apply(kind, f).eval(x)
    if value == 0.0:
        raise ZeroValueError(f"T(f)({x}) = 0 maps to theta = 0, which is excluded")
    return family.theta_inverse(x, value)


# The table below, _search_window and _segment are shared with the solver, and
# _search_window and _phi_bounds with verify, yet private, as _power is.
def _search_window(
    tf: TransformedFunction, x_window: tuple[float, float] | None
) -> tuple[float, float]:
    """``x_window``, or [a, S] for None; raises ValueError unless a <= lo < hi <= S."""
    lo, hi = x_window if x_window is not None else (tf.origin, tf.support_end)
    if not (tf.origin <= lo < hi <= tf.support_end):
        raise ValueError(f"x_window [{lo}, {hi}] not inside [{tf.origin}, {tf.support_end}]")
    return lo, hi


def _window_points(tf: TransformedFunction, lo: float, hi: float) -> tuple[int, int, np.ndarray]:
    """lo, the breakpoints strictly inside (lo, hi), and hi; with the slice [i0, i1) of those."""
    xs = tf.source.xs
    i0 = int(np.searchsorted(xs, lo, side="right"))
    i1 = int(np.searchsorted(xs, hi, side="left"))
    return i0, i1, np.concatenate(([lo], xs[i0:i1], [hi]))


def _segment(f: RankFrequencyFunction, seg: np.ndarray):
    """(x0, y0, slope, cumulative) columns of the breakpoint segments ``seg``."""
    return f.xs[seg], f.ys[seg], f.slopes[seg], f.cumulative[seg]


class _SolveTable(NamedTuple):
    """psi_f on one search window, theta-free: D = tvals - theta * base at xs."""

    xs: list[float]  # lo, the breakpoints and psi_f's stationary points inside, and hi
    tvals: list[float]  # T(f) at xs
    base: list[float]  # A(xs, 1)
    segs: Sequence[int]  # the breakpoint segment under [xs[k], xs[k + 1]]
    runs: list[tuple[int, int, bool]]  # (first, last, rising): psi_f monotone on xs[first..last]
    psi: np.ndarray | None  # psi_f at xs; None where the range is certified


def _solve_table(
    tf: TransformedFunction, family: ThresholdFamily, lo: float, hi: float
) -> _SolveTable:
    """The table of window [lo, hi], or (lo, hi] when lo is a power shift."""
    f = tf.source
    if lo == f.support_start and hi == f.support_end:
        # the whole support: its points are the breakpoints, where eval is breakpoint_values
        i0, i1, xs = 1, len(f.xs) - 1, f.xs
        tvals = tf.breakpoint_values.tolist()
    else:
        i0, i1, xs = _window_points(tf, lo, hi)
        tvals = [tf.eval(lo), *tf.breakpoint_values[i0:i1].tolist(), tf.eval(hi)]
    segs = range(i0 - 1, i1)
    # psi_f of a decreasing T(f) over a power decreases: one run, nothing more to find
    monotone = is_certified(tf.kind, family)
    if not monotone:
        turns = _psi_turns(tf, family, _segment(f, np.arange(i0 - 1, i1)), xs)
        if len(turns):
            order = np.argsort(np.concatenate((xs, turns)), kind="stable")
            xs = np.concatenate((xs, turns))[order]
            tvals = np.concatenate((tvals, tf.eval_many(turns)))[order].tolist()
            segs = (np.searchsorted(f.xs, xs[:-1], side="right") - 1).tolist()
    # A(xs, 1); an inf base makes D = -inf, as it should
    if isinstance(family, PowerThreshold):
        base = _powers(xs - family.shift, family.p).tolist()
    else:
        base = (family.ceiling - xs).tolist()
    # Where T(f) and A(., 1) both vanish at an open lower end, psi_f's limit
    # gives D its sign just right of it: for the integral at shift = a (f being
    # non-zero, I(f) > 0 right of a), psi_f ~ f(a) (x - a)^(1 - p) tends to 0,
    # f(a) or inf for p <, = or > 1; a non-increasing T(f) stays 0.
    if isinstance(family, PowerThreshold) and lo == family.shift and tvals[0] == 0.0:
        limit = f.ys.item(0) if family.p == 1.0 else (math.inf if family.p > 1.0 else 0.0)
        tvals[0], base[0] = limit if tf.kind is OperatorKind.INTEGRAL else 0.0, 1.0
    psi, runs = None, [(0, len(base) - 1, False)]
    if not monotone:
        with np.errstate(divide="ignore", invalid="ignore"):
            psi = np.divide(tvals, base)
            psi[np.array(tvals) == 0.0] = 0.0  # also where the base underflows to 0
            # per cell; a constant cell counts as falling, as does inf - inf (NaN)
            rising = np.diff(psi) > 0.0
        cuts = [0, *(np.flatnonzero(np.diff(rising)) + 1).tolist(), len(rising)]
        runs = [(k0, k1, bool(rising[k0])) for k0, k1 in zip(cuts, cuts[1:])]
    return _SolveTable(xs.tolist(), tvals, base, segs, runs, psi)


def _psi_turns(
    tf: TransformedFunction, family: ThresholdFamily, segment, ends: np.ndarray
) -> np.ndarray:
    """psi_f's stationary points strictly inside the cells [ends[k], ends[k + 1]].

    Per cell, with the :func:`_segment` columns of its breakpoint segment,
    psi_f' has the sign of a quadratic N:

    * integral x power(p, shift): N = u (x - shift) - p I(u); in t = x - x0,
      with e = x0 - shift and C = I(u)(x0),
      N = s (1 - p/2) t^2 + ((1 - p) y0 + s e) t + (y0 e - p C);
    * averaging x declin(c): in w = x - a, with the segment's
      I(u) = P0 + P1 w + (s/2) w^2,
      N = ((s/2) (c - a) + P1) w^2 + 2 P0 w - P0 (c - a).

    Identity x declin has the constant N = y0 + s (c - x0) on a segment;
    every other psi_f is monotone.
    """
    x0, y0, slope, cumulative = segment
    # both roots by the numerically stable split; NaN or inf where there is
    # none, and where a running integral has overflowed
    with np.errstate(all="ignore"):
        if tf.kind is OperatorKind.INTEGRAL and isinstance(family, PowerThreshold):
            p, e = family.p, x0 - family.shift
            c2, c1 = slope * (1.0 - p / 2.0), (1.0 - p) * y0 + slope * e
            c0, origin = y0 * e - p * cumulative, x0
        elif tf.kind is OperatorKind.AVERAGING and isinstance(family, DecreasingLinearThreshold):
            e, width = x0 - tf.origin, family.ceiling - tf.origin
            p0, p1 = cumulative - e * (y0 - slope / 2.0 * e), y0 - slope * e
            c2, c1, c0, origin = slope / 2.0 * width + p1, 2.0 * p0, -p0 * width, tf.origin
        else:
            return np.empty(0)
        q = -(c1 + np.copysign(np.sqrt(c1 * c1 - 4.0 * c2 * c0), c1)) / 2.0
        roots = [origin + q / c2, origin + c0 / q]
    return np.concatenate([x[(x > ends[:-1]) & (x < ends[1:])] for x in roots])


def _phi_bounds(
    tf: TransformedFunction, family: ThresholdFamily, lo: float, hi: float
) -> tuple[float, float]:
    """The least and greatest phi = T(f)' / A'(., 1) on [lo, hi], or on (lo, hi] at a power shift.

    A = theta A(., 1), so D' = A'(., 1) (phi - theta) with phi free of
    theta.  Per cell of the window, with the :func:`_segment` columns of
    its breakpoint segment (u = f there, of slope s), phi is monotone
    between the cell's ends and the stationary points listed:

    * identity x declin: phi = -s;
    * integral x power(p, shift): phi = u (x - shift)^(1 - p) / p, which
      is stationary where s (x - shift) + (1 - p) u = 0.  At an open
      shift it takes its limit: 0, f(shift) or inf for p <, = or > 1,
      and 0 wherever u = 0;
    * averaging x declin: phi = -mu' = P0 / w^2 - s / 2 in w = x - a,
      with the segment's I(u) = P0 + P1 w + (s / 2) w^2; mu'' = 2 P0 / w^3
      keeps its sign on a cell.  At a, where P0 = 0, it is -s / 2;
    * integral x declin (reached by the zero function only): phi = -u.

    The other pairs have a monotone D, which needs no bounds.
    """
    i0, i1, ends = _window_points(tf, lo, hi)
    x0, y0, slope, cumulative = _segment(tf.source, np.arange(i0 - 1, i1))
    cells = np.arange(len(x0))
    xs, seg = np.concatenate((ends[:-1], ends[1:])), np.concatenate((cells, cells))
    power = isinstance(family, PowerThreshold)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if power:
            p, e = family.p, x0 - family.shift
            # NaN or inf where there is no stationary point
            turns = x0 - (slope * e + (1.0 - p) * y0) / ((2.0 - p) * slope)
            inside = (turns > ends[:-1]) & (turns < ends[1:])
            xs, seg = np.concatenate((xs, turns[inside])), np.concatenate((seg, cells[inside]))
        x0, y0, slope, cumulative = x0[seg], y0[seg], slope[seg], cumulative[seg]
        if tf.kind is OperatorKind.IDENTITY:
            dt = slope
        elif tf.kind is OperatorKind.INTEGRAL:
            dt = y0 + slope * (xs - x0)
        else:
            e, half = x0 - tf.origin, slope / 2.0
            p0 = cumulative - e * (y0 - half * e)
            dt = half - np.where(p0 == 0.0, 0.0, p0 / (xs - tf.origin) ** 2)
        phi = np.where(dt == 0.0, 0.0, dt / (p * (xs - family.shift) ** (p - 1.0))) if power else -dt
    return float(phi.min()), float(phi.max())


@dataclass(frozen=True)
class AdmissibleRange:
    """The set of thetas for which the defining equation has a solution.

    ``theta_min`` is None when every positive theta is admissible (the
    range is open at zero).  Both kinds are exact: ``certified`` marks the
    closed form from T(f) at the two ends (psi_f decreasing); otherwise the
    range is the least and greatest psi_f over the solve table of [a, S].
    Each finite bound is rounded inward (:func:`_inward`), so the solver
    finds a root at it and none one float outside.
    """

    theta_min: float | None
    theta_max: float
    certified: bool

    def __post_init__(self) -> None:
        if self.theta_min is not None:
            if not self.theta_min > 0:
                raise ValueError("theta_min must be positive or None")
            if math.isfinite(self.theta_max) and self.theta_min > self.theta_max:
                raise ValueError("theta_min must not exceed theta_max")


# A tuple, whose ``in`` finds a kind by identity, without hashing the Enum.
_DECREASING_KINDS = tuple(k for k, m in MONOTONICITY.items() if m is Monotonicity.DECREASING)


def is_certified(kind: OperatorKind, family: ThresholdFamily) -> bool:
    """Whether the admissible range of every non-zero f is certified.

    It is when T(f) decreases and the family is a power family: psi_f is
    then strictly decreasing, so its image follows from its endpoint values.
    """
    return isinstance(family, PowerThreshold) and kind in _DECREASING_KINDS


def certified_bounds(
    t_origin: np.ndarray,
    t_end: np.ndarray,
    origin: float,
    end: np.ndarray,
    family: PowerThreshold,
) -> tuple[np.ndarray, np.ndarray]:
    """theta_min and theta_max of certified admissible ranges for many functions at once.

    Function i has T(f) = ``t_origin[i]`` at the common ``origin`` and
    ``t_end[i]`` at its support end ``end[i]``.  A theta_min of 0.0 means
    the range is open at zero.  The powers (end - shift)**p and (origin -
    shift)**p are :func:`_powers` and :func:`_power`, and each bound is one
    IEEE division rounded inward by :func:`_inward`, so the bounds of a
    function have the same bits whichever functions share the call.  A power at the end that
    overflows is inf and gives theta_min 0: A reaches inf at the end, so
    every theta has a root.  A power of 0.0 (a shift at or past the end, or
    an underflow) leaves A not positive on [origin, end], so no theta is
    admissible: both bounds are NaN.  So are they where a tiny power
    overflows theta_min, and where the power at the origin overflows and
    gives theta_max 0: no finite theta reaches the threshold, or every one
    exceeds T(f) already at the origin.  A power at the origin that
    underflows gives theta_max inf.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        theta_min = _inward(t_end, _powers(end - family.shift, family.p), 1.0)
        # inf where origin <= shift: the power is 0.0 there
        base_origin = np.full(len(t_origin), _power(origin - family.shift, family.p))
        theta_max = _inward(t_origin, base_origin, -1.0)
    none = ~(theta_min < math.inf) | (theta_max == 0.0)
    theta_min[none] = theta_max[none] = math.nan
    return theta_min, theta_max


def _no_positive_threshold(origin: float, end: float) -> NoRootError:
    return NoRootError(
        f"no theta is admissible: the threshold is not positive on [{origin}, {end}]"
    )


def admissible_range(
    f: RankFrequencyFunction,
    kind: OperatorKind,
    family: ThresholdFamily,
) -> AdmissibleRange:
    """Image of psi_f over the domain, exactly.

    Certified (see :func:`is_certified`) when T(f) decreases and the family
    is a power family: psi_f then decreases, so theta_min = psi_f(S), or
    None (open at zero) when T(f)(S) = 0, and theta_max = psi_f(a), or inf
    when a <= shift, where the power vanishes.  Otherwise psi_f's least and
    greatest value over the solve table of [a, S], or of (shift, S] with
    its limit at the shift.  Each finite bound is rounded inward to the
    float at which the solver finds a root (:func:`_inward`); one float
    outside it finds none.  Raises NoRootError when no theta is
    admissible: the threshold is not positive on the domain, or (certified)
    it overflows already at a (see :func:`certified_bounds`).
    """
    tf = apply(kind, f)
    if f.is_zero():
        raise ZeroFunctionError("the zero function admits no positive theta")
    a, s = tf.origin, tf.support_end
    if is_certified(kind, family):
        lows, highs = certified_bounds(
            np.array([tf.eval(a)]), np.array([tf.eval(s)]), a, np.array([s]), family
        )
        lo = float(lows[0])
        if math.isnan(lo):
            if a > family.shift and _power(a - family.shift, family.p) == math.inf:
                raise NoRootError(f"no theta is admissible: the threshold overflows at {a}")
            raise _no_positive_threshold(a, s)
        return AdmissibleRange(lo if lo > 0.0 else None, float(highs[0]), certified=True)
    if isinstance(family, PowerThreshold):
        if family.shift >= s:
            raise _no_positive_threshold(a, s)
    elif family.ceiling <= s:
        raise DomainError(
            f"threshold ceiling {family.ceiling} must exceed the search domain end {s}"
        )
    lo = max(a, family.shift) if isinstance(family, PowerThreshold) else a
    table = _solve_table(tf, family, lo, s)
    # each finite extreme rounded inward, as the least (or greatest) of the
    # bounds of the points whose psi_f rounds to it; 0 is open at zero
    bounds = []
    for bound, sign, pick in ((table.psi.min(), 1.0, min), (table.psi.max(), -1.0, max)):
        at = (table.psi == bound).nonzero()[0].tolist() if 0.0 < bound < math.inf else []
        ends = [_inward(table.tvals[k], table.base[k], sign) for k in at]
        bounds.append(pick(ends, default=float(bound)))
    theta_min, theta_max = bounds
    return AdmissibleRange(theta_min if theta_min > 0.0 else None, theta_max, certified=False)
