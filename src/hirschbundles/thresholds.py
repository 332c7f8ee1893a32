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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

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
from .operators import MONOTONICITY, Monotonicity, OperatorKind, apply

_RANGE_GRID = 1024


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
        with np.errstate(over="ignore"):  # an overflowing power is inf
            return theta * np.power(x - self.shift, self.p)

    def theta_inverse(self, x: float, value: float) -> float:
        if value < 0:
            raise DomainError("threshold values are non-negative")
        if x == self.shift:
            raise SingularAbscissaError(f"theta-inverse undefined at x = shift = {x}")
        self._check_x(x)
        return value / _power(x - self.shift, self.p)

    def theta_inverse_many(self, x: np.ndarray, values: np.ndarray) -> np.ndarray:
        # a power that overflows gives theta 0, one that underflows inf
        with np.errstate(over="ignore", divide="ignore"):
            return values / np.power(x - self.shift, self.p)

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
        return theta * (self.ceiling - x)

    def theta_inverse(self, x: float, value: float) -> float:
        if value < 0:
            raise DomainError("threshold values are non-negative")
        if x == self.ceiling:
            raise SingularAbscissaError(f"theta-inverse undefined at x = ceiling = {x}")
        self._check_x(x)
        return value / (self.ceiling - x)

    def theta_inverse_many(self, x: np.ndarray, values: np.ndarray) -> np.ndarray:
        return values / (self.ceiling - x)

    def describe(self) -> str:
        return f"declin(ceiling={self.ceiling:g})"


ThresholdFamily = Union[PowerThreshold, DecreasingLinearThreshold]


# Shared with the solver, yet private: bench/tracing.py gives every public
# function of a layer module a span, and this one runs per bisection step.
def _power(gap: float, p: float) -> float:
    """gap**p by Python's ``**``: 0.0 for gap <= 0, inf where it overflows."""
    try:
        return gap**p if gap > 0.0 else 0.0
    except OverflowError:
        return math.inf


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


@dataclass(frozen=True)
class AdmissibleRange:
    """The set of thetas for which the defining equation has a solution.

    ``theta_min`` is None when every positive theta is admissible (the
    range is open at zero).  ``certified`` is True when the endpoints are
    analytic consequences of endpoint monotonicity and False when they
    were estimated on a grid.
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


def is_certified(kind: OperatorKind, family: ThresholdFamily) -> bool:
    """Whether the admissible range of every non-zero f is :func:`certified_range`.

    It is when T(f) decreases and the family is a power family: psi_f is
    then strictly decreasing, so its image follows from its endpoint values.
    """
    return isinstance(family, PowerThreshold) and MONOTONICITY[kind] is Monotonicity.DECREASING


def certified_range(
    t_origin: float,
    t_end: float,
    origin: float,
    end: float,
    family: PowerThreshold,
) -> AdmissibleRange:
    """The image of a decreasing psi_f from T(f) at the ends of [origin, end].

    theta_min = psi_f(end), or None (open at zero) when T(f)(end) = 0;
    theta_max = psi_f(origin), or inf when origin <= shift, where the
    power vanishes.  Raises NoRootError when no theta is admissible (see
    :func:`certified_bounds`): the threshold is not positive on
    [origin, end], or it overflows already at the origin.
    """
    lows, highs = certified_bounds(
        np.array([t_origin]), np.array([t_end]), origin, np.array([end]), family
    )
    lo, theta_max = float(lows[0]), float(highs[0])
    if math.isnan(lo):
        if origin > family.shift and _power(origin - family.shift, family.p) == math.inf:
            raise NoRootError(f"no theta is admissible: the threshold overflows at {origin}")
        raise _no_positive_threshold(origin, end)
    return AdmissibleRange(theta_min=lo if lo > 0.0 else None, theta_max=theta_max, certified=True)


def certified_bounds(
    t_origin: np.ndarray,
    t_end: np.ndarray,
    origin: float,
    end: np.ndarray,
    family: PowerThreshold,
) -> tuple[np.ndarray, np.ndarray]:
    """theta_min and theta_max of :func:`certified_range` for many functions at once.

    Function i has T(f) = ``t_origin[i]`` at the common ``origin`` and
    ``t_end[i]`` at its support end ``end[i]``.  A theta_min of 0.0 means
    the range is open at zero.  The powers (end - shift)**p, taken once per
    distinct end, and (origin - shift)**p are :func:`_power`, and each bound
    is one IEEE division, so the bounds of a function have the
    same bits whichever functions share the call.  A power at the end that
    overflows is inf and gives theta_min 0: A reaches inf at the end, so
    every theta has a root.  A power of 0.0 (a shift at or past the end, or
    an underflow) leaves A not positive on [origin, end], so no theta is
    admissible: both bounds are NaN.  So are they where a tiny power
    overflows theta_min, and where the power at the origin overflows and
    gives theta_max 0: no finite theta reaches the threshold, or every one
    exceeds T(f) already at the origin.  A power at the origin that
    underflows gives theta_max inf.
    """
    ends, at = np.unique(end, return_inverse=True)
    powers = np.array([_power(e - family.shift, family.p) for e in ends.tolist()])[at]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        theta_min = t_end / powers
        # inf where origin <= shift: the power is 0.0 there
        theta_max = t_origin / _power(origin - family.shift, family.p)
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
    """Image of psi_f over the domain interior.

    Certified (see :func:`is_certified`) when T(f) decreases and the
    family is a power family.  Otherwise a grid min/max estimate is
    returned with ``certified=False``.
    """
    tf = apply(kind, f)
    if f.is_zero():
        raise ZeroFunctionError("the zero function admits no positive theta")
    a, s = tf.origin, tf.support_end
    if is_certified(kind, family):
        return certified_range(tf.eval(a), tf.eval(s), a, s, family)
    # grid estimate over the bijection region interior
    lo_x, hi_x = a, s
    span = s - a
    if isinstance(family, PowerThreshold):
        if family.shift >= s:
            raise _no_positive_threshold(a, s)
        lo_x = max(lo_x, family.shift) + 1e-9 * span
    else:
        hi_x = min(hi_x, family.ceiling) - 1e-9 * span
    xs = np.linspace(lo_x, hi_x, _RANGE_GRID)
    vals = tf.eval_many(xs)
    mask = vals > 0.0
    if not bool(mask.any()):
        raise ZeroFunctionError("T(f) vanishes on the sampled interior")
    thetas = family.theta_inverse_many(xs[mask], vals[mask])
    theta_min = float(thetas.min())  # 0 where the power overflows: open at zero
    return AdmissibleRange(
        theta_min=theta_min if theta_min > 0.0 else None,
        theta_max=float(thetas.max()),
        certified=False,
    )
