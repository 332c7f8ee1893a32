"""Decreasing rank-frequency functions and their ordering algebra.

A rank-frequency function f assigns to each source rank x the number of
items f(x) produced by that source (citations of the article at rank x,
say).  We represent f as a decreasing piecewise-linear function on a
compact interval [a, S].  That class is closed under everything the rest
of the package needs: exact evaluation, exact integration (the trapezoid
rule is exact per linear segment), and exact pointwise comparison (a
difference of two piecewise-linear functions attains its extrema at the
union of their breakpoints).
"""

from __future__ import annotations

import hashlib
import math
import warnings
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (
    BadPrefixError,
    DomainError,
    DomainMismatchError,
    EmptyInputError,
    WouldViolateInvariantsError,
)

# Minimum gap for a pointwise-strict comparison to count as strict.
STRICTNESS_TOL = 1e-12


@dataclass(frozen=True)
class RankFrequencyFunction:
    """Decreasing piecewise-linear function on [support_start, support_end].

    ``breakpoints`` is a tuple of (x, y) pairs with x strictly increasing
    and y non-negative and non-increasing; the function interpolates
    linearly between consecutive pairs.
    """

    breakpoints: tuple[tuple[float, float], ...]

    def __init__(self, breakpoints: Sequence[tuple[float, float]]):
        pts = tuple((float(x), float(y)) for x, y in breakpoints)
        if len(pts) < 2:
            raise ValueError("need at least 2 breakpoints")
        # the negated comparisons also reject NaN, which compares false
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            if not x1 > x0:
                raise ValueError(f"breakpoint abscissas must strictly increase: {x0} -> {x1}")
            if not y1 <= y0:
                raise ValueError(f"breakpoint values must be non-increasing: {y0} -> {y1}")
        # monotone sequences can only be infinite at these two ends
        if not (math.isfinite(pts[-1][0]) and math.isfinite(pts[0][1])):
            raise ValueError("breakpoints must be finite")
        if pts[0][0] < 0.0:
            raise ValueError("support must start at a non-negative abscissa")
        if any(y < 0.0 for _, y in pts):
            raise ValueError("breakpoint values must be non-negative")
        object.__setattr__(self, "breakpoints", pts)

    @property
    def support_start(self) -> float:
        return self.breakpoints[0][0]

    @property
    def support_end(self) -> float:
        return self.breakpoints[-1][0]

    @cached_property
    def xs(self) -> np.ndarray:
        return np.array([x for x, _ in self.breakpoints])

    @cached_property
    def ys(self) -> np.ndarray:
        return np.array([y for _, y in self.breakpoints])

    @cached_property
    def slopes(self) -> np.ndarray:
        return np.diff(self.ys) / np.diff(self.xs)

    @cached_property
    def cumulative(self) -> np.ndarray:
        """Running integral from support_start to each breakpoint (exact)."""
        seg = (self.ys[:-1] + self.ys[1:]) / 2.0 * np.diff(self.xs)
        out = np.zeros(len(self.breakpoints))
        out[1:] = np.cumsum(seg)
        return out

    def is_zero(self) -> bool:
        return all(y == 0.0 for _, y in self.breakpoints)

    def digest(self) -> str:
        """Stable short identifier derived from the breakpoints."""
        raw = repr(self.breakpoints).encode()
        return hashlib.md5(raw).hexdigest()[:12]

    def _segment_index(self, x: float) -> int:
        i = int(np.searchsorted(self.xs, x, side="right")) - 1
        return min(max(i, 0), len(self.breakpoints) - 2)

    def eval(self, x: float) -> float:
        """Value at x; exact at breakpoints, linear in between (as :meth:`eval_many`)."""
        if x < self.support_start or x > self.support_end:
            raise DomainError(f"x={x} outside [{self.support_start}, {self.support_end}]")
        i = self._segment_index(x)
        x0, y0 = self.breakpoints[i]
        if x == x0:
            return y0
        if x == self.support_end:
            return self.breakpoints[-1][1]
        return float(y0 + self.slopes[i] * (x - x0))

    def eval_many(self, x: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`eval`; callers guarantee x lies in the domain."""
        idx = np.clip(np.searchsorted(self.xs, x, side="right") - 1, 0, len(self.xs) - 2)
        out = self.ys[idx] + self.slopes[idx] * (x - self.xs[idx])
        # keep the trailing breakpoint exact (idx is clamped onto the last segment)
        out = np.where(x == self.support_end, self.ys[-1], out)
        return out

    def integral(self, lower: float, upper: float) -> float:
        """Exact integral of f over [lower, upper]."""
        a, s = self.support_start, self.support_end
        if not (a <= lower <= upper <= s):
            raise DomainError(f"integration bounds [{lower}, {upper}] invalid for [{a}, {s}]")
        return self.antiderivative(upper) - self.antiderivative(lower)

    def antiderivative(self, x: float) -> float:
        """Exact integral of f over [support_start, x]; callers guarantee x is in the domain."""
        if x == self.support_end:
            return float(self.cumulative[-1])
        i = self._segment_index(x)
        dx = x - self.breakpoints[i][0]
        return float(self.cumulative[i] + self.ys[i] * dx + self.slopes[i] * dx * dx / 2.0)


class PerturbMode(Enum):
    ADDITIVE = "additive"
    MULTIPLICATIVE = "multiplicative"


def from_citation_counts(counts: Sequence[float]) -> RankFrequencyFunction:
    """Build the continuous rank-frequency function of a discrete citation record.

    Counts c_1 >= c_2 >= ... >= c_N become breakpoints
    (0, c_1), (1, c_1), (2, c_2), ..., (N, c_N), (N+1, 0): flat at c_1 on
    [0, 1], f(i) = c_i for integer ranks, and a linear descent to zero one
    unit past the last rank.  Unsorted input is sorted (descending) with a
    warning rather than rejected.
    """
    vals = [float(c) for c in counts]
    if not vals:
        raise EmptyInputError("citation counts must be non-empty")
    if any(c < 0 for c in vals):
        raise ValueError("citation counts must be non-negative")
    srt = sorted(vals, reverse=True)
    if srt != vals:
        warnings.warn("citation counts were not sorted non-increasingly; sorting", stacklevel=2)
        vals = srt
    pts = [(0.0, vals[0])]
    pts.extend((float(i), c) for i, c in enumerate(vals, start=1))
    pts.append((float(len(vals) + 1), 0.0))
    return RankFrequencyFunction(pts)


def _require_same_domain(f: RankFrequencyFunction, g: RankFrequencyFunction) -> None:
    if f.support_start != g.support_start or f.support_end != g.support_end:
        raise DomainMismatchError(
            f"domains differ: [{f.support_start}, {f.support_end}] vs "
            f"[{g.support_start}, {g.support_end}]"
        )


def _union_abscissas(f: RankFrequencyFunction, g: RankFrequencyFunction) -> list[float]:
    return sorted({x for x, _ in f.breakpoints} | {x for x, _ in g.breakpoints})


def leq(f: RankFrequencyFunction, g: RankFrequencyFunction) -> bool:
    """Pointwise f <= g, decided exactly at the union of breakpoints."""
    _require_same_domain(f, g)
    return all(f.eval(x) <= g.eval(x) for x in _union_abscissas(f, g))


def _prefix_points(
    f: RankFrequencyFunction, g: RankFrequencyFunction, a_cut: float
) -> list[float]:
    _require_same_domain(f, g)
    if not f.support_start < a_cut < f.support_end:
        raise BadPrefixError(f"prefix cut {a_cut} not inside ({f.support_start}, {f.support_end})")
    pts = [x for x in _union_abscissas(f, g) if x <= a_cut]
    if pts[-1] != a_cut:
        pts.append(a_cut)
    return pts


def lt_on_prefix(f: RankFrequencyFunction, g: RankFrequencyFunction, a_cut: float) -> bool:
    """Strict pointwise f < g on [support_start, a_cut].

    Strictness requires g - f to exceed ``STRICTNESS_TOL`` at every
    breakpoint of the union restricted to the prefix (and at a_cut); a
    linear difference attains its minimum at those points.
    """
    pts = _prefix_points(f, g, a_cut)
    return all(g.eval(x) - f.eval(x) > STRICTNESS_TOL for x in pts)


def eq_on_prefix(f: RankFrequencyFunction, g: RankFrequencyFunction, a_cut: float) -> bool:
    """Exact pointwise f = g on [support_start, a_cut]."""
    pts = _prefix_points(f, g, a_cut)
    return all(f.eval(x) == g.eval(x) for x in pts)


def perturb(
    f: RankFrequencyFunction, mode: PerturbMode, epsilon: float
) -> RankFrequencyFunction:
    """Shift (y + eps) or scale (y * (1 + eps)) every breakpoint value.

    Both modes preserve the decreasing shape; additive shifts that would
    push any value below zero are rejected rather than clamped.
    """
    if mode is PerturbMode.MULTIPLICATIVE:
        if epsilon <= -1.0:
            raise WouldViolateInvariantsError("multiplicative epsilon must exceed -1")
        factor = 1.0 + epsilon
        pts = [(x, y * factor) for x, y in f.breakpoints]
    else:
        if any(y + epsilon < 0.0 for _, y in f.breakpoints):
            raise WouldViolateInvariantsError("additive epsilon would produce negative values")
        pts = [(x, y + epsilon) for x, y in f.breakpoints]
    return RankFrequencyFunction(pts)


def random_function(seed: int) -> RankFrequencyFunction:
    """Deterministic random decreasing function on [0, S] for property tests.

    2 to 8 breakpoints, S uniform on [4, 20], values uniform below 50.
    Half of the draws end with f(S) = 0 (so every theta is admissible in
    the classical settings), half keep a positive tail.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    s = float(rng.uniform(4.0, 20.0))
    gaps = rng.uniform(0.05, 1.0, size=n - 1)
    xs = np.concatenate([[0.0], np.cumsum(gaps)])
    xs *= s / xs[-1]
    xs[-1] = s
    ys = np.sort(rng.uniform(0.0, 50.0, size=n))[::-1]
    if rng.random() < 0.5:
        ys[-1] = 0.0
    return RankFrequencyFunction(list(zip(xs.tolist(), ys.tolist())))
