"""Decreasing rank-frequency functions and their ordering algebra.

A rank-frequency function f assigns to each source rank x the number of
items f(x) produced by that source (citations of the article at rank x,
say).  We represent f as a decreasing piecewise-linear function on a
compact interval [a, S].  That class is closed under everything the rest
of the package needs: exact evaluation, exact integration (the trapezoid
rule is exact per linear segment), and exact pointwise comparison (a
difference of two piecewise-linear functions attains its extrema at the
union of their breakpoints).

A function is plain data: read-only float arrays of the breakpoint
abscissas ``xs`` and values ``ys``, with the ``slopes`` and the running
integral ``cumulative`` computed when it is built.  The public
constructor checks the invariants with a few array comparisons;
:func:`from_citation_counts` checks only the counts, since the abscissas
it lays out are valid by construction.
"""

from __future__ import annotations

import hashlib
import math
import warnings
from dataclasses import dataclass
from enum import Enum
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


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _pairs(breakpoints: Sequence[tuple[float, float]]) -> np.ndarray:
    """The pairs as a (2, n) array of abscissas over values."""
    try:
        pts = np.array(breakpoints, dtype=float)
    except (TypeError, ValueError):
        pts = None
    if pts is None or pts.ndim != 2 or pts.shape[1] != 2:
        # ragged, flat or empty input: unpacking pair by pair raises the
        # precise error (and accepts any iterable of pairs)
        pts = np.array([(float(x), float(y)) for x, y in breakpoints]).reshape(-1, 2)
    return pts.T.copy()


def _check_breakpoints(xs: np.ndarray, ys: np.ndarray) -> None:
    """Raise ValueError unless x strictly increases and y is finite, non-negative, non-increasing."""
    if len(xs) < 2:
        raise ValueError("need at least 2 breakpoints")
    # the negated comparisons also reject NaN, which compares false
    if not ((xs[1:] > xs[:-1]).all() and (ys[1:] <= ys[:-1]).all()):
        for x0, y0, x1, y1 in zip(xs.tolist(), ys.tolist(), xs[1:].tolist(), ys[1:].tolist()):
            if not x1 > x0:
                raise ValueError(f"breakpoint abscissas must strictly increase: {x0} -> {x1}")
            if not y1 <= y0:
                raise ValueError(f"breakpoint values must be non-increasing: {y0} -> {y1}")
    # monotone sequences can only be infinite at these two ends
    if not (math.isfinite(xs[-1]) and math.isfinite(ys[0])):
        raise ValueError("breakpoints must be finite")
    if xs[0] < 0.0:
        raise ValueError("support must start at a non-negative abscissa")
    if ys[-1] < 0.0:  # the least value, ys being non-increasing
        raise ValueError("breakpoint values must be non-negative")


@dataclass(frozen=True, eq=False, repr=False)
class RankFrequencyFunction:
    """Decreasing piecewise-linear function on [support_start, support_end].

    Built from a sequence of (x, y) pairs with x strictly increasing and y
    finite, non-negative and non-increasing; the function interpolates
    linearly between consecutive pairs.  The pairs are kept as the
    read-only arrays ``xs`` and ``ys``, with their end abscissas as the
    floats ``support_start`` and ``support_end``, and the read-only
    ``slopes`` of the segments and the exact running integral from
    ``support_start`` to each breakpoint, ``cumulative``.  ``breakpoints``
    is the tuple of pairs; equality, hashing, ``repr`` and :meth:`digest`
    are those of that tuple.
    """

    xs: np.ndarray
    ys: np.ndarray

    def __init__(self, breakpoints: Sequence[tuple[float, float]]):
        xs, ys = _pairs(breakpoints)
        _check_breakpoints(xs, ys)
        self._set(xs, ys)

    @classmethod
    def _of(cls, xs: np.ndarray, ys: np.ndarray) -> RankFrequencyFunction:
        """Wrap float arrays the caller owns and knows to satisfy the invariants."""
        f = object.__new__(cls)
        f._set(xs, ys)
        return f

    def _set(self, xs: np.ndarray, ys: np.ndarray) -> None:
        object.__setattr__(self, "xs", _read_only(xs))
        object.__setattr__(self, "ys", _read_only(ys))
        object.__setattr__(self, "support_start", float(xs[0]))
        object.__setattr__(self, "support_end", float(xs[-1]))
        # a slope over a tiny width, or a running integral, may overflow to inf
        with np.errstate(over="ignore"):
            # np.diff's arithmetic, without its Python-level wrapper
            slopes = (ys[1:] - ys[:-1]) / (xs[1:] - xs[:-1])
            cumulative = np.zeros(len(xs))
            cumulative[1:] = np.cumsum((ys[:-1] + ys[1:]) / 2.0 * (xs[1:] - xs[:-1]))
        object.__setattr__(self, "slopes", _read_only(slopes))
        object.__setattr__(self, "cumulative", _read_only(cumulative))

    @property
    def breakpoints(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.xs.tolist(), self.ys.tolist()))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return np.array_equal(self.xs, other.xs) and np.array_equal(self.ys, other.ys)

    def __hash__(self) -> int:
        return hash((self.breakpoints,))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(breakpoints={self.breakpoints!r})"

    def is_zero(self) -> bool:
        # the values are non-negative and non-increasing
        return bool(self.ys[0] == 0.0)

    def digest(self) -> str:
        """Stable short identifier derived from the breakpoints."""
        raw = repr(self.breakpoints).encode()
        return hashlib.md5(raw).hexdigest()[:12]

    def _segment_index(self, x: float) -> int:
        # the method, not np.searchsorted's Python-level wrapper
        i = int(self.xs.searchsorted(x, side="right")) - 1
        return min(max(i, 0), len(self.xs) - 2)

    def eval(self, x: float) -> float:
        """Value at x; exact at breakpoints, linear in between (as :meth:`eval_many`).

        The arithmetic is :meth:`eval_many`'s, on Python floats.
        """
        if x < self.support_start or x > self.support_end:
            raise DomainError(f"x={x} outside [{self.support_start}, {self.support_end}]")
        i = self._segment_index(x)
        x0 = self.xs.item(i)
        if x == x0:
            return self.ys.item(i)
        if x == self.support_end:
            return self.ys.item(-1)
        return self.ys.item(i) + self.slopes.item(i) * (x - x0)

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
            return self.cumulative.item(-1)
        i = self._segment_index(x)
        dx = x - self.xs.item(i)
        return self.cumulative.item(i) + self.ys.item(i) * dx + self.slopes.item(i) * dx * dx / 2.0


class PerturbMode(Enum):
    ADDITIVE = "additive"
    MULTIPLICATIVE = "multiplicative"


def from_citation_counts(counts: Sequence[float]) -> RankFrequencyFunction:
    """Build the continuous rank-frequency function of a discrete citation record.

    Counts c_1 >= c_2 >= ... >= c_N become breakpoints
    (0, c_1), (1, c_1), (2, c_2), ..., (N, c_N), (N+1, 0): flat at c_1 on
    [0, 1], f(i) = c_i for integer ranks, and a linear descent to zero one
    unit past the last rank.  Unsorted input is sorted (descending) with a
    warning rather than rejected.  Only the counts are checked: the
    abscissas 0, 1, ..., N+1 are valid by construction.
    """
    c = np.asarray(counts, dtype=float)
    if not c.size:
        raise EmptyInputError("citation counts must be non-empty")
    # NaN compares false, so ordered counts hold none, and their extremes sit at the ends
    ordered = bool((c[1:] <= c[:-1]).all())
    negative = c[-1] < 0 if ordered else (c < 0).any()
    if negative:
        raise ValueError("citation counts must be non-negative")
    if not ordered:
        vals = c.tolist()
        srt = sorted(vals, reverse=True)
        if srt != vals:
            warnings.warn("citation counts were not sorted non-increasingly; sorting", stacklevel=2)
        c = np.array(srt)
    ys = np.empty(len(c) + 2)
    ys[0] = c[0]
    ys[1:-1] = c
    ys[-1] = 0.0
    xs = np.arange(len(ys), dtype=float)
    if not ordered:
        # sorting cannot order NaN; the full check names the pair it breaks
        _check_breakpoints(xs, ys)
    elif not math.isfinite(c[0]):
        raise ValueError("breakpoints must be finite")
    return RankFrequencyFunction._of(xs, ys)


def citation_integrals(counts: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """The integral over its whole support of each record's :func:`from_citation_counts`.

    Record i is ``counts[offsets[i]:offsets[i + 1]]``, non-empty and sorted
    non-increasingly.  Each result is bitwise equal to the function's
    ``cumulative[-1]`` (see :func:`_running_integrals`).
    """
    out = np.empty(len(offsets) - 1)
    for rows, sums in _running_integrals(counts, offsets):
        out[rows] = sums[:, -1]
    return out


def _running_integrals(counts: np.ndarray, offsets: np.ndarray):
    """Per record length N: (rows, sums), where ``sums[k]`` is the ``cumulative``
    of record ``rows[k]``'s :func:`from_citation_counts` past its first entry 0.

    Records as in :func:`citation_integrals`.  The records of one length are
    summed as the rows of one array, each row by the sequential running sum
    of ``cumulative``, so every entry is bitwise equal to the function's.
    """
    lengths = np.diff(offsets)
    order = np.argsort(lengths, kind="stable")
    for rows in np.split(order, np.flatnonzero(np.diff(lengths[order])) + 1):
        n = int(lengths[rows[0]])
        c = counts[offsets[rows, None] + np.arange(n)]
        ys = np.concatenate([c[:, :1], c, np.zeros((len(rows), 1))], axis=1)
        # the abscissas are 0, 1, ..., N + 1: every segment has width 1.0
        yield rows, np.cumsum((ys[:, :-1] + ys[:, 1:]) / 2.0, axis=1)


def _require_same_domain(f: RankFrequencyFunction, g: RankFrequencyFunction) -> None:
    if f.support_start != g.support_start or f.support_end != g.support_end:
        raise DomainMismatchError(
            f"domains differ: [{f.support_start}, {f.support_end}] vs "
            f"[{g.support_start}, {g.support_end}]"
        )


def _union_abscissas(f: RankFrequencyFunction, g: RankFrequencyFunction) -> list[float]:
    return sorted(set(f.xs.tolist()) | set(g.xs.tolist()))


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
        ys = f.ys * (1.0 + epsilon)
    else:
        ys = f.ys + epsilon
        if (ys < 0.0).any():
            raise WouldViolateInvariantsError("additive epsilon would produce negative values")
    _check_breakpoints(f.xs, ys)
    return RankFrequencyFunction._of(f.xs, ys)


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
    ys = np.ascontiguousarray(ys)
    _check_breakpoints(xs, ys)
    return RankFrequencyFunction._of(xs, ys)
