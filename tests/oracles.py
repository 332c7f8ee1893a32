"""Independent numeric oracles used to cross-check the library.

Everything here is built from numpy primitives (interp, cumulative
trapezoids, dense-grid argmin) or from the stdlib ``decimal`` and
``fractions`` modules, and deliberately avoids the package's own evaluation and solving code paths,
so agreement between the two is meaningful evidence.
"""

from __future__ import annotations

import bisect
import decimal
from decimal import Decimal
from fractions import Fraction

import numpy as np


def breakpoint_arrays(f) -> tuple[np.ndarray, np.ndarray]:
    bx = np.array([x for x, _ in f.breakpoints])
    by = np.array([y for _, y in f.breakpoints])
    return bx, by


def oracle_eval(f, x: float) -> float:
    bx, by = breakpoint_arrays(f)
    return float(np.interp(x, bx, by))


def oracle_integral(f, lo: float, hi: float) -> float:
    """Trapezoid integral with segment boundaries inserted (exact for
    piecewise-linear integrands)."""
    bx, by = breakpoint_arrays(f)
    xs = np.unique(np.concatenate([bx[(bx >= lo) & (bx <= hi)], [lo, hi]]))
    ys = np.interp(xs, bx, by)
    return float(np.sum((ys[:-1] + ys[1:]) / 2.0 * np.diff(xs)))


def segment_trapezoid_sum(f) -> float:
    """Left-to-right sum of per-segment trapezoids over the whole domain."""
    total = 0.0
    for (x0, y0), (x1, y1) in zip(f.breakpoints, f.breakpoints[1:]):
        total += (y0 + y1) / 2.0 * (x1 - x0)
    return total


def _transform_on_grid(f, kind: str, xs: np.ndarray) -> np.ndarray:
    """T(f) on a grid that must contain every breakpoint of f."""
    bx, by = breakpoint_arrays(f)
    vals = np.interp(xs, bx, by)
    if kind == "identity":
        return vals
    seg = (vals[:-1] + vals[1:]) / 2.0 * np.diff(xs)
    integ = np.concatenate([[0.0], np.cumsum(seg)])
    if kind == "integral":
        return integ
    rel = xs - xs[0]
    with np.errstate(invalid="ignore", divide="ignore"):
        avg = np.where(rel > 0, integ / np.where(rel > 0, rel, 1.0), vals[0])
    return avg


def _threshold_on_grid(xs: np.ndarray, theta: float, kind: str, **params) -> np.ndarray:
    if kind == "power":
        return theta * np.power(xs - params.get("shift", 0.0), params["p"])
    return theta * (params["ceiling"] - xs)


def oracle_grid_root(
    f,
    op_kind: str,
    theta: float,
    family_kind: str = "power",
    n_points: int = 100_000,
    **family_params,
) -> tuple[float, float]:
    """Abscissa minimizing |T(f) - A(., theta)| over a dense grid.

    Returns (argmin, grid spacing).  Breakpoints are inserted into the
    grid so the transform values are exact.
    """
    bx, _ = breakpoint_arrays(f)
    a, s = float(bx[0]), float(bx[-1])
    xs = np.union1d(np.linspace(a, s, n_points), bx)
    tvals = _transform_on_grid(f, op_kind, xs)
    avals = _threshold_on_grid(xs, theta, family_kind, **family_params)
    idx = int(np.argmin(np.abs(tvals - avals)))
    return float(xs[idx]), (s - a) / (n_points - 1)


def discrete_h(counts) -> int:
    ranked = sorted(counts, reverse=True)
    return sum(1 for i, c in enumerate(ranked, start=1) if c >= i)


def discrete_g(counts) -> int:
    ranked = sorted(counts, reverse=True)
    total, g = 0.0, 0
    for i, c in enumerate(ranked, start=1):
        total += c
        if total >= i * i:
            g = i
    return g


def oracle_difference(
    f,
    op_kind: str,
    theta: float,
    family_kind: str = "power",
    n_points: int = 100_000,
    **family_params,
) -> tuple[np.ndarray, np.ndarray]:
    """D = T(f) - A(., theta) on a dense grid with f's breakpoints inserted.

    A power threshold is positive only for x > shift, so grid points at or
    below the shift are dropped.  Returns (abscissas, D there).
    """
    bx, _ = breakpoint_arrays(f)
    xs = np.union1d(np.linspace(bx[0], bx[-1], n_points), bx)
    with np.errstate(invalid="ignore"):
        d = _transform_on_grid(f, op_kind, xs) - _threshold_on_grid(
            xs, theta, family_kind, **family_params
        )
    if family_kind == "power":
        keep = xs > family_params.get("shift", 0.0)
        xs, d = xs[keep], d[keep]
    return xs, d


def oracle_roots(
    f,
    op_kind: str,
    theta: float,
    family_kind: str = "power",
    n_points: int = 100_000,
    **family_params,
) -> tuple[list[float], float]:
    """Roots of T(f) - A(., theta) as a dense grid sees them.

    Every exact grid zero counts, and every cell whose ends carry strict
    opposite signs counts once, located at its left end.  Grid points at or
    below a power threshold's shift are dropped (see
    :func:`oracle_difference`).  Returns (sorted roots, grid spacing).
    """
    xs, d = oracle_difference(f, op_kind, theta, family_kind, n_points, **family_params)
    signs = np.sign(d)
    cells = np.flatnonzero(signs[:-1] * signs[1:] < 0)
    roots = sorted(xs[signs == 0].tolist() + xs[cells].tolist())
    bx, _ = breakpoint_arrays(f)
    return roots, float(bx[-1] - bx[0]) / (n_points - 1)


def oracle_psi(
    f, op_kind: str, family_kind: str = "power", n_points: int = 100_000, **family_params
) -> np.ndarray:
    """psi_f = T(f) / A(., 1) on a dense grid with f's breakpoints inserted.

    Grid points at or below a power threshold's shift, where A(., 1) is
    not positive, are dropped.
    """
    bx, _ = breakpoint_arrays(f)
    xs = np.union1d(np.linspace(bx[0], bx[-1], n_points), bx)
    with np.errstate(invalid="ignore"):  # a power of a negative base is NaN
        base = _threshold_on_grid(xs, 1.0, family_kind, **family_params)
    keep = base > 0.0
    return _transform_on_grid(f, op_kind, xs)[keep] / base[keep]


def oracle_phi(
    f,
    op_kind: str,
    family_kind: str,
    lo: float,
    hi: float,
    n_points: int = 100_000,
    **family_params,
) -> np.ndarray:
    """phi = T(f)' / A'(., 1) on a dense grid of [lo, hi] with f's breakpoints inserted.

    T(f)' is the slope of f's segment under each grid cell for the
    identity, f for the integral, and (f (x - a) - I(f)) / (x - a)^2 for
    averaging, whose points within 1e-3 (S - a) of a are dropped: there the
    difference cancels to a few digits.  A'(., 1) is -1 for
    declin and p (x - shift)^(p - 1) for a power, whose points at or below
    the shift are dropped; where lo is the shift, the limit there of
    phi = f (x - shift)^(1 - p) / p is appended: 0, f(shift) or inf for
    p <, = or > 1, and 0 where f(shift) = 0.  phi is 0 where T(f)' is.
    """
    bx, by = breakpoint_arrays(f)
    xs = np.union1d(np.linspace(lo, hi, n_points), bx)
    vals = np.interp(xs, bx, by)
    if op_kind == "identity":
        inside = (xs[:-1] >= lo) & (xs[1:] <= hi)
        xs = xs[:-1][inside]
        dt = (np.diff(by) / np.diff(bx))[np.searchsorted(bx, xs, side="right") - 1]
    else:
        integ = _transform_on_grid(f, "integral", xs)
        keep = (xs >= lo) & (xs <= hi)
        if op_kind == "averaging":
            keep &= xs - bx[0] >= 1e-3 * (bx[-1] - bx[0])
        xs, vals, integ = xs[keep], vals[keep], integ[keep]
        rel = xs - bx[0]
        dt = vals if op_kind == "integral" else (vals * rel - integ) / (rel * rel)
    if family_kind == "declin":
        return -dt
    p, shift = family_params["p"], family_params.get("shift", 0.0)
    above = xs > shift
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        phi = np.where(dt == 0.0, 0.0, dt / (p * (xs - shift) ** (p - 1.0)))[above]
    if lo == shift:
        at = float(np.interp(shift, bx, by))
        limit = 0.0 if p < 1.0 or at == 0.0 else (at if p == 1.0 else np.inf)
        phi = np.append(phi, limit)
    return phi


def oracle_root(
    f, op_kind: str, theta: float, lo: float, hi: float, p: float, shift: float = 0.0
) -> Decimal:
    """The root of T(f)(x) = theta (x - shift)^p on (lo, hi), to about 45 digits.

    Bisection at 60 significant digits, with T(f) from f's breakpoints
    alone (each float is exact as a Decimal): f interpolated linearly, its
    integral summed by trapezoids, the average that over (x - a).  D must
    change sign exactly once on (lo, hi); only its sign at ``hi`` is read
    from the ends, so lo may be the shift, where D vanishes.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        bx = [Decimal(v) for v, _ in f.breakpoints]
        by = [Decimal(v) for _, v in f.breakpoints]
        cumulative = [Decimal(0)]
        for x0, y0, x1, y1 in zip(bx, by, bx[1:], by[1:]):
            cumulative.append(cumulative[-1] + (y0 + y1) / 2 * (x1 - x0))
        big_theta, big_p, big_shift = Decimal(theta), Decimal(p), Decimal(shift)
        twice_p = 2 * p

        def d(x: Decimal) -> Decimal:
            k = min(max(bisect.bisect_right(bx, x) - 1, 0), len(bx) - 2)
            slope = (by[k + 1] - by[k]) / (bx[k + 1] - bx[k])
            value = by[k] + slope * (x - bx[k])
            if op_kind != "identity":
                value = cumulative[k] + (by[k] + value) / 2 * (x - bx[k])
                if op_kind == "averaging":
                    value /= x - bx[0]
            gap = x - big_shift
            if twice_p == int(twice_p):  # a half-integer power, by the faster sqrt
                return value - big_theta * gap.sqrt() ** int(twice_p)
            return value - big_theta * gap**big_p

        low, high = Decimal(lo), Decimal(hi)
        high_sign = d(high) > 0
        for _ in range(1000):
            mid = (low + high) / 2
            if mid in (low, high) or high - low <= high.scaleb(-45):
                break
            value = d(mid)
            if value == 0:
                return mid
            if (value > 0) == high_sign:
                high = mid
            else:
                low = mid
        return (low + high) / 2


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _root_sign(a: Fraction, b: int, w: Fraction) -> int:
    """The sign of a + b sqrt(w), for w >= 0 and b in {-1, 1}, exactly."""
    if w == 0:
        return _sign(a)
    if _sign(a) != -b:
        return b
    return _sign(a) * _sign(a * a - w)  # a and b sqrt(w) of opposite signs


def _zeros_in(c0: Fraction, c1: Fraction, c2: Fraction, closed: bool) -> int | None:
    """The distinct zeros of c2 t^2 + c1 t + c0 on (0, 1], or on [0, 1] if
    ``closed``; None if it vanishes identically."""
    if c2 == 0:
        if c1 == 0:
            return None if c0 == 0 else 0
        t = -c0 / c1
        return int((0 <= t if closed else 0 < t) and t <= 1)
    disc = c1 * c1 - 4 * c2 * c0
    if disc < 0:
        return 0
    count = 0
    for b in (1, -1) if disc else (1,):
        # t = (-c1 + b sqrt(disc)) / (2 c2), and t - L has the sign of
        # (-c1 - 2 c2 L + b sqrt(disc)) times that of c2
        above = _root_sign(-c1, b, disc) * _sign(c2)
        below = _root_sign(-c1 - 2 * c2, b, disc) * _sign(c2)
        count += (above >= 0 if closed else above > 0) and below <= 0
    return count


def exact_status(counts, kind: str, p: int, theta: float, window=None) -> str:
    """The status of T(f)(x) = theta x**p, decided in rationals: "root"
    (exactly one), "NoRoot" or "NonUnique", for the citation record
    ``counts`` (integers) and T = identity or integral, p = 1 or 2, shift 0.

    The domain is (0, S], or the window [lo, hi] of integer ends (open at
    0).  On each cell [k, k + 1], in t = x - k, f is y0 + s t and D is the
    quadratic T(f) - theta (k + t)**p, whose distinct zeros are counted with
    square roots compared by squaring.
    """
    theta = Fraction(theta)
    ys = [Fraction(c) for c in (counts[0], *counts, 0)]
    lo, hi = window if window is not None else (0, len(ys) - 1)
    zeros, integral = 0, Fraction(0)
    for k in range(lo if kind == "identity" else 0, hi):
        y0, s = ys[k], ys[k + 1] - ys[k]
        if k >= lo:
            t0, t1, t2 = (y0, s, 0) if kind == "identity" else (integral, y0, s / 2)
            a0, a1, a2 = (theta * k, theta, 0) if p == 1 else (theta * k * k, 2 * theta * k, theta)
            count = _zeros_in(t0 - a0, t1 - a1, t2 - a2, closed=k == lo > 0)
            if count is None:
                return "NonUnique"
            zeros += count
        integral += (y0 + ys[k + 1]) / 2
    return "NoRoot" if zeros == 0 else "root" if zeros == 1 else "NonUnique"
