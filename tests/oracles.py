"""Independent numeric oracles used to cross-check the library.

Everything here is built from numpy primitives (interp, cumulative
trapezoids, dense-grid argmin) and deliberately avoids the package's own
evaluation and solving code paths, so agreement between the two is
meaningful evidence.
"""

from __future__ import annotations

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
