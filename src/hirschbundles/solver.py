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
averaging against a power is one falling run.  Everything that does not
depend on theta (the zero check, the window and its ends, the table) is
one set-up value (``_set_up``), which the per-theta ``_solve`` takes:
``sample_bundle`` makes one per theta grid, and ``verify`` one per T(f)
that it solves at several thetas.  D changes sign at most once on a run,
found by a binary search of the run's points.  D's sign at a point is
the one rule of ``thresholds._d_values``, exact over the table's floats
(averaging's mu(f) and the power of p = 1/2 stay rounded there): the
support end, say, is a root only where D is exactly 0 there.  A zero of
D at a point, or a sign change on a cell, is a root; D = 0 at two
neighbouring points is psi_f = theta on a whole cell.  No root means
theta is not admissible, several mean the configuration left the
uniqueness hypotheses, which is reported rather than silently resolved.
The single root is then solved on its one cell, in closed form where the
segment equation is a polynomial of degree at most 2 (its constant term
keeping the table's sign at the cell's start), and otherwise found by
iteration on its cell: a safeguarded Newton iteration inside the cell's
bracket, which places the root to about one ulp (its status keeps the
name ``Bisection``).  A root that lies right of a power's shift 0 but
below the least positive float underflows to 0, the shift itself, and is
reported as NoRoot.  ``verify`` decides the monotonicity of D itself, for
every theta at once, from the bounds of the theta-free
phi = T(f)' / A'(., 1) (``thresholds._phi_bounds``).

The CLI's records all start at 0, and for the pairs whose every root cell
has a closed form there, identity x power(1 or 2) and averaging x power(1)
with the shift at 0 (the h-, Kosmulski- and g-bundles), a private columnar
kernel (``_bundle_cells``) solves every record at every theta of a grid at
once, each cell it answers bitwise as ``sample_bundle`` does, by the
whole-support search above run in lockstep over all (record, theta) lanes.
``solve_transformed`` and ``sample_bundle`` stay the per-function API.

The identically-zero function is special-cased to m = support_start with
a success status: a zero record has zero impact at every admissible
theta.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DomainError, NonPositiveThetaError, NoRootError, NonUniqueError
from .funcspace import _EXACT_SUM, RankFrequencyFunction, _exact_in_halves, _running_integrals
from .operators import _AVERAGING_EDGE, OperatorKind, TransformedFunction, apply
from .thresholds import (
    DecreasingLinearThreshold,
    PowerThreshold,
    ThresholdFamily,
    _check_theta,
    _d_values,
    _power,
    _powers,
    _search_window,
    _solve_table,
    _SolveTable,
)

# An absolute tolerance in x for comparing solutions (``verify`` builds its
# tolerances on it); the solver itself places a root to about one ulp.
ABS_TOL_X = 1e-10


class SolveStatus(Enum):
    EXACT_SEGMENT = "ExactSegment"
    BISECTION = "Bisection"
    NO_ROOT = "NoRoot"
    NON_UNIQUE = "NonUnique"


class BundleEntry(NamedTuple):
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
    _check_theta(theta)  # a bad theta is named before a bad window
    return _solve(_set_up(tf, family, x_window), theta)


class _SetUp(NamedTuple):
    """The theta-free part of the solves of T(f) = A on one search window."""

    tf: TransformedFunction
    family: ThresholdFamily
    table: _SolveTable | None  # None where there is no search (see _set_up)
    lo: float
    hi: float
    open_lo: bool  # the domain is (lo, hi]: lo is a power's shift


def _set_up(
    tf: TransformedFunction,
    family: ThresholdFamily,
    x_window: tuple[float, float] | None,
) -> _SetUp:
    """The set-up of a search on ``x_window`` ([a, S] for None) for :func:`_solve`.

    Raises ValueError for a window not inside [a, S].  There is no table
    for the zero function, nor where a declin ceiling or a power shift does
    not leave the window a search; :func:`_solve` answers or raises there.
    """
    if tf.source.is_zero():
        return _SetUp(tf, family, None, tf.origin, tf.support_end, False)
    lo, hi = _search_window(tf, x_window)
    power = isinstance(family, PowerThreshold)
    if (family.shift >= hi) if power else (family.ceiling <= hi):
        return _SetUp(tf, family, None, lo, hi, False)
    open_lo = power and family.shift >= lo
    if open_lo:
        lo = family.shift
    return _SetUp(tf, family, _solve_table(tf, family, lo, hi), lo, hi, open_lo)


def _solve(setup: _SetUp, theta: float) -> tuple[float, SolveStatus]:
    """:func:`solve_transformed` at one theta, on its :func:`_set_up`."""
    _check_theta(theta)
    tf, family, table, lo, hi, open_lo = setup
    if table is None:
        if tf.source.is_zero():
            return tf.origin, SolveStatus.EXACT_SEGMENT
        if isinstance(family, DecreasingLinearThreshold):
            raise DomainError(
                f"threshold ceiling {family.ceiling} must exceed the search domain end {hi}"
            )
        raise NoRootError(
            f"theta={theta} is not admissible: the threshold is not positive on [{lo}, {hi}]"
        )
    xs, tvals, base, segs, runs, _ = table

    def d(i: int) -> float:
        return _d_values(tvals[i], theta, base[i])

    # each root is (j, exact): a zero of D at xs[j], or a sign change on (xs[j - 1], xs[j])
    roots: list[tuple[int, bool]] = []
    for first, last, rising in runs:
        # the first point past the run's one sign change, D >= 0 (rising) or D <= 0,
        # by the probes of np.searchsorted over the run's values of D or -D
        sign = 1.0 if rising else -1.0
        j = bisect_left(
            range(last + 1), 0.0, first, key=lambda i: sign * _d_values(tvals[i], theta, base[i])
        )
        if j <= last and d(j) == 0.0:
            if j < last and d(j + 1) == 0.0:
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
        return _locate(tf, family, theta, xs[j - 1], xs[j], d(j - 1), segs[j - 1])
    # No root; j, last and rising are the last run's
    if j <= last and not rising:
        raise NoRootError(f"theta={theta} is not admissible: D < 0 on the domain from {lo} to {hi}")
    bracket = "(" if open_lo else "["
    raise NoRootError(f"theta={theta} is not admissible: no root on {bracket}{lo}, {hi}]")


def _locate(
    tf: TransformedFunction,
    family: ThresholdFamily,
    theta: float,
    lo: float,
    hi: float,
    d_lo: float,
    seg: int,
) -> tuple[float, SolveStatus]:
    """The single root of D on (lo, hi), where D is monotone and changes sign.

    [lo, hi] lies in breakpoint segment ``seg``, which starts at x0; in
    t = x - x0, T(f) there is t2 t^2 + t1 t + t0 (for averaging, the
    numerator I(u) of mu(u) = I(u) / (x - a)).  Where A is a polynomial
    a2 t^2 + a1 t + a0 too (a power of exponent 1 or 2, or declin), D is
    c2 t^2 + c1 t + c0 with ck = tk - ak, solved in closed form.  For
    averaging that is the cleared-denominator (x - a) D = I(u) - (x - a) A,
    which has the sign of D for x > a and needs A of degree at most 1.

    Otherwise the root is found by iteration on its cell: a safeguarded
    Newton iteration on D = T(f) - A, with T(f)' = N' (or (N' - T(f)) /
    (x - a) for averaging) and A' = p A / (x - shift) (or -theta for
    declin).  It keeps the bracket [lo, hi] and the sign ``d_lo`` the table
    gives, and takes a Newton step only when D' is finite and not zero, the
    step falls inside the bracket and it is at most half the step before
    the last; otherwise it halves the bracket, so a slow Newton run costs
    at most about twice the halvings.  It stops at D = 0, at a Newton step
    of at most 2 ulp, or at adjacent floats, so the root is placed to about
    one ulp whatever its size.
    """
    f = tf.source
    x0, y0, slope = f.xs.item(seg), f.ys.item(seg), f.slopes.item(seg)
    kind = tf.kind
    if kind is OperatorKind.IDENTITY:
        t2, t1, t0 = 0.0, slope, y0
    else:
        t2, t1, t0 = slope / 2.0, y0, f.cumulative.item(seg)
    averaging = kind is OperatorKind.AVERAGING
    poly = True
    if isinstance(family, DecreasingLinearThreshold):
        a2, a1, a0 = 0.0, -theta, theta * (family.ceiling - x0)
    elif family.p == 1.0:
        a2, a1, a0 = 0.0, theta, theta * (x0 - family.shift)
    elif family.p == 2.0 and not averaging:
        d = x0 - family.shift
        a2, a1, a0 = theta, 2.0 * theta * d, theta * d * d
    else:
        poly = False
    if poly:
        if averaging:  # multiply A by (x - a) = t + e
            e = x0 - f.support_start
            a2, a1, a0 = a1, a1 * e + a0, a0 * e
        c2, c1, c0 = t2 - a2, t1 - a1, t0 - a0
        # c0 is D at x0, or (x0 - a) D for averaging: where x0 = lo it takes the table's
        # sign there, which the rounding of A may have lost.  Where A(lo) = 0, c0 is T(f)
        # exactly, and the table may hold psi_f's limit at lo instead.
        if x0 == lo and a0 != 0.0 and (c0 > 0.0, c0 < 0.0) != (d_lo > 0.0, d_lo < 0.0):
            c0 = d_lo * (x0 - f.support_start if averaging else 1.0)
        # c0 = 0 puts a root at t = 0, the left end, which _roots leaves out: for
        # averaging's first segment it is the spurious root x = a of the cleared
        # denominator, and a true root there would have D(lo) = 0.
        roots = _roots(c2, c1, c0)
        eps = 1e-12 * (f.support_end - f.support_start + 1.0)
        inside = [x0 + t for t in roots if lo - eps <= x0 + t <= hi + eps]
        if len(inside) == 1:
            x = inside[0]  # clamped into [lo, hi]
            return _not_underflowed(lo if x < lo else hi if x > hi else x, family, theta), (
                SolveStatus.EXACT_SEGMENT
            )

    # Safeguarded Newton on D from the segment's own polynomial N(t): no breakpoint
    # search per step, and the ends of [lo, hi] are never evaluated again (their
    # signs are the table's).  T' = N', or (N' - T) / (x - a) for averaging.
    a = f.support_start if averaging else None
    power = isinstance(family, PowerThreshold)
    if power:
        shift, p = family.shift, family.p
    else:
        ceiling = family.ceiling
    lo_positive = d_lo > 0.0
    x = (lo + hi) / 2.0
    last = older = hi - lo  # the sizes of the last two steps
    while lo < x < hi:
        t = x - x0
        value, deriv = t0 + t1 * t + t2 * t * t, t1 + 2.0 * t2 * t
        if a is not None:
            value /= x - a
            deriv = (deriv - value) / (x - a)
        if power:
            gap = x - shift
            threshold = theta * _power(gap, p)  # PowerThreshold.value, without its checks
            deriv -= p * threshold / gap
        else:
            threshold = theta * (ceiling - x)
            deriv += theta
        d = value - threshold
        if d == 0.0:
            break
        if (d > 0.0) == lo_positive:
            lo = x
        else:
            hi = x
        # An infinite or NaN D' (p A overflowing) gives no step, as does D' = 0
        step = d / deriv if deriv and math.isfinite(deriv) else math.inf
        if abs(step) <= 2.0 * math.ulp(x):  # converged: the last step, kept in the bracket
            x = min(max(x - step, lo), hi)
            break
        # A step that leaves the bracket, or is not at most half the step before
        # the last one (Newton converging slowly), halves the bracket instead.
        if lo < x - step < hi and abs(step) <= older / 2.0:
            x -= step
        else:
            x = (lo + hi) / 2.0
            step = hi - x
        last, older = abs(step), last
    return _not_underflowed(x, family, theta), SolveStatus.BISECTION


def _not_underflowed(x: float, family: ThresholdFamily, theta: float) -> float:
    """x, unless a power's shift is 0 and x is 0 too: the root, which lies
    right of the shift, underflows, and no float represents it."""
    if x <= 0.0 and isinstance(family, PowerThreshold):  # 0 <= shift <= x
        raise NoRootError(
            f"theta={theta}: the root underflows to 0, the threshold's shift, "
            "below the least positive float"
        )
    return x


def _roots(c2: float, c1: float, c0: float) -> list[float]:
    """The roots of c2 t^2 + c1 t + c0 (by the numerically stable split),
    less the root t = 0 that c0 = 0 gives."""
    if c2 == 0.0:
        return [] if c1 == 0.0 or c0 == 0.0 else [-c0 / c1]
    if c0 == 0.0:
        return [-c1 / c2]
    disc = c1 * c1 - 4.0 * c2 * c0
    if disc < 0.0:
        return []
    # q is 0 only where c1 = 0 and 4 c2 c0 underflows, which loses the roots
    # +-sqrt(-c0 / c2): t = 0 stands for them, as in _cell_roots
    q = -(c1 + math.copysign(math.sqrt(disc), c1)) / 2.0
    return [0.0] if q == 0.0 else [q / c2, c0 / q]


def sample_bundle(
    f: RankFrequencyFunction,
    kind: OperatorKind,
    family: ThresholdFamily,
    theta_grid: Sequence[float],
) -> tuple[BundleEntry, ...]:
    """The bundle theta -> m_theta(f) at every theta of a sorted positive grid,
    in grid order; failures become statuses."""
    thetas = _theta_list(theta_grid)
    setup = _set_up(apply(kind, f), family, None)
    entries = []
    for theta in thetas:
        try:
            m, status = _solve(setup, theta)
        except NoRootError:
            m, status = math.nan, SolveStatus.NO_ROOT
        except NonUniqueError:
            m, status = math.nan, SolveStatus.NON_UNIQUE
        entries.append(BundleEntry(theta, m, status))
    return tuple(entries)


def _theta_list(theta_grid: Sequence[float]) -> list[float]:
    thetas = [float(t) for t in theta_grid]
    if not all(0 < t < math.inf for t in thetas):
        raise NonPositiveThetaError("theta grid values must be positive and finite")
    if thetas != sorted(thetas):
        raise ValueError("theta grid must be sorted ascending")
    return thetas


class _CitationColumns:
    """The whole-support solve tables of citation records, as flat columns.

    Record r, ``counts[offsets[r]:offsets[r + 1]]`` of N counts, has the N + 2
    points of its :func:`from_citation_counts` function at
    ``starts[r]:starts[r] + lengths[r]``: the local abscissas ``x`` = 0, 1,
    ..., N + 1 and the values ``ys``.  :func:`_averaging_columns` adds the
    columns of the averaging operator.
    """

    def __init__(self, counts: np.ndarray, offsets: np.ndarray):
        self.offsets = offsets - offsets[0]
        self.counts = counts[offsets[0] : offsets[-1]]
        n = np.diff(self.offsets)
        records = np.arange(len(n))
        self.lengths = n + 2
        self.starts = self.offsets[:-1] + 2 * records
        self.ends = self.starts + n + 1
        points = int(self.ends[-1]) + 1
        self.x = (np.arange(points) - np.repeat(self.starts, self.lengths)).astype(float)
        # c_1, c_1, c_2, ..., c_N, 0: count k of record r sits at point k + 2 r + 1
        self.ys = np.empty(points)
        self.ys[self.starts] = self.counts[self.offsets[:-1]]
        self.ys[np.arange(len(self.counts)) + np.repeat(2 * records + 1, n)] = self.counts
        self.ys[self.ends] = 0.0


def _averaging_columns(columns: _CitationColumns) -> tuple[np.ndarray, np.ndarray]:
    """(cumulative, mu(f)) at the points of ``columns``, bitwise the function's ``cumulative``
    and averaging ``breakpoint_values``; run under an errstate, as a sum may overflow.

    For a record within ``funcspace._exact_in_halves``, the running integral
    at its point j is its values' sum up to j less half its first and half
    its j-th value (the trapezoid sum), from one running sum of the values
    of all such records, while the sum of their bounds (first count times
    N + 1) is at most ``2**52``; for any other record, the function's
    running sum (``_running_integrals``), scattered back.
    """
    firsts = np.repeat(columns.starts, columns.lengths)  # each point's record's first point
    exact = _exact_in_halves(columns.counts, columns.offsets)
    # a record's values sum to at most its first count times its number of counts plus one
    if (columns.ys[columns.starts] * (columns.lengths - 1.0))[exact].sum() > _EXACT_SUM:
        exact[:] = False  # the running sum of the records within might round
    ys = columns.ys if exact.all() else np.where(np.repeat(exact, columns.lengths), columns.ys, 0.0)
    sums = np.cumsum(ys)
    before = sums[columns.starts] - ys[columns.starts]  # the sum before each record
    cumulative = (sums - np.repeat(before, columns.lengths)) - (ys[firsts] + ys) / 2.0
    outside = np.flatnonzero(~exact)
    if len(outside):
        for rows, sums in _running_integrals(columns.counts, columns.offsets, outside):
            cumulative[columns.starts[rows, None] + np.arange(1, sums.shape[1] + 1)] = sums
    # the support of every record starts at 0, and x is x - a
    span = np.repeat(columns.x[columns.ends], columns.lengths)
    edge = columns.x < _AVERAGING_EDGE * span
    mu = cumulative / np.where(edge, 1.0, columns.x)
    return cumulative, np.where(edge, columns.ys[firsts], mu)


# Codes of the kernel's cells: positions in SolveStatus, and a cell the kernel
# leaves to sample_bundle
_STATUSES = tuple(SolveStatus)
_EXACT = _STATUSES.index(SolveStatus.EXACT_SEGMENT)
_NO_ROOT = _STATUSES.index(SolveStatus.NO_ROOT)
_NON_UNIQUE = _STATUSES.index(SolveStatus.NON_UNIQUE)
_DECLINED = -1


def _closed_form_pair(kind: OperatorKind, family: ThresholdFamily) -> bool:
    """Whether :func:`_bundle_cells` serves (kind, family): identity x power(1 or 2)
    or averaging x power(1), with its shift at the records' origin 0."""
    if not isinstance(family, PowerThreshold) or family.shift != 0.0:
        return False
    if kind is OperatorKind.IDENTITY:
        return family.p in (1.0, 2.0)
    return kind is OperatorKind.AVERAGING and family.p == 1.0


def _bundle_cells(
    columns: _CitationColumns,
    kind: OperatorKind,
    family: PowerThreshold,
    theta_grid: Sequence[float],
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`sample_bundle` of every record of ``columns`` at once, for a
    :func:`_closed_form_pair`: (m, code), each of shape (records, thetas).

    Every (record, theta) lane runs :func:`_solve` on the whole support: its
    search in lockstep over all lanes (:func:`_bisect_lanes`), then its
    exact-zero and NonUnique rules and ``_locate``'s closed form
    per lane, in the same order of operations, so each cell it answers is
    bitwise the one ``sample_bundle`` gives.  A code is a position in
    ``SolveStatus`` (m is NaN but for ExactSegment), or ``_DECLINED`` for a
    cell left to :func:`sample_bundle`: the zero record's, and one whose
    closed form has not exactly one root in its bracket.  Raises as
    :func:`sample_bundle` for a bad grid.
    """
    thetas = _theta_list(theta_grid)
    count, x = len(thetas), columns.x
    theta = np.tile(thetas, len(columns.starts))  # lane r * count + k: record r at thetas[k]
    start, length = np.repeat(columns.starts, count), np.repeat(columns.lengths, count)
    end = start + length - 1
    m = np.full(len(theta), math.nan)
    code = np.full(len(theta), _NO_ROOT, dtype=np.int8)
    # no overflow or NaN warnings, as the scalar solve's float arithmetic gives none
    with np.errstate(all="ignore"):
        tvals, cumulative = columns.ys, None
        if kind is OperatorKind.AVERAGING:
            cumulative, tvals = _averaging_columns(columns)
        base = _powers(x - family.shift, family.p)
        j = _bisect_lanes(tvals, base, theta, start, length)
        at = np.minimum(start + j, end)
        after = np.minimum(at + 1, end)
        zero_at = (j < length) & (_d_values(tvals[at], theta, base[at]) == 0.0)
        non_unique = zero_at & (at < end) & (_d_values(tvals[after], theta, base[after]) == 0.0)
        # a zero at x = 0, the open lower end at the shift, is no root
        exact = zero_at & ~non_unique & (j > 0)
        m[exact] = x[at[exact]]
        code[exact] = _EXACT
        code[non_unique] = _NON_UNIQUE
        declined = np.repeat(columns.ys[columns.starts] == 0.0, count)  # the zero record
        cells = np.flatnonzero(~declined & ~zero_at & (j > 0) & (j < length))
        if len(cells):
            root, one = _cell_roots(
                columns, cumulative, tvals, base, family, theta[cells], at[cells], end[cells]
            )
            solved = one & (root > 0.0)  # else the root underflows to the shift 0
            m[cells[solved]] = root[solved]
            code[cells[solved]] = _EXACT
            declined[cells[~one]] = True
    code[declined] = _DECLINED
    return m.reshape(-1, count), code.reshape(-1, count)


def _bisect_lanes(
    tvals: np.ndarray, base: np.ndarray, theta: np.ndarray, start: np.ndarray, length: np.ndarray
) -> np.ndarray:
    """:func:`_solve`'s ``bisect_left`` on all lanes at once, by the same probes whether or
    not D falls: on lane k, the first j of 0, ..., length[k] with D = tvals - theta[k] base at
    start[k] + j not > 0.  Each round sets lo = mid + 1 if D(mid) > 0, else hi = mid, if lo < hi."""
    lo, hi = np.zeros_like(length), length.copy()
    for _ in range(int(length.max()).bit_length()):
        mid = (lo + hi) >> 1
        at = start + mid  # past the lane's points only once lo = hi = length
        positive = _d_values(tvals.take(at, mode="clip"), theta, base.take(at, mode="clip")) > 0.0
        positive &= mid < hi
        lo = np.where(positive, mid + 1, lo)
        hi = np.where(positive, hi, mid)
    return lo


def _cell_roots(
    columns: _CitationColumns,
    cumulative: np.ndarray | None,
    tvals: np.ndarray,
    base: np.ndarray,
    family: PowerThreshold,
    theta: np.ndarray,
    i1: np.ndarray,
    ends: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``_locate``'s closed form on the cells [x[i1 - 1], x[i1]], at their thetas, in records
    ending at x[ends]: the root, clamped into its cell, and whether there was exactly one."""
    x, ys = columns.x, columns.ys
    i0 = i1 - 1
    x0, x1, y0 = x[i0], x[i1], ys[i0]
    slope = (ys[i1] - y0) / (x1 - x0)
    averaging = cumulative is not None
    if averaging:
        t2, t1, t0 = slope / 2.0, y0, cumulative[i0]
    else:
        t2, t1, t0 = 0.0, slope, y0
    if family.p == 1.0:
        a2, a1, a0 = 0.0, theta, theta * (x0 - family.shift)
    else:
        gap = x0 - family.shift
        a2, a1, a0 = theta, 2.0 * theta * gap, theta * gap * gap
    if averaging:  # multiply A by (x - a) = t + x0
        a2, a1, a0 = a1, a1 * x0 + a0, a0 * x0
    c2, c1, c0 = np.broadcast_arrays(t2 - a2, t1 - a1, t0 - a0)
    # c0 keeps the table's sign at x0, as in _locate
    d0 = _d_values(tvals[i0], theta, base[i0])
    flip = (a0 != 0.0) & (((c0 > 0.0) != (d0 > 0.0)) | ((c0 < 0.0) != (d0 < 0.0)))
    c0 = np.where(flip, d0 * (x0 if averaging else 1.0), c0)
    # _roots' stable split, and its linear and c0 = 0 cases.  NaN or inf is no root.
    q = -(c1 + np.copysign(np.sqrt(c1 * c1 - 4.0 * c2 * c0), c1)) / 2.0
    linear = c2 == 0.0
    t = np.where(c0 == 0.0, -c1 / c2, np.where(linear, -c0 / c1, np.where(q == 0.0, 0.0, q / c2)))
    other = np.where((c0 == 0.0) | linear | (q == 0.0), math.nan, c0 / q)
    eps = 1e-12 * (x[ends] - 0.0 + 1.0)
    roots = x0 + t, x0 + other
    inside = [(x0 - eps <= r) & (r <= x1 + eps) for r in roots]
    r = np.where(inside[0], *roots)
    return np.where(r < x0, x0, np.where(r > x1, x1, r)), inside[0] != inside[1]


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
