import bisect
import decimal
import math
import re
from decimal import Decimal
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hirschbundles import funcspace, solver, thresholds
from hirschbundles.errors import BundleError, NonPositiveThetaError, NoRootError, NonUniqueError
from hirschbundles.funcspace import (
    PerturbMode,
    RankFrequencyFunction,
    citation_integrals,
    from_citation_counts,
    perturb,
    random_function,
)
from hirschbundles.operators import OperatorKind, apply
from hirschbundles.solver import (
    SolveStatus,
    g_index,
    g_kosmulski_index,
    h_index,
    kosmulski_index,
    polar_radius,
    sample_bundle,
    solve_bundle_point,
    solve_transformed,
)
from hirschbundles.thresholds import PowerThreshold, DecreasingLinearThreshold, psi

from oracles import oracle_grid_root, oracle_root, oracle_roots

IDENTITY = OperatorKind.IDENTITY
AVERAGING = OperatorKind.AVERAGING
INTEGRAL = OperatorKind.INTEGRAL

# frozen closed forms for f(x) = 10 - x on [0, 10]
KOSMULSKI_LINE_P2 = (-1.0 + math.sqrt(41.0)) / 2.0  # root of x^2 + x - 10
G_KOSMULSKI_LINE_P2 = (-1.0 + math.sqrt(161.0)) / 4.0  # root of x^2 + x/2 - 10


class TestSolveBundlePoint:
    def test_line_h_closed_form(self, line):
        m, status = solve_bundle_point(line, IDENTITY, PowerThreshold(1.0, 0.0), 1.0)
        assert m == pytest.approx(5.0, abs=1e-12)
        assert status is SolveStatus.EXACT_SEGMENT

    def test_constant_square_root(self):
        f = RankFrequencyFunction([(0.0, 9.0), (12.0, 9.0)])
        m, _ = solve_bundle_point(f, IDENTITY, PowerThreshold(2.0, 0.0), 1.0)
        assert m == pytest.approx(3.0, abs=1e-10)

    def test_below_admissible_minimum(self, const4):
        with pytest.raises(NoRootError):
            solve_bundle_point(const4, IDENTITY, PowerThreshold(1.0, 0.0), 0.25)

    def test_root_at_right_endpoint(self, const4):
        m, _ = solve_bundle_point(const4, IDENTITY, PowerThreshold(1.0, 0.0), 0.5)
        assert m == 8.0

    def test_zero_function_convention(self):
        zero = RankFrequencyFunction([(0.0, 0.0), (2.0, 0.0)])
        m, status = solve_bundle_point(zero, IDENTITY, PowerThreshold(1.0, 0.0), 3.0)
        assert m == 0.0
        assert status is SolveStatus.EXACT_SEGMENT

    def test_non_positive_theta(self, line):
        with pytest.raises(NonPositiveThetaError):
            solve_bundle_point(line, IDENTITY, PowerThreshold(1.0, 0.0), 0.0)

    # theta = inf used to reach the solver: h and g then raised NoRootError
    # ("D < 0 on the domain") and integral x power(p=2) warned from numpy
    @pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize(
        "kind, family",
        [
            (IDENTITY, PowerThreshold(1.0, 0.0)),
            (AVERAGING, PowerThreshold(1.0, 0.0)),
            (INTEGRAL, PowerThreshold(2.0, 0.0)),
        ],
    )
    def test_non_finite_theta(self, kind, family, theta):
        f = from_citation_counts([10, 8, 5, 4, 3, 2, 1])
        with pytest.raises(NonPositiveThetaError, match="positive and finite"):
            solve_bundle_point(f, kind, family, theta)
        with pytest.raises(NonPositiveThetaError, match="positive and finite"):
            sample_bundle(f, kind, family, [1.0, theta])

    def test_non_unique_detected(self):
        # crosses the falling threshold twice: steep drop then a long flat tail
        f = RankFrequencyFunction([(0.0, 10.0), (1.0, 3.0), (10.0, 2.5)])
        fam = DecreasingLinearThreshold(12.0)
        with pytest.raises(NonUniqueError):
            solve_bundle_point(f, IDENTITY, fam, 0.5)

    def test_bisection_matches_known_root(self, line):
        # 10 - x = theta * sqrt(x) has no closed-form solve path, but with
        # u = sqrt(x) it is the quadratic u^2 + theta u - 10 = 0; the
        # iteration places the root to within a few ulp (bisection to
        # ABS_TOL_X was 36,848 ulp off)
        theta = 1.3
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            big = Decimal(theta)
            u = (-big + (big * big + 40).sqrt()) / 2
            root = u * u
        assert abs(oracle_root(line, "identity", theta, 0.0, 10.0, 0.5) - root) < Decimal("1e-40")
        m, status = solve_bundle_point(line, IDENTITY, PowerThreshold(0.5, 0.0), theta)
        assert status is SolveStatus.BISECTION
        assert abs(m - float(root)) <= 4.0 * math.ulp(float(root))

    def test_x_window_restricts_search(self, line):
        fam = PowerThreshold(1.0, 0.0)
        m, _ = solve_bundle_point(line, IDENTITY, fam, 1.0, x_window=(2.0, 8.0))
        assert m == pytest.approx(5.0, abs=1e-10)
        with pytest.raises(NoRootError):
            solve_bundle_point(line, IDENTITY, fam, 1.0, x_window=(6.0, 8.0))

    def test_solution_stays_in_domain(self):
        for seed in range(50):
            f = random_function(seed)
            if f.is_zero():
                continue
            tf = apply(IDENTITY, f)
            x_mid = f.support_start + 0.5 * (f.support_end - f.support_start)
            if tf.eval(x_mid) <= 0:
                continue
            theta = psi(f, IDENTITY, PowerThreshold(1.0, 0.0), x_mid)
            m, _ = solve_bundle_point(f, IDENTITY, PowerThreshold(1.0, 0.0), theta)
            assert f.support_start <= m <= f.support_end


class TestSampleBundle:
    def test_line_bundle_closed_forms(self, line):
        entries = sample_bundle(line, IDENTITY, PowerThreshold(1.0, 0.0), [0.5, 1.0, 2.0])
        values = [e.m for e in entries]
        assert values == pytest.approx([20.0 / 3.0, 5.0, 10.0 / 3.0], abs=1e-10)

    def test_single_point_grid_matches_solve(self, line):
        (entry,) = sample_bundle(line, IDENTITY, PowerThreshold(1.0, 0.0), [1.0])
        m, status = solve_bundle_point(line, IDENTITY, PowerThreshold(1.0, 0.0), 1.0)
        assert entry.m == m
        assert entry.status == status

    def test_failures_become_statuses(self, const4):
        low, high = sample_bundle(const4, IDENTITY, PowerThreshold(1.0, 0.0), [0.25, 1.0])
        assert low.status is SolveStatus.NO_ROOT
        assert math.isnan(low.m)
        assert high.status is SolveStatus.EXACT_SEGMENT

    def test_decreasing_along_theta(self):
        for seed in range(30):
            f = random_function(seed)
            if f.is_zero():
                continue
            tf = apply(IDENTITY, f)
            mid = f.support_start + 0.5 * (f.support_end - f.support_start)
            if tf.eval(mid) <= 0:
                continue
            base = psi(f, IDENTITY, PowerThreshold(1.0, 0.0), mid)
            grid = [base, 1.5 * base, 2.5 * base]
            entries = sample_bundle(f, IDENTITY, PowerThreshold(1.0, 0.0), grid)
            ms = [e.m for e in entries if not math.isnan(e.m)]
            assert all(b < a - 1e-12 for a, b in zip(ms, ms[1:]))

    def test_grid_validation(self, line):
        with pytest.raises(NonPositiveThetaError):
            sample_bundle(line, IDENTITY, PowerThreshold(1.0, 0.0), [0.0, 1.0])
        with pytest.raises(ValueError):
            sample_bundle(line, IDENTITY, PowerThreshold(1.0, 0.0), [2.0, 1.0])


class TestNamedIndices:
    def test_h_line(self, line):
        assert h_index(line, 1.0) == pytest.approx(5.0, abs=1e-12)

    def test_h_counts(self, counts_fixture):
        assert h_index(counts_fixture, 1.0) == pytest.approx(4.0, abs=1e-12)

    def test_h_constant(self, const4):
        assert h_index(const4, 1.0) == pytest.approx(4.0, abs=1e-12)

    def test_g_line(self, line):
        assert g_index(line, 1.0) == pytest.approx(20.0 / 3.0, abs=1e-12)

    def test_g_counts(self, counts_fixture):
        assert g_index(counts_fixture, 1.0) == pytest.approx(6.0, abs=1e-12)

    def test_g_constant_reduces_to_h(self, const4):
        assert g_index(const4, 1.0) == pytest.approx(h_index(const4, 1.0), abs=1e-12)

    def test_kosmulski_constant(self):
        f = RankFrequencyFunction([(0.0, 9.0), (12.0, 9.0)])
        assert kosmulski_index(f, 1.0, 2.0) == pytest.approx(3.0, abs=1e-10)

    def test_kosmulski_p1_is_h(self):
        for seed in range(15):
            f = random_function(seed)
            if f.is_zero():
                continue
            try:
                h = h_index(f, 1.0)
            except NoRootError:
                continue
            assert kosmulski_index(f, 1.0, 1.0) == pytest.approx(h, abs=1e-12)

    def test_kosmulski_line_p2(self, line):
        assert kosmulski_index(line, 1.0, 2.0) == pytest.approx(KOSMULSKI_LINE_P2, abs=1e-10)

    def test_g_kosmulski_p1_is_g(self, line):
        assert g_kosmulski_index(line, 1.0, 1.0) == pytest.approx(
            g_index(line, 1.0), abs=1e-12
        )

    def test_g_kosmulski_constant(self):
        f = RankFrequencyFunction([(0.0, 9.0), (12.0, 9.0)])
        assert g_kosmulski_index(f, 1.0, 2.0) == pytest.approx(3.0, abs=1e-10)

    def test_g_kosmulski_line_p2(self, line):
        assert g_kosmulski_index(line, 1.0, 2.0) == pytest.approx(
            G_KOSMULSKI_LINE_P2, abs=1e-9
        )

    def test_polar_radius_line(self, line):
        assert polar_radius(line, 1.0) == pytest.approx(5.0 * math.sqrt(2.0), abs=1e-10)

    def test_polar_radius_constant(self, const4):
        assert polar_radius(const4, 1.0) == pytest.approx(4.0 * math.sqrt(2.0), abs=1e-10)

    def test_polar_radius_rejects_zero_theta(self, line):
        with pytest.raises(NonPositiveThetaError):
            polar_radius(line, 0.0)


def _safe_theta(f, op, fam, frac=0.55):
    tf = apply(op, f)
    lo = f.support_start
    if isinstance(fam, PowerThreshold):
        lo = max(lo, fam.shift)
    x = lo + frac * (f.support_end - lo)
    v = tf.eval(x)
    if v <= 0:
        return None
    return fam.theta_inverse(x, v)


class TestSolverInvariants:
    CONFIGS = [
        (IDENTITY, PowerThreshold(1.0, 0.0)),
        (IDENTITY, PowerThreshold(2.0, 0.0)),
        (IDENTITY, PowerThreshold(0.5, 0.0)),
        (AVERAGING, PowerThreshold(1.0, 0.0)),
        (AVERAGING, PowerThreshold(2.0, 0.0)),
    ]

    def test_equation_residual(self):
        for seed in range(40):
            f = random_function(seed)
            if f.is_zero():
                continue
            for op, fam in self.CONFIGS:
                theta = _safe_theta(f, op, fam)
                if theta is None:
                    continue
                tf = apply(op, f)
                m, _ = solve_bundle_point(f, op, fam, theta)
                resid = abs(tf.eval(m) - fam.value(m, theta))
                # local slope bound: |D| <= (|T'| + |A'|) * ABS_TOL_X, crudely scaled
                span = f.support_end - f.support_start
                slope_scale = (f.eval(f.support_start) + fam.value(f.support_end, theta)) / span
                assert resid <= 100.0 * max(slope_scale, 1.0) * solver.ABS_TOL_X

    def test_psi_consistency(self):
        for seed in range(40):
            f = random_function(seed)
            if f.is_zero():
                continue
            for op, fam in self.CONFIGS:
                theta = _safe_theta(f, op, fam)
                if theta is None:
                    continue
                m, _ = solve_bundle_point(f, op, fam, theta)
                assert psi(f, op, fam, m) == pytest.approx(theta, rel=1e-8)

    def test_matches_grid_oracle(self):
        kind_name = {OperatorKind.IDENTITY: "identity", OperatorKind.AVERAGING: "averaging"}
        for seed in range(25):
            f = random_function(seed)
            if f.is_zero():
                continue
            for op, fam in self.CONFIGS[:4]:
                theta = _safe_theta(f, op, fam)
                if theta is None:
                    continue
                m, _ = solve_bundle_point(f, op, fam, theta)
                root, spacing = oracle_grid_root(
                    f, kind_name[op], theta, "power", 20_000, p=fam.p, shift=fam.shift
                )
                assert abs(m - root) <= spacing + 1e-10

    def test_order_preservation_under_domination(self):
        fam = PowerThreshold(1.0, 0.0)
        for seed in range(40):
            f = random_function(seed)
            if f.is_zero():
                continue
            k = perturb(f, PerturbMode.MULTIPLICATIVE, 0.3)
            theta = _safe_theta(k, IDENTITY, fam)
            if theta is None:
                continue
            try:
                mf, _ = solve_bundle_point(f, IDENTITY, fam, theta)
                mk, _ = solve_bundle_point(k, IDENTITY, fam, theta)
            except NoRootError:
                continue
            assert mk >= mf - 1e-9

    def test_g_dominates_h(self):
        for seed in range(40):
            f = random_function(seed)
            if f.is_zero():
                continue
            theta = _safe_theta(f, AVERAGING, PowerThreshold(1.0, 0.0))
            if theta is None:
                continue
            try:
                g = g_index(f, theta)
                h = h_index(f, theta)
            except NoRootError:
                continue
            assert g >= h - 1e-9


class TestExactIsolation:
    def test_two_crossings_closer_than_a_scan_cell(self):
        # D(5) = 6.5, D(5.0001) = -0.002, D(5.003) = +0.0006: two roots
        # within 0.003 of each other
        f = RankFrequencyFunction([(0.0, 20.0), (5.0, 20.0), (5.0001, 13.4979), (10.0, 13.4979)])
        with pytest.raises(NonUniqueError):
            solve_bundle_point(f, IDENTITY, DecreasingLinearThreshold(20.0), 0.9)

    def test_integral_trivial_root_at_origin_is_not_a_solution(self, counts_fixture):
        # I(f)(0) = 0 = A(0, theta), but A is not positive there; on (0, 8]
        # I(f)(x) - x stays positive
        with pytest.raises(NoRootError):
            solve_bundle_point(counts_fixture, INTEGRAL, PowerThreshold(1.0, 0.0), 1.0)

    def test_integral_sqrt_root_next_to_the_shift(self, counts_fixture):
        # D = 10 x - theta sqrt(x) on [0, 1] has its one root at (theta / 10)^2 = 1e-12;
        # the zeros of D' were bisected only to 1e-10, and the root went unseen (NoRoot);
        # then the bisection stopped at ABS_TOL_X and gave 2.9e-11
        m, _ = solve_bundle_point(counts_fixture, INTEGRAL, PowerThreshold(0.5, 0.0), 1e-5)
        root = oracle_root(counts_fixture, "integral", 1e-5, 0.0, 1.0, 0.5)
        assert abs(Decimal(m) - root) <= Decimal("1e-12") * root

    def test_constant_psi_is_not_unique(self):
        # f is linear with f(S) = 0 and c = 2 S, so mu(f) = theta (c - x) exactly:
        # D = 0 on the whole domain
        f = random_function(147)
        fam = DecreasingLinearThreshold(2.0 * f.support_end)
        tf = apply(AVERAGING, f)
        for x in (0.0, f.support_end / 2.0):
            with pytest.raises(NonUniqueError):
                solve_transformed(tf, fam, fam.theta_inverse(x, tf.eval(x)))

    def test_constant_integral_average_is_not_unique(self):
        # I(f)(x) / (x - a) = 38 on the flat first segment: D = 0 on all of it at theta = 38
        f = RankFrequencyFunction([(1.5, 38.0), (14.1, 38.0), (21.7, 0.9)])
        with pytest.raises(NonUniqueError):
            solve_bundle_point(f, INTEGRAL, PowerThreshold(1.0, 1.5), 38.0)

    def test_root_at_the_end_of_a_rising_run(self):
        # psi_f turns twice and rises to theta at S, where D(S) = -1.8e-15 is rounding noise
        f = RankFrequencyFunction(
            [(0.0, 22.0), (2.3142671600046913, 16.0), (2.413860148983571, 12.0)]
            + [(10.927707512521094, 9.0)]
        )
        fam = DecreasingLinearThreshold(11.582133651930807)
        tf = apply(AVERAGING, f)
        theta = fam.theta_inverse(f.support_end, tf.eval(f.support_end))
        assert solve_transformed(tf, fam, theta) == (f.support_end, SolveStatus.EXACT_SEGMENT)

    def test_overflowing_threshold_at_the_end_is_no_root(self):
        # 16.77^400 overflows, so D(S) = -inf, and psi_f peaks at about 2.1e-72 < theta
        f = RankFrequencyFunction([(1.5, 42.0), (16.77154115105733, 28.0)])
        with pytest.raises(NoRootError):
            solve_bundle_point(f, INTEGRAL, PowerThreshold(400.0, 0.0), 8.871025741206409e-72)

    def test_integral_square_root_after_origin(self, counts_fixture):
        m, status = solve_bundle_point(counts_fixture, INTEGRAL, PowerThreshold(2.0, 0.0), 1.0)
        assert m == 6.0  # I(f)(6) = 36
        assert status is SolveStatus.EXACT_SEGMENT

    @pytest.mark.parametrize("kind", list(OperatorKind))
    def test_status_and_root_match_dense_oracle(self, kind):
        """Root count and location against a 1e5-point grid, 50 draws per pair.

        The support starts at a = 1.5, so the shifts 0 and a give the
        closed domain [a, S] and the half-open (a, S].  Half the thetas
        put a root at a random abscissa; the other half are scaled off it.
        """
        offset = 1.5
        for seed in range(50):
            base = random_function(seed)
            f = RankFrequencyFunction([(x + offset, y) for x, y in base.breakpoints])
            a, s = f.support_start, f.support_end
            tf = apply(kind, f)
            rng = np.random.default_rng(seed)
            ceiling = s + float(rng.uniform(0.5, 5.0))
            families = [
                (PowerThreshold(p, shift), "power", {"p": p, "shift": shift})
                for p in (0.5, 1.0, 2.0)
                for shift in (0.0, a)
            ]
            families.append((DecreasingLinearThreshold(ceiling), "declin", {"ceiling": ceiling}))
            for fam, family_kind, params in families:
                x = a + float(rng.uniform(0.02, 1.0)) * (s - a)
                value = tf.eval(x)
                theta = fam.theta_inverse(x, value) if value > 0 else 1.0
                if rng.random() < 0.5:
                    theta *= math.exp(rng.uniform(-1.0, 1.0))
                roots, spacing = oracle_roots(f, kind.value, theta, family_kind, **params)
                where = f"seed={seed} {fam.describe()} theta={theta!r} oracle={roots[:3]}"
                if not roots:
                    with pytest.raises(NoRootError):
                        solve_transformed(tf, fam, theta)
                elif len(roots) > 1:
                    with pytest.raises(NonUniqueError):
                        solve_transformed(tf, fam, theta)
                else:
                    m, _ = solve_transformed(tf, fam, theta)
                    assert abs(m - roots[0]) <= spacing + 1e-10, where


class TestSolveTable:
    """Every pair: one solve table per window."""

    def test_set_up_follows_a_window_changed_in_place(self, counts_fixture):
        # a window is any pair: a list changed between solves, or an array
        tf, fam = apply(IDENTITY, counts_fixture), PowerThreshold(1.0, 0.0)
        window = [0.0, 3.0]
        with pytest.raises(NoRootError, match=r"no root on \(0.0, 3.0\]"):
            solve_transformed(tf, fam, 1.0, x_window=window)
        window[1] = 8.0
        assert solve_transformed(tf, fam, 1.0, x_window=window) == (4.0, SolveStatus.EXACT_SEGMENT)
        assert solve_transformed(tf, fam, 1.0, x_window=np.array(window))[0] == 4.0

    @pytest.mark.parametrize(
        "fam, error",
        [
            (DecreasingLinearThreshold(5.0), "ceiling 5.0"),
            (PowerThreshold(1.0, 9.0), "not positive"),
        ],
    )
    def test_set_up_without_a_search_raises_per_theta(self, counts_fixture, fam, error):
        # on [0, 8] neither threshold leaves a search: the set-up itself raises
        # nothing, and each theta's solve raises as a solve on its own does
        tf = apply(IDENTITY, counts_fixture)
        setup = solver._set_up(tf, fam, None)
        assert setup.table is None and sample_bundle(counts_fixture, IDENTITY, fam, []) == ()
        for theta in (0.5, 2.0):
            with pytest.raises(BundleError, match=error) as alone:
                solve_transformed(tf, fam, theta)
            with pytest.raises(type(alone.value), match=re.escape(str(alone.value))):
                solver._solve(setup, theta)

    def test_exact_breakpoint_root(self, counts_fixture, monkeypatch):
        # f(4) = 4 = theta * 4: D = 0 at a breakpoint, answered without a segment solve
        monkeypatch.setattr(solver, "_locate", None)
        m, status = solve_bundle_point(counts_fixture, IDENTITY, PowerThreshold(1.0, 0.0), 1.0)
        assert (m, status) == (4.0, SolveStatus.EXACT_SEGMENT)

    def test_no_root_when_d_is_negative_at_the_window_start(self, counts_fixture):
        # D(5) = f(5) - 5 = -2, and D decreases
        with pytest.raises(NoRootError, match="D < 0"):
            solve_bundle_point(
                counts_fixture, IDENTITY, PowerThreshold(1.0, 0.0), 1.0, x_window=(5.0, 8.0)
            )

    def test_boundary_root_at_support_end(self, const4, monkeypatch):
        # D(8) = 4 - 8 theta = 2**-50 > 0 at every table point, within the boundary tolerance
        monkeypatch.setattr(solver, "_locate", None)
        theta = 0.5 - 2.0**-53
        m, status = solve_bundle_point(const4, IDENTITY, PowerThreshold(1.0, 0.0), theta)
        assert (m, status) == (8.0, SolveStatus.EXACT_SEGMENT)

    def test_open_lower_end_at_the_shift_is_not_a_root(self):
        # on the window (5, 8], T(f)(5) = 0 = A(5, theta): D(5) = 0 at the excluded end
        f = RankFrequencyFunction([(0.0, 10.0), (4.0, 0.0), (8.0, 0.0)])
        with pytest.raises(NoRootError, match="D < 0"):
            solve_bundle_point(f, IDENTITY, PowerThreshold(1.0, 5.0), 1.0)

    def test_g_root_next_to_its_open_lower_end(self, counts_fixture):
        # mu(f) = 10 on [0, 1], so mu(f)(x) = theta * x at x = 10 / theta
        for theta in (20.0, 1000.0):
            m, status = solve_bundle_point(
                counts_fixture, AVERAGING, PowerThreshold(1.0, 0.0), theta
            )
            assert status is SolveStatus.EXACT_SEGMENT
            assert m == pytest.approx(10.0 / theta, rel=1e-12)


def _bits(values) -> list[int]:
    return np.array(values, dtype=float).view(np.int64).tolist()


@given(
    counts=st.lists(st.integers(0, 10_000), min_size=1, max_size=60),
    offset=st.sampled_from([0.0, 1.5]),
    kind=st.sampled_from([IDENTITY, AVERAGING]),
    p=st.sampled_from([0.5, 1.0, 2.0]),
    shift_at=st.sampled_from(["zero", "origin", "interior"]),
    ends=st.one_of(st.none(), st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0))),
    frac=st.floats(0.01, 0.99),
)
@settings(max_examples=300, deadline=None)
def test_decreasing_pair_table_holds_the_values_at_its_points(
    counts, offset, kind, p, shift_at, ends, frac
):
    """The solve table of identity or averaging x power, on the whole support
    or on a window inside it: its points are the window ends and the
    breakpoints between them, its T(f) is ``eval`` there and its A(., 1) is
    ``value_many`` and ``value``, bit for bit."""
    record = from_citation_counts(sorted(counts, reverse=True))
    if record.is_zero():
        return  # the zero function is answered without a table
    f = RankFrequencyFunction(list(zip((record.xs + offset).tolist(), record.ys.tolist())))
    a, s = f.support_start, f.support_end
    shift = {"zero": 0.0, "origin": a, "interior": a + frac * (s - a)}[shift_at]
    window = None if ends is None else tuple(sorted(a + u * (s - a) for u in ends))
    if window is not None and not window[0] < window[1]:
        return
    family = PowerThreshold(p, shift)
    tf = apply(kind, f)
    lo, hi = window if window is not None else (a, s)
    if shift >= hi:
        return  # no table: the threshold is not positive on the window
    table = solver._set_up(tf, family, window).table
    lo = max(lo, shift)
    assert table.xs == [lo, *[x for x in f.xs.tolist() if lo < x < hi], hi]
    for k, seg in enumerate(table.segs):
        assert f.xs[seg] <= table.xs[k] < table.xs[k + 1] <= f.xs[seg + 1]
    assert table.runs == [(0, len(table.xs) - 1, False)]
    # the limit entry at an open lower end, where T(f) = 0, is psi_f's, not A's
    first = 1 if table.lo_limit else 0
    xs = table.xs[first:]
    assert _bits(table.tvals[first:]) == _bits([tf.eval(x) for x in xs])
    assert _bits(table.base[first:]) == _bits(family.value_many(np.array(xs), 1.0))
    assert _bits(table.base[first:]) == _bits([family.value(x, 1.0) for x in xs])


@given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_table_bisect_probes_as_searchsorted(dvals):
    """Also where rounding leaves D out of order, the float bisection and the
    array search pick the same point."""
    j = bisect.bisect_left(range(len(dvals)), 0.0, key=lambda i: -dvals[i])
    assert j == int(np.searchsorted(-np.array(dvals), 0.0))


# Every pair whose cells are found by iteration: identity or averaging against
# a power other than 1 (and 2 for identity), the integral against p = 0.5, 1.5
ITERATED_PAIRS = [
    (IDENTITY, 0.5),
    (AVERAGING, 0.5),
    (AVERAGING, 2.0),
    (INTEGRAL, 0.5),
    (INTEGRAL, 1.5),
]


@given(
    st.lists(st.integers(min_value=0, max_value=2000), min_size=1, max_size=30).filter(any),
    st.lists(
        st.floats(min_value=1e-4, max_value=1e3, allow_nan=False), min_size=1, max_size=4
    ).map(sorted),
)
@settings(max_examples=40, deadline=None)
def test_iterated_roots_match_a_decimal_oracle(counts, thetas):
    # the bisection to ABS_TOL_X missed integral x power(0.5) roots by up to a relative 6e-3
    f = from_citation_counts(sorted(counts, reverse=True))
    xs = f.xs.tolist()
    for kind, p in ITERATED_PAIRS:
        for entry in sample_bundle(f, kind, PowerThreshold(p, 0.0), thetas):
            if entry.status is not SolveStatus.BISECTION:
                continue
            k = min(bisect.bisect_right(xs, entry.m) - 1, len(xs) - 2)
            root = oracle_root(f, kind.value, entry.theta, xs[k], xs[k + 1], p)
            assert abs(Decimal(entry.m) - root) <= Decimal("1e-12") * root, (kind, p, entry)


@pytest.mark.parametrize("kind", [IDENTITY, AVERAGING, INTEGRAL])
def test_slow_newton_steps_give_way_to_halving(kind, monkeypatch):
    # From the right of the root of T(f) = 0.5 x^2000, each Newton step lowers
    # ln A by about 1: 450 D-evaluations before a step that is not half the one
    # before the last halves the bracket instead.  Halving alone reaches adjacent
    # floats on the cell [1, 2] in 52.
    bases = []

    def counted_power(base, p):
        bases.append(base)
        return thresholds._power(base, p)

    monkeypatch.setattr(solver, "_power", counted_power)
    f = from_citation_counts([10, 8, 5, 4, 3, 2, 1])
    m, status = solve_bundle_point(f, kind, PowerThreshold(2000.0, 0.0), 0.5)
    assert status is SolveStatus.BISECTION
    assert 0 < len(bases) <= 52
    root = oracle_root(f, kind.value, 0.5, 1.0, 2.0, 2000.0)
    assert abs(Decimal(m) - root) <= Decimal("1e-12") * root


def test_underflowing_root_is_no_root():
    # the root of f = 1e300 x^0.1 lies near 1e-2990, below every positive float:
    # the iteration halves its cell down to the shift itself
    f = from_citation_counts([10, 8, 5, 4, 3, 2, 1])
    with pytest.raises(NoRootError, match="underflows"):
        solve_bundle_point(f, IDENTITY, PowerThreshold(0.1), 1e300)
    (entry,) = sample_bundle(f, IDENTITY, PowerThreshold(0.1), [1e300])
    assert entry.status is SolveStatus.NO_ROOT


@given(
    st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=20).filter(any),
    st.sampled_from([IDENTITY, AVERAGING]),
    st.floats(math.log(0.01), math.log(2000.0)).map(math.exp),
    st.floats(-300.0, 300.0).map(lambda u: 10.0**u),
)
@settings(max_examples=300, deadline=None)
def test_every_root_lies_in_its_domain(counts, kind, p, theta):
    f = from_citation_counts(sorted(counts, reverse=True))
    try:
        m, _ = solve_bundle_point(f, kind, PowerThreshold(p, 0.0), theta)
    except (NoRootError, NonUniqueError):
        return
    assert 0.0 < m <= f.support_end


# Records on both sides of funcspace._exact_in_halves, within which g's running
# integrals are one prefix sum: at its bound 2**52 (2**50 * (3 counts + 1
# record), 2**51 * (1 + 1)), and past it, with records whose running sums
# round otherwise ([2**52, 1], and one whose sums stay below 2**53), records
# of -0.0, whose running sums keep a sign, and a fraction.
PAST_BOUND = [2766970116572595, 2714609530289398]
BOUND_RECORDS = [
    [2**50] * 3, [2**51], [2**51, 2**51], [2**52], [2**52, 1], PAST_BOUND,
    [-0.0], [3, -0.0], [2.5, 1],
]

# The pairs of the columnar kernel, and records that reach each of its rules:
# ties and zeros, one count, long flat runs (g's NoRoot and S-boundary cells),
# counts whose running sums overflow, and the zero record, which it declines.
KERNEL_PAIRS = [(IDENTITY, 1.0), (IDENTITY, 2.0), (AVERAGING, 1.0)]
kernel_records = st.one_of(
    st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=30),
    st.integers(min_value=0, max_value=10**6).map(lambda c: [c]),
    st.tuples(st.integers(min_value=1, max_value=1000), st.integers(min_value=1, max_value=400))
    .map(lambda cn: [cn[0]] * cn[1]),
    st.integers(min_value=1, max_value=400).map(lambda n: [10**9] * n),
    st.lists(st.floats(min_value=0.0, max_value=1.7e308), min_size=1, max_size=5),
    st.integers(min_value=1, max_value=5).map(lambda n: [0] * n),
    st.integers(min_value=1, max_value=3).map(lambda n: [-0.0] * n),
    st.sampled_from(BOUND_RECORDS),
).map(lambda record: sorted(record, reverse=True))
# round thetas, which put D = 0 at points of integer records, and log-uniform ones
kernel_thetas = st.one_of(
    st.sampled_from([0.25, 0.5, 1.0, 2.0]),
    st.floats(-3.0, 3.0).map(lambda u: 10.0**u),
    st.floats(-300.0, 300.0).map(lambda u: 10.0**u),
)


def _citation_columns(records):
    lengths = [len(r) for r in records]
    return solver._CitationColumns(
        np.array([c for r in records for c in r], dtype=float),
        np.concatenate([[0], np.cumsum(lengths)]),
    )


@pytest.mark.parametrize("kind, p", KERNEL_PAIRS)
@given(
    st.lists(kernel_records, min_size=1, max_size=8),
    # at least 8 thetas, so that lanes at different thetas share the search's rounds
    st.lists(kernel_thetas, min_size=8, max_size=12).map(sorted),
)
@settings(max_examples=150, deadline=None)
def test_kernel_cells_are_bitwise_those_of_sample_bundle(kind, p, records, thetas):
    family = PowerThreshold(p, 0.0)
    columns = _citation_columns(records)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # silent, as the scalar solve's arithmetic
        m, code = solver._bundle_cells(columns, kind, family, thetas)
    for r, record in enumerate(records):
        entries = sample_bundle(from_citation_counts(record), kind, family, thetas)
        if not any(record):
            assert (code[r] == solver._DECLINED).all()
            continue
        for t, entry in enumerate(entries):
            if code[r, t] != solver._DECLINED:
                assert solver._STATUSES[code[r, t]] is entry.status, (r, entry)
                assert float(m[r, t]).hex() == entry.m.hex(), (r, entry)


def _hexes(values):
    return [float(v).hex() for v in values]


def _assert_integrals_are_the_functions(records):
    """g's kernel columns and the records' total integrals, bitwise against
    each record's function, its ``cumulative`` and averaging values."""
    columns = _citation_columns(records)
    with np.errstate(all="ignore"):  # as _bundle_cells runs it
        cumulative, tvals = solver._averaging_columns(columns)
    totals = citation_integrals(columns.counts, columns.offsets)
    for r, record in enumerate(records):
        f = from_citation_counts(record)
        points = slice(columns.starts[r], columns.ends[r] + 1)
        assert _hexes(cumulative[points]) == _hexes(f.cumulative), record
        assert _hexes(tvals[points]) == _hexes(apply(AVERAGING, f).breakpoint_values), record
        assert totals[r].hex() == f.cumulative[-1].hex(), record


@given(
    st.lists(
        st.one_of(
            st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=30),
            st.integers(min_value=1, max_value=400).map(lambda n: [10**9] * n),
            st.integers(min_value=1, max_value=3).map(lambda n: [-0.0] * n),
            st.sampled_from(BOUND_RECORDS),
        ).map(lambda record: sorted(map(float, record), reverse=True)),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=300, deadline=None)
def test_running_integrals_are_bitwise_those_of_the_functions(records):
    _assert_integrals_are_the_functions(records)


@pytest.mark.parametrize(
    "records, outside",
    [
        ([[3, 2, 1], [5], [0]], False),
        ([[10**9] * 400], False),
        ([[2**50] * 3], False),  # at the bound
        ([[2**51, 2**51]], True),
        ([[2**52, 1]], True),
        ([PAST_BOUND], True),
        ([[3, 2, 1], [-0.0]], True),
        ([[3, 2, 1], [2.5, 1]], True),
        # one fractional record among integer ones: only it is summed apart
        ([[3, 2, 1], [7, 7, 7], [2.5, 1], [4]], True),
        # the same in a whole kernel chunk of 1,000 records
        ([[k % 40 + 1 + 0.5 * (k == 321), *range(k % 40, 0, -1)] for k in range(1000)], True),
    ],
)
def test_running_sums_only_outside_exact_halves(monkeypatch, records, outside):
    records = [[float(c) for c in record] for record in records]
    counts = np.array([c for r in records for c in r])
    offsets = np.concatenate([[0], np.cumsum([len(r) for r in records])])
    exact = funcspace._exact_in_halves(counts, offsets)
    # a record is outside for a count that is not an integer, a negative zero, or a large sum
    assert exact.tolist() == [
        all(c == int(c) and not math.copysign(1.0, c) < 0 for c in r)
        and r[0] * (len(r) + 1) <= 2**52
        for r in records
    ]
    assert (not exact.all()) is outside
    calls = []
    running = funcspace._running_integrals

    def spy(counts, offsets, rows):
        calls.append(rows.tolist())
        return running(counts, offsets, rows)

    monkeypatch.setattr(funcspace, "_running_integrals", spy)
    monkeypatch.setattr(solver, "_running_integrals", spy)
    _assert_integrals_are_the_functions(records)
    # _averaging_columns, then citation_integrals, each for the records outside only
    assert calls == ([np.flatnonzero(~exact).tolist()] * 2 if outside else [])


@given(
    st.lists(
        st.lists(
            st.one_of(
                st.integers(min_value=0, max_value=2**40).map(float),
                st.sampled_from([-0.0, 0.5, 3.25, 2.0**51, 2.0**52]),
            ),
            min_size=1,
            max_size=8,
        ).map(lambda record: sorted(record, reverse=True)),
        min_size=1,
        max_size=8,
    ),
    st.integers(min_value=1, max_value=5),
)
@settings(max_examples=300, deadline=None)
def test_exact_in_halves_checks_in_blocks_as_in_one_pass(records, block):
    counts = np.array([c for r in records for c in r])
    offsets = np.concatenate([[0], np.cumsum([len(r) for r in records])])
    one_pass = [
        bool(
            r[0] * (len(r) + 1) <= 2.0**52
            and not np.signbit(r).any()
            and (np.floor(r) == np.array(r)).all()
        )
        for r in records
    ]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(funcspace, "_CHECK_BLOCK", block)  # a fraction or -0.0 in any block
        assert funcspace._exact_in_halves(counts, offsets).tolist() == one_pass


# Records of (tvals, base) points, from one point up, and the thetas of their
# lanes: D = tvals - theta base of any sign and order, with signed zeros,
# infinities and NaN, which no falling D gives
lane_records = st.lists(
    st.lists(st.tuples(st.floats(), st.floats()), min_size=1, max_size=40),
    min_size=1,
    max_size=6,
)


@given(lane_records, st.lists(st.floats(), min_size=1, max_size=4))
@settings(max_examples=400, deadline=None)
def test_lockstep_search_is_bisect_left_on_every_lane(records, thetas):
    lengths = np.array([len(points) for points in records])
    tvals = np.array([t for points in records for t, _ in points])
    base = np.array([b for points in records for _, b in points])
    # lanes record by record, each record at every theta, as _bundle_cells lays them out
    start = np.repeat(np.cumsum(lengths) - lengths, len(thetas))
    length = np.repeat(lengths, len(thetas))
    theta = np.tile(thetas, len(records))
    with np.errstate(all="ignore"):
        j = solver._bisect_lanes(tvals, base, theta, start, length)
    lane = 0
    for points in records:
        for th in thetas:
            keys = [th * b - t for t, b in points]  # _solve's key of one falling run
            assert j[lane] == bisect.bisect_left(keys, 0.0), (lane, points, th)
            lane += 1


def test_kernel_cells_of_each_rule():
    # g on 1;1;1: mu(S) = 3.5 / 4 = theta S at theta = 0.21875.  Below it D > 0
    # everywhere: NoRoot, or the S-boundary rule's root S where D(S) = 2**-53 is
    # within its tolerance; at it D(S) = 0 at a point; above it a closed-form cell
    thetas = [0.1, 0.21875 - 2.0**-55, 0.21875, 0.25]
    columns = solver._CitationColumns(np.array([1.0, 1.0, 1.0]), np.array([0, 3]))
    m, code = solver._bundle_cells(columns, AVERAGING, PowerThreshold(1.0), thetas)
    entries = sample_bundle(from_citation_counts([1, 1, 1]), AVERAGING, PowerThreshold(1.0), thetas)
    assert [solver._STATUSES[c] for c in code[0]] == [e.status for e in entries]
    assert [float(v).hex() for v in m[0]] == [e.m.hex() for e in entries]
    assert [e.status for e in entries] == [SolveStatus.NO_ROOT] + [SolveStatus.EXACT_SEGMENT] * 3
    assert m[0, 1] == m[0, 2] == 4.0 != m[0, 3]


def test_kernel_s_boundary_tolerance_scales_with_the_largest_d():
    # g on 2**20;2**20;2**20: mu(S) = theta S at theta = 229376.  Just below it D > 0
    # everywhere and D(S) = 4 (229376 - theta): 2**-31 is within 1e-12 of the largest
    # |D| (D(0) = 2**20), so S is the root, while 2**-18 is not, and there is none
    counts = [2.0**20] * 3
    thetas = [229376.0 - 2.0**-20, 229376.0 - 2.0**-33]
    columns = solver._CitationColumns(np.array(counts), np.array([0, 3]))
    m, code = solver._bundle_cells(columns, AVERAGING, PowerThreshold(1.0), thetas)
    entries = sample_bundle(from_citation_counts(counts), AVERAGING, PowerThreshold(1.0), thetas)
    assert [e.status for e in entries] == [SolveStatus.NO_ROOT, SolveStatus.EXACT_SEGMENT]
    assert [solver._STATUSES[c] for c in code[0]] == [e.status for e in entries]
    assert m[0, 1] == entries[1].m == 4.0
