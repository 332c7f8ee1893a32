import math
import warnings

import numpy as np
import pytest

from hirschbundles.errors import (
    BadPrefixError,
    DomainError,
    DomainMismatchError,
    EmptyInputError,
    WouldViolateInvariantsError,
)
from hirschbundles.funcspace import (
    PerturbMode,
    RankFrequencyFunction,
    eq_on_prefix,
    from_citation_counts,
    leq,
    lt_on_prefix,
    perturb,
    random_function,
)
from hirschbundles.operators import OperatorKind, apply
from hirschbundles.solver import h_index

from oracles import oracle_eval, oracle_integral, segment_trapezoid_sum


class TestConstruction:
    def test_rejects_single_breakpoint(self):
        with pytest.raises(ValueError):
            RankFrequencyFunction([(0.0, 1.0)])

    def test_rejects_non_increasing_x(self):
        with pytest.raises(ValueError):
            RankFrequencyFunction([(0.0, 3.0), (0.0, 2.0)])

    def test_rejects_increasing_y(self):
        with pytest.raises(ValueError):
            RankFrequencyFunction([(0.0, 1.0), (1.0, 2.0)])

    def test_rejects_negative_y(self):
        with pytest.raises(ValueError):
            RankFrequencyFunction([(0.0, 1.0), (1.0, -0.5)])

    @pytest.mark.parametrize(
        "pts",
        [
            [(0.0, math.inf), (1.0, 0.0)],
            [(0.0, math.nan), (1.0, 0.0)],
            [(0.0, 2.0), (1.0, math.nan), (2.0, 0.0)],
            [(0.0, 2.0), (1.0, math.nan)],
            [(0.0, 2.0), (math.nan, 1.0), (2.0, 0.0)],
            [(0.0, 2.0), (math.inf, 1.0)],
        ],
    )
    def test_rejects_non_finite(self, pts):
        with pytest.raises(ValueError):
            RankFrequencyFunction(pts)

    @pytest.mark.parametrize(
        "pts, message",
        [
            (
                [(0.0, 2.0), (1.0, math.nan), (2.0, 0.0)],
                "breakpoint values must be non-increasing: 2.0 -> nan",
            ),
            (
                [(0.0, 2.0), (math.nan, 1.0), (2.0, 0.0)],
                "breakpoint abscissas must strictly increase: 0.0 -> nan",
            ),
            ([(0.0, 2.0), (1.0, 1.0), (math.inf, 0.0)], "breakpoints must be finite"),
            (
                [(0.0, 2.0), (1.0, 1.0), (2.0, math.inf)],
                "breakpoint values must be non-increasing: 1.0 -> inf",
            ),
            ([(0.0, math.inf), (1.0, math.inf), (2.0, 0.0)], "breakpoints must be finite"),
            (
                [(0.0, 3.0), (1.0, 2.0), (1.0, 1.0)],
                "breakpoint abscissas must strictly increase: 1.0 -> 1.0",
            ),
            (
                [(0.0, 1.0), (1.0, 1.0), (2.0, 2.0)],
                "breakpoint values must be non-increasing: 1.0 -> 2.0",
            ),
            ([(0.0, 1.0), (1.0, 0.5), (2.0, -0.5)], "breakpoint values must be non-negative"),
            ([(-1.0, 1.0), (1.0, 0.5)], "support must start at a non-negative abscissa"),
            ([(0.0, 1.0)], "need at least 2 breakpoints"),
            ([], "need at least 2 breakpoints"),
            ([(0.0, 1.0, 2.0), (1.0, 0.0, 0.0)], "too many values to unpack (expected 2)"),
        ],
        ids=[
            "nan-mid", "nan-mid-x", "inf-end-x", "inf-end-y", "inf-start-y", "equal-x",
            "rising", "negative-tail", "negative-start", "one-pair", "empty", "triple",
        ],
    )
    def test_error_messages(self, pts, message):
        with pytest.raises(ValueError) as excinfo:
            RankFrequencyFunction(pts)
        assert str(excinfo.value) == message

    def test_any_iterable_of_pairs(self):
        f = RankFrequencyFunction(iter([(0.0, 2.0), (1.0, 0.0)]))
        assert f.breakpoints == ((0.0, 2.0), (1.0, 0.0))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: from_citation_counts([10, 8, 5, 4, 3, 2, 1]),
            lambda: RankFrequencyFunction([(0.0, 10.0), (3.0, 4.0), (8.0, 0.0)]),
            lambda: perturb(from_citation_counts([10, 8, 5]), PerturbMode.ADDITIVE, 0.5),
            lambda: random_function(3),
        ],
        ids=["counts", "pairs", "perturbed", "random"],
    )
    def test_arrays_are_read_only(self, build):
        f = build()
        tf = apply(OperatorKind.AVERAGING, f)
        before = (h_index(f), f.eval(2.0), f.breakpoints)
        for arr in (f.xs, f.ys, f.slopes, f.cumulative, tf.breakpoint_values):
            with pytest.raises(ValueError):
                arr[:] = 0.0
            with pytest.raises(ValueError):
                arr[0] = 1.0
        assert (h_index(f), f.eval(2.0), f.breakpoints) == before

    def test_zero_function_representable(self):
        z = RankFrequencyFunction([(0.0, 0.0), (2.0, 0.0)])
        assert z.is_zero()


class TestEval:
    def test_line_midpoint(self, line):
        assert line.eval(5.0) == 5.0

    def test_line_endpoint(self, line):
        assert line.eval(0.0) == 10.0
        assert line.eval(10.0) == 0.0

    def test_counts_interpolation(self, counts_fixture):
        # on the segment (3,5) -> (4,4)
        assert counts_fixture.eval(3.5) == 4.5

    def test_outside_domain(self, line):
        with pytest.raises(DomainError):
            line.eval(-0.1)
        with pytest.raises(DomainError):
            line.eval(10.1)

    def test_matches_oracle_interpolation(self, counts_fixture):
        for x in np.linspace(0, 8, 57):
            assert counts_fixture.eval(float(x)) == pytest.approx(
                oracle_eval(counts_fixture, float(x)), abs=1e-12
            )

    def test_eval_many_matches_scalar(self, counts_fixture):
        xs = np.linspace(0, 8, 101)
        vec = counts_fixture.eval_many(xs)
        for x, v in zip(xs, vec):
            assert counts_fixture.eval(float(x)) == v

    def test_monotone_non_increasing_on_dense_grid(self):
        for seed in range(25):
            f = random_function(seed)
            xs = np.linspace(f.support_start, f.support_end, 500)
            vals = f.eval_many(xs)
            assert (np.diff(vals) <= 1e-12).all()


class TestIntegral:
    def test_rectangle(self):
        f = RankFrequencyFunction([(0.0, 3.0), (4.0, 3.0)])
        assert f.integral(0.0, 4.0) == 12.0

    def test_triangle(self, line):
        assert line.integral(0.0, 10.0) == 50.0

    def test_counts_prefix(self, counts_fixture):
        assert counts_fixture.integral(0.0, 6.0) == 36.0

    def test_zero_width(self, line):
        assert line.integral(3.0, 3.0) == 0.0

    def test_bad_bounds(self, line):
        with pytest.raises(DomainError):
            line.integral(4.0, 2.0)
        with pytest.raises(DomainError):
            line.integral(-1.0, 2.0)

    def test_full_integral_equals_trapezoid_sum_exactly(self):
        for seed in range(30):
            f = random_function(seed)
            assert f.integral(f.support_start, f.support_end) == segment_trapezoid_sum(f)

    def test_non_decreasing_in_upper_bound(self, counts_fixture):
        uppers = np.linspace(0, 8, 80)
        vals = [counts_fixture.integral(0.0, float(u)) for u in uppers]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_matches_oracle(self, counts_fixture):
        for lo, hi in [(0.0, 6.0), (1.5, 7.25), (2.0, 2.5), (0.0, 8.0)]:
            assert counts_fixture.integral(lo, hi) == pytest.approx(
                oracle_integral(counts_fixture, lo, hi), abs=1e-12
            )


class TestFromCitationCounts:
    def test_worked_record(self, counts_fixture):
        assert counts_fixture.eval(4.0) == 4.0
        assert counts_fixture.eval(7.0) == 1.0
        assert counts_fixture.eval(8.0) == 0.0
        assert counts_fixture.support_end == 8.0

    def test_integer_ranks_hit_counts(self):
        counts = [12.0, 9.0, 9.0, 2.0]
        f = from_citation_counts(counts)
        for i, c in enumerate(counts, start=1):
            assert f.eval(float(i)) == c

    def test_single_source(self):
        f = from_citation_counts([7.0])
        assert f.breakpoints == ((0.0, 7.0), (1.0, 7.0), (2.0, 0.0))

    def test_single_zero_source(self):
        f = from_citation_counts([0.0])
        assert f.is_zero()
        assert f.support_end == 2.0

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            from_citation_counts([])

    def test_unsorted_warns_and_sorts(self):
        with pytest.warns(UserWarning):
            f = from_citation_counts([1.0, 5.0, 3.0])
        assert f.eval(1.0) == 5.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            from_citation_counts([3.0, -1.0])

    # breakpoints, digest, repr and hash are public identities: pinned values
    @pytest.mark.parametrize(
        "counts, breakpoints, digest",
        [
            (
                [10, 8, 5, 4, 3, 2, 1],
                ((0.0, 10.0), (1.0, 10.0), (2.0, 8.0), (3.0, 5.0), (4.0, 4.0), (5.0, 3.0),
                 (6.0, 2.0), (7.0, 1.0), (8.0, 0.0)),
                "cf9da32af190",
            ),
            ([7.0], ((0.0, 7.0), (1.0, 7.0), (2.0, 0.0)), "61ffa85c4776"),
            (
                [0, 0, 0],
                ((0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0), (4.0, 0.0)),
                "56c6a55f7854",
            ),
            (
                [3, 5, 3, 1, 5, 0],
                ((0.0, 5.0), (1.0, 5.0), (2.0, 5.0), (3.0, 3.0), (4.0, 3.0), (5.0, 1.0),
                 (6.0, 0.0), (7.0, 0.0)),
                "0e94fa3a58f4",
            ),
        ],
        ids=["seven", "single", "all-zero", "unsorted-ties"],
    )
    def test_pinned_identity(self, counts, breakpoints, digest):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            f = from_citation_counts(counts)
        assert len(caught) == (counts != sorted(counts, reverse=True))
        assert f.breakpoints == breakpoints
        assert all(type(v) is float for pair in f.breakpoints for v in pair)
        assert f.digest() == digest
        assert repr(f) == f"RankFrequencyFunction(breakpoints={breakpoints!r})"
        g = RankFrequencyFunction(list(breakpoints))
        assert g == f and hash(g) == hash(f) == hash((breakpoints,))
        assert g.digest() == digest

    @pytest.mark.parametrize(
        "counts, message, warned",
        [
            ([3.0, math.nan, 1.0], "breakpoint values must be non-increasing: 3.0 -> nan", False),
            ([math.inf, 2.0], "breakpoints must be finite", False),
            ([2.0, math.inf], "breakpoints must be finite", True),
            ([3.0, -math.inf], "citation counts must be non-negative", False),
        ],
        ids=["nan", "inf-first", "inf-unsorted", "minus-inf"],
    )
    def test_non_finite_rejected(self, counts, message, warned):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError) as excinfo:
                from_citation_counts(counts)
        assert str(excinfo.value) == message
        assert len(caught) == warned


class TestOrderings:
    def test_leq_shifted_lines(self, line):
        g = RankFrequencyFunction([(0.0, 12.0), (10.0, 0.0)])
        assert leq(line, g)
        assert not leq(g, line)

    def test_leq_reflexive(self, line):
        assert leq(line, line)

    def test_leq_crossing_pair(self):
        f = RankFrequencyFunction([(0.0, 10.0), (10.0, 0.0)])
        g = RankFrequencyFunction([(0.0, 8.0), (10.0, 4.0)])
        # f starts above g and ends below it
        assert not leq(f, g)
        assert not leq(g, f)

    def test_leq_domain_mismatch(self, line):
        other = RankFrequencyFunction([(0.0, 10.0), (9.0, 0.0)])
        with pytest.raises(DomainMismatchError):
            leq(line, other)

    def test_leq_antisymmetric_up_to_breakpoint_equality(self, line):
        # same function with a redundant collinear breakpoint
        g = RankFrequencyFunction([(0.0, 10.0), (4.0, 6.0), (10.0, 0.0)])
        assert leq(line, g) and leq(g, line)
        for x in (0.0, 2.0, 4.0, 7.0, 10.0):
            assert line.eval(x) == g.eval(x)

    def test_lt_on_prefix_shift(self, line):
        g = perturb(line, PerturbMode.ADDITIVE, 1.0)
        assert lt_on_prefix(line, g, 5.0)

    def test_lt_on_prefix_equal_fails(self, line):
        assert not lt_on_prefix(line, line, 5.0)

    def test_lt_on_prefix_touching_point_fails(self):
        # equal at x=3, strictly above elsewhere
        f = RankFrequencyFunction([(0.0, 10.0), (10.0, 0.0)])
        g = RankFrequencyFunction([(0.0, 11.0), (3.0, 7.0), (10.0, 0.7)])
        assert g.eval(3.0) == f.eval(3.0)
        assert not lt_on_prefix(f, g, 5.0)

    def test_lt_on_prefix_implies_leq_on_prefix(self, line):
        g = perturb(line, PerturbMode.ADDITIVE, 0.5)
        a_cut = 4.0
        assert lt_on_prefix(line, g, a_cut)
        xs = np.linspace(0.0, a_cut, 50)
        assert (g.eval_many(xs) >= line.eval_many(xs)).all()

    def test_bad_prefix(self, line):
        with pytest.raises(BadPrefixError):
            lt_on_prefix(line, line, 0.0)
        with pytest.raises(BadPrefixError):
            lt_on_prefix(line, line, 10.0)

    def test_eq_on_prefix(self, line):
        g = RankFrequencyFunction([(0.0, 10.0), (5.0, 5.0), (10.0, 2.5)])
        assert eq_on_prefix(line, g, 5.0)
        assert not eq_on_prefix(line, g, 7.0)

    def test_ordering_dispatch(self, line):
        g = perturb(line, PerturbMode.ADDITIVE, 1.0)
        assert leq(line, g)
        assert lt_on_prefix(line, g, 3.0)
        assert not eq_on_prefix(line, g, 3.0)
        with pytest.raises(BadPrefixError):
            eq_on_prefix(line, g, line.support_end)


class TestPerturb:
    def test_zero_epsilon_identity(self, line):
        assert perturb(line, PerturbMode.ADDITIVE, 0.0) == line
        assert perturb(line, PerturbMode.MULTIPLICATIVE, 0.0) == line

    def test_multiplicative_doubles(self, counts_fixture):
        g = perturb(counts_fixture, PerturbMode.MULTIPLICATIVE, 1.0)
        for (_, y0), (_, y1) in zip(counts_fixture.breakpoints, g.breakpoints):
            assert y1 == 2.0 * y0

    def test_additive_negative_clamp_rejected(self, line):
        with pytest.raises(WouldViolateInvariantsError):
            perturb(line, PerturbMode.ADDITIVE, -0.5)  # min y is 0

    def test_multiplicative_floor_rejected(self, line):
        with pytest.raises(WouldViolateInvariantsError):
            perturb(line, PerturbMode.MULTIPLICATIVE, -1.0)


class TestRandomFunction:
    def test_deterministic(self):
        assert random_function(123) == random_function(123)

    def test_invariants_hold_for_many_seeds(self):
        for seed in range(1000):
            f = random_function(seed)
            xs = [x for x, _ in f.breakpoints]
            ys = [y for _, y in f.breakpoints]
            assert len(xs) >= 2
            assert all(b > a for a, b in zip(xs, xs[1:]))
            assert all(b <= a for a, b in zip(ys, ys[1:]))
            assert all(y >= 0 for y in ys)
