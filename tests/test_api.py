"""Public entry point: dispatch, special values, plans, distance properties."""

import math
import os
import subprocess
import sys
import tracemalloc
from collections import defaultdict
from dataclasses import replace
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import wasserstein_distance_nd

import earthmover
from earthmover import (
    DimensionMismatchError,
    DistanceResult,
    Finiteness,
    NegativeWeightError,
    ShapeError,
    WeightLengthError,
    WeightSumError,
    wasserstein_distance,
)
from earthmover.distributions import normalize, validate
from earthmover.geometry import pairwise_costs
from earthmover.simplex import OPTIMALITY_TOL, pivot_budget, solve
from earthmover.transport_lp import build_problem, solution_distance


class TestReferenceValues:
    def test_simple_uniform(self):
        result = wasserstein_distance([0, 1, 3], [5, 6, 8])
        assert result.distance == pytest.approx(5.0, rel=1e-12)
        assert result.path == "cdf1d"

    def test_shared_support_weighted(self):
        result = wasserstein_distance([0, 1], [0, 1], [3, 1], [2, 2])
        assert result.distance == pytest.approx(0.25, rel=1e-12)

    def test_weighted_samples(self):
        result = wasserstein_distance(
            [3.4, 3.9, 7.5, 7.8], [4.5, 1.4], [1.4, 0.9, 3.1, 7.2], [3.2, 3.5]
        )
        assert result.distance == pytest.approx(4.0781331438047861, rel=1e-12)

    def test_three_dimensional(self):
        result = wasserstein_distance([[0, 2, 3], [1, 2, 5]], [[3, 2, 3], [4, 2, 5]])
        assert result.distance == pytest.approx(3.0, rel=1e-9)
        assert result.path == "lp"

    def test_two_dimensional_weighted(self):
        result = wasserstein_distance(
            [[0, 2.75], [2, 209.3], [0, 0]],
            [[0.2, 0.322], [4.5, 25.1808]],
            [0.4, 5.2, 0.114],
            [0.8, 1.5],
        )
        assert result.distance == pytest.approx(174.15840245217169, rel=1e-9)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 10: the LP distance is read off the dual, whose terms "
        "are as large as the largest cost, so the sum cancels when the distance is "
        "far smaller",
    )
    @pytest.mark.parametrize("far", [1e3, 1e6, 1e8])
    def test_small_distance_beside_large_costs(self, far):
        # each u point has its v point 1e-10 above it, and the two pairs lie
        # ``far`` apart: the distance is 1e-10, the largest cost about ``far``
        result = wasserstein_distance([[0.0, 0.0], [far, 0.0]], [[0.0, 1e-10], [far, 1e-10]])
        assert result.distance == pytest.approx(1e-10, rel=1e-12, abs=0.0)


class TestDispatch:
    def test_flat_inputs_take_cdf_path(self):
        result = wasserstein_distance([0.5, 2.0], [1.0, 4.0])
        assert result.path == "cdf1d"
        assert result.iterations == 0

    def test_column_vectors_take_lp_path(self):
        flat = wasserstein_distance([0.5, 2.0], [1.0, 4.0])
        column = wasserstein_distance([[0.5], [2.0]], [[1.0], [4.0]])
        assert column.path == "lp"
        assert abs(column.distance - flat.distance) <= 1e-8

    def test_mixed_flat_and_column_takes_lp_path(self):
        result = wasserstein_distance([0.5, 2.0], [[1.0], [4.0]])
        assert result.path == "lp"

    def test_cross_path_agreement_on_random_pairs(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            u = rng.normal(size=int(rng.integers(1, 20))) * 4
            v = rng.normal(size=int(rng.integers(1, 20))) * 4
            w_u = rng.random(u.size) + 0.01
            w_v = rng.random(v.size) + 0.01
            cdf = wasserstein_distance(u, v, w_u, w_v)
            lp = wasserstein_distance(u.reshape(-1, 1), v.reshape(-1, 1), w_u, w_v)
            assert cdf.path == "cdf1d" and lp.path == "lp"
            assert abs(cdf.distance - lp.distance) <= 1e-8

    def test_wall_time_is_recorded(self):
        assert wasserstein_distance([0, 1, 3], [5, 6, 8]).wall_time_ns > 0

    def test_flat_call_peak_memory_per_input_point(self):
        # the pairs and pins of test_cdf1d's test_peak_memory_per_input_point:
        # a flat call makes no copy of its float64 input to scale or normalize
        # it, so its peak is that of cdf_distance_1d, measured 17.31, 28.45
        # and 17.31 bytes a point (21.3, 36.5 and 21.3 while each side's
        # weights and each CDF took buffers of their own; 37.3 and 52.5 on
        # the first two while api held scaled points and normalized weights,
        # 16 bytes a point, through the whole call)
        rng = np.random.default_rng(7)
        n, m = 2**16, 3 * 2**14
        tied = (rng.standard_normal(n), rng.random(n), np.round(rng.normal(0.1, 1.2, m), 3), rng.random(m))
        untied = (rng.standard_normal(n), rng.random(n), rng.standard_normal(m), rng.random(m))
        # u's runs of values a few ulps apart, off the sampled slots, make
        # its sort repair a few buckets
        x = rng.standard_normal(n)
        runs = np.arange(1, n, n // 64)
        for k in range(4):
            x[runs + k] = x[runs] * (1 + (4 - k) * 2.0**-52)
        repairing = (x, rng.random(n), np.round(rng.normal(0.1, 1.2, m), 3), rng.random(m))
        # a plan call keeps each side's order and running sum from the
        # distance's sort, 16 bytes a point, for the coupling: measured 57.85
        # on the tied pair and 48.03 on the untied one (73.86 and 64.05 while
        # the plan sorted scaled, normalized copies of both sides again)
        for (u, u_w, v, v_w), want_plan, pin in (
            (tied, False, 18), (untied, False, 29), (repairing, False, 18), (tied, True, 58), (untied, True, 49),
        ):
            tracemalloc.start()
            try:
                wasserstein_distance(u, v, u_w, v_w, want_plan=want_plan)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= pin * (n + m)


class TestPlans:
    def test_no_plan_by_default(self):
        assert wasserstein_distance([0, 1], [2, 3]).plan is None

    def test_plan_on_cdf_path(self):
        result = wasserstein_distance([0, 1, 3], [5, 6, 8], want_plan=True)
        assert result.plan is not None
        np.testing.assert_allclose(result.plan.source_marginals(), [1 / 3] * 3, atol=1e-12)
        pairs = zip(result.plan.rows.tolist(), result.plan.cols.tolist())
        assert list(pairs) == [(0, 0), (1, 1), (2, 2)]

    def test_plan_on_lp_path(self):
        result = wasserstein_distance(
            [[0, 2, 3], [1, 2, 5]], [[3, 2, 3], [4, 2, 5]], want_plan=True
        )
        np.testing.assert_allclose(result.plan.source_marginals(), [0.5, 0.5], atol=1e-9)
        np.testing.assert_allclose(result.plan.target_marginals(), [0.5, 0.5], atol=1e-9)
        assert (result.plan.mass > 0).all()

    def test_plan_on_lp_path_skips_zero_weight_points(self):
        rng = np.random.default_rng(81)
        for _ in range(20):
            n, m = int(rng.integers(2, 12)), int(rng.integers(2, 12))
            w_u, w_v = rng.integers(0, 3, n).astype(float), rng.integers(0, 3, m).astype(float)
            w_u[0] = 0.0
            w_u[-1] = w_v[-1] = 1.0
            result = wasserstein_distance(
                rng.normal(size=(n, 2)), rng.normal(size=(m, 2)), w_u, w_v, want_plan=True
            )
            assert (w_u[result.plan.rows] > 0).all() and (w_v[result.plan.cols] > 0).all()
            np.testing.assert_allclose(result.plan.source_marginals(), w_u / w_u.sum(), atol=1e-12)
            np.testing.assert_allclose(result.plan.target_marginals(), w_v / w_v.sum(), atol=1e-12)

    def test_no_plan_for_infinite_distance(self):
        result = wasserstein_distance([0, np.inf], [1, 2], want_plan=True)
        assert result.plan is None


class TestSpecialValues:
    def test_one_sided_infinity_is_infinite(self):
        result = wasserstein_distance([[0.0, np.inf], [1.0, 2.0]], [[3.0, 2.0]])
        assert math.isinf(result.distance)
        assert result.distance > 0
        assert result.finiteness is Finiteness.INFINITE

    def test_one_sided_infinity_1d(self):
        result = wasserstein_distance([0.0, 1.0], [np.inf, 2.0])
        assert math.isinf(result.distance)

    def test_two_sided_infinity_is_undefined(self):
        # flat input, as SciPy's 1D wasserstein_distance has it: only the
        # same infinity on both sides; 2D input, as wasserstein_distance_nd
        # has it: any infinities on both sides
        for u, v in (([np.inf, 1.0], [np.inf, 2.0]), ([1.0, -np.inf, np.inf], [-np.inf, 2.0]),
                     ([[np.inf, 1.0]], [[-np.inf, 2.0]]), ([[np.inf], [1.0]], [[-np.inf], [2.0]])):
            result = wasserstein_distance(u, v)
            assert math.isnan(result.distance)
            assert result.finiteness is Finiteness.UNDEFINED

    def test_opposite_flat_infinities_are_infinite(self):
        # the mass u holds at +inf moves an infinite distance to anything v
        # holds; before, this pair read nan, where SciPy reads inf
        for u, v in (([np.inf, 1.0], [-np.inf, 2.0]), ([1.0, 2.0, np.inf], [-np.inf, 1.0])):
            for result in (wasserstein_distance(u, v), wasserstein_distance(v, u, want_plan=True)):
                assert result.distance == math.inf
                assert result.finiteness is Finiteness.INFINITE
                assert result.plan is None

    def test_nan_is_undefined(self):
        result = wasserstein_distance([[np.nan, 0.0]], [[1.0, 2.0]])
        assert math.isnan(result.distance)

    def test_overflow_of_finite_points_is_infinite(self):
        result = wasserstein_distance([-1e308], [1e308], want_plan=True)
        assert math.isinf(result.distance)
        assert result.finiteness is Finiteness.INFINITE
        assert result.plan is None

    def test_overflowing_gap_with_equal_cdfs_adds_nothing(self):
        # unscaled, the merged gap 1e308 - (-1e308) would overflow to inf and
        # give 0 * inf = nan where both CDFs agree; the points are scaled
        # first, so the gap is finite and no overflow warning is raised
        result = wasserstein_distance([-1e308, 1e308], [-1e308, 1e308])
        assert result.distance == 0.0
        assert result.finiteness is Finiteness.FINITE

    # these run with overflow warnings as errors: the points are scaled
    # before any cost is computed, so no difference or hypot may overflow
    @pytest.mark.parametrize("d", [1, 2, 3, 9])
    def test_lp_cost_past_the_float_maximum_is_infinite(self, d):
        result = wasserstein_distance([[-1e308] + [0.0] * (d - 1)], [[1e308] + [0.0] * (d - 1)])
        assert result.path == "lp"
        assert math.isinf(result.distance)
        assert result.finiteness is Finiteness.INFINITE

    def test_lp_costs_past_the_float_maximum_at_distance_zero(self):
        pts = [[-1e308, 0.0], [1e308, 0.0]]
        result = wasserstein_distance(pts, pts, want_plan=True)
        assert result.distance == 0.0
        assert result.finiteness is Finiteness.FINITE
        assert (result.plan.rows == result.plan.cols).all()
        # 9 axes at +-1e308: every difference overflows, and so would the hypot
        big = np.full((2, 9), 1e308)
        big[1] *= -1
        assert wasserstein_distance(big, big).distance == 0.0

    def test_lp_cost_near_the_float_maximum_is_exact(self):
        result = wasserstein_distance([[4e307, 0.0]], [[-4e307, 0.0]])
        assert result.distance == 8e307
        assert result.finiteness is Finiteness.FINITE

    @pytest.mark.parametrize("offset", [1e-30, 1e-10])
    def test_small_offset_beside_huge_coordinates_is_exact(self, offset):
        # scaled so that 1e300 fell below 1, the offset would be 2^997 times
        # smaller: 1e-30 rounds to zero there, and 1e-10 turns subnormal and
        # keeps 13 of its digits
        result = wasserstein_distance([[1e300, 0.0], [1e300, offset]], [[1e300, 0.0]])
        assert result.distance == offset / 2
        assert result.finiteness is Finiteness.FINITE
        flat = wasserstein_distance([1e300, offset], [1e300, 0.0])
        assert flat.path == "cdf1d"
        assert flat.distance == offset / 2

    def test_subnormal_points_keep_their_precision(self):
        # half the mass moves 2^-1074 and half 2^-1073: the mean, 1.5 * 2^-1074,
        # rounds to even at 2^-1073, which needs the gaps and products computed
        # on scaled points, not at subnormal precision
        result = wasserstein_distance([2**-1074, 2**-1073], [0.0])
        assert result.path == "cdf1d"
        assert result.distance == 2**-1073

    @pytest.mark.parametrize("seed", [0, 1, 3, 4])
    def test_subnormal_costs_are_solved_exactly(self, seed):
        # every cost is subnormal even on the scaled points; the LP solves them
        # scaled into [0.5, 1), where a solve on the subnormal costs themselves
        # raised DualityGapError for each of these seeds
        rng = np.random.default_rng(seed)
        k_u, k_v = (rng.integers(1, 64, 6 + seed).astype(float) for _ in range(2))
        u, v = ([[2.0**998, math.ldexp(k, -1074)] for k in ks] for ks in (k_u, k_v))
        result = wasserstein_distance(u, v)
        assert result.path == "lp"
        expected = math.ldexp(wasserstein_distance(k_u, k_v).distance, -1074)
        assert abs(result.distance - expected) <= 5e-324

    def test_classification_happens_before_solving(self):
        # huge point counts would be slow to solve; classification short-circuits
        result = wasserstein_distance([np.inf] + [0.0] * 5000, list(range(5001)))
        assert math.isinf(result.distance)
        assert result.iterations == 0


def test_needs_only_numpy():
    """Both paths run in a process where scipy cannot be imported."""
    src = os.path.dirname(os.path.dirname(earthmover.__file__))
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from earthmover import wasserstein_distance\n"
        "for u, v in ([0, 1, 3], [5, 6, 8]), ([[0, 0], [1, 1]], [[1, 0]]):\n"
        "    result = wasserstein_distance(u, v)\n"
        "    print(result.path, result.distance)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, src], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["cdf1d", "5.0", "lp", "1.0"]


class TestErrors:
    def test_shape_error(self):
        with pytest.raises(ShapeError, match="E_SHAPE"):
            wasserstein_distance(np.zeros((2, 2, 2)), [0, 1])
        with pytest.raises(ShapeError, match="E_SHAPE"):
            wasserstein_distance([[0, 1], [2]], [0, 1])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError, match="E_DIM"):
            wasserstein_distance([[0, 1, 2]], [[0, 1]])
        with pytest.raises(DimensionMismatchError, match="E_DIM"):
            wasserstein_distance([0, 1], [[0, 1], [2, 3]])

    def test_weight_errors(self):
        with pytest.raises(WeightLengthError, match="E_WEIGHT_LEN"):
            wasserstein_distance([0, 1], [0, 1], [1, 2, 3], None)
        with pytest.raises(NegativeWeightError, match="E_WEIGHT_NEG"):
            wasserstein_distance([0, 1], [0, 1], [-1, 2], None)
        with pytest.raises(WeightSumError, match="E_WEIGHT_SUM"):
            wasserstein_distance([0, 1], [0, 1], [0, 0], None)

    def test_weight_sum_past_the_float_maximum(self):
        # the sum overflows to inf; under the suite's warnings-as-errors the
        # overflow must not surface as a RuntimeWarning instead of the error
        with pytest.raises(WeightSumError, match="E_WEIGHT_SUM"):
            wasserstein_distance([0, 1], [0, 1], [1e308, 1e308])

    # casting a complex array to float64 drops its imaginary part with only
    # a ComplexWarning, so these would return a distance instead of raising
    @pytest.mark.parametrize(
        "u, v", [([1 + 5j, 2], [0.0, 1.0]), ([[1 + 5j, 0], [2, 0]], [[0.0, 0.0], [1.0, 0.0]])]
    )
    def test_complex_points(self, u, v):
        with pytest.raises(ShapeError, match="E_SHAPE: u_values is not a real numeric array"):
            wasserstein_distance(np.array(u), v)
        with pytest.raises(ShapeError, match="E_SHAPE: v_values is not a real numeric array"):
            wasserstein_distance(v, np.array(u))

    def test_complex_weights(self):
        for points in ([0.0, 1.0], [[0.0], [1.0]]):  # the CDF path, then the LP path
            with pytest.raises(WeightLengthError, match="E_WEIGHT_LEN"):
                wasserstein_distance(points, points, np.array([1 + 1j, 1]))
            with pytest.raises(WeightLengthError, match="E_WEIGHT_LEN"):
                wasserstein_distance(points, points, None, np.array([1, 1 + 0j]))


class TestDistanceResult:
    """``finiteness`` is read off ``distance``, never passed in."""

    @pytest.mark.parametrize(
        "distance, finiteness",
        [
            (0.0, Finiteness.FINITE),
            (1.5, Finiteness.FINITE),
            (math.inf, Finiteness.INFINITE),
            (math.nan, Finiteness.UNDEFINED),
        ],
    )
    def test_finiteness_follows_the_distance(self, distance, finiteness):
        assert DistanceResult(distance, "lp", 0, 1).finiteness is finiteness
        # replace builds a new result, so the label follows the new distance
        assert replace(DistanceResult(2.0, "lp", 0, 1), distance=distance).finiteness is finiteness

    def test_finiteness_is_not_an_argument(self):
        with pytest.raises(TypeError):
            DistanceResult(1.0, "lp", 0, 1, finiteness=Finiteness.INFINITE)


class TestDistanceProperties:
    """Invariants every distance computation must satisfy, both paths."""

    def test_self_distance_is_zero(self):
        rng = np.random.default_rng(33)
        for _ in range(30):
            if rng.random() < 0.5:
                pts = rng.normal(size=int(rng.integers(1, 15)))
            else:
                pts = rng.normal(size=(int(rng.integers(1, 15)), int(rng.integers(1, 4))))
            w = rng.random(len(np.atleast_1d(pts))) + 0.01
            assert abs(wasserstein_distance(pts, pts, w, w).distance) <= 1e-10

    def test_shift_by_vector_costs_its_norm(self):
        rng = np.random.default_rng(35)
        for _ in range(30):
            n, d = int(rng.integers(1, 12)), int(rng.integers(1, 4))
            pts = rng.normal(size=(n, d)) * 3
            w = rng.random(n) + 0.01
            offset = rng.normal(size=d)
            value = wasserstein_distance(pts, pts + offset, w, w).distance
            assert abs(value - np.linalg.norm(offset)) <= 1e-9

    def test_collapse_to_origin_costs_mean_norm(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            n, d = int(rng.integers(1, 12)), int(rng.integers(1, 4))
            pts = rng.normal(size=(n, d)) * 3
            w = rng.random(n) + 0.01
            expected = np.sum(w * np.linalg.norm(pts, axis=1)) / w.sum()
            value = wasserstein_distance(pts, np.zeros((1, d)), w, [1.0]).distance
            assert abs(value - expected) <= 1e-9

    def test_zero_weight_points_have_no_impact(self):
        rng = np.random.default_rng(39)
        for _ in range(30):
            n, m, d = int(rng.integers(1, 10)), int(rng.integers(1, 10)), 2
            pts_u, pts_v = rng.normal(size=(n, d)), rng.normal(size=(m, d))
            w_u, w_v = rng.random(n) + 0.01, rng.random(m) + 0.01
            base = wasserstein_distance(pts_u, pts_v, w_u, w_v).distance
            padded = wasserstein_distance(
                np.vstack([pts_u, rng.normal(size=(1, d)) * 50]),
                pts_v,
                np.append(w_u, 0.0),
                w_v,
            ).distance
            assert abs(base - padded) <= 1e-10

    @pytest.mark.parametrize("far", [1e12, 1e14, 1e300, 2.0**900], ids=["1e12", "1e14", "1e300", "2^900"])
    def test_a_far_zero_weight_point_leaves_the_distance(self, far):
        # the stopping rule took its tolerance from every cost, the far
        # point's too, and so read 3.8% high here (0 pivots from 1e14 up)
        rng = np.random.default_rng(3)
        pts_u, pts_v = rng.random((30, 2)), rng.random((30, 2))
        padded = wasserstein_distance(
            np.vstack([pts_u, [[far, 0.0]]]), pts_v, np.append(np.ones(30), 0.0)
        )
        expected = wasserstein_distance_nd(pts_u, pts_v)
        assert padded.distance == pytest.approx(expected, **slack(False, pts_u, pts_v))

    def test_integer_weights_equal_repetition(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            n = int(rng.integers(1, 6))
            pts = rng.normal(size=n) * 2
            counts = rng.integers(1, 5, size=n)
            repeated = np.repeat(pts, counts)
            other = rng.normal(size=int(rng.integers(1, 6))) * 2
            weighted = wasserstein_distance(pts, other, counts, None).distance
            expanded = wasserstein_distance(repeated, other).distance
            assert abs(weighted - expanded) <= 1e-10

    def test_orthogonal_transformations_preserve_distance(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            d = int(rng.integers(2, 5))
            n, m = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            q, _ = np.linalg.qr(rng.normal(size=(d, d)))
            pts_u, pts_v = rng.normal(size=(n, d)), rng.normal(size=(m, d))
            base = wasserstein_distance(pts_u, pts_v).distance
            rotated = wasserstein_distance(pts_u @ q.T, pts_v @ q.T).distance
            assert abs(base - rotated) <= 1e-8

    def test_constant_extra_dimension_preserves_distance(self):
        rng = np.random.default_rng(45)
        for _ in range(30):
            d = int(rng.integers(1, 4))
            n, m = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            pts_u, pts_v = rng.normal(size=(n, d)), rng.normal(size=(m, d))
            pad = float(rng.normal())
            base = wasserstein_distance(pts_u, pts_v).distance
            padded = wasserstein_distance(
                np.hstack([pts_u, np.full((n, 1), pad)]),
                np.hstack([pts_v, np.full((m, 1), pad)]),
            ).distance
            assert abs(base - padded) <= 1e-9

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(47)
        for _ in range(30):
            n, m, d = int(rng.integers(1, 9)), int(rng.integers(1, 9)), 2
            pts_u, pts_v = rng.normal(size=(n, d)), rng.normal(size=(m, d))
            scale = float(rng.uniform(-4, 4))
            base = wasserstein_distance(pts_u, pts_v).distance
            scaled = wasserstein_distance(scale * pts_u, scale * pts_v).distance
            assert abs(scaled - abs(scale) * base) <= 1e-8

        # a 40x40 uniform instance, a weighted 40x33 integer grid with
        # duplicates and a 30x25 column instance, far from cost scale one, out
        # to where squared coordinate differences would under- or overflow
        uniform, grid, column = (np.random.default_rng(seed) for seed in (3, 5, 9))
        instances = [
            (uniform.random((40, 2)), uniform.random((40, 2)), None, None),
            (grid.integers(0, 5, (40, 2)) * 1.0, grid.integers(0, 5, (33, 2)) * 1.0,
             grid.integers(1, 6, 40), grid.integers(1, 6, 33)),
            (column.random((30, 1)), column.random((25, 1)), None, None),
        ]
        for pts_u, pts_v, w_u, w_v in instances:
            base = wasserstein_distance(pts_u, pts_v, w_u, w_v).distance
            for k in (30, 100, 200, 400, 600, 800, 1000):
                for scale in (2.0**k, 2.0**-k):
                    scaled = wasserstein_distance(scale * pts_u, scale * pts_v, w_u, w_v)
                    assert scaled.finiteness is Finiteness.FINITE
                    assert scaled.distance == scale * base
            for scale in (1e9, 1e-9, 1e150, 1e-150, 1e160, 1e-160, 1e200, 1e-200, 1e300, 1e-300):
                scaled = wasserstein_distance(scale * pts_u, scale * pts_v, w_u, w_v)
                assert scaled.finiteness is Finiteness.FINITE
                assert scaled.distance == pytest.approx(scale * base, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("d", [pytest.param(1, id="cdf1d"), 2, 3, 5, 9])
    def test_exact_homogeneity_at_the_ends_of_the_exponent_range(self, d):
        # coordinates j / 2^12 with |j| < 2^12 scale by 2^k without rounding,
        # down into the subnormals and up to where a cost bound of 2 sqrt(d)
        # times the largest coordinate would pass the float maximum; d = 1
        # takes flat arrays, since (n, 1) columns would take the LP path
        path = "cdf1d" if d == 1 else "lp"
        for seed in range(5):
            rng = np.random.default_rng([d, seed])
            pts_u = rng.integers(-2**12 + 1, 2**12, (7, d)) / 2.0**12
            pts_v = rng.integers(-2**12 + 1, 2**12, (5, d)) / 2.0**12
            if d == 1:
                pts_u, pts_v = pts_u[:, 0], pts_v[:, 0]
            w_v = rng.integers(1, 6, 5)
            base = wasserstein_distance(pts_u, pts_v, None, w_v).distance
            for k in (-1060, -1040, -1024, -1022, -1021, 1020, 1021, 1022):
                scaled_u, scaled_v = np.ldexp(pts_u, k), np.ldexp(pts_v, k)
                assert (np.ldexp(scaled_u, -k) == pts_u).all()
                assert (np.ldexp(scaled_v, -k) == pts_v).all()
                scaled = wasserstein_distance(scaled_u, scaled_v, None, w_v)
                assert scaled.path == path
                assert scaled.distance == math.ldexp(base, k)


@st.composite
def weighted_pair(draw, flat, d=None):
    """Two weighted point sets: flat for the CDF path, (n, d) rows for the LP path."""
    if d is None:
        d = 1 if flat else draw(st.integers(1, 3))

    def point_set():
        n = draw(st.integers(1, 6))
        coords = draw(st.lists(st.floats(-10, 10), min_size=n * d, max_size=n * d))
        weights = draw(st.lists(st.floats(0.01, 10), min_size=n, max_size=n))
        pts = np.array(coords).reshape(n, d)
        return (pts[:, 0] if flat else pts), np.array(weights)

    return point_set(), point_set()


both_paths = pytest.mark.parametrize("flat", [True, False], ids=["cdf1d", "lp"])
close = dict(rel=1e-12, abs=1e-12)


def slack(flat, u, v):
    """How far two answers to one instance may differ.

    1e-12 on the CDF path. The simplex stops once no reduced cost, on costs
    scaled into [0.5, 1) by 2^-e, is below -OPTIMALITY_TOL; its answer may then
    exceed the optimum by up to OPTIMALITY_TOL * 2^e <= 2 OPTIMALITY_TOL max(cost).
    """
    if flat:
        return close
    gap = 2 * OPTIMALITY_TOL * pairwise_costs(validate(u), validate(v)).max()
    return dict(rel=1e-12, abs=1e-12 + gap)


class TestInvarianceProperties:
    @both_paths
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, flat, data):
        (u, u_w), (v, v_w) = data.draw(weighted_pair(flat))
        forward = wasserstein_distance(u, v, u_w, v_w)
        backward = wasserstein_distance(v, u, v_w, u_w, want_plan=True)
        assert backward.distance == pytest.approx(forward.distance, **slack(flat, u, v))
        costs = pairwise_costs(validate(v), validate(u))
        assert backward.plan.cost(costs) == pytest.approx(backward.distance, **close)

    @both_paths
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_permuting_points_with_their_weights(self, flat, data):
        (u, u_w), (v, v_w) = data.draw(weighted_pair(flat))
        p = np.array(data.draw(st.permutations(range(len(u)))))
        q = np.array(data.draw(st.permutations(range(len(v)))))
        base = wasserstein_distance(u, v, u_w, v_w).distance
        permuted = wasserstein_distance(u[p], v[q], u_w[p], v_w[q]).distance
        assert permuted == pytest.approx(base, **slack(flat, u, v))

    @both_paths
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_translation(self, flat, data):
        (u, u_w), (v, v_w) = data.draw(weighted_pair(flat))
        d = 1 if flat else u.shape[1]
        offset = np.array(data.draw(st.lists(st.floats(-10, 10), min_size=d, max_size=d)))
        base = wasserstein_distance(u, v, u_w, v_w).distance
        moved = wasserstein_distance(u + offset, v + offset, u_w, v_w).distance
        assert moved == pytest.approx(base, **slack(flat, u, v))

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_rotation_in_the_plane(self, data):
        # 2D input always takes the LP path
        (u, u_w), (v, v_w) = data.draw(weighted_pair(False, d=2))
        angle = data.draw(st.floats(0, 2 * math.pi))
        c, s = math.cos(angle), math.sin(angle)
        turn = np.array([[c, -s], [s, c]])
        base = wasserstein_distance(u, v, u_w, v_w).distance
        turned = wasserstein_distance(u @ turn.T, v @ turn.T, u_w, v_w).distance
        assert turned == pytest.approx(base, **slack(False, u, v))


def assert_plan_of_the_input(result, u, v, u_w, v_w):
    """The plan indexes the input points, meets both normalized marginals and is basic."""
    plan = result.plan
    n, m = len(u_w), len(v_w)
    assert (plan.n_sources, plan.n_targets) == (n, m)
    assert plan.mass.size <= n + m - 1
    assert (plan.mass > 0).all()
    # zero-weight copies of a point get no flow
    assert (u_w[plan.rows] > 0).all() and (v_w[plan.cols] > 0).all()
    np.testing.assert_allclose(plan.source_marginals(), u_w / u_w.sum(), rtol=0, atol=1e-12)
    np.testing.assert_allclose(plan.target_marginals(), v_w / v_w.sum(), rtol=0, atol=1e-12)
    costs = pairwise_costs(validate(u), validate(v))
    assert plan.cost(costs) == pytest.approx(result.distance, **close)


class TestRepeatedPoints:
    """The LP path solves on distinct points and splits the plan back over the input."""

    def test_input_without_repeats_is_solved_as_before(self):
        # an input with no repeated row reaches the simplex as the same
        # problem that the normalized inputs give it directly
        rng = np.random.default_rng(3)
        pts_u, pts_v = rng.random((40, 2)), rng.random((40, 2))
        result = wasserstein_distance(pts_u, pts_v, want_plan=True)
        u, v = normalize(validate(pts_u)), normalize(validate(pts_v))
        direct = solve(build_problem(pairwise_costs(u, v), u.weights, v.weights))
        assert result.distance == solution_distance(direct)
        assert result.iterations == 63
        assert result.plan.rows.tolist() == list(range(40))
        assert result.plan.cols.tolist() == [
            33, 6, 36, 9, 28, 14, 10, 37, 25, 23, 29, 16, 15, 19, 12, 31, 18, 3, 30, 26,
            20, 39, 1, 38, 11, 17, 5, 22, 27, 8, 24, 7, 32, 4, 2, 35, 21, 0, 34, 13,
        ]
        assert (result.plan.mass == 1 / 40).all()

    @both_paths
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_splitting_a_weight_over_copies(self, flat, data):
        (u, u_w), (v, v_w) = data.draw(weighted_pair(flat))
        i = data.draw(st.integers(0, len(u) - 1))
        parts = np.array(data.draw(st.lists(st.floats(0, 1), min_size=2, max_size=4)))
        parts[0] += 1.0  # some copy keeps a positive share
        shares = u_w[i] * parts / parts.sum()
        copies = np.concatenate([u, np.repeat(u[i : i + 1], parts.size - 1, axis=0)])
        copy_w = np.concatenate([u_w, shares[1:]])
        copy_w[i] = shares[0]
        p = np.array(data.draw(st.permutations(range(len(copies)))))
        base = wasserstein_distance(u, v, u_w, v_w).distance
        split = wasserstein_distance(copies[p], v, copy_w[p], v_w, want_plan=True)
        assert split.distance == pytest.approx(base, **slack(flat, u, v))
        if not flat:
            assert_plan_of_the_input(split, copies[p], v, copy_w[p], v_w)

    def test_plans_on_integer_grids_index_the_input(self):
        # few grid cells, so most points repeat, and weights that include zero
        rng = np.random.default_rng(18)
        for _ in range(40):
            d, side = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            n, m = int(rng.integers(1, 30)), int(rng.integers(1, 30))
            u, v = rng.integers(0, side, (n, d)) * 1.0, rng.integers(0, side, (m, d)) * 1.0
            u_w, v_w = rng.integers(0, 4, n) * 1.0, rng.integers(0, 4, m) * 1.0
            u_w[rng.integers(n)] += 1.0
            v_w[rng.integers(m)] += 1.0
            result = wasserstein_distance(u, v, u_w, v_w, want_plan=True)
            assert result.path == "lp"
            assert_plan_of_the_input(result, u, v, u_w, v_w)

    def test_many_copies_of_few_points_solve_small(self):
        # 3000 rows on 3 points against 2500 on 2: unmerged, the cost matrix
        # alone would take 60 MB
        u = np.tile([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]], (1000, 1))
        v = np.tile([[1.0, 1.0], [3.0, 0.0]], (1250, 1))
        u_w = np.arange(3000) % 4 * 1.0
        v_w = np.ones(2500)
        tracemalloc.start()
        try:
            result = wasserstein_distance(u, v, u_w, v_w, want_plan=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5e6
        assert result.iterations <= pivot_budget(3, 2)
        assert_plan_of_the_input(result, u, v, u_w, v_w)
        merged = wasserstein_distance(u[:3], v[:2], np.bincount(np.arange(3000) % 3, u_w), [1.0, 1.0])
        assert result.distance == pytest.approx(merged.distance, **close)


def exact_distance(u, v, u_w, v_w):
    """The exact optimum of the full LP on ``u`` and ``v``, as a Fraction.

    The LP is the one over every input point, shared and repeated ones
    included, with the float costs ``pairwise_costs`` gives the input points
    (those ``solve`` sees are these times a power of two, each up to its own
    rounding) and the exact masses of the integer weights ``u_w`` and
    ``v_w``. Every float is a dyadic rational, so the costs times their
    common power-of-two denominator are ints, and so are the masses when
    each side's weights are scaled by the other side's total; on ints
    ``networkx.network_simplex`` is exact.
    """
    costs = [[Fraction(c) for c in row] for row in pairwise_costs(validate(u), validate(v)).tolist()]
    scale = max(c.denominator for row in costs for c in row)
    u_w, v_w = [int(w) for w in u_w], [int(w) for w in v_w]
    graph = nx.DiGraph()
    for i, w in enumerate(u_w):
        graph.add_node(("u", i), demand=-w * sum(v_w))
    for j, w in enumerate(v_w):
        graph.add_node(("v", j), demand=w * sum(u_w))
    for i, row in enumerate(costs):
        for j, c in enumerate(row):
            graph.add_edge(("u", i), ("v", j), weight=int(c * scale))
    flow_cost, _ = nx.network_simplex(graph)
    return Fraction(flow_cost, scale * sum(u_w) * sum(v_w))


@st.composite
def grid_pair(draw):
    """Two point sets on a small grid, so points repeat within and across the sides.

    (n, d) rows with d = 1 to 4 and integer weights 0 to 4, at least one of
    them positive on each side.
    """
    d = draw(st.integers(1, 4))
    coordinate = st.sampled_from([-1.0, 0.0, 0.5, 2.0])

    def point_set():
        n = draw(st.integers(1, 7))
        pts = np.array(draw(st.lists(coordinate, min_size=n * d, max_size=n * d))).reshape(n, d)
        weights = np.array(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)), dtype=float)
        weights[draw(st.integers(0, n - 1))] += 1.0
        return pts, weights

    return point_set(), point_set()


def summed_in_input_order(points, weights):
    """Each distinct row's normalized weight, summed with ``+=`` in input order, where positive.

    Rows come in order of first occurrence; a dict keyed on the row's
    coordinates groups them as ``==`` does, so 0.0 and -0.0 share a key.
    """
    totals = defaultdict(float)
    for row, w in zip(map(tuple, points), normalize(validate(points, weights)).weights):
        totals[row] += w
    masses = np.array(list(totals.values()))
    return masses[masses > 0.0]


class TestSharedMass:
    """The LP solves the residual of u - v: the mass both sides hold at a point stays there."""

    def test_exact_oracle_on_known_instances(self):
        assert exact_distance([[0.0], [1.0]], [[0.0], [1.0]], [1, 0], [0, 1]) == 1
        assert exact_distance([[0.0, 0.0]], [[3.0, 4.0], [0.0, 0.0]], [1], [1, 2]) == Fraction(5, 3)
        # 0.1 is a dyadic rational a little above 1/10
        assert exact_distance([[0.0]], [[0.1]], [1], [1]) == Fraction(0.1)

    @given(pair=grid_pair())
    @settings(max_examples=150, deadline=None)
    def test_distance_meets_the_exact_optimum_of_the_full_problem(self, pair):
        (u, u_w), (v, v_w) = pair
        result = wasserstein_distance(u, v, u_w, v_w, want_plan=True)
        assert result.path == "lp"
        exact = exact_distance(u, v, u_w, v_w)
        assert result.distance == pytest.approx(float(exact), **slack(False, u, v))
        assert_plan_of_the_input(result, u, v, u_w, v_w)

    def test_input_without_shared_points_reaches_solve_unchanged(self, monkeypatch):
        # u on even grid coordinates, v on odd ones, each with repeats: the
        # LP gets each side merged apart, masses bit for bit, with no rescale.
        # Every other trial draws zero weights: the merged points of zero
        # mass are left out, and no zero reaches solve
        problems = []

        def capture(problem):
            problems.append(problem)
            return solve(problem)

        monkeypatch.setattr(earthmover.api, "solve", capture)
        rng = np.random.default_rng(24)
        for trial in range(60):
            d, n, m = int(rng.integers(1, 4)), int(rng.integers(1, 20)), int(rng.integers(1, 20))
            u, v = rng.integers(0, 3, (n, d)) * 2.0, rng.integers(0, 3, (m, d)) * 2.0 + 1.0
            if trial % 2:
                u_w, v_w = rng.integers(0, 3, n) * 1.0, rng.integers(0, 3, m) * 1.0
                u_w[rng.integers(n)] = v_w[rng.integers(m)] = 1.0
            else:
                u_w, v_w = rng.random(n) + 0.01, rng.random(m) + 0.01
            wasserstein_distance(u, v, u_w, v_w)
            supply, demand = problems[-1].supply, problems[-1].demand
            assert supply.tobytes() == summed_in_input_order(u, u_w).tobytes()
            assert demand.tobytes() == summed_in_input_order(v, v_w).tobytes()
            assert (supply > 0.0).all() and (demand > 0.0).all()

    def test_distributions_reaching_pairwise_costs_are_read_only(self, monkeypatch):
        # the residual distributions are made by dataclasses.replace, and
        # keep the read-only arrays every distribution promises
        seen = []

        def spy(u, v):
            seen.extend([u.points, u.weights, v.points, v.weights])
            return pairwise_costs(u, v)

        monkeypatch.setattr(earthmover.api, "pairwise_costs", spy)
        wasserstein_distance([[0, 0], [1, 1]], [[2, 2]])
        assert len(seen) == 4
        assert not any(arr.flags.writeable for arr in seen)

    def test_identical_sides_read_exactly_zero(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            n, d = int(rng.integers(1, 12)), int(rng.integers(1, 4))
            pts = rng.integers(0, 3, (n, d)) * 1.0
            w = rng.random(n) + 0.01
            result = wasserstein_distance(pts, pts, w, w, want_plan=True)
            assert result.distance == 0.0
            assert result.iterations == 0
            # nothing moves: each point's mass stays where it is, on the
            # copies of the input that share its coordinates
            plan = result.plan
            assert (pts[plan.rows] == pts[plan.cols]).all()
            assert_plan_of_the_input(result, pts, pts, w, w)

    def test_weights_equal_to_rounding_leave_a_rounding_sized_distance(self):
        # the residual masses are rounding noise, and their two totals
        # disagree far past MASS_BALANCE_TOL: the smaller is scaled to the
        # larger, so nothing raises and the error is the imbalance times a cost
        rng = np.random.default_rng(22)
        eps = np.finfo(float).eps
        for _ in range(2000):
            k, d = int(rng.integers(3, 8)), int(rng.integers(1, 4))
            pts = rng.random((k, d))
            u_w = rng.random(k) + 0.01
            u_w /= u_w.sum()
            v_w = u_w * (1 + 1e-15 * rng.normal(size=k))
            v_w /= v_w.sum()
            distance = wasserstein_distance(pts, pts, u_w, v_w).distance
            assert 0.0 <= distance <= 8 * eps * pairwise_costs(validate(pts), validate(pts)).max()

    def test_plans_on_shared_grid_points_index_the_input(self):
        # v takes some of u's points, in another order and with other
        # weights, zeros included, beside points of its own
        rng = np.random.default_rng(23)
        for _ in range(40):
            d, n = int(rng.integers(1, 4)), int(rng.integers(1, 20))
            u = rng.integers(0, 3, (n, d)) * 1.0
            v = np.vstack([u[rng.integers(0, n, int(rng.integers(1, 20)))],
                           rng.integers(0, 3, (int(rng.integers(0, 5)), d)) * 1.0])
            u_w, v_w = rng.integers(0, 4, n) * 1.0, rng.integers(0, 4, len(v)) * 1.0
            u_w[rng.integers(n)] += 1.0
            v_w[rng.integers(len(v))] += 1.0
            result = wasserstein_distance(u, v, u_w, v_w, want_plan=True)
            assert_plan_of_the_input(result, u, v, u_w, v_w)
            assert result.distance == pytest.approx(float(exact_distance(u, v, u_w, v_w)), **slack(False, u, v))
