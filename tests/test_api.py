"""Public entry point: dispatch, special values, plans, distance properties."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import earthmover
from earthmover import (
    DimensionMismatchError,
    Finiteness,
    NegativeWeightError,
    ShapeError,
    WeightLengthError,
    WeightSumError,
    wasserstein_distance,
)
from earthmover.distributions import validate
from earthmover.geometry import pairwise_costs
from earthmover.simplex import OPTIMALITY_TOL


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

    def test_float_conversion_and_wall_time(self):
        result = wasserstein_distance([0, 1, 3], [5, 6, 8])
        assert float(result) == result.distance
        assert result.wall_time_ns > 0


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
        result = wasserstein_distance([np.inf, 1.0], [-np.inf, 2.0])
        assert math.isnan(result.distance)
        assert result.finiteness is Finiteness.UNDEFINED

    def test_nan_is_undefined(self):
        result = wasserstein_distance([[np.nan, 0.0]], [[1.0, 2.0]])
        assert math.isnan(result.distance)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflow_of_finite_points_is_infinite(self):
        result = wasserstein_distance([-1e308], [1e308], want_plan=True)
        assert math.isinf(result.distance)
        assert result.finiteness is Finiteness.INFINITE
        assert result.plan is None

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_gap_with_equal_cdfs_adds_nothing(self):
        # the merged gap 1e308 - (-1e308) overflows to inf, but both CDFs
        # agree across it, so the interval must not contribute 0 * inf = nan
        result = wasserstein_distance([-1e308, 1e308], [-1e308, 1e308])
        assert result.distance == 0.0
        assert result.finiteness is Finiteness.FINITE

    # these run with overflow warnings as errors: the scaling decision is made
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
                assert scaled.distance == pytest.approx(scale * base, rel=1e-14)


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
