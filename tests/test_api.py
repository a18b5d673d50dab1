"""Public entry point: dispatch, special values, plans, distance properties."""

import math

import numpy as np
import pytest

from earthmover import (
    DimensionMismatchError,
    Finiteness,
    NegativeWeightError,
    ShapeError,
    WeightLengthError,
    WeightSumError,
    wasserstein_distance,
)


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
        assert [(i, j) for i, j, _ in result.plan.flows] == [(0, 0), (1, 1), (2, 2)]

    def test_plan_on_lp_path(self):
        result = wasserstein_distance(
            [[0, 2, 3], [1, 2, 5]], [[3, 2, 3], [4, 2, 5]], want_plan=True
        )
        np.testing.assert_allclose(result.plan.source_marginals(), [0.5, 0.5], atol=1e-9)
        np.testing.assert_allclose(result.plan.target_marginals(), [0.5, 0.5], atol=1e-9)
        assert all(mass > 0 for _, _, mass in result.plan.flows)

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

    def test_classification_happens_before_solving(self):
        # huge point counts would be slow to solve; classification short-circuits
        result = wasserstein_distance([np.inf] + [0.0] * 5000, list(range(5001)))
        assert math.isinf(result.distance)
        assert result.iterations == 0


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
