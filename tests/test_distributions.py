"""Validation, normalization, and finiteness classification."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from earthmover.distributions import (
    Finiteness,
    as_float_array,
    classify_finiteness,
    merge_duplicates,
    normalize,
    validate,
)
from earthmover.errors import (
    NegativeWeightError,
    ShapeError,
    WeightLengthError,
    WeightSumError,
)


class TestValidate:
    def test_uniform_weights_synthesized(self):
        dist = validate([0, 1, 3])
        assert dist.points.shape == (3, 1)
        np.testing.assert_array_equal(dist.weights, [1.0, 1.0, 1.0])

    def test_two_dimensional_input(self):
        dist = validate([[0, 2, 3], [1, 2, 5]])
        assert dist.points.shape == (2, 3)
        assert dist.size == 2
        assert dist.dim == 3

    def test_negative_weight_rejected(self):
        with pytest.raises(NegativeWeightError, match="E_WEIGHT_NEG"):
            validate([[0, 1]], [-1])

    def test_three_axis_input_rejected(self):
        with pytest.raises(ShapeError, match="E_SHAPE"):
            validate(np.zeros((2, 2, 2)))

    def test_scalar_and_empty_rejected(self):
        with pytest.raises(ShapeError, match="E_SHAPE"):
            validate(3.0)
        with pytest.raises(ShapeError, match="E_SHAPE"):
            validate([])

    def test_zero_coordinates_rejected(self):
        with pytest.raises(ShapeError, match="E_SHAPE"):
            validate(np.zeros((3, 0)))

    def test_ragged_input_rejected(self):
        with pytest.raises(ShapeError, match="E_SHAPE"):
            validate([[0, 1], [2]])

    def test_weight_length_mismatch(self):
        with pytest.raises(WeightLengthError, match="E_WEIGHT_LEN"):
            validate([0, 1, 3], [1, 1])

    def test_non_numeric_weights_rejected(self):
        with pytest.raises(WeightLengthError, match="E_WEIGHT_LEN"):
            validate([0, 1], weights=["a", "b"])

    def test_complex_input_rejected(self):
        # a complex array would otherwise be cast with only a ComplexWarning
        with pytest.raises(ShapeError, match="E_SHAPE: points is not a real numeric array"):
            validate(np.array([1 + 5j, 2]))
        with pytest.raises(ShapeError, match="E_SHAPE"):
            validate([1 + 5j, 2])
        with pytest.raises(WeightLengthError, match="E_WEIGHT_LEN: weights is not a real"):
            validate([0, 1], np.array([1, 1 + 0j]))
        # an int past the float range would escape as a raw OverflowError
        with pytest.raises(ShapeError, match="E_SHAPE: points is not a real numeric array"):
            validate([[10**400, 0]])
        with pytest.raises(WeightLengthError, match="E_WEIGHT_LEN: weights is not a real"):
            validate([0, 1], [10**400, 1])

    def test_float64_input_is_converted_without_a_copy(self):
        values = np.array([[0.0, 1.0], [2.0, 3.0]])
        assert as_float_array(values, ShapeError, "values") is values
        converted = as_float_array([1, 2], ShapeError, "values")
        assert converted.dtype == np.float64
        np.testing.assert_array_equal(converted, [1.0, 2.0])

    def test_weight_sum_zero(self):
        with pytest.raises(WeightSumError, match="E_WEIGHT_SUM"):
            validate([0, 1], [0, 0])

    def test_weight_sum_not_finite(self):
        with pytest.raises(WeightSumError, match="E_WEIGHT_SUM"):
            validate([0, 1], [np.inf, 1])
        with pytest.raises(WeightSumError, match="E_WEIGHT_SUM"):
            validate([0, 1], [np.nan, 1])

    def test_zero_weight_points_are_kept(self):
        dist = validate([0, 1, 2], [1, 0, 1])
        assert dist.size == 3
        assert dist.weights[1] == 0.0

    def test_arrays_are_read_only(self):
        # an instance made by dataclasses.replace is read-only too
        for dist in (validate([0, 1, 3]), replace(validate([0, 1, 3]), points=np.zeros((3, 1)))):
            with pytest.raises(ValueError):
                dist.points[0, 0] = 99.0
            with pytest.raises(ValueError):
                dist.weights[0] = 99.0

    def test_float64_input_is_viewed_not_copied(self):
        # strided and read-only arrays are viewed as they are
        points, weights = np.arange(10.0), np.linspace(1.0, 2.0, 10)
        frozen = np.arange(5.0)
        frozen.flags.writeable = False
        for pts, w in ((points, weights), (points.reshape(5, 2), weights[::2]), (points[::2], frozen)):
            dist = validate(pts, w)
            assert np.shares_memory(dist.points, pts) and np.shares_memory(dist.weights, w)

    def test_the_callers_arrays_keep_their_flags(self):
        points, weights = np.arange(6.0).reshape(3, 2), np.ones(3)
        dist = validate(points, weights)
        assert points.flags.writeable and weights.flags.writeable
        assert not (dist.points.flags.writeable or dist.weights.flags.writeable)
        points[0, 0] = 99.0  # the caller's writes show in the distribution
        assert dist.points[0, 0] == 99.0

    def test_other_input_is_converted_into_fresh_arrays(self):
        for points, weights in (
            (np.arange(4), np.array([1, 2, 3, 4])),
            (np.arange(4.0).astype(">f8"), np.ones(4, dtype=">f8")),
            (np.arange(4.0, dtype=np.float32), np.ones(4, dtype=np.float32)),
        ):
            dist = validate(points, weights)
            assert dist.points.dtype == dist.weights.dtype == np.float64
            assert not (np.shares_memory(dist.points, points) or np.shares_memory(dist.weights, weights))
        points, weights = [0.0, 1.0, 3.0], [1.0, 2.0, 1.0]
        dist = validate(points, weights)
        points[0] = weights[0] = 99.0
        np.testing.assert_array_equal(dist.points[:, 0], [0.0, 1.0, 3.0])
        np.testing.assert_array_equal(dist.weights, [1.0, 2.0, 1.0])


class TestNormalize:
    def test_counts_become_fractions(self):
        dist = normalize(validate([0, 1], [3, 1]))
        np.testing.assert_array_equal(dist.weights, [0.75, 0.25])

    def test_uniform_thirds(self):
        dist = normalize(validate([0, 1, 3]))
        np.testing.assert_allclose(dist.weights, [1 / 3] * 3, rtol=0, atol=0)

    def test_example_masses(self):
        dist = normalize(validate([[0, 2.75], [2, 209.3], [0, 0]], [0.4, 5.2, 0.114]))
        np.testing.assert_allclose(
            dist.weights, np.array([0.4, 5.2, 0.114]) / 5.714, atol=1e-15
        )

    def test_points_untouched(self):
        dist = validate([[1.5, 2.5]], [4.0])
        np.testing.assert_array_equal(normalize(dist).points, dist.points)

    @given(
        weights=st.lists(st.floats(0.01, 100.0), min_size=1, max_size=8),
        scale=st.floats(1e-6, 1e6),
    )
    @settings(max_examples=200, deadline=None)
    def test_scale_invariant(self, weights, scale):
        points = list(range(len(weights)))
        plain = normalize(validate(points, weights)).weights
        scaled = normalize(validate(points, [w * scale for w in weights])).weights
        np.testing.assert_allclose(scaled, plain, rtol=0, atol=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(1, 20))
            dist = normalize(validate(rng.normal(size=n), rng.random(n) * 10 + 0.01))
            assert abs(dist.weights.sum() - 1.0) <= 1e-12


class TestMergeDuplicates:
    def test_no_repeats_returns_the_input_itself(self):
        points = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]])
        merged, group = merge_duplicates(points)
        assert merged is points
        assert group.dtype == np.intp
        assert group.tolist() == [0, 1, 2]

    def test_groups_in_order_of_first_occurrence(self):
        points = np.array([[2, 0], [0, 1], [2, 0], [-0.0, 1], [5, 5], [0, 1]])
        merged, group = merge_duplicates(points)
        assert group.dtype == np.intp
        assert group.tolist() == [0, 1, 0, 1, 2, 1]
        np.testing.assert_array_equal(merged, [[2, 0], [0, 1], [5, 5]])
        # a group keeps its first occurrence's coordinates: 0.0, not -0.0
        assert not np.signbit(merged[1, 0])

    def test_every_row_the_same(self):
        merged, group = merge_duplicates(np.ones((5, 3)))
        assert merged.shape == (1, 3)
        assert group.tolist() == [0] * 5


class TestClassifyFiniteness:
    def test_both_finite(self):
        u = validate([0, 1])
        v = validate([2, 3])
        assert classify_finiteness(u, v) is Finiteness.FINITE

    def test_one_sided_infinity(self):
        u = validate([0, 1])
        v = validate([np.inf, 3])
        assert classify_finiteness(u, v) is Finiteness.INFINITE
        assert classify_finiteness(v, u) is Finiteness.INFINITE

    def test_two_sided_infinity_undefined(self):
        u = validate([np.inf, 1])
        v = validate([-np.inf, 3])
        assert classify_finiteness(u, v) is Finiteness.UNDEFINED

    def test_flat_infinities_are_undefined_only_where_their_signs_meet(self):
        u = validate([np.inf, 1])
        for v, want in (([-np.inf, 3], Finiteness.INFINITE), ([np.inf, 3], Finiteness.UNDEFINED),
                        ([-np.inf, np.inf], Finiteness.UNDEFINED), ([3, 4], Finiteness.INFINITE)):
            assert classify_finiteness(u, validate(v), flat=True) is want
            assert classify_finiteness(validate(v), u, flat=True) is want

    def test_nan_undefined(self):
        u = validate([np.nan, 1])
        v = validate([2, 3])
        assert classify_finiteness(u, v) is Finiteness.UNDEFINED
        # NaN wins even when the other side has an infinity
        w = validate([np.inf, 0])
        assert classify_finiteness(u, w) is Finiteness.UNDEFINED

    def test_symmetric_on_random_instances(self):
        rng = np.random.default_rng(11)
        specials = [np.inf, -np.inf, np.nan, 0.0]
        for _ in range(200):
            pts_u = rng.normal(size=(int(rng.integers(1, 6)), 2))
            pts_v = rng.normal(size=(int(rng.integers(1, 6)), 2))
            if rng.random() < 0.7:
                pts_u[rng.integers(pts_u.shape[0]), rng.integers(2)] = rng.choice(specials)
            if rng.random() < 0.7:
                pts_v[rng.integers(pts_v.shape[0]), rng.integers(2)] = rng.choice(specials)
            u, v = validate(pts_u), validate(pts_v)
            assert classify_finiteness(u, v) is classify_finiteness(v, u)
            u, v = validate(pts_u[:, 0]), validate(pts_v[:, 0])
            assert classify_finiteness(u, v, flat=True) is classify_finiteness(v, u, flat=True)
