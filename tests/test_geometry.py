"""Pairwise Euclidean cost matrices."""

import math

import numpy as np
import pytest

from earthmover.distributions import validate
from earthmover.errors import DimensionMismatchError
from earthmover.geometry import pairwise_costs


def test_three_dimensional_entries():
    u = validate([[0, 2, 3], [1, 2, 5]])
    v = validate([[3, 2, 3], [4, 2, 5]])
    expected = [[3.0, math.sqrt(20)], [math.sqrt(8), 3.0]]
    np.testing.assert_allclose(pairwise_costs(u, v), expected, rtol=0, atol=0)


def test_identical_sets_zero_diagonal():
    u = validate([[1.5, -2.0], [0.0, 0.25], [3.0, 3.0]])
    costs = pairwise_costs(u, u)
    np.testing.assert_array_equal(np.diag(costs), [0.0, 0.0, 0.0])
    off_diag = costs[~np.eye(3, dtype=bool)]
    assert np.all(off_diag > 0)


def test_one_dimensional_absolute_differences():
    u = validate([0, 1, 3])
    v = validate([5, 6, 8])
    np.testing.assert_array_equal(
        pairwise_costs(u, v), [[5, 6, 8], [4, 5, 7], [2, 3, 5]]
    )


def test_dimension_mismatch_raises():
    # without the check the second order is silent: v's third axis is
    # ignored and the cost reads [[0.]]
    for u, v in [([[0, 1, 2]], [[0, 1]]), ([[0, 1]], [[0, 1, 5]])]:
        with pytest.raises(DimensionMismatchError, match="E_DIM"):
            pairwise_costs(validate(u), validate(v))


def test_transpose_symmetry_exact():
    rng = np.random.default_rng(7)
    for _ in range(50):
        u = validate(rng.normal(size=(int(rng.integers(1, 9)), 3)))
        v = validate(rng.normal(size=(int(rng.integers(1, 9)), 3)))
        np.testing.assert_array_equal(pairwise_costs(u, v), pairwise_costs(v, u).T)


def test_orthogonal_invariance():
    rng = np.random.default_rng(13)
    for _ in range(100):
        d = int(rng.integers(2, 5))
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        pts_u = rng.normal(size=(int(rng.integers(1, 8)), d))
        pts_v = rng.normal(size=(int(rng.integers(1, 8)), d))
        plain = pairwise_costs(validate(pts_u), validate(pts_v))
        rotated = pairwise_costs(validate(pts_u @ q.T), validate(pts_v @ q.T))
        np.testing.assert_allclose(rotated, plain, rtol=0, atol=1e-9)


def test_constant_coordinate_padding_invariance():
    rng = np.random.default_rng(29)
    for _ in range(100):
        d = int(rng.integers(1, 4))
        pts_u = rng.normal(size=(int(rng.integers(1, 8)), d))
        pts_v = rng.normal(size=(int(rng.integers(1, 8)), d))
        pad = float(rng.normal())
        padded_u = np.hstack([pts_u, np.full((len(pts_u), 1), pad)])
        padded_v = np.hstack([pts_v, np.full((len(pts_v), 1), pad)])
        plain = pairwise_costs(validate(pts_u), validate(pts_v))
        padded = pairwise_costs(validate(padded_u), validate(padded_v))
        np.testing.assert_allclose(padded, plain, rtol=0, atol=1e-12)


@pytest.mark.parametrize("scale", [1.0, 1e300, 1e-300, 1e-160, 5e-324])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_first_axis_equals_hypot_from_zero(scale, d):
    # the costs start from |diff| of the first axis, which is hypot(0, diff):
    # accumulating every axis from a zero matrix must give the same bits
    rng = np.random.default_rng(31)
    u = validate(rng.normal(size=(9, d)) * scale)
    v = validate(rng.normal(size=(7, d)) * scale)
    from_zero = np.zeros((9, 7))
    for k in range(d):
        np.hypot(from_zero, u.points[:, k, None] - v.points[None, :, k], out=from_zero)
    np.testing.assert_array_equal(pairwise_costs(u, v), from_zero)
