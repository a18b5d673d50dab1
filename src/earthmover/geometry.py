"""Pairwise Euclidean ground costs between two supports."""

import numpy as np

from .distributions import DiscreteDistribution
from .errors import DimensionMismatchError

__all__ = ["pairwise_costs"]


def pairwise_costs(u: DiscreteDistribution, v: DiscreteDistribution) -> np.ndarray:
    """n x m matrix of Euclidean distances between support points.

    Entries are exactly zero iff the points coincide coordinate-for-coordinate.
    Summed one axis at a time with ``hypot``, so no square under- or overflows;
    the first axis is its absolute difference, which is ``hypot(0, diff)``.
    """
    if u.dim != v.dim:
        raise DimensionMismatchError(
            f"distributions have different dimensionality: {u.dim} vs {v.dim}"
        )
    costs = u.points[:, 0, None] - v.points[None, :, 0]
    np.abs(costs, out=costs)
    for k in range(1, u.dim):
        np.hypot(costs, u.points[:, k, None] - v.points[None, :, k], out=costs)
    return costs
