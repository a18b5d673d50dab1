"""Closed-form one-dimensional distance via the CDF gap integral.

For step CDFs U and V the first-order distance is the integral of |U - V|
over the line, which reduces to a finite sum over consecutive positions of
the merged support. ``greedy_plan_1d`` builds the monotone plan of the same
cost from the quantile form of that integral.
"""

from dataclasses import dataclass

import numpy as np

from .distributions import DiscreteDistribution, normalize
from .transport_lp import TransportPlan

__all__ = ["MergedSupport", "merged_support", "cdf_distance_1d", "greedy_plan_1d"]


@dataclass(frozen=True)
class MergedSupport:
    """Union of two 1D supports with both step CDFs evaluated on it.

    ``positions`` is strictly increasing (exact ties merged); the CDFs are
    non-decreasing and end at 1.
    """

    positions: np.ndarray
    u_cdf: np.ndarray
    v_cdf: np.ndarray


def _step_cdf(positions: np.ndarray, weights: np.ndarray, grid: np.ndarray) -> np.ndarray:
    # The default sort kind suffices: searchsorted(side="right") reads the
    # cumulative mass only at the end of each run of tied positions, and that
    # run sums the same weights whatever their order (up to rounding). The
    # sort is deterministic, so identical inputs still get bit-identical CDFs.
    order = np.argsort(positions)
    cum = np.concatenate([[0.0], np.cumsum(weights[order])])
    idx = np.searchsorted(positions[order], grid, side="right")
    return cum[idx] / cum[-1]


def merged_support(u: DiscreteDistribution, v: DiscreteDistribution) -> MergedSupport:
    """Merge both supports into one sorted, deduplicated grid."""
    u_pos = u.points[:, 0]
    v_pos = v.points[:, 0]
    grid = np.unique(np.concatenate([u_pos, v_pos]))
    return MergedSupport(grid, _step_cdf(u_pos, u.weights, grid), _step_cdf(v_pos, v.weights, grid))


def cdf_distance_1d(u: DiscreteDistribution, v: DiscreteDistribution) -> float:
    """Sum of |U - V| times the gap between consecutive merged positions."""
    ms = merged_support(u, v)
    gap = np.abs(ms.u_cdf[:-1] - ms.v_cdf[:-1])
    # Where the CDFs agree the interval adds nothing, even if its width
    # overflowed to inf; those products are skipped and stay 0, not nan.
    np.multiply(gap, np.diff(ms.positions), out=gap, where=gap > 0)
    return float(np.sum(gap))


def greedy_plan_1d(u: DiscreteDistribution, v: DiscreteDistribution) -> TransportPlan:
    """Optimal 1D plan: the monotone coupling of the two quantile functions.

    0 and both sides' cumulative weights (stable position order, capped at the
    smaller total) cut the mass axis into intervals. Each interval moves its
    width between the first points of either side whose cumulative weight
    reaches its upper cut, so a zero-weight point gets no flow. Entries come
    in quantile order; indices refer to the original input order.
    """
    u, v = normalize(u), normalize(v)
    u_order = np.argsort(u.points[:, 0], kind="stable")
    v_order = np.argsort(v.points[:, 0], kind="stable")
    u_cum = np.cumsum(u.weights[u_order])
    v_cum = np.cumsum(v.weights[v_order])
    top = min(u_cum[-1], v_cum[-1])
    cuts = np.unique(np.minimum(np.concatenate([[0.0], u_cum, v_cum]), top))
    rows = u_order[np.searchsorted(u_cum, cuts[1:])]
    cols = v_order[np.searchsorted(v_cum, cuts[1:])]
    return TransportPlan(u.size, v.size, rows, cols, np.diff(cuts))
