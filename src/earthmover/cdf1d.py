"""Closed-form one-dimensional distance via the CDF gap integral.

For step CDFs U and V the first-order distance is the integral of |U - V|
over the line, which reduces to a finite sum over consecutive positions of
the merged support. The greedy monotone plan built by ``greedy_plan_1d``
realizes the same cost and serves as an independent cross-check.
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
    """Optimal 1D plan by ascending mass assignment.

    Both supports are walked in sorted order; the smallest-position available
    source mass fills the smallest-position unfilled target. The resulting
    plan satisfies both marginals and its cost equals ``cdf_distance_1d``.
    Flow indices refer to the original input order.
    """
    u = normalize(u)
    v = normalize(v)
    u_order = np.argsort(u.points[:, 0], kind="stable")
    v_order = np.argsort(v.points[:, 0], kind="stable")
    remaining_u = u.weights[u_order].copy()
    remaining_v = v.weights[v_order].copy()

    flows = []
    i = j = 0
    while i < len(u_order) and j < len(v_order):
        mass = min(remaining_u[i], remaining_v[j])
        if mass > 0:
            flows.append((int(u_order[i]), int(v_order[j]), float(mass)))
        remaining_u[i] -= mass
        remaining_v[j] -= mass
        # min() guarantees at least one side hits exactly zero
        if remaining_u[i] == 0.0:
            i += 1
        if remaining_v[j] == 0.0:
            j += 1

    return TransportPlan(u.size, v.size, tuple(flows))
