"""Closed-form one-dimensional distance via the CDF gap integral.

For step CDFs U and V the first-order distance is the integral of |U - V|
over the line, which reduces to a finite sum over consecutive positions of
the merged support. ``merged_support`` builds that support by sorting each
side once and merging the two sorted runs once; each side's CDF is its
running weight along the merged order, read at the end of each run of tied
positions. ``greedy_plan_1d`` builds the monotone plan of the same cost
from the quantile form of that integral.
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
    non-decreasing and end at exactly 1.
    """

    positions: np.ndarray
    u_cdf: np.ndarray
    v_cdf: np.ndarray


def merged_support(u: DiscreteDistribution, v: DiscreteDistribution) -> MergedSupport:
    """Merge both supports into one sorted, deduplicated grid with both CDFs on it.

    Each side is sorted on its own into one run of a shared positions array,
    its weights into the same order. A stable sort of that array merges the
    two sorted runs in one linear pass (timsort finds the runs). It only has
    to tell which slots of the merged order hold v's points: any sort puts
    as many of each side's points into each run of tied positions. A side's
    weights fill its own slots in its own order, zeros the other side's;
    adding 0.0 is exact, so the running sum at the end of each tie run is
    the side's cumulative weight up to that position, bit for bit.
    """
    n = u.size
    positions = np.empty(n + v.size)
    u_weights = _sort_side(u, positions[:n])
    v_weights = _sort_side(v, positions[n:])
    from_v = np.argsort(positions, kind="stable") >= n
    positions.sort(kind="stable")
    last = np.append(positions[1:] != positions[:-1], True)
    positions = positions[last]
    u_cdf = _cdf_at(last, ~from_v, u_weights)
    # a side's sorted weights are dropped once its CDF is built, which keeps
    # the peak memory of large calls down
    del u_weights
    return MergedSupport(positions, u_cdf, _cdf_at(last, from_v, v_weights))


def _sort_side(dist: DiscreteDistribution, out: np.ndarray) -> np.ndarray:
    """Write ``dist``'s positions into ``out`` in increasing order; return its weights so ordered.

    The default sort kind is kept: it is several times faster than a stable
    sort on random floats, and it is deterministic, so two identical inputs
    get the same order within ties and a self-distance is exactly 0. The
    order within a tie decides only the order in which its weights are
    summed, so changing the kind would move distances by a rounding.
    """
    order = np.argsort(dist.points[:, 0])
    np.take(dist.points[:, 0], order, out=out)
    return dist.weights[order]


def _cdf_at(last: np.ndarray, slots: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Running sum of ``weights`` laid into ``slots`` of the merged order, zeros elsewhere.

    Read at the ``last`` slot of each run of tied positions and divided by
    its total, so the CDF ends at exactly 1.
    """
    cum = np.zeros(slots.size)
    cum[slots] = weights
    np.cumsum(cum, out=cum)
    cdf = cum[last]
    cdf /= cdf[-1]
    return cdf


def cdf_distance_1d(u: DiscreteDistribution, v: DiscreteDistribution) -> float:
    """Sum of |U - V| times the gap between consecutive merged positions.

    The gaps must be finite: where two positions lie more than the float
    maximum apart, the gap is ``inf`` and a zero CDF difference times it is
    ``nan``. ``wasserstein_distance`` scales the points by a power of two so
    that every gap is finite.
    """
    ms = merged_support(u, v)
    gap = np.abs(ms.u_cdf[:-1] - ms.v_cdf[:-1])
    gap *= np.diff(ms.positions)
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
