"""Closed-form one-dimensional distance via the CDF gap integral.

For step CDFs U and V the first-order distance is the integral of |U - V|
over the line, which reduces to a finite sum over consecutive positions of
the merged support. ``merged_support`` builds that support by sorting each
side once and merging the two sorted runs once; each side's CDF is its
running weight along the merged order, read at the end of each run of tied
positions. ``greedy_plan_1d`` builds the monotone plan of the same cost
from the quantile form of that integral.

``monotone_coupling`` is the north-west corner rule that cuts a plan along
a mass axis. It is the plan rule of both paths: ``greedy_plan_1d`` applies
it to the two sides' cumulative weights, and the LP path's plan split
(``api._split``) to a merged point's plan entries and copies.
"""

from dataclasses import dataclass

import numpy as np

from .distributions import DiscreteDistribution
from .transport_lp import TransportPlan

__all__ = ["MergedSupport", "merged_support", "monotone_coupling", "cdf_distance_1d", "greedy_plan_1d"]


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


def monotone_coupling(a_order, a_ends, b_order, b_ends):
    """North-west corner rule: the monotone coupling of two cuts of one mass axis.

    Member k of a holds ``(a_ends[k - 1], a_ends[k]]`` and is ``a_order[k]``,
    likewise for b; both ends arrays are non-decreasing. 0 and every end,
    capped at the smaller last end, cut the axis into pieces, so the tail
    past that end is dropped. Each piece lies in one member of either side,
    the first whose end reaches its upper cut, and moves its width there; an
    interval of zero width gets no piece. Returns (a_member, b_member, width)
    arrays, one element per piece, in mass-axis order.
    """
    cuts = np.unique(np.minimum(np.concatenate([[0.0], a_ends, b_ends]), min(a_ends[-1], b_ends[-1])))
    upper = cuts[1:]
    return a_order[np.searchsorted(a_ends, upper)], b_order[np.searchsorted(b_ends, upper)], np.diff(cuts)


def greedy_plan_1d(u: DiscreteDistribution, v: DiscreteDistribution) -> TransportPlan:
    """Optimal 1D plan: the monotone coupling of the two quantile functions.

    Each side's points, in stable position order, hold consecutive intervals
    of the mass axis, as wide as their weights; ``monotone_coupling`` cuts
    the axis at both sides' cumulative weights, so a zero-weight point gets
    no flow. The weights are coupled as given, up to the smaller total:
    ``wasserstein_distance`` passes both sides scaled to total mass one.
    Entries come in quantile order; indices refer to the original input
    order.
    """
    u_order = np.argsort(u.points[:, 0], kind="stable")
    v_order = np.argsort(v.points[:, 0], kind="stable")
    u_cum = np.cumsum(u.weights[u_order])
    v_cum = np.cumsum(v.weights[v_order])
    return TransportPlan(u.size, v.size, *monotone_coupling(u_order, u_cum, v_order, v_cum))
