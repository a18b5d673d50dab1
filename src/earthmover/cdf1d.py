"""Closed-form one-dimensional distance via the CDF gap integral.

For step CDFs U and V the first-order distance is the integral of |U - V|
over the line, which reduces to a finite sum over consecutive positions of
the merged support. ``merged_support`` builds that support from each
side's own running sum: a side is sorted once, its weights are replaced by
their running sum, and its ties are merged to the last point of each run.
One stable sort merges the two sides' distinct positions; each CDF is read
off its side's running sum by the count of that side's points at or before
each merged position. ``cdf_distance_1d`` computes the integrand in the
support's own buffers. ``greedy_plan_1d`` builds the monotone plan of the
same cost from the quantile form of that integral.

``merged_support`` and ``cdf_distance_1d`` take the distributions as
validated, weights as given and points unscaled, plus a point scale.
``wasserstein_distance`` decides that scale, and each side's total is its
weights' sum; ``_sort_side`` applies both to the sorted copies it makes
anyway, so the distance copies no input array to scale or normalize it.

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


def merged_support(u: DiscreteDistribution, v: DiscreteDistribution, scale: int = 0) -> MergedSupport:
    """Merge both supports into one sorted, deduplicated grid with both CDFs on it.

    The positions are the points scaled by 2^-scale, and each side's
    weights count as divided by their total, whatever it is; ``u`` and
    ``v`` themselves are not changed. ``_sort_side`` gives each side's
    distinct positions in increasing order, scaled, its ties merged, with
    its running normalized weight at each. A stable sort of the
    two runs merges them in one linear pass (timsort finds the runs) and
    tells which slots of the merged order hold u's points; a position both
    sides hold takes two slots, u's first. A side's CDF at a merged
    position is its running sum after as many of its points as lie at or
    before it, 0 before its first point, divided by its last running sum.
    That count is ``cumsum(from_u)`` at the last slot of each run of tied
    positions for u, and that slot's index + 1 less u's count for v.

    This is bit for bit the running sum of each side's weights laid into
    its own slots of all n + m sorted points, zeros in the other side's, and
    read at the end of each run of ties: adding 0.0 is exact, so that sum at
    any slot equals the side's own running sum up to its last point at or
    before it. Both forms sum a tie's weights in the order of the per-side
    default-kind sort, divide by the same total, and take each merged
    position from the last point of its run of ties, so even the sign of a
    zero position is kept. The one difference is the sign of a zero CDF
    value after weights of -0.0, which |U - V| does not see.
    """
    u_positions, u_cum = _sort_side(u, scale)
    v_positions, v_cum = _sort_side(v, scale)
    positions = np.concatenate([u_positions, v_positions])
    # each array is dropped once it is used up, which keeps the peak memory
    # of large calls to three outputs, an index and one side's running sum
    del u_positions, v_positions
    from_u = positions.argsort(kind="stable") < u_cum.size
    positions.sort(kind="stable")
    last = np.append(positions[1:] != positions[:-1], True)
    positions = positions[last]
    index = from_u.cumsum()[last]
    del from_u
    index -= 1
    u_cdf = _cdf_at(u_cum, index)
    del u_cum
    # v's count is the slot's index + 1 less u's count
    np.subtract(last.nonzero()[0], index, out=index)
    index -= 1
    return MergedSupport(positions, u_cdf, _cdf_at(v_cum, index))


def _sort_side(dist: DiscreteDistribution, scale: int) -> tuple[np.ndarray, np.ndarray]:
    """Return ``dist``'s distinct positions in increasing order and its running weight at each.

    The points are sorted, and their weights are taken in that order and
    replaced by their running sum, n values for n points. Where positions
    tie, only the last point of each run is kept, with the running sum
    through the whole run, which is the side's CDF there up to its total. A
    side without ties is returned as sorted.

    The sorted copies are scaled and normalized in place: the positions by
    ``np.ldexp(positions, -scale)``, the weights, before their running sum,
    divided by ``dist.weights.sum()`` over input order, the expression of
    ``normalize``. Both steps are elementwise, so they commute with the
    permutation, and the result is bit for bit that of sorting the scaled,
    normalized distribution. Scaling up is exact and keeps the order; scaling
    down (scale > 0, only for coordinates from 2^1022 up) can round
    subnormal points into ties, so then the column is scaled before it is
    sorted, as the scaled distribution's would be.

    The default sort kind is kept: it is several times faster than a stable
    sort on random floats, and it is deterministic, so two identical inputs
    get the same order within ties and a self-distance is exactly 0. The
    order within a tie decides only the order in which its weights are
    summed, so changing the kind would move distances by a rounding.
    """
    column = dist.points[:, 0]
    if scale > 0:
        column, scale = np.ldexp(column, -scale), 0
    order = column.argsort()
    positions = column.take(order)
    np.ldexp(positions, -scale, out=positions)
    cum = dist.weights.take(order)
    cum /= dist.weights.sum()
    cum.cumsum(out=cum)
    last = positions[1:] != positions[:-1]
    if last.all():
        return positions, cum
    last = np.append(last, True)
    return positions[last], cum[last]


def _cdf_at(cum: np.ndarray, index: np.ndarray) -> np.ndarray:
    """A side's CDF read at each ``index`` of its running sum ``cum``, divided by its total.

    ``index`` is non-decreasing, one less than the count of the side's
    points at or before each merged position, so it is -1 before the first
    point, where the CDF is 0. The total is the last running sum, so the
    CDF ends at exactly 1.
    """
    cdf = cum[index]
    cdf[: index.searchsorted(0)] = 0.0
    cdf /= cum[-1]
    return cdf


def cdf_distance_1d(u: DiscreteDistribution, v: DiscreteDistribution, scale: int = 0) -> float:
    """Sum of |U - V| times the gap between consecutive merged positions.

    The distance between ``u`` and ``v`` normalized, on points scaled by
    2^-scale: ``merged_support`` applies both, so the caller passes the
    distributions as validated.

    The support is this call's own, so the tail is computed in place:
    |U - V| goes into its ``u_cdf`` buffer and the gaps into its ``v_cdf``
    buffer, with no temporaries. The elementwise operations are those of
    ``np.abs(U - V) * np.diff(positions)``, and the sum runs on a
    contiguous array of the same length, so the sum is the same bit for bit.

    The gaps must be finite: where two positions lie more than the float
    maximum apart, the gap is ``inf`` and a zero CDF difference times it is
    ``nan``. ``wasserstein_distance`` passes the power of two that makes
    every gap finite as ``scale``.
    """
    ms = merged_support(u, v, scale)
    gap, width = ms.u_cdf[:-1], ms.v_cdf[:-1]
    gap -= width
    np.abs(gap, out=gap)
    np.subtract(ms.positions[1:], ms.positions[:-1], out=width)
    gap *= width
    return float(gap.sum())


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
