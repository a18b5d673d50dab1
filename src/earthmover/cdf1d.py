"""Closed-form one-dimensional distance via the CDF gap integral.

For step CDFs U and V the first-order distance is the integral of |U - V|
over the line, which reduces to a finite sum over consecutive positions of
the merged support. ``merged_support`` builds that support from each
side's own running sum: a side is sorted once, stably, by sorting packed
integer keys (``_stable_sort``), its weights are replaced by their running
sum, and its ties are merged to the last point of each run.
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
    That count is the running count of the slots the side holds, read at
    the last slot of each run of tied positions.

    This is bit for bit the running sum of each side's weights laid into
    its own slots of all n + m sorted points, zeros in the other side's, and
    read at the end of each run of ties: adding 0.0 is exact, so that sum at
    any slot equals the side's own running sum up to its last point at or
    before it. Both forms sum a tie's weights in input order (-0.0 and 0.0
    tie), divide by the same total, and take each merged
    position from the last point of its run of ties, so even the sign of a
    zero position is kept. The one difference is the sign of a zero CDF
    value after weights of -0.0, which |U - V| does not see.
    """
    u_positions, u_cum = _sort_side(u, scale)
    v_positions, v_cum = _sort_side(v, scale)
    positions = np.concatenate([u_positions, v_positions])
    # each array is dropped once it is used up, and each CDF is read into
    # its count's buffer, so a call holds little more than its outputs. Its
    # peak is v's sort beside u's outputs, or here the merge's argsort or
    # a count, beside the positions, each side's running sum or CDF, and a
    # flag per slot
    del u_positions, v_positions
    from_u = positions.argsort(kind="stable") < u_cum.size
    positions.sort(kind="stable")
    last = _run_ends(positions)
    positions = positions[last]
    u_cdf = _cdf_at(u_cum, _counted(from_u, last))
    del u_cum
    # v holds the slots that u does not
    np.logical_not(from_u, out=from_u)
    return MergedSupport(positions, u_cdf, _cdf_at(v_cum, _counted(from_u, last)))


def _counted(flags: np.ndarray, last) -> np.ndarray:
    """One less than the count of set ``flags`` up to and including each slot, read at ``last``.

    The count is an intp copy of the flags summed in place: a cumsum of the
    bool flags would convert them into a second intp array first.
    """
    index = flags.astype(np.intp)
    index.cumsum(out=index)
    index -= 1
    return index[last]


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

    The order is ``np.argsort(column, kind="stable")``, from ``_stable_sort``:
    a tie's weights are summed in input order, on every CPU and NumPy
    version, and -0.0 ties with 0.0, as ``==`` has it. A side without ties
    reads the same bits in any order.
    """
    column = dist.points[:, 0]
    if scale > 0:
        column, scale = np.ldexp(column, -scale), 0
    order, positions = _stable_sort(column)
    np.ldexp(positions, -scale, out=positions)
    # the order is used up by this take, so the weights go into its buffer;
    # every index is in range, and "clip" lets NumPy write it in place
    cum = np.take(dist.weights, order, out=order.view(np.float64), mode="clip")
    cum /= dist.weights.sum()
    cum.cumsum(out=cum)
    last = _run_ends(positions)
    return positions[last], cum[last]


def _run_ends(positions: np.ndarray):
    """An index of the last slot of each run of equal sorted ``positions``.

    A bool mask, or all slots as a slice where no two positions are equal,
    so that indexing by it copies nothing.
    """
    last = np.ones(positions.size, bool)
    np.not_equal(positions[1:], positions[:-1], out=last[:-1])
    return slice(None) if last.all() else last


def _stable_sort(column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.argsort(column, kind="stable")`` and ``column`` in that order, from sorts of integers.

    Each value becomes an integer key in value order (``_order_keys``), and
    ``_packed_sort`` sorts the keys with the input index packed below them.
    All packed keys differ, so every sort kernel puts them in the same
    order, and equal values come out in input order. -0.0 and 0.0 compare
    equal but have keys apart, so the run of zeros is put in input order
    last. The values must not be NaN.
    """
    order, ordered = _packed_sort(_order_keys(column), column)
    zeros = slice(ordered.searchsorted(0.0), ordered.searchsorted(0.0, side="right"))
    order[zeros].sort()
    ordered[zeros] = column[order[zeros]]
    return order, ordered


def _order_keys(values: np.ndarray) -> np.ndarray:
    """int64 keys in the order of the float64 ``values``: their bits, all but the sign flipped where it is set.

    A negative value's key is -1 less its magnitude's bits, so -0.0 takes
    -1, just below 0.0's key 0.
    """
    bits = values.view(np.int64)
    keys = bits >> 63
    keys &= np.int64(2**63 - 1)
    keys ^= bits
    return keys


def _key_values(keys: np.ndarray) -> np.ndarray:
    """The float64 values whose ``_order_keys`` are the int64 ``keys``: that map undoes itself."""
    return _order_keys(keys.view(np.float64)).view(np.float64)


def _packed_sort(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stable order of int64 ``keys``, and ``values`` in that order; ``keys`` is overwritten.

    ``values`` compare as ``keys`` do, but for -0.0 and 0.0, which
    ``_stable_sort`` sets right after. A key less the smallest, its offset,
    is sorted above the input index (``_index_order``), less only as many
    of its low bits as leave room for the index. Where bits were dropped,
    distinct keys can share a bucket (an offset less its dropped bits),
    which comes out in input order, not key order: the buckets that hold a
    descent are sorted again, all at once, by ``_two_pass_order``. Where a
    sample of the side already shares buckets between distinct keys, most
    of the side would, so the whole side is sorted by ``_two_pass_order``
    instead. No sort is of floats, so the order does not depend on the
    kernel. Up to 2^32 values.
    """
    width = (keys.size - 1).bit_length()
    low, high = int(keys.min()), int(keys.max())
    drop = np.uint64(max(0, (high - low).bit_length() + width - 64))
    offset = keys.view(np.uint64)
    offset -= np.uint64(low % 2**64)
    if drop:
        sample = np.sort(offset[:: max(1, offset.size // 1024)])
        bucket = sample >> drop
        if ((bucket[1:] == bucket[:-1]) & (sample[1:] != sample[:-1])).any():
            order = _two_pass_order(offset, drop)
            return order, values.take(order)
    offset >>= drop
    order = _index_order(offset)
    ordered = values.take(order)
    if not drop:
        return order, ordered
    descents = np.flatnonzero(ordered[1:] < ordered[:-1])
    if descents.size:
        # the slots of each bucket that holds a descent, from the keys there
        # alone: the buckets are in order, so searchsorting the values of a
        # bucket's first and last key into ``ordered`` finds its ends. Where
        # -0.0 and 0.0, which compare equal, end one bucket and start the
        # next, the search for either can stop inside the other bucket, but
        # only if that one holds a descent too: each range starts where the
        # one before stops, so the two cover both buckets once, as the
        # ranges of a bucket with several descents cover it once. A key less
        # ``low`` can wrap in int64, and adding ``low`` back wraps it back
        step = 1 << int(drop)
        first = _order_keys(ordered[descents]) - low
        first &= -step
        first += low
        start = ordered.searchsorted(_key_values(first))
        stop = ordered.searchsorted(_key_values(np.minimum(first + (step - 1), high)), side="right")
        start[1:] = np.maximum(start[1:], stop[:-1])
        size = stop - start
        slots = np.arange(size.sum())
        slots += np.repeat(start - size.cumsum() + size, size)
        offset = _order_keys(ordered[slots]).view(np.uint64)
        offset -= np.uint64(low % 2**64)
        moved = slots[_two_pass_order(offset, drop)]
        ordered[slots] = ordered[moved]
        order[slots] = order[moved]
    return order, ordered


def _two_pass_order(offset: np.ndarray, drop: np.uint64) -> np.ndarray:
    """``np.argsort(offset, kind="stable")`` of uint64 ``offset``, from two index sorts.

    The first sorts by the low ``drop`` bits, the second by the others, in
    the first's order, so that its ties keep it. ``offset`` lies below
    2^(64 - w + drop), with ``drop`` at most w and w from the width of an
    index into ``offset`` up to 32, so both keys leave room for the index.
    """
    first = _index_order(offset & (np.uint64(2**int(drop)) - np.uint64(1)))
    high = offset[first]
    high >>= drop
    return first[_index_order(high)]


def _index_order(keys: np.ndarray) -> np.ndarray:
    """The stable order of uint64 ``keys``, each with room for the index below it; ``keys`` is overwritten.

    One sort of each key above its index: all differ, so every sort kernel
    puts them in the same order, and equal keys in input order.
    """
    width = np.uint64((keys.size - 1).bit_length())
    keys <<= width
    keys |= np.arange(keys.size, dtype=np.uint64)
    keys.sort()
    keys &= (np.uint64(1) << width) - np.uint64(1)
    return keys.view(np.int64)


def _cdf_at(cum: np.ndarray, index: np.ndarray) -> np.ndarray:
    """A side's CDF read at each ``index`` of its running sum ``cum``, divided by its total, into ``index``'s buffer.

    ``index`` is non-decreasing, one less than the count of the side's
    points at or before each merged position, so it is -1 before the first
    point, where the CDF is 0. The total is the last running sum, so the
    CDF ends at exactly 1.
    """
    before = index.searchsorted(0)
    cdf = np.take(cum, index, out=index.view(np.float64), mode="clip")
    cdf[:before] = 0.0
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
    u_order = _stable_sort(u.points[:, 0])[0]
    v_order = _stable_sort(v.points[:, 0])[0]
    u_cum = np.cumsum(u.weights[u_order])
    v_cum = np.cumsum(v.weights[v_order])
    return TransportPlan(u.size, v.size, *monotone_coupling(u_order, u_cum, v_order, v_cum))
