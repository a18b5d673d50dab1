"""Top-level distance entry point with path dispatch and special-value handling."""

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .cdf1d import cdf_distance_1d, monotone_coupling
from .distributions import (
    Finiteness, as_float_array, classify_finiteness, merge_duplicates, normalize, validate,
)
from .errors import DimensionMismatchError, ShapeError
from .geometry import pairwise_costs
from .simplex import solve
from .transport_lp import TransportPlan, build_problem, solution_distance

__all__ = ["DistanceResult", "wasserstein_distance"]


@dataclass(frozen=True)
class DistanceResult:
    """Outcome of a distance computation.

    Read the value from ``distance``: the result itself does not convert to
    float. ``distance`` is a non-negative float, ``inf``, or ``nan``;
    ``finiteness`` states which of those cases holds explicitly, so
    undefined results never hide behind a quiet NaN. It is a read-only
    property computed from ``distance``, not a field, so ``FINITE`` is never
    paired with ``inf`` or ``nan``.
    ``plan`` is attached only when requested and the distance is finite;
    it always indexes the input points. ``iterations`` counts the simplex
    pivots, 0 on the CDF path; the LP solves only the residual problem
    between distinct points (see ``wasserstein_distance``), so they are the
    pivots of that problem, and 0 when it has nothing to move.
    """

    distance: float
    path: str  # "cdf1d" or "lp"
    iterations: int
    wall_time_ns: int
    plan: TransportPlan = None

    @property
    def finiteness(self) -> Finiteness:
        if math.isfinite(self.distance):
            return Finiteness.FINITE
        return Finiteness.INFINITE if math.isinf(self.distance) else Finiteness.UNDEFINED


def wasserstein_distance(
    u_values,
    v_values,
    u_weights=None,
    v_weights=None,
    want_plan: bool = False,
) -> DistanceResult:
    """First Wasserstein distance between two discrete weighted point sets.

    Parameters
    ----------
    u_values, v_values : array_like
        Observations or support points. A 1D array is a sample from a
        one-dimensional distribution; a 2D array holds one vector observation
        per row.
    u_weights, v_weights : array_like, optional
        Weights or counts for each observation. If unspecified, every
        observation gets the same weight. Weights must be non-negative with a
        positive finite sum; each side is scaled to total mass one before the
        distance is computed.
    want_plan : bool, optional
        Attach the optimal plan, only for finite distances: a ``TransportPlan``
        whose entry k moves ``mass[k]`` from u point ``rows[k]`` to v point
        ``cols[k]``, indices of the input points. On the 1D path it is the
        monotone coupling of the quantile form, cut from the order and the
        running sum of the one sort of each side that the distance makes, so
        a point of zero weight gets no flow. On the LP path, the residual
        plan (see Returns) plus one entry per point that both sides hold,
        which keeps the shared mass in place, is split among the points'
        copies of positive weight, in input order, so the plan still has at
        most n + m - 1 entries and a point of zero weight gets no flow.

    Returns
    -------
    DistanceResult
        Distance plus diagnostics. Two genuinely one-dimensional (flat)
        inputs are solved in closed form through the CDF gap integral;
        anything else goes through the built-in transportation simplex. The
        simplex solves only the residual problem: identical rows of both
        sides are merged into one point, where each side holds the summed
        weight of its copies; the mass both sides hold there stays in place,
        which changes no distance (Kantorovich-Rubinstein), and the points
        where u holds more send to those where v holds more; points where
        both hold the same, zero-weight points among them, take no part in
        the LP. ``iterations`` counts the pivots of that problem. When u
        holds more at no point, or v at none (both hold equal weights at
        every point), nothing is solved, and the distance is exactly 0.
        NaN coordinates make the distance undefined (``nan``); infinite
        coordinates on exactly one side make it ``inf``. With infinities on
        both sides, 2D input is undefined, and flat input, as in SciPy's 1D
        ``wasserstein_distance``, is undefined only where both sides hold
        the same infinity, sign and all, and ``inf`` otherwise.

    Examples
    --------
    >>> wasserstein_distance([0, 1, 3], [5, 6, 8]).distance
    5.0
    >>> wasserstein_distance([0, 1], [0, 1], [3, 1], [2, 2]).distance
    0.25
    >>> plan = wasserstein_distance([0, 1], [0, 1], [3, 1], [2, 2], want_plan=True).plan
    >>> plan.rows, plan.cols, plan.mass
    (array([0, 0, 1]), array([0, 1, 1]), array([0.5 , 0.25, 0.25]))
    """
    started = time.perf_counter_ns()

    u_points = as_float_array(u_values, ShapeError, "u_values")
    v_points = as_float_array(v_values, ShapeError, "v_values")
    flat_inputs = u_points.ndim == 1 and v_points.ndim == 1
    u_dist = validate(u_points, u_weights)
    v_dist = validate(v_points, v_weights)
    if u_dist.dim != v_dist.dim:
        raise DimensionMismatchError(
            f"u has dimension {u_dist.dim} but v has dimension {v_dist.dim}"
        )

    path = "cdf1d" if flat_inputs else "lp"
    plan, iterations = None, 0
    special = classify_finiteness(u_dist, v_dist, flat_inputs)
    if special is not Finiteness.FINITE:
        distance = math.inf if special is Finiteness.INFINITE else math.nan
    else:
        # both paths run on points scaled by the power of two that puts the
        # largest |coordinate| just below 2^(1023 - h), h = 1 + ceil(log2(d) / 2):
        # a cost, or in 1D a merged gap, is at most 2 sqrt(d) <= 2^h times it,
        # so none overflows, small coordinates keep all the range below, and
        # every power-of-two rescaling of the input gives the same problem
        _, top = math.frexp(max(max(d.points.max(), -d.points.min()) for d in (u_dist, v_dist)))
        scale = top - 1022 + math.ceil(math.log2(u_dist.dim) / 2)
        if flat_inputs:
            # the 1D distance scales and normalizes the sorted copies it makes
            # anyway, so the sides go in as validated, with no copy to scale
            # or normalize; the plan couples each side's order and running
            # sum from that same sort
            sorts = [] if want_plan else None
            distance = cdf_distance_1d(u_dist, v_dist, scale, sorts)
            if want_plan:
                plan = TransportPlan(u_dist.size, v_dist.size, *monotone_coupling(*sorts[0], *sorts[1]))
        else:
            u_dist = _scaled(u_dist, scale)
            v_dist = _scaled(v_dist, scale)
            # with a metric cost, W1 depends on u - v alone (Kantorovich-Rubinstein;
            # Villani, Topics in Optimal Transportation, 2003, ch. 1): some
            # optimal plan keeps min(a, b) in place at every point where u holds
            # a and v holds b. So the rows of both sides are grouped at once,
            # on the scaled points the costs see, each side's mass is summed
            # over that one map in input order, and the LP solves only the
            # residual problem: the points where u holds more are the sources,
            # those where v holds more the sinks, and a point where both hold
            # the same, zero-weight points included, takes no part.
            # u's points are the first grouped points, in order of first
            # occurrence, so with no shared point the problem is that of the
            # two sides merged apart, less their zero-weight points, bit for bit
            n = u_dist.size
            points, group = merge_duplicates(np.concatenate([u_dist.points, v_dist.points]))
            u_mass = np.bincount(group[:n], u_dist.weights, len(points))
            v_mass = np.bincount(group[n:], v_dist.weights, len(points))
            held, net = np.minimum(u_mass, v_mass), u_mass - v_mass
            rows, cols = np.flatnonzero(net > 0.0), np.flatnonzero(net < 0.0)
            supply, demand = net[rows], -net[cols]
            totals = supply.sum(), demand.sum()
            if min(totals) > 0.0:
                if held.any():
                    # where mass cancelled, the residual totals agree only to
                    # the rounding of the full problem, far less closely than
                    # build_problem asks of small totals: the smaller is scaled
                    # to the larger, which moves the distance by that imbalance
                    # times a cost, the full problem's rounding level
                    larger = max(totals)
                    supply, demand = supply * (larger / totals[0]), demand * (larger / totals[1])
                costs = pairwise_costs(replace(u_dist, points=points[rows], weights=supply),
                                       replace(v_dist, points=points[cols], weights=demand))
                # solve on costs in [0.5, 1), scaled by a power of two so that no
                # cost is rounded: the solver's tolerances follow any cost scale,
                # but its potentials are bounded only by measurement (the
                # OPTIMALITY_TOL comment), and costs near 2^1022 would leave them
                # about one bit of headroom. The point scale cannot take this
                # over: beside a coordinate near 2^998, differences of a few
                # 2^-1074 give subnormal costs, and potentials summed from
                # them round on the subnormal grid, far coarser than the
                # tolerances at that cost scale
                _, exponent = math.frexp(float(costs.max()))
                np.ldexp(costs, -exponent, out=costs)
                solution = solve(build_problem(costs, supply, demand))
                distance = max(0.0, solution_distance(solution))
                scale += exponent
                iterations, moved = solution.iterations, solution.plan
            else:
                # one side holds no net mass: all of it stays in place
                distance, moved = 0.0, TransportPlan(0, 0, rows[:0], cols[:0], supply[:0])
            if want_plan:
                # with nothing merged, the sources and sinks are the input
                # points of positive weight themselves
                if len(points) == group.size:
                    plan = TransportPlan(n, v_dist.size, rows[moved.rows], cols[moved.cols] - n, moved.mass)
                else:
                    plan = _split_plan(moved, rows, cols, held, u_dist.weights, group[:n],
                                       v_dist.weights, group[n:])
        # past the float maximum the distance reads inf; math.ldexp would raise
        with np.errstate(over="ignore"):
            distance = float(np.ldexp(distance, scale))

    # finite coordinates can still overflow, e.g. [-1e308] against [1e308]:
    # an inf or nan distance has no plan
    if not (want_plan and math.isfinite(distance)):
        plan = None
    return DistanceResult(distance, path, iterations, time.perf_counter_ns() - started, plan)


def _scaled(dist, scale):
    """``dist`` normalized to total mass one, on its points scaled by 2^-scale.

    The LP path's one place that normalizes weights; the 1D path, distance
    and plan, divides each side's sorted weights by the same total, in
    ``cdf1d._sort_side``.
    """
    return replace(normalize(dist), points=np.ldexp(dist.points, -scale))


def _split_plan(moved, rows, cols, held, u_weights, u_group, v_weights, v_group):
    """The plan over the input points, from the residual plan ``moved`` and the mass ``held``.

    ``moved`` indexes the residual sources ``rows`` and sinks ``cols``, which
    are merged points; ``held[p]`` is the mass kept in place at merged point
    p. ``u_group`` and ``v_group`` are the u and v parts of the one group map
    over both sides' rows: the merged point of each input point. The plan
    over the merged points, ``moved`` plus one entry per point that holds
    mass, is split among the members of its merged points, rows first, then
    columns (``_split``), so a basic plan becomes one of at most n + m - 1
    entries, and a point of zero weight gets no flow. Entries come in
    row-major order.
    """
    kept = np.flatnonzero(held)
    entry, rows, mass = _split(
        np.concatenate([rows[moved.rows], kept]), np.concatenate([moved.mass, held[kept]]),
        u_group, u_weights,
    )
    entry, cols, mass = _split(np.concatenate([cols[moved.cols], kept])[entry], mass, v_group, v_weights)
    rows = rows[entry]
    order = np.lexsort((cols, rows))
    return TransportPlan(u_weights.size, v_weights.size, rows[order], cols[order], mass[order])


def _split(owner, mass, group, weights):
    """North-west corner split of plan entries among the members of their merged point.

    Entry k carries ``mass[k]`` at merged point ``owner[k]``; ``group[x]``
    is the merged point of input point x. A merged point's members are its
    input points of positive weight, in input order. The merged points are
    laid one after another on one mass axis, in index order, and each one's
    stretch is anchored here: its entries hold consecutive intervals, in plan
    order, and its members end at their running weights, capped at the
    stretch's end, which the last member reaches, so it takes the remainder.
    The shared rule ``monotone_coupling`` cuts the pieces; each lies in one
    entry and one member and moves its width there. Returns (entry, member,
    mass) arrays, one element per piece.
    """
    order = np.argsort(owner, kind="stable")
    owners = owner[order]
    ends = np.concatenate([[0.0], np.cumsum(mass[order])])
    members = np.argsort(group, kind="stable")
    members = members[weights[members] > 0.0]
    at = group[members]
    # the stretch of each member's merged point, and the member's running
    # weight within it
    start = ends[np.searchsorted(owners, at)]
    end = ends[np.searchsorted(owners, at, "right")]
    running = np.concatenate([[0.0], np.cumsum(weights[members])])
    within = running[1:] - running[np.searchsorted(at, at)]
    last = np.append(at[1:] != at[:-1], True)
    cuts = np.where(last, end, np.minimum(start + within, end))
    return monotone_coupling(order, ends[1:], members, cuts)
