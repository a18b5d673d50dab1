"""Top-level distance entry point with path dispatch and special-value handling."""

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .cdf1d import cdf_distance_1d, greedy_plan_1d
from .distributions import Finiteness, classify_finiteness, normalize, validate
from .errors import DimensionMismatchError, ShapeError
from .geometry import pairwise_costs
from .simplex import solve
from .transport_lp import TransportPlan, build_problem, solution_distance

__all__ = ["DistanceResult", "wasserstein_distance"]

PATH_CDF1D = "cdf1d"
PATH_LP = "lp"


@dataclass(frozen=True)
class DistanceResult:
    """Outcome of a distance computation.

    ``distance`` is a non-negative float, ``inf``, or ``nan``; ``finiteness``
    states which of those cases holds explicitly, so undefined results never
    hide behind a quiet NaN. ``plan`` is attached only when requested and the
    distance is finite.
    """

    distance: float
    finiteness: Finiteness
    path: str  # "cdf1d" or "lp"
    iterations: int
    wall_time_ns: int
    plan: TransportPlan = None

    def __float__(self):
        return self.distance


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
        positive finite sum; they are normalized to total mass one before the
        distance is computed.
    want_plan : bool, optional
        Attach the optimal plan, only for finite distances: a ``TransportPlan``
        whose entry k moves ``mass[k]`` from u point ``rows[k]`` to v point
        ``cols[k]``, built on the 1D path from the quantile form.

    Returns
    -------
    DistanceResult
        Distance plus diagnostics. Two genuinely one-dimensional (flat)
        inputs are solved in closed form through the CDF gap integral;
        anything else goes through the built-in transportation simplex.
        NaN coordinates make the distance undefined (``nan``); infinite
        coordinates on exactly one side make it ``inf``, on both sides
        undefined.

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

    u_points = _as_points(u_values, "u_values")
    v_points = _as_points(v_values, "v_values")
    flat_inputs = u_points.ndim == 1 and v_points.ndim == 1
    u_dist = validate(u_points, u_weights)
    v_dist = validate(v_points, v_weights)
    if u_dist.dim != v_dist.dim:
        raise DimensionMismatchError(
            f"u has dimension {u_dist.dim} but v has dimension {v_dist.dim}"
        )

    path = PATH_CDF1D if flat_inputs else PATH_LP
    finiteness = classify_finiteness(u_dist, v_dist)
    if finiteness is not Finiteness.FINITE:
        value = float("inf") if finiteness is Finiteness.INFINITE else float("nan")
        return DistanceResult(
            value, finiteness, path, 0, time.perf_counter_ns() - started
        )

    u_dist = normalize(u_dist)
    v_dist = normalize(v_dist)

    if path == PATH_CDF1D:
        distance = cdf_distance_1d(u_dist, v_dist)
        plan = greedy_plan_1d(u_dist, v_dist) if want_plan else None
        iterations = 0
    else:
        # a cost is at most 2 sqrt(d) <= 2^shift times the largest |coordinate|;
        # where that could overflow, costs come from points scaled by 2^-shift
        shift = 1 + math.ceil(math.log2(u_dist.dim) / 2)
        if math.frexp(max(np.abs(d.points).max() for d in (u_dist, v_dist)))[1] + shift > 1023:
            u_dist = replace(u_dist, points=np.ldexp(u_dist.points, -shift))
            v_dist = replace(v_dist, points=np.ldexp(v_dist.points, -shift))
        else:
            shift = 0
        costs = pairwise_costs(u_dist, v_dist)
        # the solver's tolerances are absolute: solve on costs in [0.5, 1),
        # scaled by a power of two so that no cost is rounded
        _, exponent = math.frexp(float(costs.max()))
        problem = build_problem(np.ldexp(costs, -exponent), u_dist.weights, v_dist.weights)
        solution = solve(problem)
        # the product by 2.0**shift overflows to inf; math.ldexp would raise
        distance = math.ldexp(max(0.0, solution_distance(solution)), exponent) * 2.0**shift
        plan = solution.plan if want_plan else None
        iterations = solution.iterations

    # finite coordinates can still overflow, e.g. [-1e308] against [1e308]
    if not math.isfinite(distance):
        finiteness = Finiteness.INFINITE if math.isinf(distance) else Finiteness.UNDEFINED
        plan = None
    return DistanceResult(
        distance,
        finiteness,
        path,
        iterations,
        time.perf_counter_ns() - started,
        plan,
    )


def _as_points(values, name):
    try:
        return np.asarray(values, dtype=np.float64)
    except (ValueError, TypeError) as exc:
        raise ShapeError(f"{name} is not a numeric array: {exc}") from None
