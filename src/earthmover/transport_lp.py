"""Transportation problem encoding and solution decoding.

The discrete transport problem between weighted point sets is the equality
linear program

    minimize    sum_ij cost[i, j] * flow[i, j]
    subject to  sum_j flow[i, j] = supply[i]     for every source i
                sum_i flow[i, j] = demand[j]     for every target j
                flow >= 0

The solver consumes the structured (cost, supply, demand) triple directly.
The dense 0/1 constraint matrix of the same program, which a general LP solver
would need, and the dense n x m form of a plan live in the tests, where they
serve as oracles.
"""

import math
from dataclasses import dataclass

import numpy as np

from .distributions import as_float_array
from .errors import DualityGapError, MassMismatchError, ShapeError, ValidationError

__all__ = [
    "TransportProblem",
    "TransportPlan",
    "TransportSolution",
    "build_problem",
    "solution_distance",
]

# relative to the smaller marginal total (build_problem)
MASS_BALANCE_TOL = 1e-10
# relative to 2^e, e the exponent of the largest |cost|, times the supply
# total (solution_distance)
DUALITY_GAP_TOL = 1e-8


@dataclass(frozen=True)
class TransportProblem:
    """Balanced transport instance: n x m costs, marginals > 0 with equal totals.

    The totals may be any positive size, not only 1. ``build_problem``
    checks all of this and that the costs are finite.
    """

    cost: np.ndarray
    supply: np.ndarray
    demand: np.ndarray

    def tolerance(self, tol: float) -> float:
        """``tol`` times 2^e, e the ``math.frexp`` exponent of the largest |cost|.

        The solver's tolerances are relative to the cost scale, so a problem
        scaled by a power of two is solved the same way, only scaled.
        """
        return math.ldexp(tol, math.frexp(max(-self.cost.min(), self.cost.max()))[1])


@dataclass(frozen=True)
class TransportPlan:
    """Sparse plan in three arrays: ``mass[k] > 0`` moves from ``rows[k]`` to ``cols[k]``."""

    n_sources: int
    n_targets: int
    rows: np.ndarray
    cols: np.ndarray
    mass: np.ndarray

    def source_marginals(self) -> np.ndarray:
        return np.bincount(self.rows, weights=self.mass, minlength=self.n_sources)

    def target_marginals(self) -> np.ndarray:
        return np.bincount(self.cols, weights=self.mass, minlength=self.n_targets)

    def cost(self, cost_matrix: np.ndarray) -> float:
        return float(self.mass @ cost_matrix[self.rows, self.cols])


@dataclass(frozen=True)
class TransportSolution:
    """Optimal plan with dual potentials and diagnostics."""

    problem: TransportProblem
    plan: TransportPlan
    dual: np.ndarray  # length n+m, rows first, 0 at source 0
    objective: float
    iterations: int


def build_problem(cost: np.ndarray, supply, demand) -> TransportProblem:
    """Assemble a balanced instance from finite costs and flat marginals > 0.

    Every marginal entry must be positive: the solver's anti-cycling rule
    needs it, so a point of zero mass is left out by the caller. The totals,
    positive, must agree to ``MASS_BALANCE_TOL`` times the smaller of them,
    so marginals of any scale balance alike. Raises ShapeError for
    a cost or marginal that is not real numbers or a marginal that is not
    flat, ValidationError for a cost that is not finite, and
    MassMismatchError for shapes or totals that do not match.
    """
    cost = as_float_array(cost, ShapeError, "cost")
    supply = as_float_array(supply, ShapeError, "supply")
    demand = as_float_array(demand, ShapeError, "demand")
    if supply.ndim != 1 or demand.ndim != 1:
        raise ShapeError(f"marginals must be flat, not of shapes {supply.shape} and {demand.shape}")
    if cost.shape != (supply.shape[0], demand.shape[0]):
        raise MassMismatchError(
            f"cost shape {cost.shape} does not match marginals "
            f"({supply.shape[0]}, {demand.shape[0]})"
        )
    if not np.isfinite(cost).all():
        raise ValidationError("costs must be finite")
    # a total past the float maximum is inf, which the balance check rejects
    with np.errstate(over="ignore"):
        totals = float(supply.sum()), float(demand.sum())
    # the total check is what rejects empty marginals
    if not ((supply > 0.0).all() and (demand > 0.0).all() and min(totals) > 0.0):
        raise MassMismatchError("marginal entries must be positive, with a positive total")
    # relative to the smaller total: with the larger one, an inf total would
    # pass as inf * tol
    gap, limit = abs(totals[0] - totals[1]), MASS_BALANCE_TOL * min(totals)
    if not gap <= limit:
        raise MassMismatchError(f"marginal totals differ by {gap:.3e} (limit {limit:.3e})")
    return TransportProblem(cost, supply, demand)


def solution_distance(solution: TransportSolution) -> float:
    """Distance read off the dual: [supply; demand] . dual, checked against the primal objective.

    The two may differ by at most ``DUALITY_GAP_TOL`` times 2^e times the
    supply total, e the ``math.frexp`` exponent of the largest |cost|
    (``TransportProblem.tolerance``): relative to the cost scale and to the
    mass.
    """
    problem = solution.problem
    value = float(np.concatenate([problem.supply, problem.demand]) @ solution.dual)
    gap = abs(value - solution.objective)
    if not gap <= problem.tolerance(DUALITY_GAP_TOL) * float(problem.supply.sum()):
        raise DualityGapError(
            f"dual value {value!r} and primal objective {solution.objective!r} "
            f"disagree by {gap:.3e}"
        )
    return value
