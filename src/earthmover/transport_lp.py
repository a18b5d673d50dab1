"""Transportation problem encoding and solution decoding.

The discrete transport problem between weighted point sets is the equality
linear program

    minimize    sum_ij cost[i, j] * flow[i, j]
    subject to  sum_j flow[i, j] = supply[i]     for every source i
                sum_i flow[i, j] = demand[j]     for every target j
                flow >= 0

The solver consumes the structured (cost, supply, demand) triple directly.
The dense 0/1 constraint matrix of the same program, which a general LP solver
would need, lives in the tests, where it serves as an oracle.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DualityGapError, MassMismatchError

__all__ = [
    "TransportProblem",
    "TransportPlan",
    "TransportSolution",
    "build_problem",
    "solution_distance",
]

MASS_BALANCE_TOL = 1e-10
DUALITY_GAP_TOL = 1e-8


@dataclass(frozen=True)
class TransportProblem:
    """Balanced transport instance: n x m costs, unit-mass marginals."""

    cost: np.ndarray
    supply: np.ndarray
    demand: np.ndarray

    @property
    def n_sources(self) -> int:
        return self.cost.shape[0]

    @property
    def n_targets(self) -> int:
        return self.cost.shape[1]

    def rhs(self) -> np.ndarray:
        """Stacked [supply; demand] right-hand side."""
        return np.concatenate([self.supply, self.demand])


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

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n_sources, self.n_targets))
        np.add.at(out, (self.rows, self.cols), self.mass)
        return out

    def cost(self, cost_matrix: np.ndarray) -> float:
        return float(self.mass @ cost_matrix[self.rows, self.cols])


@dataclass(frozen=True)
class TransportSolution:
    """Optimal plan with dual potentials and diagnostics."""

    problem: TransportProblem
    plan: TransportPlan
    dual: np.ndarray  # length n+m, rows first, 0 at the first source with mass
    objective: float
    iterations: int


def build_problem(cost: np.ndarray, supply, demand) -> TransportProblem:
    """Assemble a balanced instance: marginals >= 0 whose positive totals agree to 1e-10."""
    cost = np.asarray(cost, dtype=np.float64)
    supply = np.asarray(supply, dtype=np.float64)
    demand = np.asarray(demand, dtype=np.float64)
    if cost.shape != (supply.shape[0], demand.shape[0]):
        raise MassMismatchError(
            f"cost shape {cost.shape} does not match marginals "
            f"({supply.shape[0]}, {demand.shape[0]})"
        )
    totals = float(supply.sum()), float(demand.sum())
    if not ((supply >= 0.0).all() and (demand >= 0.0).all() and min(totals) > 0.0):
        raise MassMismatchError("marginals must be non-negative with a positive total")
    gap = abs(totals[0] - totals[1])
    if not gap <= MASS_BALANCE_TOL:
        raise MassMismatchError(
            f"marginal totals differ by {gap:.3e} (limit {MASS_BALANCE_TOL:.0e})"
        )
    return TransportProblem(cost, supply, demand)


def solution_distance(solution: TransportSolution) -> float:
    """Distance read off the dual: rhs . dual, checked against the primal objective."""
    value = float(solution.problem.rhs() @ solution.dual)
    gap = abs(value - solution.objective)
    if not gap <= DUALITY_GAP_TOL:
        raise DualityGapError(
            f"dual value {value!r} and primal objective {solution.objective!r} "
            f"disagree by {gap:.3e}"
        )
    return value
