"""LP encoding: the dense constraint oracle, plan bookkeeping, dual decoding."""

import dataclasses

import numpy as np
import pytest
from scipy.optimize import linprog

from earthmover.distributions import normalize, validate
from earthmover.errors import DualityGapError, MassMismatchError
from earthmover.geometry import pairwise_costs
from earthmover.simplex import solve
from earthmover.transport_lp import (
    TransportPlan,
    build_problem,
    solution_distance,
)


def materialize_constraints(problem):
    """Dense 0/1 equality constraints and right-hand side of ``problem``.

    Variables are flattened row-major, x[k] = flow[i, j] with k = i*m + j.
    Row i < n selects the contiguous block of m variables for source i; row
    n + j selects every m-th variable starting at j for target j. Each column
    holds exactly two ones.
    """
    n, m = problem.n_sources, problem.n_targets
    A = np.zeros((n + m, n * m))
    for i in range(n):
        A[i, i * m:(i + 1) * m] = 1.0
    for j in range(m):
        A[n + j, j::m] = 1.0
    return A, problem.rhs()


def rank_by_elimination(matrix):
    """Row-echelon rank with partial pivoting; independent of SVD-based ranks."""
    work = np.array(matrix, dtype=float)
    n_rows = work.shape[0]
    rank = 0
    for col in range(work.shape[1]):
        if rank == n_rows:
            break
        pivot = rank + int(np.argmax(np.abs(work[rank:, col])))
        if abs(work[pivot, col]) < 1e-9:
            continue
        work[[rank, pivot]] = work[[pivot, rank]]
        work[rank] /= work[rank, col]
        for row in range(n_rows):
            if row != rank:
                work[row] -= work[row, col] * work[rank]
        rank += 1
    return rank


def random_problem(rng, n, m, dim=2):
    u = normalize(validate(rng.normal(size=(n, dim)), rng.random(n) + 0.01))
    v = normalize(validate(rng.normal(size=(m, dim)), rng.random(m) + 0.01))
    return build_problem(pairwise_costs(u, v), u.weights, v.weights)


class TestBuildProblem:
    def test_two_by_two_materialization(self):
        problem = build_problem(np.ones((2, 2)), [0.75, 0.25], [0.5, 0.5])
        A, b = materialize_constraints(problem)
        np.testing.assert_array_equal(
            A, [[1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0], [0, 1, 0, 1]]
        )
        np.testing.assert_array_equal(b, [0.75, 0.25, 0.5, 0.5])

    def test_single_source(self):
        problem = build_problem(np.ones((1, 3)), [1.0], [0.2, 0.3, 0.5])
        A, _ = materialize_constraints(problem)
        np.testing.assert_array_equal(A, [[1, 1, 1], [1, 0, 0], [0, 1, 0], [0, 0, 1]])

    def test_rank_is_rows_minus_one(self):
        problem = build_problem(np.ones((3, 2)), [0.2, 0.3, 0.5], [0.4, 0.6])
        A, _ = materialize_constraints(problem)
        assert A.shape == (5, 6)
        assert rank_by_elimination(A) == 4

    def test_mass_mismatch_rejected(self):
        with pytest.raises(MassMismatchError, match="E_MASS_MISMATCH"):
            build_problem(np.ones((2, 2)), [0.6, 0.6], [0.5, 0.5])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(MassMismatchError, match="E_MASS_MISMATCH"):
            build_problem(np.ones((2, 2)), [0.5, 0.25, 0.25], [0.5, 0.5])

    def test_negative_marginal_rejected(self):
        # balanced totals, but the solver would read -0.5 as a zero mass
        with pytest.raises(MassMismatchError, match="non-negative"):
            build_problem(np.ones((2, 1)), [-0.5, 1.5], [1.0])

    def test_zero_total_rejected(self):
        with pytest.raises(MassMismatchError, match="positive total"):
            build_problem(np.ones((1, 1)), [0.0], [0.0])


class TestConstraintStructure:
    def test_every_column_has_two_ones(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n, m = int(rng.integers(1, 12)), int(rng.integers(1, 12))
            problem = random_problem(rng, n, m)
            A, _ = materialize_constraints(problem)
            np.testing.assert_array_equal(A.sum(axis=0), np.full(n * m, 2.0))
            np.testing.assert_array_equal(A[:n].sum(axis=0), np.ones(n * m))

    def test_row_sums_count_block_widths(self):
        problem = build_problem(np.ones((2, 3)), [0.5, 0.5], [1 / 3] * 3)
        A, _ = materialize_constraints(problem)
        np.testing.assert_array_equal(A.sum(axis=1), [3, 3, 2, 2, 2])

    def test_materialized_system_holds_for_solver_plans(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            problem = random_problem(rng, int(rng.integers(1, 10)), int(rng.integers(1, 10)))
            A, b = materialize_constraints(problem)
            plan = solve(problem).plan
            residual = A @ plan.to_dense().ravel() - b
            assert np.abs(residual).max() <= 1e-9

    def test_dropping_any_row_keeps_the_optimum(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            problem = random_problem(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6)))
            A, b = materialize_constraints(problem)
            c = problem.cost.ravel()
            full = linprog(c, A_eq=A, b_eq=b, method="highs")
            assert full.status == 0
            for drop in range(A.shape[0]):
                keep = [r for r in range(A.shape[0]) if r != drop]
                reduced = linprog(c, A_eq=A[keep], b_eq=b[keep], method="highs")
                assert reduced.status == 0
                assert abs(reduced.fun - full.fun) <= 1e-9


class TestSolutionDistance:
    def test_three_dimensional_example(self):
        u = normalize(validate([[0, 2, 3], [1, 2, 5]]))
        v = normalize(validate([[3, 2, 3], [4, 2, 5]]))
        solution = solve(build_problem(pairwise_costs(u, v), u.weights, v.weights))
        assert solution_distance(solution) == pytest.approx(3.0, rel=1e-9)

    def test_weighted_two_dimensional_example(self):
        u = normalize(validate([[0, 2.75], [2, 209.3], [0, 0]], [0.4, 5.2, 0.114]))
        v = normalize(validate([[0.2, 0.322], [4.5, 25.1808]], [0.8, 1.5]))
        solution = solve(build_problem(pairwise_costs(u, v), u.weights, v.weights))
        assert solution_distance(solution) == pytest.approx(174.15840245217169, rel=1e-9)

    def test_identical_distributions_zero(self):
        u = normalize(validate([[1.0, 2.0], [3.0, 4.0]]))
        solution = solve(build_problem(pairwise_costs(u, u), u.weights, u.weights))
        assert abs(solution_distance(solution)) <= 1e-12

    def test_corrupted_duals_raise_gap_error(self):
        u = normalize(validate([[0, 2, 3], [1, 2, 5]]))
        v = normalize(validate([[3, 2, 3], [4, 2, 5]]))
        solution = solve(build_problem(pairwise_costs(u, v), u.weights, v.weights))
        broken = dataclasses.replace(solution, dual=solution.dual + 1.0)
        with pytest.raises(DualityGapError, match="E_DUALITY_GAP"):
            solution_distance(broken)

    def test_dual_matches_primal_objective(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            problem = random_problem(rng, int(rng.integers(1, 12)), int(rng.integers(1, 12)))
            solution = solve(problem)
            value = solution_distance(solution)
            assert abs(value - solution.objective) <= 1e-8
            assert abs(value - solution.plan.cost(problem.cost)) <= 1e-8


class TestTransportPlan:
    def test_dense_and_marginals_roundtrip(self):
        plan = TransportPlan(2, 2, np.array([0, 0, 1]), np.array([0, 1, 1]),
                             np.array([0.5, 0.25, 0.25]))
        np.testing.assert_array_equal(plan.to_dense(), [[0.5, 0.25], [0.0, 0.25]])
        np.testing.assert_array_equal(plan.source_marginals(), [0.75, 0.25])
        np.testing.assert_array_equal(plan.target_marginals(), [0.5, 0.5])
        assert plan.cost(np.array([[1.0, 2.0], [3.0, 4.0]])) == 0.5 + 0.5 + 1.0
