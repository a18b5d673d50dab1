"""LP encoding: the dense constraint and plan oracles, plan bookkeeping, dual decoding."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linprog

from earthmover.api import wasserstein_distance
from earthmover.distributions import normalize, validate
from earthmover.errors import DualityGapError, MassMismatchError, ShapeError, ValidationError
from earthmover.geometry import pairwise_costs
from earthmover.simplex import OPTIMALITY_TOL, solve
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
    n, m = problem.cost.shape
    A = np.zeros((n + m, n * m))
    for i in range(n):
        A[i, i * m:(i + 1) * m] = 1.0
    for j in range(m):
        A[n + j, j::m] = 1.0
    return A, np.concatenate([problem.supply, problem.demand])


def dense(plan):
    """The n x m flow matrix of ``plan``, mass of repeated cells summed."""
    out = np.zeros((plan.n_sources, plan.n_targets))
    np.add.at(out, (plan.rows, plan.cols), plan.mass)
    return out


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

    def test_total_past_the_float_maximum_rejected(self):
        # the supply total overflows to inf, which must read as a mismatch,
        # not as an overflow RuntimeWarning under warnings-as-errors
        with pytest.raises(MassMismatchError, match="E_MASS_MISMATCH"):
            build_problem(np.zeros((2, 1)), [1e308, 1e308], [1.0])

    def test_small_totals_out_of_balance_rejected(self):
        # a 50x imbalance: an absolute limit of 1e-10 let it through, and the
        # solve left supply unmet
        with pytest.raises(MassMismatchError, match=r"differ by 9\.800e-13 \(limit 2\.000e-24\)"):
            build_problem(np.ones((2, 2)), [5e-13, 5e-13], [1e-14, 1e-14])

    def test_totals_that_agree_to_rounding_accepted(self):
        # integer weights scaled to a large total keep it only to rounding;
        # an absolute limit of 1e-10 rejected such pairs at every scale
        differ = 0
        for total in (1e6, 1e9, 1e12):
            for seed in range(20):
                rng = np.random.default_rng(seed)
                w_u, w_v = rng.integers(1, 6, 120), rng.integers(1, 6, 120)
                supply, demand = w_u * (total / w_u.sum()), w_v * (total / w_v.sum())
                problem = build_problem(rng.random((120, 120)), supply, demand)
                differ += problem.supply.sum() != problem.demand.sum()
        assert differ >= 10

    def test_non_finite_costs_rejected(self):
        # [[1, inf], [inf, 1]] has the optimum 1.0, yet solved to an
        # E_DUALITY_GAP solver error
        for bad in (np.inf, np.nan):
            with pytest.raises(ValidationError, match="E_VALIDATION: costs must be finite"):
                build_problem(np.array([[1.0, bad], [bad, 1.0]]), [0.5, 0.5], [0.5, 0.5])

    def test_non_flat_marginals_rejected(self):
        # a scalar supply raised IndexError; a (1, 2) supply was accepted
        # against a (1, 2) cost, and solve raised IndexError
        with pytest.raises(ShapeError, match="E_SHAPE: marginals must be flat"):
            build_problem(np.ones((1, 1)), 1.0, [1.0])
        with pytest.raises(ShapeError, match="E_SHAPE: marginals must be flat"):
            build_problem(np.ones((1, 2)), [[0.5, 0.5]], [0.5, 0.5])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(MassMismatchError, match="E_MASS_MISMATCH"):
            build_problem(np.ones((2, 2)), [0.5, 0.25, 0.25], [0.5, 0.5])

    def test_negative_marginal_rejected(self):
        # balanced totals, but a negative mass is no mass to move
        with pytest.raises(MassMismatchError, match="entries must be positive"):
            build_problem(np.ones((2, 1)), [-0.5, 1.5], [1.0])

    def test_zero_marginal_entry_rejected(self):
        # the anti-cycling rule needs every mass positive; a point of zero
        # mass is left out before the problem is built
        with pytest.raises(MassMismatchError, match="entries must be positive"):
            build_problem(np.ones((2, 1)), [0.0, 1.0], [1.0])
        with pytest.raises(MassMismatchError, match="entries must be positive"):
            build_problem(np.ones((1, 2)), [1.0], [1.0, 0.0])

    def test_zero_total_rejected(self):
        with pytest.raises(MassMismatchError, match="positive total"):
            build_problem(np.ones((1, 1)), [0.0], [0.0])
        # empty marginals have no zero entry, but no positive total either
        with pytest.raises(MassMismatchError, match="positive total"):
            build_problem(np.ones((0, 0)), [], [])

    def test_complex_input_rejected(self):
        # casting would drop the imaginary parts with only a ComplexWarning
        cost, supply, demand = np.ones((2, 2)), np.array([0.5, 0.5]), np.array([0.5, 0.5])
        for name, args in [
            ("cost", (cost + 1j, supply, demand)),
            ("supply", (cost, supply + 0j, demand)),
            ("demand", (cost, supply, demand.astype(complex))),
            # an int past the float range would escape as a raw OverflowError
            ("cost", ([[10**400]], [1.0], [1.0])),
        ]:
            with pytest.raises(ShapeError, match=f"E_SHAPE: {name} is not a real numeric array"):
                build_problem(*args)

    def test_non_numeric_input_rejected(self):
        with pytest.raises(ShapeError, match="E_SHAPE: cost"):
            build_problem([["a", "b"]], [1.0], [0.5, 0.5])


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
            residual = A @ dense(plan).ravel() - b
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


class TestAgainstLinprog:
    def test_random_instances_match_highs(self):
        # HiGHS solves the dense LP, with n != m. Small integers and
        # distances on a small grid tie often; uniform costs do not, but
        # their reduced costs can be small, where an early stop would show.
        rng = np.random.default_rng(92)
        pivots = 0
        for trial in range(42):
            n = int(rng.integers(1, 13))
            m = int(rng.choice([k for k in range(1, 13) if k != n]))
            if trial % 3 == 0:
                cost = rng.integers(0, 4, (n, m)).astype(float)
            elif trial % 3 == 1:
                u = normalize(validate(rng.integers(0, 4, (n, 2)).astype(float)))
                v = normalize(validate(rng.integers(0, 4, (m, 2)).astype(float)))
                cost = pairwise_costs(u, v)
            else:
                cost = rng.random((n, m))
            supply, demand = rng.integers(1, 4, n).astype(float), rng.integers(1, 4, m).astype(float)
            problem = build_problem(cost, supply / supply.sum(), demand / demand.sum())
            A, b = materialize_constraints(problem)
            highs = linprog(cost.ravel(), A_eq=A, b_eq=b, method="highs")
            assert highs.status == 0
            solution = solve(problem)
            bound = 1e-12 + 2 * OPTIMALITY_TOL * cost.max()
            assert abs(solution.objective - highs.fun) <= bound
            assert abs(solution_distance(solution) - highs.fun) <= bound
            pivots += solution.iterations
        assert pivots >= 40

    def test_every_row_order_reaches_the_highs_optimum(self):
        # one tiny coordinate leaves reduced costs of ~1e-9 on the scaled
        # costs; a stop at that size read 1.2e-9 above HiGHS's
        # 1.678511300799068 in 432 of the 720 orders
        u = np.zeros((6, 3))
        u[4], u[5] = [4.0, 0.0, 0.0], [0.0, 0.0, 1e-8]
        v = np.array([[0.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
        problem = build_problem(
            pairwise_costs(validate(u), validate(v)), np.full(6, 1 / 6), np.full(2, 1 / 2)
        )
        A, b = materialize_constraints(problem)
        highs = linprog(problem.cost.ravel(), A_eq=A, b_eq=b, method="highs")
        assert highs.status == 0
        for order in itertools.permutations(range(6)):
            distance = wasserstein_distance(u[list(order)], v).distance
            assert abs(distance - highs.fun) <= 2 * math.ulp(highs.fun)


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
        np.testing.assert_array_equal(dense(plan), [[0.5, 0.25], [0.0, 0.25]])
        np.testing.assert_array_equal(plan.source_marginals(), [0.75, 0.25])
        np.testing.assert_array_equal(plan.target_marginals(), [0.5, 0.5])
        assert plan.cost(np.array([[1.0, 2.0], [3.0, 4.0]])) == 0.5 + 0.5 + 1.0
