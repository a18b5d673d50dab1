"""Transportation simplex: starting basis, pivoting, optimality certificates."""

import itertools

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.stats import wasserstein_distance_nd

from earthmover import simplex
from earthmover.distributions import normalize, validate
from earthmover.errors import IterationLimitError
from earthmover.geometry import pairwise_costs
from earthmover.simplex import SpanningTree, initial_basis, pivot_budget, solve
from earthmover.transport_lp import build_problem, solution_distance


def lp_distance(u_pts, v_pts, u_w=None, v_w=None):
    u = normalize(validate(u_pts, u_w))
    v = normalize(validate(v_pts, v_w))
    problem = build_problem(pairwise_costs(u, v), u.weights, v.weights)
    return solution_distance(solve(problem))


def assert_certified(problem, solution):
    """Plan meets both marginals, duals price every cell >= 0, pivots within budget."""
    n, m = problem.n_sources, problem.n_targets
    reduced = problem.cost - solution.dual[:n, None] - solution.dual[None, n:]
    assert reduced.min() >= -1e-9
    np.testing.assert_allclose(solution.plan.source_marginals(), problem.supply, atol=1e-9)
    np.testing.assert_allclose(solution.plan.target_marginals(), problem.demand, atol=1e-9)
    assert solution.iterations <= pivot_budget(n, m)


def brute_force_assignment(costs):
    """Minimum-cost perfect matching by enumerating all permutations."""
    n = costs.shape[0]
    return min(
        sum(costs[i, perm[i]] for i in range(n))
        for perm in itertools.permutations(range(n))
    )


class TestInitialBasis:
    def test_northwest_corner_walk(self):
        problem = build_problem(np.ones((2, 2)), [0.75, 0.25], [0.5, 0.5])
        state = initial_basis(problem)
        assert state.flows == {(0, 0): 0.5, (0, 1): 0.25, (1, 1): 0.25}

    def test_single_row_and_single_column(self):
        row = initial_basis(build_problem(np.ones((1, 4)), [1.0], [0.25] * 4))
        assert set(row.flows) == {(0, j) for j in range(4)}
        col = initial_basis(build_problem(np.ones((3, 1)), [0.2, 0.3, 0.5], [1.0]))
        assert set(col.flows) == {(i, 0) for i in range(3)}

    def test_simultaneous_exhaustion_keeps_degenerate_zero(self):
        problem = build_problem(np.zeros((2, 2)), [0.5, 0.5], [0.5, 0.5])
        state = initial_basis(problem)
        assert len(state.flows) == 3  # n + m - 1 cells even when masses tie
        assert min(state.flows.values()) == 0.0

    def test_marginals_met(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n, m = int(rng.integers(1, 10)), int(rng.integers(1, 10))
            supply = rng.random(n) + 0.01
            supply /= supply.sum()
            demand = rng.random(m) + 0.01
            demand /= demand.sum()
            state = initial_basis(build_problem(rng.random((n, m)), supply, demand))
            assert len(state.flows) == n + m - 1
            dense = np.zeros((n, m))
            for (i, j), flow in state.flows.items():
                assert flow >= 0.0
                dense[i, j] = flow
            np.testing.assert_allclose(dense.sum(axis=1), supply, atol=1e-12)
            np.testing.assert_allclose(dense.sum(axis=0), demand, atol=1e-12)

    def test_rounding_imbalance_still_gives_a_spanning_tree(self):
        # after row 0 the column has 1 - 0.7 = 0.30000000000000004 left, an
        # ulp less than row 1, while row 2 is still live
        supply = [0.7, float(np.nextafter(np.nextafter(0.3, 1), 1)), 1e-17]
        state = initial_basis(build_problem(np.ones((3, 1)), supply, [1.0]))
        assert set(state.flows) == {(0, 0), (1, 0), (2, 0)}
        assert min(state.flows.values()) >= 0.0
        assert sum(state.flows.values()) == pytest.approx(1.0, abs=1e-15)


class TestSolve:
    def test_shared_support_reference_value(self):
        # the 1D reference instance pushed through the LP path
        assert lp_distance([[0.0], [1.0]], [[0.0], [1.0]], [3, 1], [2, 2]) == pytest.approx(
            0.25, rel=1e-9
        )

    def test_weighted_reference_value(self):
        value = lp_distance(
            [[0, 2.75], [2, 209.3], [0, 0]],
            [[0.2, 0.322], [4.5, 25.1808]],
            [0.4, 5.2, 0.114],
            [0.8, 1.5],
        )
        assert value == pytest.approx(174.15840245217169, rel=1e-9)

    def test_forced_single_target(self):
        assert lp_distance([[0, 0], [4, 0]], [[0, 3]]) == pytest.approx(4.0, rel=1e-12)

    def test_optimality_certificates(self):
        rng = np.random.default_rng(16)
        for trial in range(100):
            n, m = int(rng.integers(1, 14)), int(rng.integers(1, 14))
            d = int(rng.integers(1, 4))
            # integer grids provoke ties and degenerate pivots
            if trial % 2:
                pts = lambda k: rng.integers(0, 4, size=(k, d)).astype(float)
            else:
                pts = lambda k: rng.normal(size=(k, d)) * 8
            u = normalize(validate(pts(n), rng.random(n) + 0.01))
            v = normalize(validate(pts(m), rng.random(m) + 0.01))
            problem = build_problem(pairwise_costs(u, v), u.weights, v.weights)
            solution = solve(problem)

            alpha = solution.dual[:n]
            beta = solution.dual[n:]
            reduced = problem.cost - alpha[:, None] - beta[None, :]
            assert reduced.min() >= -1e-9
            assert (solution.plan.mass > 0).all()
            assert solution.plan.mass.size <= n + m - 1
            np.testing.assert_allclose(
                solution.plan.source_marginals(), u.weights, atol=1e-9
            )
            np.testing.assert_allclose(
                solution.plan.target_marginals(), v.weights, atol=1e-9
            )
            assert abs(problem.supply.sum() - 1.0) <= 1e-10
            assert abs(problem.demand.sum() - 1.0) <= 1e-10

    def test_objective_never_increases(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            n, m = int(rng.integers(2, 12)), int(rng.integers(2, 12))
            u = normalize(validate(rng.normal(size=(n, 2)) * 3, rng.random(n) + 0.01))
            v = normalize(validate(rng.normal(size=(m, 2)) * 3, rng.random(m) + 0.01))
            problem = build_problem(pairwise_costs(u, v), u.weights, v.weights)
            trace = []
            solve(problem, callback=lambda _, objective: trace.append(objective))
            for before, after in zip(trace, trace[1:]):
                assert after <= before + 1e-9

    def test_matches_brute_force_assignment(self):
        rng = np.random.default_rng(50)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            d = int(rng.integers(1, 5))
            pts_u = rng.random((n, d)) * 4
            pts_v = rng.random((n, d)) * 4
            u, v = normalize(validate(pts_u)), normalize(validate(pts_v))
            costs = pairwise_costs(u, v)
            expected = brute_force_assignment(costs) / n
            assert abs(lp_distance(pts_u, pts_v) - expected) <= 1e-9

    def test_matches_cdf_distance_in_one_dimension(self):
        from earthmover.cdf1d import cdf_distance_1d

        rng = np.random.default_rng(52)
        for _ in range(30):
            n, m = int(rng.integers(1, 12)), int(rng.integers(1, 12))
            pts_u, pts_v = rng.normal(size=(n, 1)) * 5, rng.normal(size=(m, 1)) * 5
            w_u, w_v = rng.random(n) + 0.01, rng.random(m) + 0.01
            reference = cdf_distance_1d(
                normalize(validate(pts_u, w_u)), normalize(validate(pts_v, w_v))
            )
            assert abs(lp_distance(pts_u, pts_v, w_u, w_v) - reference) <= 1e-8

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(61)
        for _ in range(40):
            size = int(rng.integers(2, 8))
            pts = [rng.normal(size=(size, 2)) * 3 for _ in range(3)]
            d_uv = lp_distance(pts[0], pts[1])
            d_vu = lp_distance(pts[1], pts[0])
            d_vw = lp_distance(pts[1], pts[2])
            d_uw = lp_distance(pts[0], pts[2])
            assert abs(d_uv - d_vu) <= 1e-9
            assert d_uw <= d_uv + d_vw + 1e-8

    def test_pivot_budget_is_enforced(self, monkeypatch):
        rng = np.random.default_rng(70)
        u = normalize(validate(rng.normal(size=(6, 2))))
        v = normalize(validate(rng.normal(size=(6, 2))))
        problem = build_problem(pairwise_costs(u, v), u.weights, v.weights)
        needed = solve(problem).iterations
        assert needed >= 1
        monkeypatch.setattr(simplex, "pivot_budget", lambda n, m: needed - 1)
        with pytest.raises(IterationLimitError, match="E_ITER_LIMIT"):
            solve(problem)

    def test_zero_mass_points_are_priced_in(self):
        rng = np.random.default_rng(74)
        for _ in range(20):
            n, m = int(rng.integers(2, 12)), int(rng.integers(2, 12))
            w_u, w_v = rng.integers(0, 3, n).astype(float), rng.integers(0, 3, m).astype(float)
            w_u[0] = 0.0  # the root of the tree carries no mass
            w_u[-1] = w_v[-1] = 1.0
            pts_u = rng.integers(0, 4, (n, 2)).astype(float)
            pts_v = rng.integers(0, 4, (m, 2)).astype(float)
            u, v = normalize(validate(pts_u, w_u)), normalize(validate(pts_v, w_v))
            problem = build_problem(pairwise_costs(u, v), u.weights, v.weights)
            solution = solve(problem)
            assert_certified(problem, solution)
            assert (w_u[solution.plan.rows] > 0).all() and (w_v[solution.plan.cols] > 0).all()
            expected = lp_distance(pts_u[w_u > 0], pts_v[w_v > 0], w_u[w_u > 0], w_v[w_v > 0])
            assert abs(solution_distance(solution) - expected) <= 1e-12

    def test_callback_with_zero_mass_points(self):
        rng = np.random.default_rng(78)
        pivots = 0
        for _ in range(20):
            n, m = int(rng.integers(4, 16)), int(rng.integers(4, 16))
            w_u, w_v = rng.integers(0, 3, n).astype(float), rng.integers(0, 3, m).astype(float)
            w_u[0] = w_v[0] = 0.0
            w_u[-1] = w_v[-1] = 1.0
            u = normalize(validate(rng.normal(size=(n, 2)), w_u))
            v = normalize(validate(rng.normal(size=(m, 2)), w_v))
            problem = build_problem(pairwise_costs(u, v), u.weights, v.weights)
            calls = []
            solution = solve(problem, callback=lambda k, objective: calls.append((k, objective)))
            assert [k for k, _ in calls] == list(range(1, solution.iterations + 1))
            trace = [objective for _, objective in calls]
            assert all(after <= before for before, after in zip(trace, trace[1:]))
            if trace:
                assert abs(trace[-1] - solution.objective) <= 1e-12
            pivots += solution.iterations
        assert pivots >= 20

    def test_start_is_strongly_feasible(self):
        # zero flows may sit only on cells whose lower end is a source
        rng = np.random.default_rng(72)
        for _ in range(40):
            n, m = int(rng.integers(1, 30)), int(rng.integers(1, 30))
            u = normalize(validate(rng.integers(0, 3, (n, 2)).astype(float), rng.integers(1, 4, n)))
            v = normalize(validate(rng.integers(0, 3, (m, 2)).astype(float), rng.integers(1, 4, m)))
            tree = initial_basis(build_problem(pairwise_costs(u, v), u.weights, v.weights))
            assert (np.flatnonzero(tree.flow[1:] == 0.0) + 1 < n).all()

    def test_pivots_keep_the_tree_strongly_feasible(self, monkeypatch):
        # the anti-cycling argument rests on this holding after every pivot
        pivot = SpanningTree.pivot
        checked = []

        def checked_pivot(tree, i, j, gain):
            theta = pivot(tree, i, j, gain)
            zero_above = np.flatnonzero(tree.flow[1:] == 0.0) + 1
            assert (zero_above < tree.n_sources).all()
            checked.append(theta)
            return theta

        monkeypatch.setattr(SpanningTree, "pivot", checked_pivot)
        rng = np.random.default_rng(76)
        for trial in range(30):
            # equal weights and n == m make most pivots degenerate
            n = int(rng.integers(5, 30))
            if trial % 2:
                pts = rng.random((2, n, 2))
            else:
                pts = rng.integers(0, 4, (2, n, 2))
            u, v = normalize(validate(pts[0])), normalize(validate(pts[1]))
            solve(build_problem(pairwise_costs(u, v), u.weights, v.weights))
        assert checked.count(0.0) >= 50  # degenerate pivots were exercised

    def test_pivots_keep_reduced_costs_in_step_with_the_potentials(self, monkeypatch):
        # pricing reads tree.reduced alone, so each pivot must leave it equal
        # to what the potentials give, and zero on every basic cell
        pivot = SpanningTree.pivot
        pivots = 0

        def checked_pivot(tree, i, j, gain):
            nonlocal pivots
            theta = pivot(tree, i, j, gain)
            n = tree.n_sources
            fresh = tree.cost - tree.potential[:n, None] - tree.potential[None, n:]
            np.testing.assert_allclose(tree.reduced, fresh, rtol=0, atol=1e-12)
            np.testing.assert_allclose(tree.reduced[tree._cells()], 0.0, rtol=0, atol=1e-12)
            pivots += 1
            return theta

        monkeypatch.setattr(SpanningTree, "pivot", checked_pivot)
        rng = np.random.default_rng(86)
        for trial in range(30):
            n, m = int(rng.integers(2, 30)), int(rng.integers(2, 30))
            if trial % 2:
                pts_u, pts_v = rng.random((n, 2)), rng.random((m, 2))
            else:
                pts_u = rng.integers(0, 4, (n, 2)).astype(float)
                pts_v = rng.integers(0, 4, (m, 2)).astype(float)
            # zero-mass points are set aside, so the tree is smaller than n x m
            w_u, w_v = rng.integers(0, 3, n).astype(float), rng.integers(0, 3, m).astype(float)
            w_u[0] = w_v[-1] = 1.0
            u, v = normalize(validate(pts_u, w_u)), normalize(validate(pts_v, w_v))
            problem = build_problem(pairwise_costs(u, v), u.weights, v.weights)
            assert_certified(problem, solve(problem))
        assert pivots >= 200


class TestAgainstNetworkX:
    def test_integer_instances_match_network_simplex(self):
        # network_simplex is exact on integer data. Rounded distances on a
        # small grid and random small integers both tie often, and zero
        # masses leave rows and columns out of the tree.
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(88)
        pivots = 0
        for trial in range(60):
            n, m = int(rng.integers(1, 11)), int(rng.integers(1, 11))
            if trial % 2:
                cost = rng.integers(0, 6, (n, m))
            else:
                gap = rng.integers(0, 5, (n, 1, 2)) - rng.integers(0, 5, (1, m, 2))
                cost = np.rint(np.hypot(gap[..., 0], gap[..., 1])).astype(int)
            supply = rng.integers(0, 5, n)
            supply[-1] += 1
            demand = rng.multinomial(supply.sum(), rng.dirichlet(np.ones(m)))
            graph = nx.DiGraph()
            graph.add_nodes_from((("u", i), {"demand": -int(s)}) for i, s in enumerate(supply))
            graph.add_nodes_from((("v", j), {"demand": int(d)}) for j, d in enumerate(demand))
            graph.add_weighted_edges_from(
                (("u", i), ("v", j), int(cost[i, j])) for i in range(n) for j in range(m)
            )
            total = int(supply.sum())
            expected = nx.network_simplex(graph)[0] / total

            problem = build_problem(cost.astype(float), supply / total, demand / total)
            solution = solve(problem)
            assert_certified(problem, solution)
            assert solution.objective == pytest.approx(expected, rel=1e-12, abs=1e-15)
            assert solution_distance(solution) == pytest.approx(expected, rel=1e-12, abs=1e-15)
            pivots += solution.iterations
        assert pivots >= 50


class TestAgainstSciPyAtScale:
    """Sizes well past the certificates above.

    Integer grids bring ties and duplicate points; equal weights bring degenerate pivots.
    """

    def test_integer_grids_with_duplicates(self):
        rng = np.random.default_rng(80)
        for n, m in [(40, 57), (64, 45), (52, 64)]:
            pts_u = rng.integers(0, 5, (n, 2)).astype(float)
            pts_v = rng.integers(0, 5, (m, 2)).astype(float)
            w_u = rng.integers(1, 6, n).astype(float)
            w_v = rng.integers(1, 6, m).astype(float)
            u, v = normalize(validate(pts_u, w_u)), normalize(validate(pts_v, w_v))
            problem = build_problem(pairwise_costs(u, v), u.weights, v.weights)
            solution = solve(problem)
            assert_certified(problem, solution)
            expected = wasserstein_distance_nd(pts_u, pts_v, w_u, w_v)
            assert solution_distance(solution) == pytest.approx(expected, rel=1e-9)

    def test_uniform_points_match_assignment(self):
        rng = np.random.default_rng(82)
        for n in (40, 64):
            pts_u, pts_v = rng.random((n, 2)), rng.random((n, 2))
            u, v = normalize(validate(pts_u)), normalize(validate(pts_v))
            problem = build_problem(pairwise_costs(u, v), u.weights, v.weights)
            solution = solve(problem)
            assert_certified(problem, solution)
            rows, cols = linear_sum_assignment(problem.cost)
            expected = problem.cost[rows, cols].sum() / n
            assert solution_distance(solution) == pytest.approx(expected, rel=1e-9)
