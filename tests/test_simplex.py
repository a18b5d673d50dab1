"""Transportation simplex: starting basis, pivoting, optimality certificates."""

import itertools

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.stats import wasserstein_distance_nd

from earthmover import simplex
from earthmover.distributions import normalize, validate
from earthmover.errors import IterationLimitError, SolverError
from earthmover.geometry import pairwise_costs
from earthmover.simplex import SpanningTree, initial_basis, pivot_budget, solve
from earthmover.transport_lp import TransportProblem, build_problem, solution_distance


def lp_distance(u_pts, v_pts, u_w=None, v_w=None):
    u = normalize(validate(u_pts, u_w))
    v = normalize(validate(v_pts, v_w))
    problem = build_problem(pairwise_costs(u, v), u.weights, v.weights)
    return solution_distance(solve(problem))


def assert_certified(problem, solution):
    """Plan meets both marginals, duals price every cell >= 0, pivots within budget."""
    n, m = problem.cost.shape
    reduced = problem.cost - solution.dual[:n, None] - solution.dual[None, n:]
    assert reduced.min() >= -1e-9
    np.testing.assert_allclose(solution.plan.source_marginals(), problem.supply, atol=1e-9)
    np.testing.assert_allclose(solution.plan.target_marginals(), problem.demand, atol=1e-9)
    assert solution.iterations <= pivot_budget(n, m)


def full_ranking_start(problem):
    """(parent, flow) of the cheapest-cell start, walking a stable sort of every cell.

    The reference for ``initial_basis``, which ranks only the cheapest cells
    of the live block in rounds and must build the same tree.
    """
    n, m = problem.cost.shape
    total = n + m
    left = problem.supply.tolist() + problem.demand.tolist()
    eps = [1] * n + [-1] * m
    eps[0] = 1 - total
    live = [True] * total
    rows_live, cols_live = n, m
    adjacent = [[] for _ in range(total)]
    rows, cols = np.divmod(np.argsort(problem.cost, axis=None, kind="stable"), m)
    for i, t in zip(rows.tolist(), (cols + n).tolist()):
        if not (live[i] and live[t]):
            continue
        if rows_live > 1 and (cols_live == 1 or (left[i], eps[i]) <= (left[t], eps[t])):
            out, kept = i, t
            rows_live -= 1
        else:
            out, kept = t, i
            cols_live -= 1
        amount = min(left[i], left[t])
        live[out] = False
        left[kept] -= amount
        eps[kept] -= eps[out]
        adjacent[i].append((t, amount))
        adjacent[t].append((i, amount))
        if not (rows_live and cols_live):
            break
    parent, flow = [-1] * total, [0.0] * total
    stack = [0]
    while stack:
        x = stack.pop()
        for y, f in adjacent[x]:
            if y != parent[x]:
                parent[y], flow[y] = x, f
                stack.append(y)
    return parent, flow


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

    @pytest.mark.parametrize(
        "family", ["equal", "grid", "uniform", "row", "column", "nan"]
    )
    def test_matches_the_full_ranking_start(self, family):
        # ties and duplicates decide the tie order; uniform points and wide
        # blocks take several rounds; NaN costs rank last
        rng = np.random.default_rng(96)
        for _ in range(12):
            n, m = int(rng.integers(2, 60)), int(rng.integers(2, 60))
            if family == "row":
                n = 1
            elif family == "column":
                m = 1
            if family == "equal":
                cost = np.full((n, m), 0.5)
            elif family == "grid":
                gap = rng.integers(0, 4, (n, 1, 2)) - rng.integers(0, 4, (1, m, 2))
                cost = np.hypot(gap[..., 0], gap[..., 1])
            else:
                cost = rng.random((n, m))
            if family == "nan":
                cost[rng.random((n, m)) < 0.9] = np.nan
            supply, demand = rng.integers(1, 4, n).astype(float), rng.integers(1, 4, m).astype(float)
            supply, demand = supply / supply.sum(), demand / demand.sum()
            if family == "nan":
                # build_problem rejects non-finite costs; the start must
                # still end on a problem made directly
                problem = TransportProblem(cost, supply, demand)
            else:
                problem = build_problem(cost, supply, demand)
            tree = initial_basis(problem)
            assert (tree.parent, tree.flow) == full_ranking_start(problem)


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

    @pytest.mark.parametrize(
        "family, seed, iterations, distance",
        [
            ("uniform", 3, 45, "0x1.f4f67faed5164p-4"),
            ("uniform", 4, 58, "0x1.2701b6eb73971p-3"),
            ("grid", 5, 47, "0x1.8773b8b6b33f2p-1"),
            ("grid", 6, 47, "0x1.22d7359cfcd99p+0"),
            ("blocks", 7, 241, "0x1.7aae0f534c8f8p-4"),
        ],
    )
    def test_pivot_sequence_is_pinned(self, family, seed, iterations, distance):
        # a change to the tree layout must not change the pivots it takes,
        # even when it would still end at an optimum
        rng = np.random.default_rng(seed)
        if family == "uniform":
            # equal weights and n == m: mostly degenerate pivots
            pts_u, pts_v = rng.random((40, 2)), rng.random((40, 2))
            u, v = normalize(validate(pts_u)), normalize(validate(pts_v))
        elif family == "blocks":
            # more rows than one pricing block, and not a multiple of its
            # rows, so the scan wraps round a partial last block
            rows = -(-simplex.BLOCK_CELLS // 90)
            assert 100 > rows and 100 % rows
            pts_u, pts_v = rng.random((100, 2)), rng.random((90, 2))
            u, v = normalize(validate(pts_u)), normalize(validate(pts_v))
        else:
            pts_u = rng.integers(0, 6, (48, 2)).astype(float)
            pts_v = rng.integers(0, 6, (36, 2)).astype(float)
            w_u = rng.integers(1, 6, 48).astype(float)
            w_v = rng.integers(1, 6, 36).astype(float)
            u, v = normalize(validate(pts_u, w_u)), normalize(validate(pts_v, w_v))
        solution = solve(build_problem(pairwise_costs(u, v), u.weights, v.weights))
        assert solution.iterations == iterations
        assert solution_distance(solution).hex() == distance

    def test_costs_of_any_scale_take_the_same_pivots(self):
        # the tolerances follow the largest cost: absolute ones hit the pivot
        # limit from x1e4 up and stopped 3.7% high after 20 pivots at x1e-12
        rng = np.random.default_rng(3)
        pts_u, pts_v = rng.random((40, 2)), rng.random((40, 2))

        def solved(scale):
            u, v = normalize(validate(pts_u * scale)), normalize(validate(pts_v * scale))
            solution = solve(build_problem(pairwise_costs(u, v), u.weights, v.weights))
            return solution_distance(solution), solution.iterations

        distance, pivots = solved(1.0)
        for k in (-1000, -40, 20, 1000):
            assert solved(2.0**k) == (distance * 2.0**k, pivots)
        for scale in (1e-12, 1e4, 1e6, 1e9, 1e300):
            at_scale, at_pivots = solved(scale)
            assert at_scale == pytest.approx(distance * scale, rel=1e-15, abs=0.0)
            assert at_pivots == pivots

    def test_masses_of_any_scale_take_the_same_pivots(self):
        # the balance and duality-gap checks follow the supply total: absolute
        # ones raised E_DUALITY_GAP at x2^40 and x2^1000
        rng = np.random.default_rng(3)
        u = normalize(validate(rng.random((40, 2)), rng.integers(1, 6, 40)))
        v = normalize(validate(rng.random((40, 2)), rng.integers(1, 6, 40)))
        cost = pairwise_costs(u, v)

        def solved(scale):
            solution = solve(build_problem(cost, u.weights * scale, v.weights * scale))
            return solution_distance(solution), solution.iterations

        distance, pivots = solved(1.0)
        for k in (-1000, -40, 20, 40, 1000):
            assert solved(2.0**k) == (distance * 2.0**k, pivots)

    def test_cycle_walk_fails_fast_on_a_wrong_depth(self):
        problem = build_problem(np.array([[0.0, 1.0], [1.0, 0.0]]), [0.75, 0.25], [0.5, 0.5])
        tree = initial_basis(problem)
        assert tree.parent == [-1, 3, 0, 0]
        # with equal depths every step goes up from source 1, past the root
        # (parent -1 is the last node) and round 0 -> 3 -> 0, never meeting 2
        tree.depth = [0] * 4
        with pytest.raises(SolverError, match="E_SOLVER: the cycle walk passed the root"):
            tree.pivot(1, 0)

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

    def test_degenerate_first_pivot_reports_the_node_order_start_objective(self, monkeypatch):
        # on this 12 x 12 assignment the node-order sum and np.dot of the
        # start's flows and costs differ in the last bit, and the first pivot
        # is degenerate, so its objective is the start objective unchanged
        rng = np.random.default_rng(8)
        u, v = normalize(validate(rng.random((12, 2)))), normalize(validate(rng.random((12, 2))))
        problem = build_problem(pairwise_costs(u, v), u.weights, v.weights)
        start = initial_basis(problem)
        expected = 0.0
        for cell, f in start.flows.items():
            expected += f * problem.cost[cell]
        assert expected != float(np.dot(start.flow[1:], start.edge[1:]))

        thetas, objectives = [], []
        pivot = SpanningTree.pivot

        def recorded_pivot(tree, i, j):
            thetas.append(pivot(tree, i, j))
            return thetas[-1]

        monkeypatch.setattr(SpanningTree, "pivot", recorded_pivot)
        solve(problem, callback=lambda _, objective: objectives.append(objective))
        assert thetas[0] == 0.0
        assert objectives[0].hex() == expected.hex()

    def test_start_is_strongly_feasible(self):
        # zero flows may sit only on cells whose lower end is a source
        rng = np.random.default_rng(72)
        for _ in range(40):
            n, m = int(rng.integers(1, 30)), int(rng.integers(1, 30))
            u = normalize(validate(rng.integers(0, 3, (n, 2)).astype(float), rng.integers(1, 4, n)))
            v = normalize(validate(rng.integers(0, 3, (m, 2)).astype(float), rng.integers(1, 4, m)))
            tree = initial_basis(build_problem(pairwise_costs(u, v), u.weights, v.weights))
            assert (np.flatnonzero(np.asarray(tree.flow)[1:] == 0.0) + 1 < n).all()

    def test_pivots_keep_the_tree_strongly_feasible(self, monkeypatch):
        # the anti-cycling argument rests on this holding after every pivot
        pivot = SpanningTree.pivot
        checked = []

        def checked_pivot(tree, i, j):
            theta = pivot(tree, i, j)
            zero_above = np.flatnonzero(np.asarray(tree.flow)[1:] == 0.0) + 1
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

    def test_leaving_cell_is_the_perturbed_ratio_test_minimum(self):
        # the anti-cycling rule of the module docstring, from scratch: with s
        # the number of nodes in the subtree of a cell's lower end x, the
        # cell carries f + s epsilon when x is a source and f - s epsilon when
        # x is a target, and the cell that leaves is the one losing flow round
        # the cycle whose perturbed flow is the unique smallest
        rng = np.random.default_rng(94)
        entered = tied = across = 0
        for trial in range(40):
            # points on an integer grid, with equal weights (flows 0 or 1/n,
            # so zeros tie on i's side) or integer masses of one total (flows
            # are integers, so the two sides tie too)
            n = m = int(rng.integers(4, 20))
            pts_u = rng.integers(0, 6, (n, 2)).astype(float)
            if trial % 2:
                supply = rng.integers(1, 4, n).astype(float)
                m = int(rng.integers(4, supply.sum() + 1))
                demand = 1.0 + rng.multinomial(supply.sum() - m, np.full(m, 1 / m))
            else:
                supply, demand = np.full(n, 1 / n), np.full(m, 1 / n)
            pts_v = rng.integers(0, 6, (m, 2)).astype(float)
            problem = build_problem(pairwise_costs(validate(pts_u), validate(pts_v)), supply, demand)
            cost, tol = problem.cost, problem.tolerance(simplex.OPTIMALITY_TOL)
            tree = initial_basis(problem)
            scan = simplex._entering(cost, tree.potential, tol)
            for _, (i, j, _) in zip(range(trial % 5), scan):
                tree.pivot(i, j)
            parent = tree.parent
            ancestors = []  # each node and the nodes above it, up to the root
            for x in range(n + m):
                ancestors.append([x])
                while parent[ancestors[x][-1]] >= 0:
                    ancestors[x].append(parent[ancestors[x][-1]])
            size = [sum(x in up for up in ancestors) for x in range(n + m)]
            reduced = cost - tree.potential[:n, None] - tree.potential[None, n:]
            for i, j in zip(*np.nonzero(reduced < -tol)):
                i, j = int(i), int(j)
                up_i, up_t = ancestors[i], ancestors[n + j]
                apex = next(x for x in up_i if x in up_t)
                losing = [x for x in up_i[: up_i.index(apex)] if x < n]
                losing += [x for x in up_t[: up_t.index(apex)] if x >= n]
                perturbed = {x: (tree.flow[x], size[x] if x < n else -size[x]) for x in losing}
                leaving = min(perturbed, key=perturbed.get)
                assert list(perturbed.values()).count(perturbed[leaving]) == 1
                theta = perturbed[leaving][0]
                at_theta = [x for x in losing if tree.flow[x] == theta]
                tied += len(at_theta) > 1
                across += len({x < n for x in at_theta}) > 1
                row, col = sorted([leaving, parent[leaving]])
                after = SpanningTree(cost, list(parent), list(tree.flow))
                assert after.pivot(i, j) == theta
                assert set(tree.flows) - set(after.flows) == {(row, col - n)}
                assert set(after.flows) - set(tree.flows) == {(i, j)}
                entered += 1
        # ties on one side and across the two sides were both exercised
        assert entered >= 400 and tied >= 200 and across >= 10

    def test_pivots_keep_the_potentials_in_step_with_the_tree(self, monkeypatch):
        # pricing reads tree.potential alone and solve stops on its word, so
        # each pivot must leave it bit for bit equal to what is derived
        # afresh from the tree, and every basic cell at reduced cost zero
        pivot = SpanningTree.pivot
        pivots = 0

        def checked_pivot(tree, i, j):
            nonlocal pivots
            theta = pivot(tree, i, j)
            fresh = SpanningTree(tree.cost, tree.parent, tree.flow)
            assert np.array_equal(tree.potential, fresh.potential)
            assert tree.depth == fresh.depth
            n = tree.n_sources
            rows, cols = tree._cells()
            basic = tree.cost[rows, cols] - tree.potential[rows] - tree.potential[n + cols]
            np.testing.assert_allclose(basic, 0.0, rtol=0, atol=1e-12)
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
            w_u, w_v = rng.integers(1, 3, n).astype(float), rng.integers(1, 3, m).astype(float)
            u, v = normalize(validate(pts_u, w_u)), normalize(validate(pts_v, w_v))
            problem = build_problem(pairwise_costs(u, v), u.weights, v.weights)
            assert_certified(problem, solve(problem))
        assert pivots >= 200

    def test_pricing_reaches_every_cell_from_every_block(self, monkeypatch):
        # solve takes every entering cell from _entering and stops when it
        # yields none. 37 rows in blocks of ceil(300 / 29) = 11 make 4 blocks,
        # the last one of 4 rows. The scan reads cost and potential as it
        # prices each block, so cells are planted between yields.
        monkeypatch.setattr(simplex, "BLOCK_CELLS", 300)
        n, m, rows, blocks = 37, 29, 11, 4
        tol = simplex.OPTIMALITY_TOL
        rng = np.random.default_rng(90)
        potential = rng.random(n + m)
        cost = potential[:n, None] + potential[None, n:] + 0.5 + rng.random((n, m))
        assert list(simplex._entering(cost, potential, tol)) == []

        def plant(cost, i, j, gain):
            cost[i, j] = potential[i] + potential[n + j] + gain

        for start in range(blocks):
            for i, j in itertools.product(range(n), range(m)):
                planted = cost.copy()
                scan = simplex._entering(planted, potential, tol)
                # a cell entering from the block before start puts the scan
                # at start
                lead = (start - 1) % blocks * rows
                plant(planted, lead, 0, -0.5)
                assert next(scan)[:2] == (lead, 0)
                planted[lead, 0] = cost[lead, 0]
                plant(planted, i, j, -0.25)
                at_i, at_j, gain = next(scan)
                assert (at_i, at_j) == (i, j)
                assert gain == pytest.approx(-0.25, abs=1e-12)
                # with a cell in every block, the scan goes on at the next one
                after = (i // rows + 1) % blocks
                for b in range(blocks):
                    plant(planted, b * rows, 0, -0.5)
                assert next(scan)[:2] == (after * rows, 0)

    def test_pivots_keep_the_tree_structure(self, monkeypatch):
        # the cycle walk reads depth and the subtree walk reads kids; check
        # both against parent alone
        pivot = SpanningTree.pivot
        pivots = 0

        def checked_pivot(tree, i, j):
            nonlocal pivots
            theta = pivot(tree, i, j)
            n, total = tree.n_sources, len(tree.parent)
            parent, depth = tree.parent, tree.depth
            assert parent[0] == -1 and depth[0] == 0
            children = [[] for _ in range(total)]
            for x in range(1, total):
                assert (x < n) != (parent[x] < n)  # a cell joins a source and a target
                children[parent[x]].append(x)
                a, steps = x, 0
                while a > 0 and steps < total:
                    a, steps = parent[a], steps + 1
                assert a == 0  # no cycle, and the root reaches every node
            # kids[x] holds exactly the nodes whose parent is x, none twice
            assert [sorted(kids) for kids in tree.kids] == children
            assert all(depth[x] == depth[parent[x]] + 1 for x in range(1, total))
            flow = np.asarray(tree.flow)[1:]
            rows, cols = tree._cells()
            assert (flow >= 0.0).all()
            np.testing.assert_allclose(np.bincount(rows, flow, n), supply, rtol=0, atol=1e-12)
            np.testing.assert_allclose(np.bincount(cols, flow, total - n), demand, rtol=0, atol=1e-12)
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
            w_u, w_v = rng.integers(1, 3, n).astype(float), rng.integers(1, 3, m).astype(float)
            u, v = normalize(validate(pts_u, w_u)), normalize(validate(pts_v, w_v))
            problem = build_problem(pairwise_costs(u, v), u.weights, v.weights)
            # the checked pivot reads these two
            supply, demand = problem.supply, problem.demand
            assert_certified(problem, solve(problem))
        assert pivots >= 200


class TestAgainstNetworkX:
    def test_integer_instances_match_network_simplex(self):
        # network_simplex is exact on integer data. Rounded distances on a
        # small grid and random small integers both tie often.
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
            # every mass at least 1: m more supply, one unit of it to each target
            supply = rng.integers(1, 5, n)
            supply[-1] += m
            demand = 1 + rng.multinomial(supply.sum() - m, rng.dirichlet(np.ones(m)))
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
