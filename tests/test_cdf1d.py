"""One-dimensional path: CDF gap integral and the greedy plan oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import wasserstein_distance

from earthmover.cdf1d import cdf_distance_1d, greedy_plan_1d, merged_support
from earthmover.distributions import normalize, validate
from earthmover.geometry import pairwise_costs
from earthmover.simplex import solve
from earthmover.transport_lp import TransportPlan, build_problem, solution_distance


def dist1d(points, weights=None):
    return normalize(validate(points, weights))


def pairs(plan):
    return list(zip(plan.rows.tolist(), plan.cols.tolist()))


def loop_plan_1d(u, v):
    """Reference monotone plan: walk both sorted supports, moving the smaller remaining mass."""
    u_order = np.argsort(u.points[:, 0], kind="stable")
    v_order = np.argsort(v.points[:, 0], kind="stable")
    remaining_u = u.weights[u_order].copy()
    remaining_v = v.weights[v_order].copy()

    flows = []
    i = j = 0
    while i < len(u_order) and j < len(v_order):
        mass = min(remaining_u[i], remaining_v[j])
        if mass > 0:
            flows.append((int(u_order[i]), int(v_order[j]), float(mass)))
        remaining_u[i] -= mass
        remaining_v[j] -= mass
        # min() guarantees at least one side hits exactly zero
        if remaining_u[i] == 0.0:
            i += 1
        if remaining_v[j] == 0.0:
            j += 1

    rows, cols, mass = (np.array(column) for column in zip(*flows))
    return TransportPlan(u.size, v.size, rows, cols, mass)


class TestCdfDistance:
    def test_reference_uniform(self):
        assert cdf_distance_1d(dist1d([0, 1, 3]), dist1d([5, 6, 8])) == pytest.approx(
            5.0, rel=1e-12
        )

    def test_reference_shared_support(self):
        value = cdf_distance_1d(dist1d([0, 1], [3, 1]), dist1d([0, 1], [2, 2]))
        assert value == pytest.approx(0.25, rel=1e-12)

    def test_reference_weighted(self):
        value = cdf_distance_1d(
            dist1d([3.4, 3.9, 7.5, 7.8], [1.4, 0.9, 3.1, 7.2]),
            dist1d([4.5, 1.4], [3.2, 3.5]),
        )
        assert value == pytest.approx(4.0781331438047861, rel=1e-12)

    def test_identical_distributions(self):
        u = dist1d([1.0, 2.0, 4.0], [2, 5, 1])
        assert cdf_distance_1d(u, u) == 0.0
        # duplicate-heavy support with non-dyadic weights, built twice
        rng = np.random.default_rng(41)
        pts = rng.integers(0, 40, 2000) / 10
        w = rng.random(2000) + 0.01
        u = dist1d(pts, w)
        assert cdf_distance_1d(u, u) == 0.0
        assert cdf_distance_1d(u, dist1d(pts.copy(), w.copy())) == 0.0

    def test_tie_heavy_matches_scipy(self):
        rng = np.random.default_rng(43)
        u_pts = np.round(rng.normal(size=3000), 2)
        v_pts = np.round(rng.normal(0.2, 1.3, 2500), 2)
        u_w, v_w = rng.random(3000) + 0.01, rng.random(2500) + 0.01
        assert len(np.unique(u_pts)) < 1000 and len(np.unique(v_pts)) < 1000
        expected = wasserstein_distance(u_pts, v_pts, u_w, v_w)
        value = cdf_distance_1d(dist1d(u_pts, u_w), dist1d(v_pts, v_w))
        assert value == pytest.approx(expected, rel=1e-11)

    @given(
        u_pts=st.lists(st.floats(-50, 50), min_size=1, max_size=8),
        v_pts=st.lists(st.floats(-50, 50), min_size=1, max_size=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_symmetric(self, u_pts, v_pts):
        u, v = dist1d(u_pts), dist1d(v_pts)
        assert abs(cdf_distance_1d(u, v) - cdf_distance_1d(v, u)) <= 1e-12

    def test_shift_invariance_and_norm(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(1, 12))
            pts = rng.normal(size=n) * 5
            w = rng.random(n) + 0.01
            shift = float(rng.normal() * 10)
            u = dist1d(pts, w)
            base = cdf_distance_1d(u, dist1d(pts + 1.5, w))
            moved = cdf_distance_1d(dist1d(pts + shift, w), dist1d(pts + 1.5 + shift, w))
            assert abs(base - moved) <= 1e-10
            assert abs(cdf_distance_1d(u, dist1d(pts + shift, w)) - abs(shift)) <= 1e-10


class TestMergedSupport:
    def test_positions_strictly_increasing_with_ties_merged(self):
        ms = merged_support(dist1d([0, 1, 1, 3]), dist1d([1, 3, 5]))
        np.testing.assert_array_equal(ms.positions, [0, 1, 3, 5])
        assert np.all(np.diff(ms.positions) > 0)

    def test_cdf_shape_invariants(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            u = dist1d(rng.normal(size=int(rng.integers(1, 10))))
            v = dist1d(rng.integers(0, 5, size=int(rng.integers(1, 10))).astype(float))
            ms = merged_support(u, v)
            for cdf in (ms.u_cdf, ms.v_cdf):
                assert np.all(np.diff(cdf) >= 0)
                assert cdf[0] >= 0
                assert abs(cdf[-1] - 1.0) <= 1e-12


class TestGreedyPlan:
    def test_sorted_pairing(self):
        plan = greedy_plan_1d(dist1d([0, 1, 3]), dist1d([5, 6, 8]))
        assert pairs(plan) == [(0, 0), (1, 1), (2, 2)]
        np.testing.assert_allclose(plan.mass, [1 / 3] * 3)
        costs = pairwise_costs(dist1d([0, 1, 3]), dist1d([5, 6, 8]))
        assert plan.cost(costs) == pytest.approx(5.0, rel=1e-12)

    def test_identity_plan(self):
        u = dist1d([2.0, 7.0])
        plan = greedy_plan_1d(u, u)
        assert pairs(plan) == [(0, 0), (1, 1)]
        assert plan.cost(pairwise_costs(u, u)) == 0.0

    def test_unsorted_inputs_use_original_indices(self):
        u = dist1d([3, 0, 1])  # sorted order is 1, 2, 0
        v = dist1d([8, 5, 6])
        plan = greedy_plan_1d(u, v)
        assert pairs(plan) == [(1, 1), (2, 2), (0, 0)]

    def test_marginals_and_cost_match_cdf(self):
        rng = np.random.default_rng(23)
        worst = 0.0
        for _ in range(100):
            n, m = int(rng.integers(1, 10)), int(rng.integers(1, 10))
            u = dist1d(rng.normal(size=n) * 4, rng.random(n) + 0.01)
            v = dist1d(rng.normal(size=m) * 4, rng.random(m) + 0.01)
            plan = greedy_plan_1d(u, v)
            np.testing.assert_allclose(plan.source_marginals(), u.weights, atol=1e-9)
            np.testing.assert_allclose(plan.target_marginals(), v.weights, atol=1e-9)
            assert (plan.mass > 0).all()
            worst = max(
                worst, abs(plan.cost(pairwise_costs(u, v)) - cdf_distance_1d(u, v))
            )
        assert worst <= 1e-10

    def test_matches_loop_oracle_on_ties_and_zero_weights(self):
        rng = np.random.default_rng(61)

        def tied_sample(k):
            weights = (rng.random(k) + 0.01) * (rng.random(k) >= 0.2)
            weights[rng.integers(k)] += 1.0  # a positive total
            return dist1d(rng.integers(0, 8, k) / 4, weights)

        for _ in range(200):
            u, v = tied_sample(int(rng.integers(1, 40))), tied_sample(int(rng.integers(1, 40)))
            plan, oracle = greedy_plan_1d(u, v), loop_plan_1d(u, v)
            for got, want in ((plan.source_marginals(), oracle.source_marginals()),
                              (plan.target_marginals(), oracle.target_marginals())):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            costs = pairwise_costs(u, v)
            assert abs(plan.cost(costs) - oracle.cost(costs)) <= 1e-12
            assert (u.weights[plan.rows] > 0).all() and (v.weights[plan.cols] > 0).all()

            self_plan = greedy_plan_1d(u, u)
            assert (self_plan.rows == self_plan.cols).all()
            assert self_plan.cost(pairwise_costs(u, u)) == 0.0

    def test_five_versus_four_point_instance(self):
        rng = np.random.default_rng(99)
        u = dist1d(rng.normal(size=5) * 3, rng.random(5) + 0.1)
        v = dist1d(rng.normal(size=4) * 3, rng.random(4) + 0.1)
        costs = pairwise_costs(u, v)
        greedy_cost = greedy_plan_1d(u, v).cost(costs)
        assert abs(greedy_cost - cdf_distance_1d(u, v)) <= 1e-10
        # the LP path lands on the same value
        lp = solution_distance(solve(build_problem(costs, u.weights, v.weights)))
        assert abs(greedy_cost - lp) <= 1e-8


def test_cdf_path_matches_lp_path():
    rng = np.random.default_rng(31)
    for _ in range(30):
        n, m = int(rng.integers(1, 15)), int(rng.integers(1, 15))
        u = dist1d(rng.normal(size=n) * 6, rng.random(n) + 0.01)
        v = dist1d(rng.normal(size=m) * 6, rng.random(m) + 0.01)
        lp = solution_distance(solve(build_problem(pairwise_costs(u, v), u.weights, v.weights)))
        assert abs(lp - cdf_distance_1d(u, v)) <= 1e-8
