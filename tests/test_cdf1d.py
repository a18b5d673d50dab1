"""One-dimensional path: CDF gap integral, the monotone coupling and the plan, against the two-sort plan oracle."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import wasserstein_distance

from earthmover import api, cdf1d
from earthmover.cdf1d import MergedSupport, cdf_distance_1d, merged_support, monotone_coupling
from earthmover.distributions import normalize, validate
from earthmover.geometry import pairwise_costs
from earthmover.simplex import solve
from earthmover.transport_lp import TransportPlan, build_problem, solution_distance


def dist1d(points, weights=None):
    return normalize(validate(points, weights))


def pairs(plan):
    return list(zip(plan.rows.tolist(), plan.cols.tolist()))


def unique_merged_support(u, v, scale=0, sorts=None):
    """Reference merged support: ``np.unique`` of both sides, each CDF read by ``searchsorted``.

    Each side's points are first scaled by ``np.ldexp(points, -scale)`` and
    its weights normalized in input order, by ``normalize``; then each side
    is sorted with the stable kind, as ``merged_support`` sorts it, so the
    weights of a tie are summed in the same order, input order. Where
    ``sorts`` is a list, each side's order and running sum are appended to
    it, u's first, as ``merged_support`` appends them.
    """
    u, v = (replace(normalize(d), points=np.ldexp(d.points, -scale)) for d in (u, v))
    grid = np.unique(np.concatenate([u.points[:, 0], v.points[:, 0]]))

    def step_cdf(dist):
        order = np.argsort(dist.points[:, 0], kind="stable")
        cum = np.cumsum(dist.weights[order])
        if sorts is not None:
            sorts.append((order, cum))
        at = np.searchsorted(dist.points[order, 0], grid, side="right")
        return np.concatenate([[0.0], cum])[at] / cum[-1]

    return MergedSupport(grid, step_cdf(u), step_cdf(v))


def api_scale(u, v):
    """The point scale ``wasserstein_distance`` passes for flat sides: the largest |point| just below 2^1022."""
    return math.frexp(max(np.abs(d.points).max() for d in (u, v)))[1] - 1022


def greedy_plan_1d(u, v):
    """Reference 1D plan: the monotone coupling of the two quantile functions, from a sort of its own per side.

    Each side's points, in stable position order, hold consecutive intervals
    of the mass axis, as wide as their weights; ``monotone_coupling`` cuts
    the axis at both sides' cumulative weights, so a zero-weight point gets
    no flow. The weights are coupled as given, up to the smaller total:
    pass both sides scaled and normalized, as ``api._scaled`` makes them.
    Entries come in quantile order; indices refer to the original input
    order.
    """
    u_order = cdf1d._stable_sort(u.points[:, 0])[0]
    v_order = cdf1d._stable_sort(v.points[:, 0])[0]
    u_cum = np.cumsum(u.weights[u_order])
    v_cum = np.cumsum(v.weights[v_order])
    return TransportPlan(u.size, v.size, *monotone_coupling(u_order, u_cum, v_order, v_cum))


def api_plan(u, v):
    """The plan ``wasserstein_distance`` attaches to the flat sides of ``u`` and ``v``."""
    return api.wasserstein_distance(u.points[:, 0], v.points[:, 0], u.weights, v.weights, want_plan=True).plan


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

    def test_matches_the_unique_and_searchsorted_oracle_bit_for_bit(self, monkeypatch):
        # merged_support takes the sides as validated, weights as given, so
        # the oracle normalizes them in input order and scales the points
        rng = np.random.default_rng(73)

        def side(k, grid=None):
            points = rng.normal(size=k)
            if grid is not None:
                points = np.round(points / grid) * grid
                # ties between 0.0 and -0.0, within a side and across the two
                points[rng.random(k) < 0.2] = rng.choice([0.0, -0.0])
            weights = rng.random(k) * (rng.random(k) >= 0.2)
            weights[rng.integers(k)] += 1.0  # a positive total
            return validate(points, weights)

        cases = []
        for trial in range(300):
            grid = (1e-3, 0.25)[trial % 2]
            u = side(int(rng.integers(1, 4) if trial % 10 == 0 else rng.integers(1, 300)), grid)
            v = side(int(rng.integers(1, 300)), grid)
            cases += [(u, v), (v, u)]
        cases += [(u, u) for u, _ in cases[:100]]
        cases += [(validate([2.5], [3.0]), validate([-1.0, 2.5], [1.0, 0.0]))]
        # a side without ties against one with ties, so that only one side
        # merges its own ties
        for trial in range(40):
            u = side(int(rng.integers(1, 300)))
            v = side(int(rng.integers(1, 300)), (1e-3, 0.25)[trial % 2])
            cases += [(u, v), (v, u)]
        # a side whose points all coincide, and single-point sides
        lumps = [validate(np.full(50, 0.25), rng.random(50) + 0.01), validate(np.full(7, -0.0)),
                 validate([0.25]), validate([-3.0], [2.0]), validate([1.0, 2.0, 3.0], [-0.0, -0.0, 1.0])]
        for u in lumps:
            for v in lumps + [side(100), side(100, 0.25)]:
                cases += [(u, v), (v, u)]
        # long runs of one side in the merged order, where timsort's merge
        # gallops: two shifted clouds, and alternating blocks with ties in v
        blocks = rng.random(4000) + rng.integers(0, 2, 4000) * 2
        for u, v in (
            (validate(rng.normal(size=4000), rng.random(4000)), validate(rng.normal(3, 1, 4000), rng.random(4000))),
            (validate(blocks, rng.random(4000)), validate(np.round(blocks + 1, 3), rng.random(4000))),
        ):
            cases += [(u, v), (v, u)]
        # points near both ends of the exponent range: scaled up from the
        # subnormals, and down from near the float maximum, where subnormal
        # points of the same side round into ties; the -0.0 lumps go with them
        for exponent in (-1074, -1060, 1000, 1021):
            for trial in range(6):
                u, v = (side(int(rng.integers(1, 200)), (None, 1e-3, 0.25)[trial % 3]) for _ in "uv")
                u, v = (replace(d, points=np.ldexp(d.points, exponent)) for d in (u, v))
                cases += [(u, v), (v, u), (u, u)] + [(u, lump) for lump in lumps]
        for k in (3, 40, 300):
            top = validate(np.append(rng.choice([-1.5, 1.5], 1) * 2.0**1023, rng.integers(0, 12, k) * 2.0**-1074),
                           np.append(rng.random(1), rng.random(k)))
            low = validate(rng.integers(0, 12, k) * 2.0**-1074, rng.random(k))
            cases += [(top, low), (low, top), (top, top)]
        for u, v in cases:
            scale = api_scale(u, v)
            got, want = merged_support(u, v, scale), unique_merged_support(u, v, scale)
            for name in ("positions", "u_cdf", "v_cdf"):
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
            # the support is the same where the sorts are kept, and so are
            # each side's order and running sum
            got_sorts, want_sorts = [], []
            kept = merged_support(u, v, scale, got_sorts)
            unique_merged_support(u, v, scale, want_sorts)
            for name in ("positions", "u_cdf", "v_cdf"):
                np.testing.assert_array_equal(getattr(kept, name), getattr(want, name))
            for (got_order, got_cum), (want_order, want_cum) in zip(got_sorts, want_sorts, strict=True):
                np.testing.assert_array_equal(got_order, want_order)
                assert got_cum.tobytes() == want_cum.tobytes()
            distance = cdf_distance_1d(u, v, scale)
            with monkeypatch.context() as patch:
                patch.setattr(cdf1d, "merged_support", unique_merged_support)
                assert distance == cdf_distance_1d(u, v, scale)
            if u is v:
                assert distance == 0.0

    def test_weights_times_a_power_of_two_read_the_same_bits(self):
        # each side is divided by its own total, so 2^k times its weights is
        # the same distribution, bit for bit, while no weight is subnormal
        rng = np.random.default_rng(79)
        for trial in range(40):
            points = [rng.normal(size=int(rng.integers(1, 300))) for _ in "uv"]
            if trial % 2:
                points = [np.round(p, 3) for p in points]
            weights = [rng.random(p.size) + 0.01 for p in points]
            want = merged_support(*map(validate, points, weights))
            for k in (-1000, -3, 1, 900):
                got = merged_support(*(validate(p, np.ldexp(w, k)) for p, w in zip(points, weights)))
                for name in ("positions", "u_cdf", "v_cdf"):
                    np.testing.assert_array_equal(getattr(got, name), getattr(want, name))

    def test_peak_memory_per_input_point(self, monkeypatch):
        # cdf_distance_1d, so merged_support and the tail, measured 17.32
        # bytes a point on the tied pair, 28.45 on the untied one and 17.32
        # on the repairing one (21.3, 36.4 and 21.3 while each side's
        # weights and each CDF took buffers of their own). The tied and
        # repairing peaks are v's sort while u's outputs are held, the
        # untied one v's count beside the positions, u's CDF and v's running
        # sum. u of the repairing pair holds runs of values a few ulps apart,
        # falling in input order, off the sampled slots, so its sort repairs
        # a few buckets; it read 18.5 while the repair took the keys of the
        # whole side again
        rng = np.random.default_rng(7)
        n, m = 2**16, 3 * 2**14
        tied = (dist1d(rng.standard_normal(n), rng.random(n)),
                dist1d(np.round(rng.normal(0.1, 1.2, m), 3), rng.random(m)))
        untied = (dist1d(rng.standard_normal(n), rng.random(n)),
                  dist1d(rng.standard_normal(m), rng.random(m)))
        x = rng.standard_normal(n)
        runs = np.arange(1, n, n // 64)
        for k in range(4):
            x[runs + k] = x[runs] * (1 + (4 - k) * 2.0**-52)
        assert 0 < sum(TestStableSort.two_pass_sizes(monkeypatch, x)) < 1000
        repairing = (dist1d(x, rng.random(n)), dist1d(np.round(rng.normal(0.1, 1.2, m), 3), rng.random(m)))
        for (u, v), pin in ((tied, 18), (untied, 29), (repairing, 18)):
            tracemalloc.start()
            try:
                cdf_distance_1d(u, v)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= pin * (n + m)


def default_kind_sort_side(dist, scale):
    """``_sort_side`` with a default-kind argsort of the column for its order, less the tie merge."""
    column = dist.points[:, 0]
    if scale > 0:
        column, scale = np.ldexp(column, -scale), 0
    order = column.argsort()
    cum = dist.weights.take(order)
    cum /= dist.weights.sum()
    return np.ldexp(column.take(order), -scale), cum.cumsum()


class TestStableSort:
    @staticmethod
    def check(x):
        order, positions = cdf1d._stable_sort(x)
        want = np.argsort(x, kind="stable")
        np.testing.assert_array_equal(order, want)
        assert positions.tobytes() == x[want].tobytes()  # bits, so the sign of a zero too

    @staticmethod
    def two_pass_sizes(monkeypatch, x):
        """The sizes ``_two_pass_order`` sorts while ``x`` is sorted: the whole side, or the buckets repaired."""
        sizes, two_pass_order = [], cdf1d._two_pass_order

        def counted(offset, drop):
            sizes.append(offset.size)
            return two_pass_order(offset, drop)

        monkeypatch.setattr(cdf1d, "_two_pass_order", counted)
        TestStableSort.check(x)
        monkeypatch.setattr(cdf1d, "_two_pass_order", two_pass_order)
        return sizes

    @pytest.mark.parametrize("n", [1, 2, 3, 2**10, 2**10 + 1, 2**16, 2**16 + 1])
    def test_sizes_at_and_past_a_power_of_two(self, n):
        rng = np.random.default_rng(n)
        self.check(rng.standard_normal(n))
        self.check(rng.integers(0, 4, n) / 4)

    def test_signed_zeros_and_subnormals(self):
        rng = np.random.default_rng(3)
        tiny = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.0**-1022, -(2.0**-1022), 1.0]
        for _ in range(300):
            self.check(rng.choice(tiny, int(rng.integers(1, 60))))
        self.check(np.array([0.0, -0.0, 0.0, -0.0]))
        self.check(np.array([-0.0, -5e-324, 0.0, 5e-324, -0.0]))

    def test_every_exponent(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(1, 400))
            x = np.ldexp(rng.random(n) + 1.0, rng.integers(-1074, 1024, n)) * rng.choice([-1.0, 1.0], n)
            x[rng.random(n) < 0.2] = rng.choice(x, 1)  # ties
            self.check(x)
        self.check(np.array([np.finfo(float).max, -np.finfo(float).max, 5e-324, -5e-324, 0.0]))

    def test_values_apart_in_their_last_bits_are_repaired(self, monkeypatch):
        # spread values drop low key bits; runs of values a few ulps apart,
        # in falling input order, share a bucket and hold descents. Off the
        # sampled slots (every n // 1024-th) of a large side, the side is
        # sorted once and only those buckets again; below 2048 values the
        # sample is the side, and the whole side is sorted in two passes
        rng = np.random.default_rng(7)
        repaired = whole = 0
        for trial in range(60):
            n = int(rng.integers(2, 2048) if trial % 2 else rng.integers(2**13, 2**15))
            x = rng.standard_normal(n)
            step = max(1, n // 1024)
            for _ in range(int(rng.integers(1, 6))):
                at = rng.choice(n, int(rng.integers(2, 8)), replace=False)
                at = at[at % step != 0] if step > 1 else at
                x[at] = x[at[:1]] * (1 + np.arange(at.size)[::-1] * 2.0**-52 * (1 + trial % 3))
            sizes = self.two_pass_sizes(monkeypatch, x)
            assert sizes in ([], [n]) if step == 1 else len(sizes) <= 1 and sum(sizes) < 100
            repaired += step > 1 and len(sizes)
            whole += sizes == [n]
        assert repaired >= 20 and whole >= 20

    def test_a_dense_cluster_beside_a_far_point_is_sorted_in_two_passes(self, monkeypatch):
        # one far point stretches the key range, so the whole cluster shares
        # a bucket or a few; the sample shows it, and the side is sorted in
        # two passes from the start
        rng = np.random.default_rng(11)
        for n in (1000, 2**14):
            cluster = 1e9 + rng.random(n) * 1e-3
            for x in (np.append(cluster, 0.0), np.append(np.round(cluster, 6), 0.0),
                      np.insert(-cluster, n // 2, 1e300)):
                assert self.two_pass_sizes(monkeypatch, x) == [n + 1]

    def test_crowded_buckets_the_sample_misses_are_repaired(self, monkeypatch):
        # pairs a few ulps apart, each pair off the sampled slots: half the
        # side sits in two-value buckets, and one repair sorts them all
        rng = np.random.default_rng(19)
        n = 2**14
        x = rng.standard_normal(n)
        odd = np.arange(1, n, 2)
        x[odd] = x[odd - 1] * (1 - 2.0**-50)
        x[odd - 1] = x[odd - 1] * (1 - 2.0**-51)
        sizes = self.two_pass_sizes(monkeypatch, x)
        assert len(sizes) == 1 and n // 4 < sizes[0] < n

    def test_strided_and_read_only_views(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(1, 500))
            base = np.round(rng.standard_normal(3 * n), 1)
            frozen = base[1::3]
            frozen.flags.writeable = False
            self.check(base[::3])
            self.check(frozen)
            self.check(base[::-3])

    def test_untied_sides_sort_as_the_default_kind_did(self):
        # without ties every order is the same, so the sorted side reads the
        # bits a default-kind sort gave, at scales below 0 and, from 2^1021
        # up, above it
        rng = np.random.default_rng(17)
        for trial in range(60):
            n = int(rng.integers(1, 3000))
            points = np.unique(np.ldexp(rng.standard_normal(n), int(rng.choice([-1070, -5, 0, 1000, 1021]))))
            points = rng.permutation(points)
            dist = validate(points[:: 1 + trial % 2], rng.random(points[:: 1 + trial % 2].size) + 0.01)
            scale = api_scale(dist, dist)
            positions, cum = cdf1d._sort_side(dist, scale)
            want_positions, want_cum = default_kind_sort_side(dist, scale)
            assert positions.tobytes() == want_positions.tobytes()
            assert cum.tobytes() == want_cum.tobytes()


    def test_buckets_on_either_side_of_zero_are_repaired(self, monkeypatch):
        # where the smallest key is a multiple of the bucket width, -0.0
        # ends a bucket and 0.0 starts the next; the two compare equal, so
        # the repair's search for that boundary can stop inside either
        # bucket. Tiny values of either sign, or of one, or in order on one
        # side, sit off the sampled slots, so only their buckets are repaired
        rng = np.random.default_rng(23)
        n = 2**13
        tiny = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-323, -1e-323, 1.5e-323, -1.5e-323])
        off_sample = np.flatnonzero(np.arange(n) % 8)
        repaired = 0
        for trial in range(40):
            x = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
            # rounding the lowest key down to a multiple of twice the width
            # can widen the range, and so the buckets, by one bit at most
            keys = cdf1d._order_keys(x)
            drop = (int(keys.max()) - int(keys.min())).bit_length() + 13 - 64
            lowest = int(keys.argmin())
            key = int(keys[lowest])
            x[lowest] = cdf1d._key_values(np.array([key - key % 2 ** (drop + 1)]))[0]
            keys = cdf1d._order_keys(x)
            drop = (int(keys.max()) - int(keys.min())).bit_length() + 13 - 64
            at = np.sort(rng.choice(off_sample, int(rng.integers(2, 40)), replace=False))
            pool = (tiny, tiny[tiny <= 0], tiny[~np.signbit(tiny)], tiny, tiny)[trial % 5]
            x[at] = rng.choice(pool, at.size)
            if trial % 5 > 2:
                side = at[np.signbit(x[at]) == (trial % 5 == 3)]
                x[side] = np.sort(x[side])
            sizes = self.two_pass_sizes(monkeypatch, x)
            assert drop > 0 and int(keys.min()) % 2**drop == 0 and n not in sizes
            repaired += bool(sizes)
        assert repaired >= 30


class TestNumpyBehaviour:
    """What the 1D path relies on NumPy for, beyond what its documentation states."""

    def test_take_into_its_own_index_buffer(self):
        # _sort_side and _cdf_at take into the buffer of the intp index they
        # read from: with mode="clip" NumPy writes there directly, reading
        # each index before it writes that slot, and clips -1 to 0
        rng = np.random.default_rng(29)
        for n in (1, 2, 7, 2**16):
            values = rng.standard_normal(n)
            index = np.concatenate([[-1, n - 1, 0], rng.integers(-1, n, n)])
            want = np.take(values, index, mode="clip")
            tracemalloc.start()
            try:
                got = np.take(values, index, out=index.view(np.float64), mode="clip")
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert got.tobytes() == want.tobytes()
            assert got.base is index and peak < 4096

    def test_cumsum_in_place(self):
        # _counted sums an intp copy of the flags into itself; a cumsum of
        # the bool flags would allocate an intp copy of its input
        rng = np.random.default_rng(31)
        flags = rng.random(2**16) < 0.4
        index = flags.astype(np.intp)
        tracemalloc.start()
        try:
            got = index.cumsum(out=index)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(got, np.cumsum(flags))
        assert got is index and peak < 4096

    def test_searchsorted_stops_where_the_comparison_turns(self):
        # _packed_sort searchsorts into an array that is in order only
        # between buckets: binary search still stops where the values go
        # from below the key to not below it (above it, for side="right"),
        # at a slot where they do so in any order of the values
        rng = np.random.default_rng(37)
        for _ in range(200):
            sizes = rng.integers(0, 20, 6)
            values = np.concatenate([rng.permutation(np.arange(s) * 0.01 + k) for k, s in enumerate(sizes)])
            bounds = np.concatenate([[0], np.cumsum(sizes)])
            np.testing.assert_array_equal(values.searchsorted(np.arange(6.0)), bounds[:-1])
            np.testing.assert_array_equal(values.searchsorted(np.arange(6.0) + 0.5, side="right"), bounds[1:])
            mixed = rng.choice([-1.0, -0.0, 0.0, 1.0], int(rng.integers(1, 30)))
            for side, below in (("left", mixed < 0.0), ("right", mixed <= -0.0)):
                k = mixed.searchsorted(0.0 if side == "left" else -0.0, side=side)
                assert (k == 0 or below[k - 1]) and (k == mixed.size or not below[k])

    def test_int64_arithmetic_wraps(self):
        # _packed_sort finds a bucket's first key as (key - low) & -step,
        # plus low again, in int64: key - low can pass 2^63 and wraps, with
        # no warning, and adding low wraps it back
        keys = cdf1d._order_keys(np.array([-1e308, -1.0, 0.0, 3.0, 1e308, np.inf]))
        low, step = int(keys[0]), 2**20
        first = keys - low
        assert first[-1] < 0  # wrapped
        first &= -step
        first += low
        assert first.tolist() == [low + (int(k) - low) // step * step for k in keys]


def loop_coupling(a_order, a_ends, b_order, b_ends):
    """Reference north-west corner rule: walk both members' widths, moving the smaller remainder."""
    remaining_a = np.diff(a_ends, prepend=0.0).tolist()
    remaining_b = np.diff(b_ends, prepend=0.0).tolist()
    pieces = []
    i = j = 0
    while i < len(remaining_a) and j < len(remaining_b):
        width = min(remaining_a[i], remaining_b[j])
        if width > 0:
            pieces.append((int(a_order[i]), int(b_order[j]), width))
        remaining_a[i] -= width
        remaining_b[j] -= width
        if remaining_a[i] == 0.0:
            i += 1
        if remaining_b[j] == 0.0:
            j += 1
    return tuple(np.array([piece[k] for piece in pieces]) for k in range(3))


def eighths(rng, k):
    """k member ends on the mass axis, a permutation of k labels: widths of 0 to 4 eighths.

    Every end is a small multiple of 1/8, so every sum and difference of
    them is exact.
    """
    return rng.permutation(k) + 100, np.cumsum(rng.integers(0, 5, k) / 8)


class TestMonotoneCoupling:
    def test_matches_north_west_corner_loop_exactly(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            a = eighths(rng, int(rng.integers(1, 12)))
            b = eighths(rng, int(rng.integers(1, 12)))
            got, want = monotone_coupling(*a, *b), loop_coupling(*a, *b)
            for got_array, want_array in zip(got, want):
                assert got_array.tolist() == want_array.tolist()

    def test_tail_past_the_smaller_last_end_is_dropped(self):
        a_member, b_member, width = monotone_coupling(
            np.array([7, 8]), np.array([0.5, 1.0]), np.array([3, 4]), np.array([0.25, 0.5])
        )
        assert a_member.tolist() == [7, 7]
        assert b_member.tolist() == [3, 4]
        assert width.tolist() == [0.25, 0.25]

    def test_zero_width_intervals_get_no_piece(self):
        # a's members 0 and 2 and b's member 1 hold no mass; the repeated
        # ends 0.25 and 0.5 of the two sides cut no second piece
        a_member, b_member, width = monotone_coupling(
            np.arange(4), np.array([0.0, 0.5, 0.5, 1.0]), np.arange(3), np.array([0.25, 0.25, 1.0])
        )
        assert a_member.tolist() == [1, 1, 3]
        assert b_member.tolist() == [0, 2, 2]
        assert width.tolist() == [0.25, 0.25, 0.5]

    def test_widths_sum_to_the_smaller_last_end(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            a = eighths(rng, int(rng.integers(1, 12)))
            b = eighths(rng, int(rng.integers(1, 12)))
            width = monotone_coupling(*a, *b)[2]
            assert (width > 0.0).all()
            assert width.sum() == min(a[1][-1], b[1][-1])


class TestGreedyPlan:
    """The plan ``wasserstein_distance`` builds on the 1D path from each side's one sort."""

    def test_sorted_pairing(self):
        plan = api_plan(dist1d([0, 1, 3]), dist1d([5, 6, 8]))
        assert pairs(plan) == [(0, 0), (1, 1), (2, 2)]
        np.testing.assert_allclose(plan.mass, [1 / 3] * 3)
        costs = pairwise_costs(dist1d([0, 1, 3]), dist1d([5, 6, 8]))
        assert plan.cost(costs) == pytest.approx(5.0, rel=1e-12)

    def test_identity_plan(self):
        u = dist1d([2.0, 7.0])
        plan = api_plan(u, u)
        assert pairs(plan) == [(0, 0), (1, 1)]
        assert plan.cost(pairwise_costs(u, u)) == 0.0

    def test_unsorted_inputs_use_original_indices(self):
        u = dist1d([3, 0, 1])  # sorted order is 1, 2, 0
        v = dist1d([8, 5, 6])
        plan = api_plan(u, v)
        assert pairs(plan) == [(1, 1), (2, 2), (0, 0)]

    def test_marginals_and_cost_match_cdf(self):
        rng = np.random.default_rng(23)
        worst = 0.0
        for _ in range(100):
            n, m = int(rng.integers(1, 10)), int(rng.integers(1, 10))
            u = dist1d(rng.normal(size=n) * 4, rng.random(n) + 0.01)
            v = dist1d(rng.normal(size=m) * 4, rng.random(m) + 0.01)
            plan = api_plan(u, v)
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
            plan, oracle = api_plan(u, v), loop_plan_1d(u, v)
            for got, want in ((plan.source_marginals(), oracle.source_marginals()),
                              (plan.target_marginals(), oracle.target_marginals())):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            costs = pairwise_costs(u, v)
            assert abs(plan.cost(costs) - oracle.cost(costs)) <= 1e-12
            assert (u.weights[plan.rows] > 0).all() and (v.weights[plan.cols] > 0).all()

            self_plan = api_plan(u, u)
            assert (self_plan.rows == self_plan.cols).all()
            assert self_plan.cost(pairwise_costs(u, u)) == 0.0

    def test_five_versus_four_point_instance(self):
        rng = np.random.default_rng(99)
        u = dist1d(rng.normal(size=5) * 3, rng.random(5) + 0.1)
        v = dist1d(rng.normal(size=4) * 3, rng.random(4) + 0.1)
        costs = pairwise_costs(u, v)
        greedy_cost = api_plan(u, v).cost(costs)
        assert abs(greedy_cost - cdf_distance_1d(u, v)) <= 1e-10
        # the LP path lands on the same value
        lp = solution_distance(solve(build_problem(costs, u.weights, v.weights)))
        assert abs(greedy_cost - lp) <= 1e-8

    def test_matches_the_two_sort_oracle_bit_for_bit(self):
        # the plan reads each side's order and running sum off the distance's
        # own sort, which sorts unscaled points where the scale is not
        # positive and scales first where it is; the oracle sorts the
        # scaled, normalized sides a second time
        rng = np.random.default_rng(83)

        def side(k, grid):
            points = np.round(rng.uniform(-1.9, 1.9, k) / grid) * grid
            points[rng.random(k) < 0.2] = rng.choice([0.0, -0.0])
            weights = rng.random(k) * (rng.random(k) >= 0.2)
            weights[rng.random(k) < 0.1] = -0.0
            weights[rng.integers(k)] += 1.0  # a positive total
            return points, weights

        cases = []
        for trial in range(240):
            # unscaled, from 2^1022 up (the distance's sort scales first),
            # and subnormal, where scaling up is exact
            exponent = (0, 1022, -1074, -1060)[trial % 4]
            grid = (1e-3, 0.25, 1.0)[trial // 4 % 3]
            (u, u_w), (v, v_w) = (side(int(rng.integers(1, 3 if trial % 10 == 0 else 200)), grid) for _ in "uv")
            u, v = np.ldexp(u, exponent), np.ldexp(v, exponent)
            cases += [(u, u_w, v, v_w), (v, v_w, u, u_w), (u, u_w, u, u_w)]
        # a point near the float maximum beside subnormals, which round into
        # ties when the sort scales them down
        for k in (3, 40, 300):
            top = np.append(rng.choice([-1.5, 1.5], 1) * 2.0**1023, rng.integers(0, 12, k) * 2.0**-1074)
            low = rng.integers(0, 12, k) * 2.0**-1074
            top_w, low_w = np.append(rng.random(1), rng.random(k)), rng.random(k)
            cases += [(top, top_w, low, low_w), (low, low_w, top, top_w), (top, top_w, top, top_w)]
        for u, u_w, v, v_w in cases:
            u_dist, v_dist = validate(u, u_w), validate(v, v_w)
            scale = api_scale(u_dist, v_dist)
            want = greedy_plan_1d(api._scaled(u_dist, scale), api._scaled(v_dist, scale))
            got = api.wasserstein_distance(u, v, u_w, v_w, want_plan=True).plan
            assert (got.n_sources, got.n_targets) == (want.n_sources, want.n_targets)
            for name in ("rows", "cols", "mass"):
                got_array, want_array = getattr(got, name), getattr(want, name)
                assert got_array.dtype == want_array.dtype
                assert got_array.tobytes() == want_array.tobytes()

    def test_a_plan_call_sorts_each_side_once(self, monkeypatch):
        sizes = []
        sort = cdf1d._stable_sort
        monkeypatch.setattr(cdf1d, "_stable_sort", lambda column: sizes.append(column.size) or sort(column))
        plan = api.wasserstein_distance([3.0, 1.0, 1.0, 2.0], [0.5, 2.0, 4.0], want_plan=True).plan
        assert sizes == [4, 3]
        assert pairs(plan) == [(1, 0), (2, 0), (2, 1), (3, 1), (3, 2), (0, 2)]


def test_cdf_path_matches_lp_path():
    rng = np.random.default_rng(31)
    for _ in range(30):
        n, m = int(rng.integers(1, 15)), int(rng.integers(1, 15))
        u = dist1d(rng.normal(size=n) * 6, rng.random(n) + 0.01)
        v = dist1d(rng.normal(size=m) * 6, rng.random(m) + 0.01)
        lp = solution_distance(solve(build_problem(pairwise_costs(u, v), u.weights, v.weights)))
        assert abs(lp - cdf_distance_1d(u, v)) <= 1e-8
