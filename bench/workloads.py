"""Seeded instance families and their independent oracles.

Each workload is a synthetic, in-repo analogue of a DOTmark class
(Schrieber, Schuhmacher & Gottschlich, IEEE Access 2017). Instances are drawn
from ``numpy.random.default_rng(seed)`` only, so one seed always gives the same
inputs. Oracles come from SciPy and are imported lazily, so the library's
peak memory and set-up time are measured without them.
"""

import math
from dataclasses import dataclass

import numpy as np

# Relative tolerance of the oracle gate. The 1D path disagrees with SciPy by
# up to ~1e-11 at 2^18 points, so the gate must not be tighter than 1e-9.
ORACLE_RTOL = 1e-9


@dataclass(frozen=True)
class Instance:
    u_values: np.ndarray
    v_values: np.ndarray
    u_weights: np.ndarray = None
    v_weights: np.ndarray = None

    def args(self):
        return self.u_values, self.v_values, self.u_weights, self.v_weights


def lp_assignment(rng, n=128):
    """Uniform 2D points, n per side, equal weights: a highly degenerate LP."""
    return Instance(rng.random((n, 2)), rng.random((n, 2)))


def lp_weighted(rng, n=160, m=120, side=8):
    """Points on a side x side integer grid with integer weights 1..5, n != m."""
    return Instance(
        rng.integers(0, side, (n, 2)).astype(np.float64),
        rng.integers(0, side, (m, 2)).astype(np.float64),
        rng.integers(1, 6, n).astype(np.float64),
        rng.integers(1, 6, m).astype(np.float64),
    )


def cdf1d_ties(rng, n=2**18, m=3 * 2**16):
    """Weighted normal samples against weighted samples rounded to a 1e-3 grid."""
    return Instance(
        rng.standard_normal(n),
        np.round(rng.normal(0.1, 1.2, m), 3),
        rng.random(n),
        rng.random(m),
    )


def assignment_oracle(inst):
    """Exact for equal weights and n == m: optimal matching cost over n."""
    from scipy.optimize import linear_sum_assignment
    from scipy.spatial.distance import cdist

    n = inst.u_values.shape[0]
    if inst.u_weights is not None or inst.v_weights is not None or inst.v_values.shape[0] != n:
        raise ValueError("the assignment oracle needs equal weights and n == m")
    cost = cdist(inst.u_values, inst.v_values)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum() / n)


def nd_oracle(inst):
    from scipy.stats import wasserstein_distance_nd

    return float(wasserstein_distance_nd(*inst.args()))


def cdf_oracle(inst):
    from scipy.stats import wasserstein_distance

    return float(wasserstein_distance(*inst.args()))


@dataclass(frozen=True)
class Workload:
    name: str
    generate: object  # generate(rng, **sizes) -> Instance
    oracle: object  # oracle(Instance) -> float
    lp: bool  # True when the call goes through geometry, transport_lp and simplex
    streams: bool  # True when a call streams arrays of several MB through memory
    pool: int  # distinct instances per run; calls cycle over them


# LP solve times vary ~10% between instances of one family, so the LP pools
# are large enough to keep a run's p90 from hanging on one instance. The
# median pivot count of a 16-instance lp_assignment pool still moved ~6%
# between seeds, so that pool is 32; its oracle is fast. The 1D instances cost
# almost the same each and take ~7 MB apiece.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("lp_assignment", lp_assignment, assignment_oracle, lp=True, streams=False, pool=32),
        Workload("lp_weighted", lp_weighted, nd_oracle, lp=True, streams=False, pool=16),
        Workload("cdf1d_ties", cdf1d_ties, cdf_oracle, lp=False, streams=True, pool=4),
    )
}


def make_instances(name, seed, count, **sizes):
    """``count`` instances of workload ``name``, determined by ``seed`` alone."""
    rng = np.random.default_rng(seed)
    generate = WORKLOADS[name].generate
    return [generate(rng, **sizes) for _ in range(count)]


def agrees(distance, expected):
    return math.isclose(distance, expected, rel_tol=ORACLE_RTOL, abs_tol=0.0)
