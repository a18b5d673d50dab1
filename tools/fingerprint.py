"""Print one SHA-1 over the results of fixed instance pools, to show they did not move.

For every instance it hashes the distance as ``float.hex``, the pivot
count, and the plan's ``rows``, ``cols`` and ``mass`` bytes. The pools are
fixed:

- ``lp_assignment``, seeds 1 and 901, 16 instances each;
- ``lp_weighted``, seeds 1 and 7, 16 instances each;
- ``cdf1d_ties``, seed 1, 4 instances;
- uniform 2D points, 512 a side, from ``numpy.random.default_rng(5)``;
- 4 pairs of 2^15 untied, weighted 1D points a side, also from
  ``numpy.random.default_rng(5)``: the 1D path where neither side has ties;
- 4 pairs of 2^15 weighted 1D points a side from
  ``numpy.random.default_rng(6)``, in arrays that are not plain contiguous
  float64: strided ``x[::2]`` slices, int64 count weights and a read-only
  array. ``validate`` reads float64 input in place, so this pool pins that
  such layouts give what their contiguous copies give.

Run from the root of a source checkout; the library is imported from
``src`` and the benchmark pools from ``bench/workloads.py``, read-only:

    python tools/fingerprint.py

It prints one line per pool with that pool's hash, so a difference can be
traced to its pool, and then the ``fingerprint`` line, a hash over all of
them. Two checkouts that print the same fingerprint computed the same
distances, pivots and plans. It takes a few seconds.

``tools/fingerprint.txt`` holds the nine lines the tool prints on the
current tree, and ``tests/test_fingerprint.py`` asserts that the output
equals it exactly. A change that moves results updates that file and
explains in CHANGES.md why they moved.
"""

import hashlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from earthmover import wasserstein_distance  # noqa: E402
from workloads import Instance, make_instances  # noqa: E402

POOLS = [
    ("lp_assignment", 1, 16),
    ("lp_assignment", 901, 16),
    ("lp_weighted", 1, 16),
    ("lp_weighted", 7, 16),
    ("cdf1d_ties", 1, 4),
]


def uniform_512():
    rng = np.random.default_rng(5)
    return [Instance(rng.random((512, 2)), rng.random((512, 2)))]


def untied_1d():
    rng = np.random.default_rng(5)
    k = 2**15
    return [Instance(rng.standard_normal(k), rng.standard_normal(k), rng.random(k), rng.random(k))
            for _ in range(4)]


def unusual_1d():
    rng = np.random.default_rng(6)
    k = 2**15
    instances = []
    for _ in range(4):
        frozen = np.round(rng.normal(0.1, 1.2, 2 * k), 3)[1::2]  # strided, tied and read-only
        frozen.flags.writeable = False
        instances.append(Instance(rng.standard_normal(2 * k)[::2], frozen,
                                  rng.integers(1, 6, k), rng.random(2 * k)[::2]))
    return instances


def pool_digest(instances) -> str:
    """SHA-1 of the distance, pivots and plan of every instance, in order."""
    digest = hashlib.sha1()
    for inst in instances:
        result = wasserstein_distance(*inst.args(), want_plan=True)
        digest.update(f"{result.distance.hex()} {result.iterations}\n".encode())
        plan = result.plan
        for array in (plan.rows, plan.cols, plan.mass):
            digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def main() -> int:
    pools = [(f"{name} seed {seed} x{count}", make_instances(name, seed, count))
             for name, seed, count in POOLS]
    pools.append(("uniform 512x512 default_rng(5)", uniform_512()))
    pools.append(("untied 1D 2^15 x4 default_rng(5)", untied_1d()))
    pools.append(("strided, int and read-only 1D 2^15 x4 default_rng(6)", unusual_1d()))
    total = hashlib.sha1()
    for label, instances in pools:
        digest = pool_digest(instances)
        total.update(digest.encode())
        print(f"{digest}  {label}")
    print(f"{total.hexdigest()}  fingerprint")
    return 0


if __name__ == "__main__":
    sys.exit(main())
