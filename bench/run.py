"""Closed-loop benchmark of ``earthmover.wasserstein_distance``.

    python3 bench/run.py --workload lp_assignment --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the library is imported from
``src/`` of that checkout and nothing is built or installed. One process and
one caller thread send each call after the previous one returns, cycling over
a fixed pool of seeded instances. A fixed reference kernel that never
touches the library is timed between consecutive calls, and each call's
latency is also reported in units of that kernel's time, which cancels most
of the shared host's drift in speed. Every call is checked against a SciPy
oracle after the timed loop. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates plain
and traced calls, times every layer the ``api`` module calls into, counts
degenerate pivots in a separate pass, and reports the per-layer metrics.
"""

import argparse
import dataclasses
import functools
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from spans import Tracer
from workloads import WORKLOADS, Instance, agrees, make_instances

ROOT = Path(__file__).resolve().parent.parent
# Imports and set-up are each repeated and their medians reported: one
# import in a fresh interpreter varied by +-30% from the next (BASELINE.md).
SETUP_REPEATS = 15
WARM_UP_POINTS = 8  # the warm-up call takes this many points of each side of the first instance
P90_MIN_CALLS = 100  # a p90 needs >= 10 samples beyond it

END_TO_END_UNITS = {
    "latency_ref.p50": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Printed on every run but left out of the JSON line and BENCHMARK.json: on a
# shared 2-vCPU host the wall-clock figures spread over 10 seeds by more than
# the largest bound the format allows (see BASELINE.md), so they cannot gate a
# change.
UNGATED_UNITS = {
    "latency_ref.p90": "ref",
    "latency_ms.p50": "ms",
    "latency_ms.p90": "ms",
    "throughput_per_s": "1/s",
}

PER_LAYER_UNITS = {
    "simplex.initial_basis_ms": "ms",
    "simplex.solve_self_ms": "ms",
    "simplex.pivots": "count",
    "simplex.degenerate_pivots": "count",
    "simplex.us_per_pivot": "us",
    "geometry.pairwise_costs_ms": "ms",
    "geometry.cost_cells": "count",
    "geometry.temp_bytes_computed": "bytes",
    "transport_lp.build_problem_ms": "ms",
    "transport_lp.solution_distance_ms": "ms",
    "cdf1d.merged_support_ms": "ms",
    "cdf1d.cdf_distance_1d_self_ms": "ms",
    "cdf1d.merged_support_points": "count",
    "distributions.validate_ms": "ms",
    "distributions.normalize_ms": "ms",
    "distributions.classify_finiteness_ms": "ms",
    "api.self_ms": "ms",
    "trace.overhead_pct": "%",
}


# How fast the shared host runs drifts by up to ~2x over minutes, and CPU
# time drifts with wall time (BASELINE.md). The reference kernel is fixed,
# independent of --seed and of the library, and slows with the host: timed
# just before and just after a call, the geometric mean of the two is the
# call's reference time. Its core has a vectorised half (array arithmetic,
# argmin, a sort) and an interpreted half (a breadth-first walk of a tree held
# in Python sets, reading and writing NumPy scalars). For a workload whose
# calls stream arrays of several MB through memory, a streaming part is added.
# Of the kernels tried, these tracked the library's calls best (BASELINE.md).
_reference_rng = np.random.default_rng(0)
REFERENCE_MATRIX = _reference_rng.random((128, 128))
REFERENCE_VECTOR = _reference_rng.random(2**16)
REFERENCE_NODES = 280
REFERENCE_LINKS = [set() for _ in range(REFERENCE_NODES)]
for _node in range(1, REFERENCE_NODES):
    _up = int(_reference_rng.integers(0, _node))
    REFERENCE_LINKS[_up].add(_node)
    REFERENCE_LINKS[_node].add(_up)
REFERENCE_COST = _reference_rng.random((REFERENCE_NODES, REFERENCE_NODES))


@functools.cache
def reference_stream():
    """Two 4 MB arrays for the streaming part, made on first use only."""
    return np.random.default_rng(1).random(2**19), np.empty(2**19)


def reference_ns(streaming=False):
    """Wall time of the reference kernel: ~3.5-5 ms on the host of BASELINE.md, about twice that when ``streaming``."""
    source, target = reference_stream() if streaming else (None, None)
    started = time.perf_counter_ns()
    for _ in range(20):
        np.argmin(REFERENCE_MATRIX - REFERENCE_MATRIX.mean(axis=0))
    np.sort(REFERENCE_VECTOR)
    for _ in range(6):
        depth = np.zeros(REFERENCE_NODES, dtype=np.int64)
        potential = np.zeros(REFERENCE_NODES)
        seen = np.zeros(REFERENCE_NODES, dtype=bool)
        seen[0] = True
        queue = deque([0])
        while queue:
            node = queue.popleft()
            for nxt in REFERENCE_LINKS[node]:
                if not seen[nxt]:
                    seen[nxt] = True
                    depth[nxt] = depth[node] + 1
                    potential[nxt] = REFERENCE_COST[node, nxt] - potential[node]
                    queue.append(nxt)
    if streaming:
        for _ in range(3):
            np.multiply(source, 1.0001, out=target)
        np.cumsum(source, out=target)
    return time.perf_counter_ns() - started


@dataclass(frozen=True)
class Call:
    instance: int
    elapsed_ns: int
    distance: float = None  # None when the call raised
    iterations: int = 0
    error: str = None  # the library's error code, or the exception type
    reference_ns: float = 0.0  # reference kernel time around the call; 0 when not measured


def import_library():
    """Import ``earthmover`` from this checkout's ``src/``, and from nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import earthmover

    if Path(earthmover.__file__).resolve().parent.parent != src:
        raise ImportError(f"earthmover was found at {earthmover.__file__}, not under {src}")
    return earthmover


def call_once(distance_fn, instances, k):
    started = time.perf_counter_ns()
    try:
        result = distance_fn(*instances[k].args())
    except Exception as exc:  # a failed call is counted and the loop goes on
        elapsed = time.perf_counter_ns() - started
        if not isinstance(getattr(exc, "code", None), str):
            traceback.print_exc(file=sys.stderr)
        return Call(k, elapsed, error=getattr(exc, "code", type(exc).__name__))
    elapsed = time.perf_counter_ns() - started
    return Call(k, elapsed, float(result.distance), result.iterations)


def import_seconds():
    """Seconds to import the library, and NumPy with it, in a fresh interpreter."""
    code = ("import sys, time; started = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
            "import earthmover; print(time.perf_counter() - started)")
    child = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                           capture_output=True, text=True, check=True, timeout=60)
    return float(child.stdout)


def set_up(workload, seed, distance_fn):
    """Generate the instance pool and warm up with one small call; returns (instances, seconds).

    The warm-up runs every code path of a full call on the first
    WARM_UP_POINTS points of each side, so set-up time is not one more sample
    of the latency the timed loop measures.
    """
    started = time.perf_counter()
    instances = make_instances(workload.name, seed, workload.pool)
    small = Instance(*(None if a is None else a[:WARM_UP_POINTS] for a in instances[0].args()))
    call_once(distance_fn, [small], 0)
    return instances, time.perf_counter() - started


def timed_loop(distance_fn, instances, seconds, streaming=False):
    """Closed loop for ``seconds`` and at least P90_MIN_CALLS calls; returns (calls, loop seconds).

    The reference kernel, with its streaming part when ``streaming``, runs
    once before the first call and once after each call, so every call sits
    between two kernel timings.
    """
    calls = []
    before = reference_ns(streaming)
    started = time.perf_counter()
    while True:
        call = call_once(distance_fn, instances, len(calls) % len(instances))
        after = reference_ns(streaming)
        calls.append(dataclasses.replace(call, reference_ns=math.sqrt(before * after)))
        before = after
        elapsed = time.perf_counter() - started
        if elapsed >= seconds and len(calls) >= P90_MIN_CALLS:
            return calls, elapsed


def trace_targets(lib):
    """Every name ``api`` calls a layer through, plus the two nested layers timed."""

    def cost_counts(args, costs):
        u, v = args
        return {"cost_cells": costs.size, "temp_bytes_computed": u.size * v.size * u.dim * 8}

    def support_counts(args, support):
        return {"merged_support_points": support.positions.size}

    api = lib.api
    return [
        (api, "validate", None),
        (api, "normalize", None),
        (api, "classify_finiteness", None),
        (api, "pairwise_costs", cost_counts),
        (api, "build_problem", None),
        (api, "solve", None),
        (api, "solution_distance", None),
        (api, "cdf_distance_1d", None),
        (lib.simplex, "initial_basis", None),
        (lib.cdf1d, "merged_support", support_counts),
    ]


def traced_loop(lib, instances, seconds):
    """Alternate plain and traced calls on the same instance for ``seconds``.

    Pairing cancels slow phases of the host out of ``trace.overhead_pct``;
    the order within a pair flips every pair. Returns (plain, traced, tracer).
    """
    tracer = Tracer()
    targets = trace_targets(lib)
    plain, traced = [], []
    started = time.perf_counter()
    pair = 0
    while pair == 0 or time.perf_counter() - started < seconds:
        k = pair % len(instances)
        for with_trace in (pair % 2 == 1, pair % 2 == 0):
            if with_trace:
                with tracer.install(targets), tracer.span("api.wasserstein_distance"):
                    traced.append(call_once(lib.wasserstein_distance, instances, k))
            else:
                plain.append(call_once(lib.wasserstein_distance, instances, k))
        pair += 1
    return plain, traced, tracer


def count_pivots(lib, inst):
    """(pivots, degenerate pivots) of one LP solve, watched through ``solve``'s callback.

    A pivot is degenerate when it leaves the objective unchanged. The
    callback re-sums the objective on every pivot, so this pass is never timed.
    """
    dist = lib.distributions
    u = dist.normalize(dist.validate(inst.u_values, inst.u_weights))
    v = dist.normalize(dist.validate(inst.v_values, inst.v_weights))
    problem = lib.transport_lp.build_problem(lib.geometry.pairwise_costs(u, v), u.weights, v.weights)
    start = lib.simplex.initial_basis(problem)
    previous = float(sum(f * problem.cost[c] for c, f in start.flows.items()))
    degenerate = 0

    def on_pivot(iteration, objective):
        nonlocal previous, degenerate
        degenerate += objective == previous
        previous = objective

    solution = lib.simplex.solve(problem, callback=on_pivot)
    return solution.iterations, degenerate


def oracle_gate(workload, instances, calls):
    """Failures by code: raised calls, plus ``E_ORACLE`` for each wrong distance."""
    failures = Counter(call.error for call in calls if call.error is not None)
    expected = {}
    worst = 0.0
    for call in calls:
        if call.error is not None:
            continue
        if call.instance not in expected:
            expected[call.instance] = workload.oracle(instances[call.instance])
        want = expected[call.instance]
        if not agrees(call.distance, want):
            failures["E_ORACLE"] += 1
        worst = max(worst, abs(call.distance - want) / abs(want) if want else abs(call.distance))
    print(f"oracle: {len(expected)} instances, worst relative error {worst!r}")
    return failures


def end_to_end_metrics(calls, loop_seconds, setup_s, peak_rss_mb):
    latencies_ms = [call.elapsed_ns / 1e6 for call in calls]
    latencies_ref = [call.elapsed_ns / call.reference_ns for call in calls]
    return {
        "latency_ref.p50": statistics.median(latencies_ref),
        "latency_ref.p90": statistics.quantiles(latencies_ref, n=10)[-1],
        "latency_ms.p50": statistics.median(latencies_ms),
        "latency_ms.p90": statistics.quantiles(latencies_ms, n=10)[-1],
        "throughput_per_s": len(calls) / loop_seconds,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }


def layer_metrics(tracer, plain, traced, pivot_counts):
    def median_ms(name, value=lambda span: span.duration_ns):
        return statistics.median(tracer.per_call(name, value)) / 1e6

    def median_count(name, key):
        return statistics.median(tracer.per_call(name, lambda span: span.counts[key]))

    def self_ns(span):
        return span.self_ns

    solve_self = tracer.per_call("simplex.solve", self_ns)
    iterations = [call.iterations for call in traced]
    traced_p50 = statistics.median(call.elapsed_ns for call in traced)
    plain_p50 = statistics.median(call.elapsed_ns for call in plain)
    return {
        "simplex.initial_basis_ms": median_ms("simplex.initial_basis"),
        "simplex.solve_self_ms": median_ms("simplex.solve", self_ns),
        "simplex.pivots": statistics.median(iterations),
        "simplex.degenerate_pivots": statistics.median(d for _, d in pivot_counts) if pivot_counts else 0,
        "simplex.us_per_pivot": statistics.median(
            ns / 1e3 / its if its else 0.0 for ns, its in zip(solve_self, iterations)
        ),
        "geometry.pairwise_costs_ms": median_ms("geometry.pairwise_costs"),
        "geometry.cost_cells": median_count("geometry.pairwise_costs", "cost_cells"),
        "geometry.temp_bytes_computed": median_count("geometry.pairwise_costs", "temp_bytes_computed"),
        "transport_lp.build_problem_ms": median_ms("transport_lp.build_problem"),
        "transport_lp.solution_distance_ms": median_ms("transport_lp.solution_distance"),
        "cdf1d.merged_support_ms": median_ms("cdf1d.merged_support"),
        "cdf1d.cdf_distance_1d_self_ms": median_ms("cdf1d.cdf_distance_1d", self_ns),
        "cdf1d.merged_support_points": median_count("cdf1d.merged_support", "merged_support_points"),
        "distributions.validate_ms": median_ms("distributions.validate"),
        "distributions.normalize_ms": median_ms("distributions.normalize"),
        "distributions.classify_finiteness_ms": median_ms("distributions.classify_finiteness"),
        "api.self_ms": median_ms("api.wasserstein_distance", self_ns),
        "trace.overhead_pct": (traced_p50 / plain_p50 - 1.0) * 100.0,
    }


def report(metrics, units, calls, failures):
    """Print every metric by name, then the JSON line with those named in ``units``."""
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units.get(name) or UNGATED_UNITS[name]}")
    failed = sum(failures.values())
    print(f"failed_frac = {failed / len(calls)!r} ({failed} of {len(calls)} calls; by code: {dict(failures)})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        lib = import_library()
    except ImportError as exc:
        print(f"cannot import the library from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    imports = [import_seconds() for _ in range(SETUP_REPEATS)]

    workload = WORKLOADS[args.workload]
    setups = []
    for _ in range(SETUP_REPEATS):
        instances = None  # let the previous pool go before building the next
        instances, seconds = set_up(workload, args.seed, lib.wasserstein_distance)
        setups.append(seconds)
    setup_s = statistics.median(imports) + statistics.median(setups)
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{len(instances)} instances, imports {imports!r} s, set-up {setups!r} s")

    if args.trace == 0:
        calls, loop_seconds = timed_loop(lib.wasserstein_distance, instances, args.seconds, workload.streams)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        print(f"timed loop: {len(calls)} calls in {loop_seconds!r} s")
        failures = oracle_gate(workload, instances, calls)
        report(end_to_end_metrics(calls, loop_seconds, setup_s, peak_rss_mb), END_TO_END_UNITS, calls, failures)
    else:
        plain, traced, tracer = traced_loop(lib, instances, args.seconds)
        pivot_counts = [count_pivots(lib, inst) for inst in instances] if workload.lp else []
        print(f"traced loop: {len(plain)} plain and {len(traced)} traced calls, {len(tracer.spans)} spans; "
              f"counting pass (pivots, degenerate): {pivot_counts}")
        calls = plain + traced
        failures = oracle_gate(workload, instances, calls)
        metrics = layer_metrics(tracer, plain, traced, pivot_counts)
        plain_p50_ms = statistics.median(call.elapsed_ns for call in plain) / 1e6
        cdf_ms = metrics["cdf1d.merged_support_ms"] + metrics["cdf1d.cdf_distance_1d_self_ms"]
        print(f"share of plain p50 {plain_p50_ms!r} ms: simplex.solve_self "
              f"{metrics['simplex.solve_self_ms'] / plain_p50_ms!r}, cdf1d spans {cdf_ms / plain_p50_ms!r}")
        report(metrics, PER_LAYER_UNITS, calls, failures)
    return 0


if __name__ == "__main__":
    sys.exit(main())
