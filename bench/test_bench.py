"""Tests of the benchmark itself, on instances small enough to run in milliseconds."""

import dataclasses
import json

import numpy as np
import pytest

import run
from workloads import WORKLOADS, make_instances

TINY = {
    "lp_assignment": {"n": 6},
    "lp_weighted": {"n": 7, "m": 5, "side": 3},
    "cdf1d_ties": {"n": 64, "m": 48},
}


@pytest.fixture(scope="module")
def lib():
    return run.import_library()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_passes_the_oracle_gate(lib, name):
    instances = make_instances(name, 5, 3, **TINY[name])
    calls, loop_seconds = run.timed_loop(lib.wasserstein_distance, instances, 0.0, WORKLOADS[name].streams)
    assert all(call.reference_ns > 0 for call in calls)
    assert len(calls) >= run.P90_MIN_CALLS
    assert run.oracle_gate(WORKLOADS[name], instances, calls) == {}
    metrics = run.end_to_end_metrics(calls, loop_seconds, setup_s=0.1, peak_rss_mb=1.0)
    assert set(metrics) == set(run.END_TO_END_UNITS) | set(run.UNGATED_UNITS)
    assert all(value > 0 for value in metrics.values())


def test_last_line_is_the_result(lib, capsys):
    instances = make_instances("cdf1d_ties", 1, 2, **TINY["cdf1d_ties"])
    calls, loop_seconds = run.timed_loop(lib.wasserstein_distance, instances, 0.0)
    metrics = run.end_to_end_metrics(calls, loop_seconds, setup_s=0.1, peak_rss_mb=1.0)
    run.report(metrics, run.END_TO_END_UNITS, calls, {"E_ORACLE": 2})
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result == {
        "correct": False,
        "attempted": len(calls),
        "failed": 2,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in run.END_TO_END_UNITS.items()},
    }


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_reports_every_layer_metric(lib, name):
    instances = make_instances(name, 5, 2, **TINY[name])
    plain, traced, tracer = run.traced_loop(lib, instances, 0.0)
    assert len(plain) == len(traced) == tracer.calls == 1
    assert run.oracle_gate(WORKLOADS[name], instances, plain + traced) == {}
    pivots = [run.count_pivots(lib, inst) for inst in instances] if WORKLOADS[name].lp else []
    metrics = run.layer_metrics(tracer, plain, traced, pivots)
    assert set(metrics) == set(run.PER_LAYER_UNITS)
    layer = "simplex.solve_self_ms" if WORKLOADS[name].lp else "cdf1d.merged_support_ms"
    assert metrics[layer] > 0


def test_tracing_restores_the_wrapped_names(lib):
    targets = run.trace_targets(lib)
    before = [getattr(module, attr) for module, attr, _ in targets]
    run.traced_loop(lib, make_instances("lp_weighted", 1, 1, **TINY["lp_weighted"]), 0.0)
    assert [getattr(module, attr) for module, attr, _ in targets] == before


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_instances_and_pivots(lib, name):
    first, again, other = (make_instances(name, seed, 2, **TINY[name]) for seed in (9, 9, 10))
    for a, b in zip(first, again):
        for x, y in zip(a.args(), b.args()):
            assert (x is None and y is None) or np.array_equal(x, y)
    assert not np.array_equal(first[0].u_values, other[0].u_values)
    if WORKLOADS[name].lp:
        counts = [run.count_pivots(lib, inst) for inst in first]
        assert counts == [run.count_pivots(lib, inst) for inst in again]
        for (pivots, degenerate), inst in zip(counts, first):
            assert 0 <= degenerate <= pivots == lib.wasserstein_distance(*inst.args()).iterations


def test_wrong_distance_counts_as_failed(lib):
    def off_by_a_little(*args):
        result = lib.wasserstein_distance(*args)
        return dataclasses.replace(result, distance=result.distance * (1 + 1e-6))

    instances = make_instances("lp_assignment", 3, 2, **TINY["lp_assignment"])
    calls, _ = run.timed_loop(off_by_a_little, instances, 0.0)
    assert run.oracle_gate(WORKLOADS["lp_assignment"], instances, calls) == {"E_ORACLE": len(calls)}


def test_raised_calls_are_counted_by_code(lib):
    def negative_weights(u_values, v_values, u_weights, v_weights):
        return lib.wasserstein_distance(u_values, v_values, -np.ones(len(u_values)), v_weights)

    instances = make_instances("lp_assignment", 3, 1, **TINY["lp_assignment"])
    calls, _ = run.timed_loop(negative_weights, instances, 0.0)
    assert run.oracle_gate(WORKLOADS["lp_assignment"], instances, calls) == {"E_WEIGHT_NEG": len(calls)}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_children_never_outlast_their_parent(lib, name):
    instances = make_instances(name, 2, 2, **TINY[name])
    _, _, tracer = run.traced_loop(lib, instances, 0.0)
    children = [0] * len(tracer.spans)
    for span in tracer.spans:
        if span.parent >= 0:
            children[span.parent] += span.duration_ns
            assert tracer.spans[span.parent].call == span.call
    for span, child_ns in zip(tracer.spans, children):
        assert child_ns == span.child_ns <= span.duration_ns
        assert span.self_ns >= 0
