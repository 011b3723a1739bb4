"""Tests of the benchmark itself: arithmetic, refusals, determinism and
trace invariance.  Run with ``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import functools
import json
import os

import pytest

from perfbench import bench, calibrate, tracing
from perfbench.workloads import (
    WORKLOADS,
    ChaosStorm,
    FabricMesh,
    RelaySoak,
    StateHorizon,
    longest_outage,
    p99,
)

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


class SmallSoak(RelaySoak):
    packets = 200


class SmallMesh(FabricMesh):
    packets = 200


class SmallHorizon(StateHorizon):
    warmup_packets = 200
    packets = 2_000


# ----------------------------------------------------------------------
# Self-time arithmetic
# ----------------------------------------------------------------------


def test_self_times_of_synthetic_nested_spans():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    names = [0, 1, 2, 3]
    parents = [-1, 0, 1, 0]
    calls, own = tracing.self_times(starts, ends, names, parents)
    assert dict(own) == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}
    assert dict(calls) == {0: 1, 1: 1, 2: 1, 3: 1}
    assert sum(own.values()) == ends[0] - starts[0]


def test_self_times_sum_calls_of_one_name():
    # Two calls of the same name under one root, one with a child.
    starts, ends = [0.0, 1.0, 1.5, 4.0], [6.0, 3.0, 2.0, 5.0]
    calls, own = tracing.self_times(starts, ends, [0, 1, 2, 1], [-1, 0, 1, 0])
    assert calls[1] == 2
    assert own[1] == pytest.approx((2.0 - 0.5) + 1.0)
    assert sum(own.values()) == pytest.approx(6.0)


def test_recorder_wrappers_nest_and_count_failures():
    ticks = iter(range(100))
    recorder = tracing.Recorder(clock=lambda: float(next(ticks)))
    inner_id = recorder.name_id("inner", "trie")
    outer_id = recorder.name_id("outer", "ibc")
    inner = recorder.span_wrapper(lambda: None, inner_id, "inner")

    def outer_body(fail):
        inner()
        if fail:
            raise KeyError("boom")

    outer = recorder.span_wrapper(outer_body, outer_id, "outer")
    outer(False)
    with pytest.raises(KeyError):
        outer(True)
    assert list(recorder.parents) == [-1, 0, -1, 2]
    assert list(recorder.name_ids) == [outer_id, inner_id, outer_id, inner_id]
    assert recorder.counters["outer.failed"] == 1
    assert not recorder.stack
    calls, own = tracing.self_times(recorder.starts, recorder.ends,
                                    recorder.name_ids, recorder.parents)
    assert calls[outer_id] == 2
    assert own[outer_id] + own[inner_id] == pytest.approx(
        sum(recorder.ends[i] - recorder.starts[i] for i in (0, 2)))


def test_owner_of_unwraps_methods_closures_and_partials():
    def make_closure():
        def closure():
            return None
        return closure

    class Actor:
        def act(self, value):
            return value

    actor = Actor()
    qual = test_owner_of_unwraps_methods_closures_and_partials.__qualname__
    assert tracing.owner_of(actor.act) == (__name__, f"{qual}.<locals>.Actor.act")
    assert tracing.owner_of(functools.partial(actor.act, 1))[1].endswith("Actor.act")
    assert tracing.owner_of(make_closure())[1].endswith("make_closure.<locals>.closure")
    assert tracing.layer_of("repro.relayer.routing") == "relayer"
    assert tracing.layer_of("repro.encoding") == "codec"
    assert tracing.layer_of("repro.deployment") == "other"
    assert tracing.layer_of("perfbench.workloads") == "bench"


# ----------------------------------------------------------------------
# Simulated-metric refusals and arithmetic
# ----------------------------------------------------------------------


def test_reference_load_is_fixed_and_slowdown_is_per_unit():
    assert calibrate.unit() == calibrate.unit()
    calibration = calibrate.Calibration()
    calibration.run(0.0)
    assert calibration.units == 1
    calibration.seconds = 3 * calibrate.NOMINAL_UNIT_S
    calibration.units = 2
    assert calibration.slowdown == pytest.approx(1.5)


def test_p99_refuses_fewer_than_1000_samples():
    with pytest.raises(ValueError):
        p99([float(i) for i in range(999)])
    assert p99([float(i) for i in range(1_000)]) == pytest.approx(989.01)


def test_longest_outage():
    # Two sends due at 0 and 1; deliveries at 5 and 6; then one due at 10
    # never delivered before the end at 30.
    assert longest_outage([0.0, 1.0, 10.0], [5.0, 6.0], 30.0) == 20.0
    assert longest_outage([0.0], [2.0], 10.0) == 2.0
    assert longest_outage([], [], 10.0) == 0.0


# ----------------------------------------------------------------------
# Determinism and trace invariance
# ----------------------------------------------------------------------


@pytest.mark.parametrize("cls", [SmallSoak, SmallMesh, SmallHorizon, ChaosStorm],
                         ids=lambda cls: cls.name)
def test_workload_is_deterministic_given_its_seed(cls):
    _, first = bench.run_batch(cls, 5)
    _, again = bench.run_batch(cls, 5)
    assert first.failures == [] and again.failures == []
    assert first.delivered == first.offered
    assert (first.events, first.fingerprint, first.sim_latencies) == \
        (again.events, again.fingerprint, again.sim_latencies)
    if cls is not ChaosStorm:  # the storm is the slowest; one seed suffices
        _, other = bench.run_batch(cls, 6)
        assert other.fingerprint != first.fingerprint


@pytest.mark.parametrize("cls", [SmallSoak, SmallMesh, SmallHorizon],
                         ids=lambda cls: cls.name)
def test_traced_run_simulates_the_same_as_untraced(cls):
    _, plain = bench.run_batch(cls, 3)
    installation = tracing.install()
    try:
        workload, traced = bench.run_batch(cls, 3, installation.recorder)
    finally:
        installation.uninstall()
    assert (traced.events, traced.fingerprint) == (plain.events, plain.fingerprint)
    recorder = installation.recorder
    window = workload.window_spans
    calls, own = tracing.self_times(
        recorder.starts[:window], recorder.ends[:window],
        recorder.name_ids[:window], recorder.parents[:window])
    window_s = recorder.ends[0] - recorder.starts[0]
    assert sum(own.values()) == pytest.approx(window_s, rel=1e-9)
    layers = {recorder.layers[nid] for nid in own}
    assert "unattributed" not in layers
    assert "trie" in layers and "crypto" in layers
    # Uninstalling restores the program: a later batch is untraced.
    before = len(recorder)
    bench.run_batch(cls, 3)
    assert len(recorder) == before


def test_uninstall_restores_every_patched_attribute():
    from repro.crypto import hashing
    from repro.sim.kernel import Simulation
    from repro.trie import nodes
    original = hashing.hash_concat, nodes.hash_concat, Simulation.schedule_at
    installation = tracing.install()
    assert nodes.hash_concat is not original[1]
    installation.uninstall()
    assert (hashing.hash_concat, nodes.hash_concat, Simulation.schedule_at) == original


# ----------------------------------------------------------------------
# BENCHMARK.json matches what the benchmark prints
# ----------------------------------------------------------------------


def test_benchmark_json_lists_what_runs_report():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(bench.PER_LAYER)
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])
    for workload in spec["workloads"]:
        assert workload["why"] == WORKLOADS[workload["name"]].why
