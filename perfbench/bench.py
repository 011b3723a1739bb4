"""Batch timing, metric assembly and the traced run.

End-to-end metrics (``--trace 0``):

* ``packets_per_s``: packets delivered over the summed run windows of
  all batches (on ``state-horizon``, packet lifecycles replayed per
  second), at reference machine speed: the run times are divided by the
  machine's slowdown on the reference load of :mod:`perfbench.calibrate`,
  timed in between the batches.  Every batch of a run simulates exactly
  the same thing (checked), and the host's speed drifts by more over
  minutes than any statistic over one run's batches can remove;
* ``setup_s``: build plus handshakes up to the first due send, median
  over batches, divided by the same slowdown;
* ``peak_rss_mib``: peak resident memory of the process after the
  batches, before the once-per-process checks.

The simulated figures of the paper (latency from due time, fee per
packet, outage, peak live guest state) are printed with every run,
together with ``events_dispatched`` and the ledger fingerprint, so that
two versions of the program can be compared for an identical
simulation.  They repeat exactly for a seed, so they are checked, not
timed.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import time
from collections import Counter

from repro import ids
from repro.metrics.stats import percentile

from perfbench import calibrate, tracing
from perfbench.workloads import WORKLOADS, BatchResult, Workload, p99

#: Every trace-0 run repeats its batch at least this often: the median
#: needs more than one sample, and the repeat checks determinism.
MIN_BATCHES = 2

#: Wall seconds of reference load timed before the first batch, and
#: after each batch as a share of that batch's wall time.  The share
#: keeps the reference spread over the whole run, so that it sees the
#: same machine speed as the batches.
FIRST_CALIBRATION_S = 0.5
CALIBRATION_SHARE = 0.4

#: Spans written to the Chrome trace; a store-only run records ~600k,
#: which would make a file too large to open comfortably.
TRACE_EXPORT_SPANS = 250_000

#: Largest share of the traced window that callbacks of unresolved
#: owner may take before the per-layer breakdown counts as broken.
UNATTRIBUTED_LIMIT = 0.05

#: The id mints as this process found them (see :func:`run_batch`).
_FRESH_MINTS = ids.mint_states()

#: ``(name, unit)`` of every end-to-end metric, in BENCHMARK.json order.
END_TO_END = (
    ("packets_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)


def _per_layer_names() -> list[tuple[str, str]]:
    names: list[tuple[str, str]] = []

    def add(prefix: str, *fields: str) -> None:
        for field_name in fields:
            unit = {"self_s": "s", "bytes": "B"}.get(field_name, "count")
            names.append((f"{prefix}.{field_name}", unit))

    for op in ("set", "delete", "seal", "prove", "root"):
        add(f"trie.{op}", "calls", "self_s")
    add("crypto.hash_concat", "calls", "self_s")
    add("sim", "events", "self_s")
    add("relayer", "self_s")
    add("fabric.forward", "calls", "self_s")
    add("fabric.sibling_update", "calls", "self_s")
    names.append(("relayer.packets_per_batch", "packets"))
    add("relayer", "lc_updates")
    for client in ("tendermint", "guest"):
        add(f"lightclient.{client}.update", "calls", "self_s", "failed")
    add("lightclient.canonical_hash", "calls", "self_s")
    add("crypto.verify_batch", "calls", "self_s", "rejected")
    add("guest.execute", "calls", "self_s", "failed")
    for op in ("send", "recv", "acknowledge"):
        add(f"ibc.{op}_packet", "calls", "self_s")
    for op in ("proof_encode", "proof_decode", "lc_update_encode"):
        add(f"codec.{op}", "calls", "self_s", "bytes")
    add("host", "txs", "bundles", "tx_failed")
    add("host.slot", "self_s")
    add("counterparty", "blocks", "self_s")
    add("validators", "self_s")
    add("relayer", "retries", "redeliveries")
    add("fisherman", "self_s")
    add("accountability.verify", "calls", "self_s")
    add("chaos", "self_s")
    add("state.drain", "calls", "self_s")
    add("state", "sealed")
    add("observability", "null_calls")
    names.append(("bench.trace_overhead_ratio", "ratio"))
    add("unattributed", "self_s")
    for layer in tracing.LAYERS:
        names.append((f"{layer}.share", "ratio"))
    return names


#: ``(name, unit)`` of every per-layer metric, in BENCHMARK.json order.
PER_LAYER = tuple(_per_layer_names())


def run_batch(cls: type[Workload], seed: int,
              recorder: tracing.Recorder | None = None) -> tuple[Workload, BatchResult]:
    """One batch: timed setup, timed run, untimed checks.

    With a ``recorder``, the run window is recorded under a root span
    and the spans of setup are discarded.
    """
    gc.collect()
    # Transaction, bundle and event ids come from process-global mints
    # that order same-slot transactions; rewinding them makes every
    # batch mint the ids a fresh process would.
    ids.rewind_mints(_FRESH_MINTS)
    workload = cls(seed)
    started = time.perf_counter()
    workload.setup()
    ready = time.perf_counter()
    if recorder is None:
        workload.run()
    else:
        recorder.reset()
        root = recorder.open(recorder.name_id(
            f"{workload.window_layer}.{tracing.WINDOW}", workload.window_layer))
        workload.run()
        recorder.close(root)
    finished = time.perf_counter()
    if recorder is not None:
        workload.window_spans = len(recorder)
        workload.window_counters = Counter(recorder.counters)
    return workload, workload.result(ready - started, finished - ready)


def simulated(result: BatchResult) -> dict:
    """The simulated figures of one batch (identical for a seed)."""
    figures = {}
    if result.sim_latencies:
        ordered = sorted(result.sim_latencies)
        figures["sim_latency_p50_s"] = percentile(ordered, 0.50)
        figures["sim_latency_p99_s"] = p99(ordered)
        figures["sim_latency_samples"] = len(ordered)
        figures["fee_per_packet_lamports"] = (
            result.fee_lamports / result.delivered if result.delivered else 0.0)
    figures["failed_ratio"] = (result.offered - result.delivered) / result.offered
    figures.update(result.extra)
    figures["events_dispatched"] = result.events
    figures["fingerprint"] = result.fingerprint
    return figures


def _consistency(batches: list[BatchResult]) -> list[str]:
    first = batches[0]
    return [
        f"batch {index} diverged from batch 0 on the same seed"
        for index, batch in enumerate(batches[1:], start=1)
        if (batch.events, batch.fingerprint, batch.sim_latencies)
        != (first.events, first.fingerprint, first.sim_latencies)
    ]


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(name: str, seed: int, seconds: float) -> dict:
    """Repeat batches for ``seconds`` of wall time, timing the reference
    load after each; end-to-end metrics."""
    cls = WORKLOADS[name]
    batches: list[BatchResult] = []
    calibration = calibrate.Calibration()
    started = time.perf_counter()
    calibration.run(FIRST_CALIBRATION_S)
    while True:
        # Drop the previous world first, so that only one is ever alive
        # and the peak RSS is that of one batch.
        workload = None
        workload, result = run_batch(cls, seed)
        batches.append(result)
        calibration.run(CALIBRATION_SHARE * (result.setup_s + result.run_s))
        if (len(batches) >= MIN_BATCHES
                and time.perf_counter() - started >= seconds):
            break
    rss = peak_rss_mib()
    failures = [failure for batch in batches for failure in batch.failures]
    failures += _consistency(batches)
    failures += workload.final_checks(batches[-1].fingerprint)
    figures = simulated(batches[0])
    slowdown = calibration.slowdown
    metrics = {
        "packets_per_s": (sum(b.delivered for b in batches)
                          / (sum(b.run_s for b in batches) / slowdown)),
        "setup_s": statistics.median(b.setup_s for b in batches) / slowdown,
        "peak_rss_mib": rss,
    }
    units = dict(END_TO_END)
    return {
        "batches": len(batches),
        "batch_packets_per_s": [b.packets_per_s for b in batches],
        "slowdown": slowdown,
        "size": cls.size,
        "simulated": figures,
        "failures": failures,
        "json": {
            "correct": not failures,
            "attempted": sum(b.offered for b in batches),
            "failed": sum(b.offered - b.delivered for b in batches),
            "metrics": {key: {"value": value, "unit": units[key]}
                        for key, value in metrics.items()},
        },
    }


def traced(name: str, seed: int, out_dir: str) -> dict:
    """One untraced and one traced batch; per-layer metrics of the latter."""
    cls = WORKLOADS[name]
    base = run_batch(cls, seed)[1]
    installation = tracing.install()
    recorder = installation.recorder
    try:
        workload, result = run_batch(cls, seed, recorder)
    finally:
        installation.uninstall()
    failures = base.failures + result.failures
    failures += workload.final_checks(result.fingerprint)
    if (result.events, result.fingerprint) != (base.events, base.fingerprint):
        failures.append(
            f"traced run diverged: {result.events} events / "
            f"{result.fingerprint[:16]} vs untraced {base.events} / "
            f"{base.fingerprint[:16]}")

    window = workload.window_spans
    calls, own = tracing.self_times(
        recorder.starts[:window], recorder.ends[:window],
        recorder.name_ids[:window], recorder.parents[:window])
    window_s = recorder.ends[0] - recorder.starts[0]
    layer_self: Counter = Counter()
    for nid, seconds in own.items():
        layer_self[recorder.layers[nid]] += seconds
    if abs(sum(layer_self.values()) - window_s) > 1e-6 * max(window_s, 1.0):
        failures.append(
            f"layer self times sum to {sum(layer_self.values()):.6f} s, "
            f"window is {window_s:.6f} s")

    if layer_self["unattributed"] >= UNATTRIBUTED_LIMIT * window_s:
        failures.append(
            f"callbacks of unknown owner took {layer_self['unattributed']:.3f} s "
            f"of the {window_s:.3f} s window")

    by_name = {recorder.names[nid]: (calls[nid], own[nid]) for nid in calls}
    counters = workload.window_counters
    values: dict[str, float] = {}
    for metric, (count, self_s) in by_name.items():
        values[f"{metric}.calls"] = count
        values[f"{metric}.self_s"] = self_s
    for metric, owner in tracing.CALLBACK_METRICS.items():
        count, self_s = by_name.get(owner, (0, 0.0))
        values[f"{metric}.calls"] = count
        values[f"{metric}.self_s"] = self_s
    for key, count in counters.items():
        values[key] = count
    for layer in tracing.LAYERS:
        values[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
        values[f"{layer}.share"] = layer_self.get(layer, 0.0) / window_s
    batches = values.get("guest.deliver_batch.calls", 0)
    relayers = workload.relayers()
    values.update({
        "sim.events": result.events,
        "sim.self_s": values.get(f"sim.{tracing.WINDOW}.self_s", 0.0),
        "relayer.packets_per_batch": (
            counters["guest.deliver_batch.ops"] / batches if batches else 0.0),
        "relayer.lc_updates": sum(
            len(getattr(r.metrics, "lc_updates", ())) for r in relayers),
        "relayer.retries": sum(r.metrics.retries for r in relayers),
        "relayer.redeliveries": sum(r.metrics.redeliveries for r in relayers),
        "host.txs": values.get("host.execute.calls", 0),
        "host.bundles": values.get("host.execute_bundle.calls", 0),
        "counterparty.blocks": values.get("counterparty.block.calls", 0),
        "bench.trace_overhead_ratio": result.run_s / base.run_s - 1.0,
    })
    units = dict(PER_LAYER)
    metrics = {key: {"value": values.get(key, 0), "unit": unit}
               for key, unit in units.items()}

    os.makedirs(out_dir, exist_ok=True)
    trace_path = os.path.join(out_dir, f"{name}-seed{seed}.trace.json")
    written = tracing.write_chrome_trace(
        trace_path, recorder, min(window, TRACE_EXPORT_SPANS))
    return {
        "size": cls.size,
        "simulated": simulated(result),
        "failures": failures,
        "window_s": window_s,
        "untraced_run_s": base.run_s,
        "traced_run_s": result.run_s,
        "functions": sorted(by_name.items(), key=lambda item: -item[1][1]),
        "trace_path": trace_path,
        "trace_events": written,
        "spans": window,
        "json": {
            "correct": not failures,
            "attempted": base.offered + result.offered,
            "failed": (base.offered - base.delivered
                       + result.offered - result.delivered),
            "metrics": metrics,
        },
    }


def _format(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


SIMULATED_UNITS = {
    "sim_latency_p50_s": "s (simulated)",
    "sim_latency_p99_s": "s (simulated)",
    "sim_latency_samples": "samples",
    "fee_per_packet_lamports": "lamports",
    "failed_ratio": "ratio",
    "sim_outage_max_s": "s (simulated)",
    "max_live_kib": "KiB",
    "events_dispatched": "events",
}


def render(name: str, seed: int, result: dict) -> list[str]:
    """Human-readable lines printed before the JSON result."""
    lines = [f"workload {name} seed {seed}: {result['size']}"]
    if "batches" in result:
        rates = result["batch_packets_per_s"]
        lines.append(f"  batches: {result['batches']}, packets/s per batch: "
                     + ", ".join(f"{rate:.1f}" for rate in rates)
                     + f" (median {statistics.median(rates):.1f}, unscaled)")
        lines.append(f"  machine slowdown against the reference: "
                     f"{result['slowdown']:.3f}")
    for key, metric in result["json"]["metrics"].items():
        lines.append(f"  {key} = {_format(metric['value'])} {metric['unit']}")
    for key, value in result["simulated"].items():
        lines.append(f"  {key} = {_format(value)} {SIMULATED_UNITS.get(key, '')}".rstrip())
    if "functions" in result:
        lines.append(
            f"  traced window {result['window_s']:.3f} s, {result['spans']} spans; "
            f"untraced run {result['untraced_run_s']:.3f} s, "
            f"traced run {result['traced_run_s']:.3f} s")
        lines.append(f"  chrome trace: {result['trace_path']} "
                     f"({result['trace_events']} events)")
        lines.append("  top self time (calls, self s):")
        for metric, (count, self_s) in result["functions"][:25]:
            lines.append(f"    {metric}: {count} calls, {self_s:.4f} s")
    for failure in result["failures"]:
        lines.append(f"  CHECK FAILED: {failure}")
    return lines
