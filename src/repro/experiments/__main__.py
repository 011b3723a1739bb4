"""Command-line harness: regenerate any paper figure, or run an
operational experiment, from a terminal.

Usage::

    python -m repro.experiments               # everything (≈1-2 min)
    python -m repro.experiments fig2 fig4     # just those figures
    python -m repro.experiments --duration-hours 48 table1
    python -m repro.experiments chaos-smoke   # one operational target

Figure targets: fig2 fig3 fig4 fig5 fig6 table1 recv storage, plus
``all`` (every figure and the throughput sweep).  The evaluation figures
share one simulated deployment.

Operational targets, one row of :data:`SCENARIOS` each, run in this
order.  Each writes its record (``BENCH_*.json``, where named), prints
its summary, and exits 1 on the first failed check:

"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable

from repro.experiments import report
from repro.experiments.blocks import BlockIntervalConfig, BlockIntervalRun
from repro.experiments.evaluation import EvaluationConfig, EvaluationRun
from repro.experiments.storage import measure_capacity, sealing_ablation

_EVALUATION_TARGETS = {"fig2", "fig3", "fig4", "fig5", "table1", "recv"}
#: What ``all`` expands to; the CI-scale operational targets are not
#: part of it.
_ALL_TARGETS = sorted(_EVALUATION_TARGETS | {"fig6", "storage", "throughput"})


@dataclass(frozen=True)
class Scenario:
    """One operational target: run it, record it, render it, gate it."""

    name: str
    about: str
    run: Callable[[argparse.Namespace], dict]
    render: Callable[[dict], str]
    #: Failure messages for a record; empty means it passed.
    check: Callable[[dict], list[str]] | None = None
    #: Where the record is written, relative to the working directory.
    artifact: str | None = None
    #: CI runs it on every push; it has a make target and a CI matrix row.
    smoke: bool = False


def _lazy(path: str) -> Callable:
    """The function at ``"module:name"`` (under ``repro.``), imported on
    first call, so importing this CLI or running one target loads no
    other experiment."""
    module, name = path.split(":")

    def call(*args, **kwargs):
        return getattr(importlib.import_module(f"repro.{module}"), name)(*args, **kwargs)
    return call


def _cluster(args: argparse.Namespace):
    from repro.cluster import ClusterConfig

    return ClusterConfig(workers=args.cluster_workers, run_dir=args.run_dir,
                         checkpoint_every_seconds=args.checkpoint_every)


def _throughput_smoke(args: argparse.Namespace) -> dict:
    if args.cluster_workers is None:
        return _lazy("experiments.throughput:run_throughput_smoke")()
    return _lazy("cluster:run_cluster_smoke")(cluster=_cluster(args))


def _chaos_soak(args: argparse.Namespace) -> dict:
    from repro.experiments.chaos import ChaosSoakConfig, run_chaos_soak

    return run_chaos_soak(ChaosSoakConfig(seed=args.seed))


def _state_sweep(args: argparse.Namespace) -> dict:
    cluster = None if args.cluster_workers is None else _cluster(args)
    return _lazy("experiments.state:run_state_sweep")(cluster=cluster)


_render_sweep = _lazy("experiments.throughput:render_sweep")
_render_chaos = _lazy("experiments.chaos:render_chaos")
_check_chaos = _lazy("experiments.chaos:check_chaos_smoke")
_render_topology = _lazy("experiments.topology:render_topology")
_check_topology = _lazy("experiments.topology:check_topology")
_render_state = _lazy("experiments.state:render_state")
_check_state = _lazy("experiments.state:check_state")

#: Every operational target, in execution order.  A multi-target call
#: shares one process and its :mod:`repro.ids` mints, so the order is
#: part of each record.
SCENARIOS: tuple[Scenario, ...] = (
    Scenario("throughput", "offered load vs. sustained pps, batched or not",
             lambda args: _lazy("experiments.throughput:run_throughput_sweep")(),
             _render_sweep, artifact="BENCH_throughput.json"),
    Scenario("throughput-smoke", "the throughput sweep at CI scale (--cluster-workers shards it)",
             _throughput_smoke, _render_sweep, _lazy("experiments.throughput:check_smoke"),
             "BENCH_throughput_smoke.json", smoke=True),
    Scenario("cluster", "the throughput sweep sharded across worker processes",
             lambda args: _lazy("cluster:run_cluster_sweep")(cluster=_cluster(args)),
             _render_sweep, artifact="BENCH_throughput.json"),
    Scenario("chaos-soak", "the docs/CHAOS.md fault storm with its fault-free twin",
             _chaos_soak, _render_chaos, _check_chaos, "BENCH_chaos.json"),
    Scenario("chaos-smoke", "the chaos soak at CI scale",
             lambda args: _lazy("experiments.chaos:run_chaos_smoke")(seed=args.seed),
             _render_chaos, _check_chaos, "BENCH_chaos_smoke.json", smoke=True),
    Scenario("accountability-smoke", "equivocation storm, 3 seeds x 2 runs (ACCOUNTABILITY.md)",
             lambda args: _lazy("experiments.accountability:run_accountability_smoke")(),
             _lazy("experiments.accountability:render_accountability"),
             _lazy("experiments.accountability:check_accountability_smoke"),
             "BENCH_accountability_smoke.json", smoke=True),
    Scenario("topology-sweep", "multi-guest fabric stars and a 2-hop route (docs/FABRIC.md)",
             lambda args: _lazy("experiments.topology:run_topology_sweep")(),
             _render_topology, _check_topology, "BENCH_topology.json"),
    Scenario("topology-smoke", "the topology sweep at CI scale",
             lambda args: _lazy("experiments.topology:run_topology_smoke")(seed=args.seed),
             _render_topology, _check_topology, "BENCH_topology_smoke.json", smoke=True),
    Scenario("state-sweep", "sealing schedulers over 1M packets (docs/STATE.md)",
             _state_sweep, _render_state, _check_state, "BENCH_state.json"),
    Scenario("state-smoke", "the state sweep at CI scale",
             lambda args: _lazy("experiments.state:run_state_smoke")(seed=args.seed),
             _render_state, _check_state, "BENCH_state_smoke.json", smoke=True),
    Scenario("profile-soak", "cProfile the soak workload (--profile-* options)",
             lambda args: _lazy("experiments.profiling:run_profile_soak")(
                 args.profile_packets, args.profile_sort, args.profile_lines),
             _lazy("experiments.profiling:render_profile_soak")),
    Scenario("wallclock-smoke", "soak events/s of wall time floor (docs/PERFORMANCE.md)",
             lambda args: _lazy("experiments.profiling:run_wallclock_smoke")(),
             _lazy("experiments.profiling:render_wallclock_smoke"),
             _lazy("experiments.profiling:check_wallclock_smoke"),
             "BENCH_wallclock_smoke.json", smoke=True),
    Scenario("replay-audit", "checkpoint/restore/replay divergence (docs/CHECKPOINT.md)",
             lambda args: _lazy("checkpoint.audit:run_replay_audits")(
                 seeds=tuple(args.audit_seeds)),
             _lazy("checkpoint.audit:render_replay_audits"),
             _lazy("checkpoint.audit:check_replay_audits"),
             "BENCH_replay_audit.json", smoke=True),
)


def _target_list() -> str:
    return "".join(f"  {row.name:<22}{row.about}\n" for row in SCENARIOS)


__doc__ = (__doc__ or "") + _target_list()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures, or run an "
                    "operational experiment.",
        epilog="operational targets:\n" + _target_list(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("targets", nargs="*", default=["all"],
                        help="any of: fig2 fig3 fig4 fig5 fig6 recv storage "
                             "table1 all, or an operational target below")
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--duration-hours", type=float, default=24.0,
                        help="length of the simulated evaluation deployment")
    parser.add_argument("--fig6-days", type=float, default=3.0,
                        help="length of the Fig. 6 run")
    parser.add_argument("--cluster-workers", type=int, default=None,
                        help="worker processes for the cluster/smoke "
                             "targets (default: one per CPU)")
    parser.add_argument("--run-dir", default="results/cluster-run",
                        help="cluster run directory (task files, "
                             "checkpoints, results)")
    parser.add_argument("--checkpoint-every", type=float, default=300.0,
                        help="simulated seconds between mid-task world "
                             "checkpoints in cluster workers (0 = off)")
    parser.add_argument("--audit-seeds", type=int, nargs="+",
                        default=[401, 402, 403],
                        help="seeds for the replay-audit target")
    parser.add_argument("--profile-packets", type=int, default=2_000,
                        help="soak scale for the profile-soak target")
    parser.add_argument("--profile-sort", default="cumulative",
                        choices=["cumulative", "tottime", "ncalls"],
                        help="profile-soak stats sort key")
    parser.add_argument("--profile-lines", type=int, default=30,
                        help="profile-soak stats rows to print")
    args = parser.parse_args(argv)

    targets = set(args.targets) or {"all"}
    if "all" in targets:
        targets = set(_ALL_TARGETS)
    unknown = targets - set(_ALL_TARGETS) - {row.name for row in SCENARIOS}
    if unknown:
        parser.error(f"unknown targets: {', '.join(sorted(unknown))}")

    blocks: list[str] = []

    if targets & _EVALUATION_TARGETS:
        started = time.time()
        print(f"Running the evaluation deployment "
              f"({args.duration_hours:.0f} simulated hours)...", file=sys.stderr)
        results = EvaluationRun(EvaluationConfig(
            seed=args.seed, duration=args.duration_hours * 3600.0,
        )).execute()
        print(f"  done in {time.time() - started:.1f} s", file=sys.stderr)
        renderers = {
            "fig2": lambda: report.render_fig2(results),
            "fig3": lambda: report.render_fig3(results),
            "fig4": lambda: report.render_fig4(results),
            "fig5": lambda: report.render_fig5(results),
            "table1": lambda: report.render_table1(results),
            "recv": lambda: report.render_receive_packet(results),
        }
        for name in ("fig2", "fig3", "fig4", "fig5", "recv", "table1"):
            if name in targets:
                blocks.append(renderers[name]())

    if "fig6" in targets:
        started = time.time()
        print(f"Running the Fig. 6 deployment "
              f"({args.fig6_days:.0f} simulated days)...", file=sys.stderr)
        fig6 = BlockIntervalRun(BlockIntervalConfig(
            seed=args.seed, duration=args.fig6_days * 24 * 3600.0,
        )).execute()
        print(f"  done in {time.time() - started:.1f} s", file=sys.stderr)
        blocks.append(report.render_fig6(fig6))

    if "storage" in targets:
        blocks.append(report.render_storage(measure_capacity(), sealing_ablation()))

    for scenario in SCENARIOS:
        if scenario.name not in targets:
            continue
        started = time.time()
        print(f"Running {scenario.name}...", file=sys.stderr)
        record = scenario.run(args)
        print(f"  done in {time.time() - started:.1f} s", file=sys.stderr)
        if scenario.artifact:
            with open(scenario.artifact, "w") as handle:
                json.dump(record, handle, indent=2, sort_keys=True)
        blocks.append(scenario.render(record))
        failures = scenario.check(record) if scenario.check else []
        if failures:
            print("\n\n".join(blocks))
            for failure in failures:
                print(f"{scenario.name} FAILURE: {failure}", file=sys.stderr)
            return 1

    print("\n\n".join(blocks))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
