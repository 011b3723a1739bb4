"""Accountability smoke: a short equivocation storm, three seeds, run
twice each (docs/ACCOUNTABILITY.md).

The acceptance bar for accountable safety is sharper than the general
chaos soak's: **every** seeded conflicting finalisation must end in an
on-chain :class:`~repro.accountability.AccountabilityProof` slashing at
least one third of the epoch's voting power, the fault-free twin must
stay untouched, and the whole record must be a bit-reproducible pure
function of the seed — so each seed is executed twice and the two JSON
serialisations compared byte for byte.

``python -m repro.experiments accountability-smoke`` writes
``BENCH_accountability_smoke.json``; ``make accountability-smoke`` and
the CI smoke matrix run that.
"""

from __future__ import annotations

import json

from repro.chaos import FaultPlan
from repro.experiments.chaos import (
    ChaosSoakConfig,
    check_chaos_smoke,
    run_chaos_soak,
)

DEFAULT_SEEDS = (505, 506, 507)


def equivocation_storm(config: ChaosSoakConfig) -> FaultPlan:
    """A storm focused on the slashing paths: both equivocation kinds,
    plus a host blackout and gossip loss timed to force the fisherman
    through its RetryPolicy/CircuitBreaker recovery stack while the
    evidence and the proof are in flight."""
    plan = FaultPlan(label="equivocation-storm")
    plan.add("gossip_drop", at=10.0, duration=45.0, probability=0.3)
    plan.add("validator_equivocate", at=30.0, magnitude=6,
             target=str(config.byzantine_validator))
    plan.add("validator_quorum_equivocate", at=35.0, duration=20.0,
             magnitude=5, target=str(config.byzantine_validator))
    # Opens just as the first evidence submissions go out.
    plan.add("host_blackout", at=32.0, duration=20.0)
    return plan.validate()


def smoke_config(seed: int) -> ChaosSoakConfig:
    """CI scale: under a minute of sending, long settle for retries,
    breaker probes and the post-slash epoch rotation."""
    return ChaosSoakConfig(
        seed=seed, offered_pps=4.0, duration=45.0,
        drain_seconds=1_800.0, channels=1,
    )


def _run_once(seed: int) -> dict:
    config = smoke_config(seed)
    return run_chaos_soak(config, plan=equivocation_storm(config))


def run_accountability_smoke(seeds: tuple[int, ...] = DEFAULT_SEEDS) -> dict:
    """Run the equivocation storm twice per seed; record outcomes and
    whether each seed reproduced bit-identically."""
    runs = []
    for seed in seeds:
        first = _run_once(seed)
        second = _run_once(seed)
        reproducible = (json.dumps(first, sort_keys=True)
                        == json.dumps(second, sort_keys=True))
        runs.append({"seed": seed, "reproducible": reproducible,
                     "record": first})
    return {
        "experiment": "accountability_smoke",
        "seeds": list(seeds),
        "runs": runs,
        "converged": all(run["record"]["converged"] and run["reproducible"]
                         for run in runs),
    }


def check_accountability_smoke(record: dict) -> list[str]:
    """Assertions for the CI job; returns failure messages."""
    failures: list[str] = []
    runs = record.get("runs", ())
    if len(runs) < 3:
        failures.append(f"need >= 3 seeds, got {len(runs)}")
    for run in runs:
        seed = run.get("seed")
        if not run.get("reproducible"):
            failures.append(f"seed {seed}: record not bit-reproducible")
        inner = run.get("record", {})
        for failure in check_chaos_smoke(inner):
            failures.append(f"seed {seed}: {failure}")
        accountability = inner.get("accountability", {})
        slashes = accountability.get("slashes_attributed")
        if not isinstance(slashes, int):
            failures.append(f"seed {seed}: slashes_attributed is not an int")
        elif slashes < 1:
            failures.append(f"seed {seed}: no attributed slashes")
        if accountability.get("seeded_equivocations", 0) < 1:
            failures.append(f"seed {seed}: storm seeded no equivocation")
    return sorted(set(failures))


def render_accountability(record: dict) -> str:
    """Human-readable summary (for the CLI and pytest -s)."""
    lines = [f"Accountability smoke (seeds {record['seeds']})"]
    for run in record["runs"]:
        inner = run["record"]
        accountability = inner["accountability"]
        lines.append(
            f"  seed {run['seed']}: "
            f"{accountability['slashes_attributed']} slash(es) / "
            f"{accountability['seeded_equivocations']} seeded, "
            f"{accountability['burned_total']} lamports burned, "
            f"{'reproducible' if run['reproducible'] else 'NON-DETERMINISTIC'}, "
            f"{'converged' if inner['converged'] else 'FAILED'}")
    verdict = "CONVERGED" if record["converged"] else "FAILED"
    lines.append(f"  verdict: {verdict}")
    return "\n".join(lines)
