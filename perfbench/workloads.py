"""The four benchmark workloads, each a fixed-size batch job.

Every workload is built from the benchmark seed in the same way: the
seed draws the traffic (arrival times, routes, amounts) and nothing
else.  The simulated deployments keep the fixed program seeds of the
experiments they come from, so a seed changes what is offered to the
system, never how the system itself draws its randomness.

Simulated workloads are open loop in simulated time.  The generator is
one kernel event that sends the packet due now and schedules itself
for the next due time, so it can never run late; latency is measured
from each packet's *due* time to its receive at the destination chain,
which counts the wait for the next counterparty block.

A batch has three phases:

``setup``   build the world and run its handshakes, up to the first
            due send (timed: ``setup_s``);
``run``     offer the whole schedule and drain it (timed: the
            throughput window);
``check``   the correctness checks, outside both timed windows.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.chaos import ChaosInjector
from repro.deployment import Deployment, DeploymentConfig
from repro.experiments.chaos import ChaosSoakConfig, storm_plan
from repro.fabric import (
    CounterpartySpec,
    GuestSpec,
    LinkSpec,
    RouteSpec,
    TopologyConfig,
    build_fabric,
)
from repro.guest.config import GuestConfig
from repro.ibc.apps.transfer import FungibleTokenPacketData
from repro.ibc.identifiers import ChannelId, PortId
from repro.metrics.stats import percentile
from repro.relayer.relayer import RelayerConfig
from repro.state.scheduler import RentAwareScheduler
from repro.trie.store import ProvableStore
from repro.units import RENT_LAMPORTS_PER_BYTE_YEAR
from repro.validators.profiles import simple_profiles

#: A p99 needs at least ten samples beyond it.
MIN_P99_SAMPLES = 1_000

#: How often (simulated seconds) the drain loop tests its stop condition.
DRAIN_STEP_SECONDS = 5.0


def p99(ordered: list[float]) -> float:
    """The 99th percentile of sorted samples; refuses thin samples."""
    if len(ordered) < MIN_P99_SAMPLES:
        raise ValueError(
            f"p99 needs >= {MIN_P99_SAMPLES} samples, got {len(ordered)}")
    return percentile(ordered, 0.99)


def poisson_dues(rng: random.Random, pps: float, count: int) -> list[float]:
    """``count`` Poisson arrival offsets (simulated seconds from 0)."""
    dues, now = [], 0.0
    for _ in range(count):
        now += rng.expovariate(pps)
        dues.append(now)
    return dues


def longest_outage(dues: list[float], receives: list[float], end: float) -> float:
    """Longest simulated gap with packets outstanding and none delivered.

    A gap opens when the first packet becomes outstanding (or at the last
    delivery, if packets are still outstanding then) and closes at the
    next delivery, or at ``end`` if none comes.
    """
    marks = sorted([(t, 0) for t in dues] + [(t, 1) for t in receives])
    outstanding, opened, longest = 0, None, 0.0
    for time, is_receive in marks:
        if is_receive:
            if opened is not None:
                longest = max(longest, time - opened)
            outstanding -= 1
            opened = time if outstanding > 0 else None
        else:
            if outstanding == 0:
                opened = time
            outstanding += 1
    if opened is not None:
        longest = max(longest, end - opened)
    return longest


def bank_fingerprint(banks: dict, roots: dict) -> str:
    """sha256 over every non-zero balance of every chain plus the guest
    state roots: equal fingerprints mean the same final ledger."""
    entries = sorted(
        [chain, owner, denom, amount]
        for chain, bank in banks.items()
        for (owner, denom), amount in bank.balances().items()
        if amount
    )
    blob = json.dumps([entries, sorted(roots.items())]).encode()
    return hashlib.sha256(blob).hexdigest()


@dataclass
class BatchResult:
    """What one batch measured (times in wall seconds unless named sim)."""

    offered: int
    delivered: int
    setup_s: float
    run_s: float
    events: int
    fingerprint: str
    sim_latencies: list[float] = field(default_factory=list, repr=False)
    fee_lamports: int = 0
    #: Workload-specific simulated metrics (name -> value).
    extra: dict = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    @property
    def packets_per_s(self) -> float:
        return self.delivered / self.run_s


# ----------------------------------------------------------------------
# Packet tracking shared by the three simulated workloads
# ----------------------------------------------------------------------


class Tracker:
    """Due times by unique receiver, and each packet's receive time.

    Every send carries a receiver name unique to it, so a receive is
    matched to its send by decoding the ICS-20 payload, whatever path
    (direct, sibling or forwarded) it took.
    """

    def __init__(self) -> None:
        #: receiver -> (due time, destination chain)
        self.pending: dict[str, tuple[float, str]] = {}
        self.dues: list[float] = []
        self.received: dict[str, float] = {}
        self.latencies: list[float] = []
        self.receive_times: list[float] = []
        self.duplicates = 0

    def expect(self, receiver: str, due: float, destination: str) -> None:
        self.pending[receiver] = (due, destination)
        self.dues.append(due)

    def observe(self, chain: str, payload: bytes, time: float) -> None:
        try:
            receiver = FungibleTokenPacketData.from_bytes(payload).receiver
        except ValueError:
            return
        if receiver in self.received:
            self.duplicates += 1
            return
        entry = self.pending.get(receiver)
        if entry is None or entry[1] != chain:
            return  # an intermediate hop, or not benchmark traffic
        del self.pending[receiver]
        self.received[receiver] = time
        self.latencies.append(time - entry[0])
        self.receive_times.append(time)

    def on_guest_received(self, event) -> None:
        packet = event.payload.get("packet")
        if packet is not None and event.payload.get("ack_success"):
            self.observe(event.payload["guest"], packet.payload, event.time)

    def hook_counterparty(self, name: str, counterparty) -> None:
        """Time receives on a counterparty (it has no host events)."""
        inner = counterparty.transfer.on_recv
        sim = counterparty.sim

        def timed_recv(packet):
            ack = inner(packet)
            if ack.success:
                self.observe(name, packet.payload, sim.now)
            return ack

        counterparty.transfer.on_recv = timed_recv


class Generator:
    """Open-loop sender on the simulated clock.

    ``sends`` is a list of ``(due offset, send callable)``; the callable
    fires at ``start + offset`` and receives its absolute due time.
    """

    def __init__(self, sim, sends: list[tuple[float, Callable[[float], None]]]) -> None:
        self.sim = sim
        self.sends = sends
        self.index = 0
        self.start = 0.0

    def begin(self) -> None:
        self.start = self.sim.now
        if self.sends:
            self.sim.schedule_at(self.start + self.sends[0][0], self._fire)

    def _fire(self) -> None:
        offset, send = self.sends[self.index]
        self.index += 1
        send(self.start + offset)
        if self.index < len(self.sends):
            self.sim.schedule_at(self.start + self.sends[self.index][0], self._fire)

    @property
    def done(self) -> bool:
        return self.index == len(self.sends)

    @property
    def last_due(self) -> float:
        return self.start + (self.sends[-1][0] if self.sends else 0.0)


def drain(sim, generator: Generator, settled: Callable[[], bool],
          cap_seconds: float, on_step: Callable[[], None]) -> None:
    """Run until every send went out and ``settled()`` holds, or the cap;
    ``on_step`` runs after every step."""
    deadline = generator.last_due + cap_seconds
    while sim.now < deadline:
        sim.run_until(min(sim.now + DRAIN_STEP_SECONDS, deadline))
        on_step()
        if generator.done and settled():
            return


# ----------------------------------------------------------------------
# Workload base
# ----------------------------------------------------------------------


class Workload:
    """One batch of one workload; subclasses fill the three phases."""

    name = ""
    #: One line: why the benchmark has this workload.
    why = ""
    #: Human-readable input size of one batch.
    size = ""
    #: The layer that drives the run window: the kernel, or the
    #: benchmark's own loop for store-only workloads.
    window_layer = "sim"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> None:
        raise NotImplementedError

    def result(self, setup_s: float, run_s: float) -> BatchResult:
        """Collect metrics and run the correctness checks (untimed)."""
        raise NotImplementedError

    def relayers(self) -> list:
        """The relayers of the world (their metrics feed the trace)."""
        return []

    def final_checks(self, fingerprint: str) -> list[str]:
        """Checks too costly for every batch, run once per process on
        the last batch; ``fingerprint`` is that batch's."""
        return []


def _open_channels(dep: Deployment, count: int) -> list:
    """The link's first channel, then ``count - 1`` more over it."""
    channels = [dep.establish_link()]
    for _ in range(count - 1):
        opened: dict = {}
        dep.relayer.open_channel(
            PortId("transfer"), PortId("transfer"),
            lambda g, c: opened.update(guest=g, cp=c),
        )
        deadline = dep.sim.now + 3_600.0
        while "cp" not in opened and dep.sim.now < deadline:
            dep.sim.step()
        if "cp" not in opened:
            raise RuntimeError("extra channel failed to open")
        channels.append((opened["guest"], opened["cp"]))
    return channels


class _LinkedDeployment(Workload):
    """Counterparty -> guest ICS-20 traffic over one deployment."""

    denom = "PICA"
    senders = ("wl-user-0", "wl-user-1", "wl-user-2")
    pps = 40.0
    packets = 0
    channels = 1
    drain_cap_seconds = 1_800.0

    def build(self) -> tuple[Deployment, list]:
        raise NotImplementedError

    def setup(self) -> None:
        rng = random.Random(f"{self.name}:{self.seed}")
        dues = poisson_dues(rng, self.pps, self.packets)
        plan = [(due, rng.randrange(self.channels), rng.choice(self.senders),
                 rng.randint(1, 9)) for due in dues]
        self.dep, self.channel_pairs = self.build()
        dep = self.dep
        for sender in self.senders:
            dep.counterparty.bank.mint(sender, self.denom, 10 * self.packets)
        self.tracker = Tracker()
        dep.host.subscribe("PacketReceived", self.tracker.on_guest_received)
        self.offered = len(plan)
        self.generator = Generator(dep.sim, [
            (due, self._sender(index, channel, sender, amount))
            for index, (due, channel, sender, amount) in enumerate(plan)
        ])

    def _sender(self, index: int, channel: int, sender: str, amount: int):
        cp = self.dep.counterparty
        guest_chain = self.dep.contract.chain_id
        _, cp_chan = self.channel_pairs[channel]
        receiver = f"r{index}"

        def send(due: float) -> None:
            self.tracker.expect(receiver, due, guest_chain)

            def do_send():
                payload = cp.transfer.make_payload(
                    cp_chan, self.denom, amount, sender, receiver)
                return cp.ibc.send_packet(cp.transfer_port, cp_chan, payload, 0.0)

            cp.submit(do_send)

        return send

    def relayers(self) -> list:
        return [self.dep.relayer]

    def _relayer_fees(self) -> int:
        """Lamports the relayer's payer has spent on the host so far."""
        return -self.dep.host.accounts.balance(self.dep.relayer_payer)

    def _track_live(self) -> None:
        self.max_live = max(self.max_live,
                            self.dep.contract.ibc.store.storage_bytes())

    def settled(self) -> bool:
        dep = self.dep
        return (not self.tracker.pending
                and dep.counterparty.ibc.counters.packets_acknowledged
                >= self.offered)

    def run(self) -> None:
        sim = self.dep.sim
        self.events_before = sim.dispatched_events()
        self.fees_before = self._relayer_fees()
        self.max_live = 0
        self.generator.begin()
        drain(sim, self.generator, self.settled, self.drain_cap_seconds,
              self._track_live)

    def checks(self) -> list[str]:
        dep, tracker = self.dep, self.tracker
        failures = []
        if tracker.pending or tracker.duplicates:
            failures.append(
                f"exactly-once broken: {len(tracker.pending)} undelivered, "
                f"{tracker.duplicates} duplicate receives")
        received = dep.contract.ibc.counters.packets_received
        acked = dep.counterparty.ibc.counters.packets_acknowledged
        if received != self.offered or acked != self.offered:
            failures.append(
                f"exactly-once broken: offered {self.offered}, guest received "
                f"{received}, counterparty acknowledged {acked}")
        for guest_chan, cp_chan in self.channel_pairs:
            escrow = dep.counterparty.transfer.escrow_address(cp_chan)
            voucher = dep.contract.transfer.voucher_denom(guest_chan, self.denom)
            escrowed = dep.counterparty.bank.balance(escrow, self.denom)
            circulating = dep.contract.bank.total_supply(voucher)
            if escrowed != circulating:
                failures.append(
                    f"conservation broken on {cp_chan}: escrowed {escrowed} "
                    f"!= vouchers {circulating}")
        return failures

    def fingerprint(self) -> str:
        dep = self.dep
        return bank_fingerprint(
            {"cp": dep.counterparty.bank, "guest": dep.contract.bank},
            {"guest": dep.contract.ibc.store.root_hash.hex()})

    def result(self, setup_s: float, run_s: float) -> BatchResult:
        sim = self.dep.sim
        return BatchResult(
            offered=self.offered,
            delivered=len(self.tracker.received),
            setup_s=setup_s,
            run_s=run_s,
            events=sim.dispatched_events() - self.events_before,
            fingerprint=self.fingerprint(),
            sim_latencies=self.tracker.latencies,
            fee_lamports=self._relayer_fees() - self.fees_before,
            extra=self.extra(),
            failures=self.checks(),
        )

    def extra(self) -> dict:
        return {"max_live_kib": self.max_live / 1024}


class RelaySoak(_LinkedDeployment):
    """The paper's pipeline at the soak shape (tests' 10k soak, scaled)."""

    name = "relay-soak"
    why = ("the paper's counterparty->guest pipeline; every layer works, "
           "trie reads (a proof per packet, a root per block) dominate")
    packets = 2_000
    pps = 40.0
    channels = 3
    size = "2,000 Poisson sends at 40 pps over 3 channels, 4 validators"

    def build(self):
        dep = Deployment(DeploymentConfig(
            seed=29,
            guest=GuestConfig(delta_seconds=120.0, min_stake_lamports=1),
            relayer=RelayerConfig(batch_max_packets=32, batch_flush_seconds=2.0),
            profiles=simple_profiles(4),
            tracing=False,
        ))
        return dep, _open_channels(dep, self.channels)


class ChaosStorm(_LinkedDeployment):
    """``storm_plan`` over a batched workload, fisherman on, no twin."""

    name = "chaos-storm"
    why = ("the only run of the recovery paths (crash/restart, retries, "
           "breaker) and of fisherman prosecution and slashing")
    pps = 8.0
    channels = 2
    size = "2,400 Poisson sends at 8 pps over 2 channels under 14 faults"
    drain_cap_seconds = 3_600.0

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.config = ChaosSoakConfig()
        self.packets = int(self.config.offered_pps * self.config.duration)

    def build(self):
        config = self.config
        # The recovery watchers log into the injector, not the tracer,
        # so the storm runs with tracing off like every other workload.
        dep = Deployment(DeploymentConfig(
            seed=config.seed,
            guest=GuestConfig(
                delta_seconds=config.delta_seconds,
                epoch_length_host_blocks=config.epoch_length_host_blocks,
                min_stake_lamports=1,
            ),
            relayer=RelayerConfig(
                batch_max_packets=config.batch_max_packets,
                batch_flush_seconds=config.batch_flush_seconds,
            ),
            profiles=simple_profiles(config.validators),
            with_fisherman=True,
            tracing=False,
        ))
        return dep, _open_channels(dep, self.channels)

    def run(self) -> None:
        self.injector = ChaosInjector(self.dep, storm_plan(self.config)).arm()
        super().run()

    def _offender(self):
        return self.dep.validator_keypair(
            self.config.byzantine_validator).public_key

    def _punished(self) -> bool:
        contract = self.dep.contract
        offender = self._offender()
        epoch = contract.current_epoch
        return (contract.staking.stake_of(offender) == 0
                and epoch is not None and not epoch.is_validator(offender))

    def settled(self) -> bool:
        return (super().settled() and self._punished()
                and all(fault["recovered_after"] is not None
                        for fault in self.injector.log))

    def checks(self) -> list[str]:
        failures = super().checks()
        if not self._punished():
            failures.append("equivocating validator kept its stake or its seat")
        faults = self.injector.log
        stuck = [f["kind"] for f in faults if not f["began"]]
        unrecovered = [f["kind"] for f in faults
                       if f["recovered_after"] is None or f["recovered_after"] < 0]
        if stuck:
            failures.append(f"faults never fired: {stuck}")
        if unrecovered:
            failures.append(f"faults never recovered: {unrecovered}")
        return failures

    def extra(self) -> dict:
        return {
            **super().extra(),
            "sim_outage_max_s": longest_outage(
                self.tracker.dues, self.tracker.receive_times,
                self.dep.sim.now),
        }


class FabricMesh(Workload):
    """Hub + two guests with a sibling link and a forwarded route."""

    name = "fabric-mesh"
    why = ("sibling relayer, host-verified sibling clients and forwarding; "
           "~16 kernel events per packet load the kernel and relayers most")
    packets = 1_500
    pps = 20.0
    size = "1,500 Poisson sends at 20 pps: 50% hub->guest, 25% guest->hub, 15% sibling, 10% routed"
    drain_cap_seconds = 1_800.0
    hub = "hub"
    guest_names = ("g0", "g1")
    native = {"hub": "uatom", "g0": "g0tok", "g1": "g1tok"}

    def setup(self) -> None:
        rng = random.Random(f"{self.name}:{self.seed}")
        dues = poisson_dues(rng, self.pps, self.packets)
        plan = []
        for due in dues:
            draw = rng.random()
            if draw < 0.50:
                kind = ("hub", rng.choice(self.guest_names))
            elif draw < 0.75:
                kind = (rng.choice(self.guest_names), "hub")
            elif draw < 0.90:
                src = rng.choice(self.guest_names)
                kind = (src, "g1" if src == "g0" else "g0")
            else:
                kind = ("route", "g1")
            plan.append((due, kind, rng.randint(1, 9)))

        self.dep = dep = build_fabric(TopologyConfig(
            guests=tuple(GuestSpec(name=name) for name in self.guest_names),
            counterparties=(CounterpartySpec(name=self.hub),),
            links=(LinkSpec(a="g0", b=self.hub), LinkSpec(a="g1", b=self.hub),
                   LinkSpec(a="g0", b="g1")),
            routes=(RouteSpec(name="route", hops=(self.hub, "g0", "g1")),),
            seed=2024,
            tracing=False,
        ))
        hub_chain = dep.counterparties[self.hub]
        budget = 10 * self.packets
        hub_chain.bank.mint("hub-sender", self.native["hub"], budget)
        for name in self.guest_names:
            dep.guests[name].contract.bank.mint(
                str(dep.user[name]), self.native[name], budget)
        self.checker = dep.conservation_checker()
        self.tracker = Tracker()
        dep.host.subscribe("PacketReceived", self.tracker.on_guest_received)
        self.tracker.hook_counterparty(self.hub, hub_chain)
        self.offered = len(plan)
        self.generator = Generator(dep.sim, [
            (due, self._sender(index, src, dst, amount))
            for index, (due, (src, dst), amount) in enumerate(plan)
        ])

    def _sender(self, index: int, src: str, dst: str, amount: int):
        dep = self.dep
        receiver = f"r{index}"
        if src == "route":
            def send(due: float) -> None:
                self.tracker.expect(receiver, due, dep.guests[dst].contract.chain_id)
                dep.send_along("route", "hub-sender", receiver,
                               self.native["hub"], amount)
            return send
        destination = (dst if dst == self.hub
                       else dep.guests[dst].contract.chain_id)
        link = dep.link_between(src, dst)
        channel = ChannelId(link.channels[src])
        if src == self.hub:
            hub_chain = dep.counterparties[self.hub]

            def send(due: float) -> None:
                self.tracker.expect(receiver, due, destination)

                def do_send():
                    payload = hub_chain.transfer.make_payload(
                        channel, self.native["hub"], amount,
                        "hub-sender", receiver)
                    return hub_chain.ibc.send_packet(
                        PortId("transfer"), channel, payload, 0.0)

                hub_chain.submit(do_send)
            return send
        contract = dep.guests[src].contract
        user = str(dep.user[src])

        def send(due: float) -> None:
            self.tracker.expect(receiver, due, destination)
            payload = contract.transfer.make_payload(
                channel, self.native[src], amount, user, receiver)
            dep.user_api[src].send_packet("transfer", str(channel), payload, 0.0)
        return send

    def relayers(self) -> list:
        return [link.relayer for link in self.dep.links]

    def _relayer_fees(self) -> int:
        """Lamports the relayers' payers have spent on the host so far."""
        return -sum(self.dep.host.accounts.balance(payer)
                    for link in self.dep.links for payer in link.payers)

    def _track_live(self) -> None:
        self.max_live = max(self.max_live, sum(
            g.contract.ibc.store.storage_bytes() for g in self.dep.guests.values()))

    def _sibling_outstanding(self) -> int:
        return sum(
            len(table)
            for link in self.dep.links if link.kind == "guest-guest"
            for tables in (link.relayer._outstanding, link.relayer._pending_acks)
            for table in tables.values())

    def _forwards_open(self) -> int:
        return sum(g.contract.forward.forwards_started
                   - g.contract.forward.forwards_settled
                   for g in self.dep.guests.values())

    def settled(self) -> bool:
        return (not self.tracker.pending and self._sibling_outstanding() == 0
                and self._forwards_open() == 0)

    def run(self) -> None:
        sim = self.dep.sim
        self.events_before = sim.dispatched_events()
        self.fees_before = self._relayer_fees()
        self.max_live = 0
        self.generator.begin()
        drain(sim, self.generator, self.settled, self.drain_cap_seconds,
              self._track_live)

    def result(self, setup_s: float, run_s: float) -> BatchResult:
        dep, tracker = self.dep, self.tracker
        failures = []
        report = self.checker.check()
        failures += report.failures
        if tracker.pending or tracker.duplicates:
            failures.append(
                f"exactly-once broken: {len(tracker.pending)} undelivered, "
                f"{tracker.duplicates} duplicate receives")
        if self._sibling_outstanding():
            failures.append(
                f"sibling relayer has {self._sibling_outstanding()} items outstanding")
        if self._forwards_open():
            failures.append(f"{self._forwards_open()} forwards never settled")
        forwards = sum(g.contract.forward.forwards_started
                       for g in dep.guests.values())
        return BatchResult(
            offered=self.offered,
            delivered=len(tracker.received),
            setup_s=setup_s,
            run_s=run_s,
            events=dep.sim.dispatched_events() - self.events_before,
            fingerprint=bank_fingerprint(
                dep.banks(),
                {name: g.contract.ibc.store.root_hash.hex()
                 for name, g in dep.guests.items()}),
            sim_latencies=tracker.latencies,
            fee_lamports=self._relayer_fees() - self.fees_before,
            extra={"max_live_kib": self.max_live / 1024, "forwards": forwards},
            failures=failures,
        )


# ----------------------------------------------------------------------
# state-horizon: the state-sweep packet lifecycle, store only
# ----------------------------------------------------------------------

_RECEIPT_PREFIX = "receipts/ports/transfer/channels/channel-0"
_ACK_PREFIX = "acks/ports/transfer/channels/channel-0"
_COMMITMENT_PREFIX = "commitments/ports/transfer/channels/channel-0"


def replay_lifecycle(store: ProvableStore, scheduler, values: list[bytes],
                     first: int, count: int, ack_lag: int, root_every: int,
                     on_packet: Optional[Callable[[int], None]] = None) -> None:
    """Packets ``first .. first+count-1`` of the state-sweep lifecycle.

    Per sequence ``n``: commitment, receipt and ack written; receipt
    ``n-1`` offered (lagged rule); commitment ``n-ack_lag`` deleted and
    its ack offered; the scheduler drained.  The root is read every
    ``root_every`` packets, standing in for a guest block.
    ``scheduler=None`` is the plain (never sealing) replay.
    """
    for n in range(first, first + count):
        value = values[n % len(values)]
        store.set_seq(_COMMITMENT_PREFIX, n, value)
        store.set_seq(_RECEIPT_PREFIX, n, b"\x01")
        store.set_seq(_ACK_PREFIX, n, value)
        if scheduler is not None and n >= 1:
            scheduler.offer(_RECEIPT_PREFIX, n - 1)
        acked = n - ack_lag
        if acked >= 0:
            store.delete_seq(_COMMITMENT_PREFIX, acked)
            if scheduler is not None:
                scheduler.offer(_ACK_PREFIX, acked)
        if scheduler is not None:
            while True:
                due = scheduler.drain(store)
                if not due:
                    break
                for prefix, sequence in due:
                    store.seal_seq(prefix, sequence)
        if n % root_every == 0:
            store.root_hash  # noqa: B018 — the per-block rehash
        if on_packet is not None:
            on_packet(n)


class StateHorizon(Workload):
    """Store-only replay under the rent-aware scheduler."""

    name = "state-horizon"
    why = ("trie writes, deletes and seals past the nibble caches with no "
           "kernel, relayer or light client: bypasses those layers")
    warmup_packets = 2_000
    packets = 24_000
    ack_lag = 32
    root_every = 16
    rent_budget_bytes = 262_144
    window_layer = "bench"
    size = "2,000 warm-up + 24,000 timed packet lifecycles (72k keys), rent-aware sealing"

    def setup(self) -> None:
        rng = random.Random(f"{self.name}:{self.seed}")
        self.values = [rng.randbytes(32) for _ in range(1_024)]
        self.store = ProvableStore()
        self.scheduler = RentAwareScheduler(
            annual_budget_lamports=round(
                self.rent_budget_bytes * RENT_LAMPORTS_PER_BYTE_YEAR))
        replay_lifecycle(self.store, self.scheduler, self.values, 0,
                         self.warmup_packets, self.ack_lag, self.root_every)
        self.max_live = self.store.storage_bytes()

    def run(self) -> None:
        store = self.store

        def track(_n: int) -> None:
            live = store.storage_bytes()
            if live > self.max_live:
                self.max_live = live

        replay_lifecycle(store, self.scheduler, self.values,
                         self.warmup_packets, self.packets, self.ack_lag,
                         self.root_every, track)
        self.root = store.root_hash

    def result(self, setup_s: float, run_s: float) -> BatchResult:
        failures = []
        trie = self.store.trie
        cached = (trie.storage_bytes(), trie.node_count(), trie.sealed_count())
        if cached != trie.recount_aggregates():
            failures.append(
                f"cached aggregates {cached} != recount {trie.recount_aggregates()}")
        return BatchResult(
            offered=self.packets,
            delivered=self.packets,
            setup_s=setup_s,
            run_s=run_s,
            events=0,
            fingerprint=self.root.hex(),
            extra={"max_live_kib": self.max_live / 1024,
                   "sealed": trie.sealed_count()},
            failures=failures,
        )

    def final_checks(self, fingerprint: str) -> list[str]:
        """The same ops with no sealing must reach the same root, because
        sealing is root-neutral."""
        store = ProvableStore()
        total = self.warmup_packets + self.packets
        replay_lifecycle(store, None, self.values, 0, total, self.ack_lag, total)
        plain = store.root_hash.hex()
        if plain != fingerprint:
            return [f"root {fingerprint[:16]} != plain replay root {plain[:16]}"]
        return []


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (RelaySoak, FabricMesh, StateHorizon, ChaosStorm)
}
