"""Per-layer tracing from outside the program.

:func:`install` wraps layer entry points of the ``repro`` package in
place, from the benchmark's own files; the program itself is not
edited.  Three kinds of wrapper exist:

* **function spans** around the functions named in :data:`TARGETS`.  A
  module-level function is replaced in every module that imported it by
  name (``repro.trie.nodes.hash_concat`` as well as
  ``repro.crypto.hashing.hash_concat``), a method in its class;
* **callback spans** around every kernel callback, named after the
  function that owns it.  Only ``Simulation.schedule_at`` is wrapped,
  because ``schedule`` delegates to it; the callback registries that
  run their callbacks synchronously inside another layer's event
  (counterparty ``submit``/``on_block``, gossip ``subscribe``) are
  wrapped at registration so that work is charged to its owner too;
* **counters** on ``NullTracer``, whose calls are too cheap to time.

Spans (name, start, end, parent) stay in flat arrays until the run
ends.  A span's self time is its duration minus the durations of its
direct children, so the self times of all spans under one root sum to
the root's duration exactly.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Optional

#: The layers a span can be charged to, in report order.  A callback
#: belongs to the layer named by its owner's ``repro`` subpackage; the
#: benchmark's own generator and observers are ``bench``; ``other`` is
#: any other ``repro`` module (deployment helpers, workload engine);
#: ``unattributed`` is a callback whose owner could not be resolved.
LAYERS = (
    "sim", "host", "guest", "ibc", "trie", "crypto", "codec",
    "lightclient", "counterparty", "validators", "relayer", "fabric",
    "fisherman", "accountability", "chaos", "state", "bench", "other",
    "unattributed",
)


def _tally_bytes_out(counters: Counter, key: str, args: tuple, result: Any) -> None:
    counters[key + ".bytes"] += len(result)


def _tally_bytes_in(counters: Counter, key: str, args: tuple, result: Any) -> None:
    counters[key + ".bytes"] += len(args[1])


def _tally_rejected(counters: Counter, key: str, args: tuple, result: Any) -> None:
    if result is False:
        counters[key + ".rejected"] += 1


def _tally_receipt(counters: Counter, key: str, args: tuple, result: Any) -> None:
    if not result.success:
        counters["host.tx_failed"] += 1


def _tally_batch_ops(counters: Counter, key: str, args: tuple, result: Any) -> None:
    counters[key + ".ops"] += len(args[1])


def _tally_chunk_bytes(counters: Counter, key: str, args: tuple, result: Any) -> None:
    counters[key + ".bytes"] += sum(len(chunk) for chunk in result.data_chunks)


def _tally_sealed(counters: Counter, key: str, args: tuple, result: Any) -> None:
    counters["state.sealed"] += len(result)


@dataclass(frozen=True)
class Target:
    """One wrapped function: metric name, where it lives, extra tally."""

    metric: str
    module: str
    attr: str
    tally: Optional[Callable[[Counter, str, tuple, Any], None]] = None

    @property
    def layer(self) -> str:
        return self.metric.split(".", 1)[0]


TARGETS = (
    Target("trie.set", "repro.trie.trie", "SealableTrie.set"),
    Target("trie.delete", "repro.trie.trie", "SealableTrie.delete"),
    Target("trie.seal", "repro.trie.trie", "SealableTrie.seal"),
    Target("trie.prove", "repro.trie.trie", "SealableTrie.prove"),
    Target("trie.prove_absence", "repro.trie.trie", "SealableTrie.prove_absence"),
    Target("trie.root", "repro.trie.trie", "SealableTrie.root_hash"),
    Target("trie.get", "repro.trie.trie", "SealableTrie.get"),
    Target("trie.contains", "repro.trie.trie", "SealableTrie.contains"),
    Target("crypto.hash_concat", "repro.crypto.hashing", "hash_concat"),
    Target("crypto.hash_bytes", "repro.crypto.hashing", "hash_bytes"),
    Target("crypto.verify_batch", "repro.crypto.simsig", "SimSigScheme.verify_batch",
           _tally_rejected),
    Target("crypto.verify", "repro.crypto.simsig", "SimSigScheme.verify"),
    Target("crypto.sign", "repro.crypto.simsig", "SimSigScheme.sign"),
    # The guest verifies commit signatures through the host precompile
    # and then applies the header: that is its light-client update.
    Target("lightclient.tendermint.update", "repro.lightclient.tendermint",
           "TendermintLightClient.apply_verified"),
    Target("lightclient.guest.update", "repro.lightclient.guest_client",
           "GuestLightClient.update"),
    Target("lightclient.canonical_hash", "repro.lightclient.tendermint",
           "ValidatorSet.canonical_hash"),
    Target("guest.execute", "repro.guest.contract", "GuestContract.execute"),
    Target("guest.deliver_batch", "repro.guest.api", "GuestApi.deliver_batch",
           _tally_batch_ops),
    Target("ibc.send_packet", "repro.ibc.host", "IbcHost.send_packet"),
    Target("ibc.recv_packet", "repro.ibc.host", "IbcHost.recv_packet"),
    Target("ibc.acknowledge_packet", "repro.ibc.host", "IbcHost.acknowledge_packet"),
    Target("ibc.timeout_packet", "repro.ibc.host", "IbcHost.timeout_packet"),
    Target("codec.proof_encode", "repro.trie.proof", "MembershipProof.to_bytes",
           _tally_bytes_out),
    Target("codec.proof_encode", "repro.trie.proof", "NonMembershipProof.to_bytes",
           _tally_bytes_out),
    Target("codec.proof_decode", "repro.trie.proof", "MembershipProof.from_bytes",
           _tally_bytes_in),
    Target("codec.proof_decode", "repro.trie.proof", "NonMembershipProof.from_bytes",
           _tally_bytes_in),
    Target("codec.lc_update_encode", "repro.lightclient.chunked",
           "plan_update_chunks", _tally_chunk_bytes),
    Target("host.execute", "repro.host.chain", "HostChain._execute", _tally_receipt),
    Target("host.execute_bundle", "repro.host.chain", "HostChain._execute_bundle"),
    Target("fabric.forward", "repro.fabric.forward", "ForwardMiddleware.on_recv"),
    Target("fabric.sibling_update", "repro.fabric.sibling", "SiblingGuestClient.adopt"),
    Target("accountability.verify", "repro.accountability.proof", "verify_proof"),
    Target("state.drain", "repro.state.scheduler", "EagerScheduler.drain", _tally_sealed),
    Target("state.drain", "repro.state.scheduler", "LazyScheduler.drain", _tally_sealed),
    Target("state.drain", "repro.state.scheduler", "RentAwareScheduler.drain",
           _tally_sealed),
)

#: Per-function metrics read off callback spans: metric -> owner name.
CALLBACK_METRICS = {
    "host.slot": "repro.host.chain.HostChain._produce_slot",
    "counterparty.block": "repro.counterparty.chain.CounterpartyChain._produce_block",
}

#: The root span covering the traced window is ``<layer>.window``: its
#: self time is the window minus every callback and wrapped call, the
#: kernel's own cost when the kernel drives the run (layer ``sim``).
WINDOW = "window"


class Recorder:
    """Spans in flat arrays plus named counters.

    The arrays are cleared in place by :meth:`reset`, never replaced,
    because the wrappers bind them once.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self.starts = array("d")
        self.ends = array("d")
        self.name_ids = array("l")
        self.parents = array("l")
        self.stack: list[int] = []
        self.counters: Counter = Counter()

    def name_id(self, name: str, layer: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return nid

    def reset(self) -> None:
        for column in (self.starts, self.ends, self.name_ids, self.parents):
            del column[:]
        self.stack.clear()
        self.counters.clear()

    def open(self, nid: int) -> int:
        index = len(self.starts)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.name_ids.append(nid)
        self.ends.append(0.0)
        self.stack.append(index)
        self.starts.append(self.clock())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = self.clock()
        self.stack.pop()

    def __len__(self) -> int:
        return len(self.starts)

    def span_wrapper(self, fn: Callable, nid: int, key: str,
                     tally: Optional[Callable] = None) -> Callable:
        """``fn`` recorded as span ``nid``; failures counted under ``key``.

        The wrapper carries ``__wrapped__`` so owners resolve through it.
        """
        clock = self.clock
        starts, ends, name_ids, parents = (
            self.starts, self.ends, self.name_ids, self.parents)
        stack, counters = self.stack, self.counters
        failed = key + ".failed"

        def traced(*args, **kwargs):
            index = len(starts)
            parents.append(stack[-1] if stack else -1)
            name_ids.append(nid)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counters[failed] += 1
                raise
            finally:
                ends[index] = clock()
                stack.pop()
            if tally is not None:
                tally(counters, key, args, result)
            return result

        traced.__wrapped__ = fn
        return traced


def self_times(starts, ends, name_ids, parents) -> tuple[Counter, Counter]:
    """Per-name call counts and self times.

    A span's self time is its duration minus its direct children's
    durations; summed over every span under one root it equals the
    root's duration.
    """
    count = len(starts)
    child = [0.0] * count
    for index in range(count):
        parent = parents[index]
        if parent >= 0:
            child[parent] += ends[index] - starts[index]
    calls: Counter = Counter()
    own: Counter = Counter()
    for index in range(count):
        nid = name_ids[index]
        calls[nid] += 1
        own[nid] += ends[index] - starts[index] - child[index]
    return calls, own


# ----------------------------------------------------------------------
# Owner resolution for callbacks
# ----------------------------------------------------------------------


def unwrap(callback: Any) -> Any:
    """The innermost callable under ``functools.partial``, bound methods
    and wrappers that set ``__wrapped__`` (ours and ``functools.wraps``)."""
    for _ in range(16):
        if isinstance(callback, functools.partial):
            callback = callback.func
        elif inspect.ismethod(callback):
            callback = callback.__func__
        elif hasattr(callback, "__wrapped__"):
            callback = callback.__wrapped__
        else:
            break
    return callback


def owner_of(callback: Any) -> Optional[tuple[str, str]]:
    """``(module, qualname)`` of the code a callback runs, or None.

    A closure or lambda keeps the module and qualified name of the
    function it was defined in.
    """
    callback = unwrap(callback)
    if inspect.isfunction(callback):
        return callback.__module__, callback.__qualname__
    if inspect.isbuiltin(callback):
        bound = getattr(callback, "__self__", None)
        if bound is not None and not inspect.ismodule(bound):
            kind = type(bound)
            return kind.__module__, f"{kind.__qualname__}.{callback.__name__}"
        return None
    call = getattr(type(callback), "__call__", None)
    if call is not None and inspect.isfunction(call):
        return call.__module__, call.__qualname__
    return None


def layer_of(module: str) -> str:
    """The layer a module's callbacks are charged to."""
    if module.startswith("perfbench"):
        return "bench"
    if not module.startswith("repro."):
        return "unattributed"
    package = module.split(".")[1]
    if package == "encoding":
        return "codec"
    return package if package in LAYERS else "other"


# ----------------------------------------------------------------------
# Installing the wrappers
# ----------------------------------------------------------------------


@dataclass
class Installation:
    """What :func:`install` patched, so it can be undone."""

    recorder: Recorder
    undo: list

    def uninstall(self) -> None:
        for owner, name, original in reversed(self.undo):
            setattr(owner, name, original)
        self.undo.clear()


def _patch(undo: list, owner: Any, name: str, value: Any) -> None:
    undo.append((owner, name, owner.__dict__[name]))
    setattr(owner, name, value)


def _wrap_member(recorder: Recorder, undo: list, cls: type, name: str,
                 nid: int, key: str, tally) -> None:
    raw = cls.__dict__[name]
    if isinstance(raw, property):
        fget = recorder.span_wrapper(raw.fget, nid, key, tally)
        _patch(undo, cls, name, property(fget, raw.fset, raw.fdel, raw.__doc__))
    elif isinstance(raw, classmethod):
        _patch(undo, cls, name,
               classmethod(recorder.span_wrapper(raw.__func__, nid, key, tally)))
    elif isinstance(raw, staticmethod):
        _patch(undo, cls, name,
               staticmethod(recorder.span_wrapper(raw.__func__, nid, key, tally)))
    else:
        _patch(undo, cls, name, recorder.span_wrapper(raw, nid, key, tally))


def install() -> Installation:
    """Wrap every target, the kernel and the callback registries."""
    recorder = Recorder()
    undo: list = []
    for target in TARGETS:
        module = importlib.import_module(target.module)
        nid = recorder.name_id(target.metric, target.layer)
        owner_name, _, member = target.attr.rpartition(".")
        if owner_name:
            cls = getattr(module, owner_name)
            _wrap_member(recorder, undo, cls, member, nid, target.metric, target.tally)
            continue
        original = getattr(module, member)
        wrapped = recorder.span_wrapper(original, nid, target.metric, target.tally)
        for name, loaded in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and loaded is not None:
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        _patch(undo, loaded, attr, wrapped)

    traced_callback = _callback_tracer(recorder)
    _install_kernel(undo, traced_callback)
    _install_null_counters(recorder, undo)
    return Installation(recorder, undo)


def _callback_tracer(recorder: Recorder) -> Callable[[Any], Any]:
    """A function turning a callback into a span named after its owner."""
    by_code: dict[Any, int] = {}

    def resolve(callback: Any) -> int:
        owner = owner_of(callback)
        if owner is None:
            return recorder.name_id("unattributed", "unattributed")
        module, qualname = owner
        return recorder.name_id(f"{module}.{qualname}", layer_of(module))

    def traced_callback(callback: Any) -> Any:
        if callback is None:
            return None
        inner = unwrap(callback)
        key = getattr(inner, "__code__", None)
        if key is None:
            bound = getattr(inner, "__self__", None)
            key = (type(inner), type(bound), getattr(inner, "__name__", None))
        nid = by_code.get(key)
        if nid is None:
            nid = by_code[key] = resolve(callback)
        return recorder.span_wrapper(callback, nid, recorder.names[nid])

    return traced_callback


def _install_kernel(undo: list, traced_callback: Callable[[Any], Any]) -> None:
    from repro.counterparty.chain import CounterpartyChain
    from repro.sim.gossip import GossipNetwork
    from repro.sim.kernel import Simulation

    schedule_at = Simulation.schedule_at
    submit = CounterpartyChain.submit
    on_block = CounterpartyChain.on_block
    subscribe = GossipNetwork.subscribe

    def traced_schedule_at(self, when, callback, *args):
        return schedule_at(self, when, traced_callback(callback), *args)

    def traced_submit(self, fn, on_result=None):
        return submit(self, traced_callback(fn), traced_callback(on_result))

    def traced_on_block(self, listener):
        return on_block(self, traced_callback(listener))

    def traced_subscribe(self, topic, callback, label=None):
        return subscribe(self, topic, traced_callback(callback), label)

    _patch(undo, Simulation, "schedule_at", traced_schedule_at)
    _patch(undo, CounterpartyChain, "submit", traced_submit)
    _patch(undo, CounterpartyChain, "on_block", traced_on_block)
    _patch(undo, GossipNetwork, "subscribe", traced_subscribe)


def _install_null_counters(recorder: Recorder, undo: list) -> None:
    from repro.observability.trace import NullTracer

    counters = recorder.counters
    for name, member in list(vars(NullTracer).items()):
        if name.startswith("_") or not inspect.isfunction(member):
            continue

        def counted(*args, _member=member, **kwargs):
            counters["observability.null_calls"] += 1
            return _member(*args, **kwargs)

        _patch(undo, NullTracer, name, functools.update_wrapper(counted, member))


# ----------------------------------------------------------------------
# Export
# ----------------------------------------------------------------------


def write_chrome_trace(path: str, recorder: Recorder,
                       max_events: int) -> int:
    """Write spans as Chrome trace-event JSON (opens in Perfetto).

    Spans are written in start order up to ``max_events``; returns the
    number written.  Times are microseconds from the first span.
    """
    count = min(len(recorder), max_events)
    if count == 0:
        origin = 0.0
    else:
        origin = recorder.starts[0]
    encoded = [json.dumps(name) for name in recorder.names]
    layers = [json.dumps(layer) for layer in recorder.layers]
    with open(path, "w", encoding="utf-8") as out:
        out.write('{"displayTimeUnit": "ms", "otherData": ')
        out.write(json.dumps({"spans": len(recorder), "written": count}))
        out.write(', "traceEvents": [\n')
        for index in range(count):
            nid = recorder.name_ids[index]
            start = (recorder.starts[index] - origin) * 1e6
            duration = (recorder.ends[index] - recorder.starts[index]) * 1e6
            out.write(
                f'{"," if index else ""}{{"name": {encoded[nid]}, '
                f'"cat": {layers[nid]}, "ph": "X", "ts": {start:.3f}, '
                f'"dur": {duration:.3f}, "pid": 1, "tid": 1}}\n')
        out.write("]}\n")
    return count
