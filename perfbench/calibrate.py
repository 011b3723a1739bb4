"""Machine-speed calibration: a fixed reference load timed between batches.

The benchmark runs on shared hosts whose speed drifts by 10-30 % over
tens of seconds (other tenants load the caches, memory bus and sibling
hyperthreads), while it stays nearly constant over a few seconds.  A
run therefore times this reference load in between its batches, and
scales its wall times by how fast the machine ran the reference
against :data:`NOMINAL_UNIT_S`.  A program change cannot move the
reference, which imports nothing from the program, so scaled times
still move with every change to the program and no longer with the
machine.

The load mixes what the simulation spends its time on: an event heap,
SHA-256 over short concatenations, a nibble trie of small slotted
objects in dicts, tuple sorting and bytes slicing.
"""

from __future__ import annotations

import hashlib
import heapq
import time

#: Seconds of one unit on the reference machine: the typical unit time
#: on the shared 2-CPU Intel Xeon VM the benchmark was written on.
#: Scaled times are wall times as that machine would show them.
NOMINAL_UNIT_S = 0.04

#: Keys inserted per unit; sized so that a unit takes ~40 ms.
_KEYS = 8_000


class _Node:
    __slots__ = ("children", "digest")

    def __init__(self) -> None:
        self.children: dict[int, _Node] = {}
        self.digest = b""


def unit() -> bytes:
    """One fixed unit of reference work; returns a digest of it."""
    root = _Node()
    heap: list[tuple[float, int, bytes]] = []
    digest = b"perfbench-reference"
    for index in range(_KEYS):
        digest = hashlib.sha256(digest + index.to_bytes(4, "big")).digest()
        heapq.heappush(heap, (digest[0] / 7.0 + index, index, digest[:8]))
        node = root
        for byte in digest[:3]:
            child = node.children.get(byte & 15)
            if child is None:
                child = node.children[byte & 15] = _Node()
            node = child
        node.digest = hashlib.sha256(node.digest + digest[8:]).digest()
        if len(heap) > 64:
            batch = sorted(heapq.heappop(heap) for _ in range(16))
            digest = hashlib.sha256(b"".join(item[2] for item in batch)).digest()
    return digest


class Calibration:
    """Reference units run so far and the wall seconds they took."""

    def __init__(self) -> None:
        self.units = 0
        self.seconds = 0.0

    def run(self, seconds: float) -> None:
        """Run whole units until ``seconds`` of wall time are spent (at
        least one unit)."""
        started = time.perf_counter()
        while True:
            unit()
            self.units += 1
            elapsed = time.perf_counter() - started
            if elapsed >= seconds:
                break
        self.seconds += elapsed

    @property
    def slowdown(self) -> float:
        """Measured over nominal seconds per unit: 1.2 means the machine
        ran 20 % slower than the reference machine."""
        return self.seconds / self.units / NOMINAL_UNIT_S
