"""Membership and non-membership proofs for the sealable trie.

Proofs are self-contained: a verifier needs only the bare 32-byte root
commitment (as carried in a guest block header) to check them.  They
serialize to a compact wire format because their byte size drives how many
host transactions a packet delivery needs (§V-A reports 4–5 transactions
per ``ReceivePacket``; the proof is most of that payload).

A proof is a top-down list of steps.  Verification replays the steps
bottom-up, recomputing each parent hash from its child until it either
reproduces the root (accept) or not (reject).

Membership terminal: a leaf (or branch value) holding the claimed value.
Non-membership terminals, mirroring where a lookup can die:

* the trie is empty;
* a branch has no child under the next nibble;
* a branch consumed the whole key but holds no value;
* a leaf or extension's path diverges from the remaining key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.crypto.hashing import Hash
from repro.encoding import Reader, write_bytes, write_varint
from repro.errors import ProofError
from repro.trie.nibbles import (
    Nibbles,
    common_prefix_len,
    decode_nibbles,
    encode_nibbles,
    key_to_nibbles,
)
from repro.trie.nodes import (
    branch_hash as _branch_hash,
    extension_hash as _extension_hash,
    leaf_hash,
    value_commitment,
)


#: The zero digest's bytes: the hash-set codec tests slots against them
#: with a plain ``bytes`` comparison, not a ``Hash.__eq__`` call.
_ZERO_BYTES = Hash.zero().value


def _leaf_hash(path: Nibbles, value: bytes) -> Hash:
    """Leaf hash from the *raw* value proofs carry on the wire."""
    return leaf_hash(path, value_commitment(value))


# ---------------------------------------------------------------------------
# Proof steps
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class ExtensionStep:
    """Traversed an extension node; consumes ``path`` nibbles."""

    path: Nibbles


@dataclass(frozen=True, slots=True)
class BranchStep:
    """Descended into slot ``index`` of a branch; consumes one nibble.

    ``siblings`` lists the other 15 child hashes in slot order (the
    descended slot is excluded); ``value`` is the branch's own value.
    """

    index: int
    siblings: tuple[Hash, ...]
    value: Optional[bytes]

    def __post_init__(self) -> None:
        if not 0 <= self.index < 16:
            raise ProofError(f"branch index {self.index} out of range")
        if len(self.siblings) != 15:
            raise ProofError("branch step must carry exactly 15 sibling hashes")

    def parent_hash(self, child: Hash) -> Hash:
        siblings, index = self.siblings, self.index
        return _branch_hash(siblings[:index] + (child,) + siblings[index:], self.value)


Step = Union[ExtensionStep, BranchStep]


# ---------------------------------------------------------------------------
# Non-membership terminal evidence
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class EmptyTrieEvidence:
    """The root commitment is the zero hash: nothing is in the trie."""


@dataclass(frozen=True, slots=True)
class EmptySlotEvidence:
    """A branch has no child under the key's next nibble.

    ``children`` gives all 16 child hashes (zero hash for empty slots);
    the verifier checks the slot for the key's next nibble is the zero
    hash.
    """

    children: tuple[Hash, ...]
    value: Optional[bytes]

    def node_hash(self) -> Hash:
        return _branch_hash(list(self.children), self.value)


@dataclass(frozen=True, slots=True)
class NoBranchValueEvidence:
    """The key ends exactly at a branch which holds no value."""

    children: tuple[Hash, ...]

    def node_hash(self) -> Hash:
        return _branch_hash(list(self.children), None)


@dataclass(frozen=True, slots=True)
class DivergentLeafEvidence:
    """A leaf sits where the key would descend, but its path differs.

    Carries the leaf's :func:`~repro.trie.nodes.value_commitment` rather
    than its raw value: absence only needs the leaf's hash, the
    commitment is fixed-size on the wire, and it is all a *sealed* leaf
    stub retains — so divergence from sealed leaves proves absence too.
    """

    path: Nibbles
    commitment: Hash

    def node_hash(self) -> Hash:
        return leaf_hash(self.path, self.commitment)


@dataclass(frozen=True, slots=True)
class DivergentExtensionEvidence:
    """An extension's path diverges from the remaining key."""

    path: Nibbles
    child: Hash

    def node_hash(self) -> Hash:
        return _extension_hash(self.path, self.child)


Evidence = Union[
    EmptyTrieEvidence,
    EmptySlotEvidence,
    NoBranchValueEvidence,
    DivergentLeafEvidence,
    DivergentExtensionEvidence,
]


# ---------------------------------------------------------------------------
# Proof containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class MembershipProof:
    """Proof that ``key`` maps to ``value`` under some root commitment.

    Values always terminate at leaves: the provable stores built on the
    trie hash their keys to a fixed 32 bytes, so no key is a prefix of
    another and branch-value terminals never arise in proofs.
    """

    key: bytes
    value: bytes
    steps: tuple[Step, ...]
    #: Nibbles of the key remaining at the terminal leaf.
    leaf_path: Nibbles

    def to_bytes(self) -> bytes:
        # One shared builder end to end: proofs are serialized per packet
        # delivery, so avoiding per-field temporaries matters (§V-A).
        out = bytearray()
        write_bytes(out, self.key)
        write_bytes(out, self.value)
        write_bytes(out, encode_nibbles(self.leaf_path))
        write_varint(out, len(self.steps))
        for step in self.steps:
            _write_step(out, step)
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "MembershipProof":
        reader = Reader(data)
        key = reader.read_bytes()
        value = reader.read_bytes()
        leaf_path = decode_nibbles(reader.read_bytes())
        steps = tuple(_decode_step(reader) for _ in range(reader.read_varint()))
        reader.expect_end()
        return cls(key=key, value=value, steps=steps, leaf_path=leaf_path)


@dataclass(frozen=True, slots=True)
class NonMembershipProof:
    """Proof that ``key`` is absent under some root commitment."""

    key: bytes
    steps: tuple[Step, ...]
    evidence: Evidence

    def to_bytes(self) -> bytes:
        out = bytearray()
        write_bytes(out, self.key)
        write_varint(out, len(self.steps))
        for step in self.steps:
            _write_step(out, step)
        _write_evidence(out, self.evidence)
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "NonMembershipProof":
        reader = Reader(data)
        key = reader.read_bytes()
        steps = tuple(_decode_step(reader) for _ in range(reader.read_varint()))
        evidence = _decode_evidence(reader)
        reader.expect_end()
        return cls(key=key, steps=steps, evidence=evidence)


# ---------------------------------------------------------------------------
# Wire format
# ---------------------------------------------------------------------------

_STEP_EXTENSION = 0
_STEP_BRANCH = 1

_EV_EMPTY_TRIE = 0
_EV_EMPTY_SLOT = 1
_EV_NO_BRANCH_VALUE = 2
_EV_DIVERGENT_LEAF = 3
_EV_DIVERGENT_EXTENSION = 4


def _write_optional_value(out: bytearray, value: Optional[bytes]) -> None:
    if value is None:
        write_varint(out, 0)
    else:
        write_varint(out, 1)
        write_bytes(out, value)


def _decode_optional_value(reader: Reader) -> Optional[bytes]:
    if reader.read_varint():
        return reader.read_bytes()
    return None


def _write_hash_set(out: bytearray, hashes: tuple[Hash, ...]) -> None:
    """Occupancy bitmap + only the non-zero hashes.

    Branches in a hashed-key trie are mostly sparse, so writing all slots
    at 32 bytes each wastes most of the wire: a two-child branch costs
    34 bytes this way instead of 480.  Proof size drives how many host
    transactions a delivery needs, so this is a direct fee/throughput
    win (§V-A).
    """
    bitmap = 0
    for i, h in enumerate(hashes):
        if h.value != _ZERO_BYTES:
            bitmap |= 1 << i
    out += bitmap.to_bytes(2, "big")
    for i, h in enumerate(hashes):
        if bitmap >> i & 1:
            out += h.value


def _decode_hash_set(reader: Reader, count: int) -> tuple[Hash, ...]:
    bitmap = int.from_bytes(reader.read(2), "big")
    if bitmap >> count:
        raise ProofError(f"hash-set bitmap names slots beyond {count}")
    zero = Hash.zero()
    return tuple(
        Hash(reader.read(32)) if bitmap >> i & 1 else zero
        for i in range(count)
    )


def _write_step(out: bytearray, step: Step) -> None:
    if isinstance(step, ExtensionStep):
        write_varint(out, _STEP_EXTENSION)
        write_bytes(out, encode_nibbles(step.path))
        return
    write_varint(out, _STEP_BRANCH)
    write_varint(out, step.index)
    _write_hash_set(out, step.siblings)
    _write_optional_value(out, step.value)


def _decode_step(reader: Reader) -> Step:
    kind = reader.read_varint()
    if kind == _STEP_EXTENSION:
        return ExtensionStep(path=decode_nibbles(reader.read_bytes()))
    if kind == _STEP_BRANCH:
        index = reader.read_varint()
        siblings = _decode_hash_set(reader, 15)
        value = _decode_optional_value(reader)
        return BranchStep(index=index, siblings=siblings, value=value)
    raise ValueError(f"unknown proof step tag {kind}")


def _write_evidence(out: bytearray, evidence: Evidence) -> None:
    if isinstance(evidence, EmptyTrieEvidence):
        write_varint(out, _EV_EMPTY_TRIE)
        return
    if isinstance(evidence, EmptySlotEvidence):
        write_varint(out, _EV_EMPTY_SLOT)
        _write_hash_set(out, evidence.children)
        _write_optional_value(out, evidence.value)
        return
    if isinstance(evidence, NoBranchValueEvidence):
        write_varint(out, _EV_NO_BRANCH_VALUE)
        _write_hash_set(out, evidence.children)
        return
    if isinstance(evidence, DivergentLeafEvidence):
        write_varint(out, _EV_DIVERGENT_LEAF)
        write_bytes(out, encode_nibbles(evidence.path))
        out += evidence.commitment.value
        return
    if isinstance(evidence, DivergentExtensionEvidence):
        write_varint(out, _EV_DIVERGENT_EXTENSION)
        write_bytes(out, encode_nibbles(evidence.path))
        out += evidence.child.value
        return
    raise ValueError(f"unknown evidence type {type(evidence)!r}")


def _decode_evidence(reader: Reader) -> Evidence:
    kind = reader.read_varint()
    if kind == _EV_EMPTY_TRIE:
        return EmptyTrieEvidence()
    if kind == _EV_EMPTY_SLOT:
        children = _decode_hash_set(reader, 16)
        value = _decode_optional_value(reader)
        return EmptySlotEvidence(children=children, value=value)
    if kind == _EV_NO_BRANCH_VALUE:
        children = _decode_hash_set(reader, 16)
        return NoBranchValueEvidence(children=children)
    if kind == _EV_DIVERGENT_LEAF:
        path = decode_nibbles(reader.read_bytes())
        commitment = Hash(reader.read(32))
        return DivergentLeafEvidence(path=path, commitment=commitment)
    if kind == _EV_DIVERGENT_EXTENSION:
        path = decode_nibbles(reader.read_bytes())
        child = Hash(reader.read(32))
        return DivergentExtensionEvidence(path=path, child=child)
    raise ValueError(f"unknown evidence tag {kind}")


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

def _fold_steps(steps: tuple[Step, ...], terminal: Hash) -> Hash:
    """Recompute the root by folding the steps bottom-up around ``terminal``."""
    current = terminal
    for step in reversed(steps):
        if isinstance(step, ExtensionStep):
            current = _extension_hash(step.path, current)
        else:
            current = step.parent_hash(current)
    return current


def _consumed_nibbles(steps: tuple[Step, ...]) -> int:
    consumed = 0
    for step in steps:
        if isinstance(step, ExtensionStep):
            consumed += len(step.path)
        else:
            consumed += 1
    return consumed


def _steps_match_key(steps: tuple[Step, ...], path: Nibbles) -> bool:
    """Check every step consumes nibbles consistent with ``path``."""
    pos = 0
    for step in steps:
        if isinstance(step, ExtensionStep):
            segment = path[pos : pos + len(step.path)]
            if segment != step.path:
                return False
            pos += len(step.path)
        else:
            if pos >= len(path) or path[pos] != step.index:
                return False
            pos += 1
    return True


def verify_membership(root: Hash, proof: MembershipProof) -> bool:
    """Return ``True`` iff ``proof`` shows ``proof.key → proof.value`` under ``root``."""
    path = key_to_nibbles(proof.key)
    if not _steps_match_key(proof.steps, path):
        return False
    consumed = _consumed_nibbles(proof.steps)
    if consumed + len(proof.leaf_path) != len(path):
        return False
    if proof.leaf_path != path[consumed:]:
        return False
    terminal = _leaf_hash(proof.leaf_path, proof.value)
    return _fold_steps(proof.steps, terminal) == root


def verify_non_membership(root: Hash, proof: NonMembershipProof) -> bool:
    """Return ``True`` iff ``proof`` shows ``proof.key`` is absent under ``root``."""
    path = key_to_nibbles(proof.key)
    if not _steps_match_key(proof.steps, path):
        return False
    consumed = _consumed_nibbles(proof.steps)
    remaining = path[consumed:]
    evidence = proof.evidence

    if isinstance(evidence, EmptyTrieEvidence):
        return not proof.steps and root == Hash.zero()

    if isinstance(evidence, EmptySlotEvidence):
        if not remaining:
            return False
        if evidence.children[remaining[0]] != Hash.zero():
            return False
        return _fold_steps(proof.steps, evidence.node_hash()) == root

    if isinstance(evidence, NoBranchValueEvidence):
        if remaining:
            return False
        return _fold_steps(proof.steps, evidence.node_hash()) == root

    if isinstance(evidence, DivergentLeafEvidence):
        if evidence.path == remaining:
            return False  # that would be membership, not absence
        return _fold_steps(proof.steps, evidence.node_hash()) == root

    if isinstance(evidence, DivergentExtensionEvidence):
        # The extension's path must genuinely diverge: it is neither a
        # prefix of the remaining key nor equal to it.
        prefix = common_prefix_len(evidence.path, remaining)
        if prefix == len(evidence.path):
            return False
        return _fold_steps(proof.steps, evidence.node_hash()) == root

    return False
