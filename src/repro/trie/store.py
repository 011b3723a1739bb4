"""A provable key-value store over the sealable trie.

IBC addresses state through human-readable *commitment paths* (ICS-24),
e.g. ``commitments/ports/transfer/channels/channel-0/sequences/5``.  The
store hashes each path to a fixed 32-byte trie key, which guarantees no
key is a prefix of another — so every value terminates at a leaf and all
proofs have the simple leaf-terminated shape.

Verifiers recompute ``sha256(path)`` themselves, so a proof remains
self-contained: (root, path, value, proof) suffices.
"""

from __future__ import annotations

from functools import lru_cache

from repro.crypto.hashing import Hash, hash_bytes
from repro.trie.proof import MembershipProof, NonMembershipProof, verify_membership, verify_non_membership
from repro.trie.trie import SealableTrie


def path_key(path: str) -> bytes:
    """The 32-byte trie key for a commitment path."""
    return bytes(hash_bytes(path.encode("utf-8")))


def seq_key(prefix: str, sequence: int) -> bytes:
    """The 32-byte trie key for a *sequenced* entry: ``H(prefix)[:24]``
    followed by the sequence as 8 big-endian bytes.

    Sequenced keys keep a channel's entries monotone inside one subtree,
    which is what makes sealing safe: once a subtree of old sequence
    numbers is fully sealed, no future key can ever descend into it
    (future sequences diverge at or above the sealed prefix).  Sealing
    hashed (uniformly random) keys instead could eventually make an
    unlucky fresh key land inside a sealed prefix and fail — so the Guest
    Contract only seals sequenced entries.
    """
    if sequence < 0 or sequence >= 1 << 64:
        raise ValueError("sequence out of range for 8-byte encoding")
    return _seq_prefix(prefix) + sequence.to_bytes(8, "big")


@lru_cache(maxsize=4_096)
def _seq_prefix(prefix: str) -> bytes:
    """``H(prefix)[:24]``, memoized: a channel's few prefixes are hashed
    once instead of on every sequenced write, delete, seal and proof."""
    return bytes(hash_bytes(prefix.encode("utf-8")))[:24]


class ProvableStore:
    """String-path facade over :class:`SealableTrie` (ICS-24 style)."""

    def __init__(self) -> None:
        self._trie = SealableTrie()

    @property
    def root_hash(self) -> Hash:
        return self._trie.root_hash

    @property
    def trie(self) -> SealableTrie:
        return self._trie

    def snapshot(self) -> "ProvableStore":
        """An O(1) frozen view for serving historical proofs."""
        view = ProvableStore()
        view._trie = self._trie.snapshot()
        return view

    def to_bytes(self) -> bytes:
        """Canonical full dump (live nodes and sealed stubs)."""
        from repro.trie.serialize import dump_store

        return dump_store(self)

    @classmethod
    def from_bytes(cls, data: bytes) -> "ProvableStore":
        """Reconstruct a store from :meth:`to_bytes` output."""
        from repro.trie.serialize import load_store

        return load_store(data)

    def set(self, path: str, value: bytes) -> None:
        self._trie.set(path_key(path), value)

    def get(self, path: str) -> bytes:
        return self._trie.get(path_key(path))

    def contains(self, path: str) -> bool:
        return self._trie.contains(path_key(path))

    def delete(self, path: str) -> None:
        self._trie.delete(path_key(path))

    def seal(self, path: str) -> None:
        """Seal the entry at ``path`` (bounded-storage guarantee, §III-A)."""
        self._trie.seal(path_key(path))

    def prove(self, path: str) -> MembershipProof:
        return self._trie.prove(path_key(path))

    def prove_absence(self, path: str) -> NonMembershipProof:
        return self._trie.prove_absence(path_key(path))

    # -- sequenced entries (sealable; see seq_key) ----------------------

    def set_seq(self, prefix: str, sequence: int, value: bytes) -> None:
        self._trie.set(seq_key(prefix, sequence), value)

    def get_seq(self, prefix: str, sequence: int) -> bytes:
        return self._trie.get(seq_key(prefix, sequence))

    def contains_seq(self, prefix: str, sequence: int) -> bool:
        return self._trie.contains(seq_key(prefix, sequence))

    def delete_seq(self, prefix: str, sequence: int) -> None:
        self._trie.delete(seq_key(prefix, sequence))

    def seal_seq(self, prefix: str, sequence: int) -> None:
        self._trie.seal(seq_key(prefix, sequence))

    def prove_seq(self, prefix: str, sequence: int) -> MembershipProof:
        return self._trie.prove(seq_key(prefix, sequence))

    def prove_seq_absence(self, prefix: str, sequence: int) -> NonMembershipProof:
        return self._trie.prove_absence(seq_key(prefix, sequence))

    def node_count(self) -> int:
        return self._trie.node_count()

    def storage_bytes(self) -> int:
        return self._trie.storage_bytes()


def verify_path_membership(root: Hash, path: str, value: bytes, proof: MembershipProof) -> bool:
    """Check ``proof`` shows ``path -> value`` under ``root``.

    Recomputes the hashed key from the path, so a proof generated for a
    different path can never be replayed.
    """
    if proof.key != path_key(path) or proof.value != value:
        return False
    return verify_membership(root, proof)


def verify_path_absence(root: Hash, path: str, proof: NonMembershipProof) -> bool:
    """Check ``proof`` shows ``path`` is absent under ``root``."""
    if proof.key != path_key(path):
        return False
    return verify_non_membership(root, proof)
