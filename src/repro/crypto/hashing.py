"""Hashing primitives used across the trie, blocks and IBC commitments.

Everything hashes with SHA-256 (the guest blockchain in the paper likewise
standardises on a single hash).  :class:`Hash` wraps the 32-byte digest in
an immutable value type so call sites cannot confuse digests with raw byte
strings.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Sequence

DIGEST_SIZE = 32


@dataclass(frozen=True, slots=True)
class Hash:
    """An immutable 32-byte SHA-256 digest.

    ``Hash(...)`` validates its argument: it is the constructor for
    bytes that arrive from outside (decoders, fault injection, lookups).
    Digests this module computes itself are wrapped by
    :func:`_wrap_digest` instead, which skips the check because SHA-256
    output is 32 bytes by construction.
    """

    value: bytes

    def __post_init__(self) -> None:
        if not isinstance(self.value, bytes) or len(self.value) != DIGEST_SIZE:
            raise ValueError(
                f"Hash requires exactly {DIGEST_SIZE} bytes, "
                f"got {len(self.value) if isinstance(self.value, bytes) else type(self.value)}"
            )

    @classmethod
    def of(cls, data: bytes) -> "Hash":
        """Hash ``data`` and wrap the digest."""
        return _wrap_digest(hashlib.sha256(data).digest())

    @classmethod
    def zero(cls) -> "Hash":
        """The all-zeros digest, used as the empty-trie commitment.

        Returns a shared singleton: zero hashes are compared and embedded
        millions of times per run (every empty branch slot), so one
        instance serves them all.
        """
        return _ZERO_HASH

    def hex(self) -> str:
        return self.value.hex()

    def short(self) -> str:
        """First 8 hex characters — for logs and reprs."""
        return self.value[:4].hex()

    def __bytes__(self) -> bytes:
        return self.value

    def __repr__(self) -> str:
        return f"Hash({self.short()}…)"


_new_hash = object.__new__
_set_value = Hash.__dict__["value"].__set__


def _wrap_digest(digest: bytes) -> Hash:
    """Wrap a fresh SHA-256 ``digest`` without re-validating it.

    Only for digests computed in this module: they are 32 bytes by
    construction, so the check ``Hash(...)`` runs would be pure
    overhead on the trie rehash path.  The result is an ordinary
    ``Hash``: equal to, and hashing like, ``Hash(digest)``.
    """
    wrapped = _new_hash(Hash)
    _set_value(wrapped, digest)
    return wrapped


_ZERO_HASH = Hash(bytes(DIGEST_SIZE))

#: Interned length prefixes for the common short parts (tags, digests,
#: small values) so :func:`hash_concat` avoids an ``int.to_bytes`` per
#: part on the trie/commitment hot path.
_LEN_PREFIXES = tuple(n.to_bytes(4, "big") for n in range(256))
_DIGEST_PREFIX = _LEN_PREFIXES[DIGEST_SIZE]
_digest_bytes = attrgetter("value")


def _len_prefix(size: int) -> bytes:
    return _LEN_PREFIXES[size] if size < 256 else size.to_bytes(4, "big")


def hash_bytes(data: bytes) -> Hash:
    """SHA-256 of ``data``."""
    return Hash.of(data)


def hash_concat(*parts: bytes | Hash) -> Hash:
    """SHA-256 over the concatenation of ``parts``.

    Each part is length-prefixed (4-byte big-endian) so that distinct
    splits of the same bytes cannot collide — e.g. ``(b"ab", b"c")`` and
    ``(b"a", b"bc")`` hash differently.

    The preimage is assembled with one ``join`` and hashed in a single
    batched call: per-part ``hasher.update`` pairs dominated the trie
    rehash profile (a 17-part branch preimage paid 34 update calls).
    """
    pieces: list[bytes] = []
    append = pieces.append
    for part in parts:
        if type(part) is not bytes:
            part = part.value if type(part) is Hash else bytes(part)
        size = len(part)
        append(_LEN_PREFIXES[size] if size < 256 else size.to_bytes(4, "big"))
        append(part)
    return _wrap_digest(hashlib.sha256(b"".join(pieces)).digest())


def hash_digests(tag: bytes, digests: Sequence[Hash], tail: bytes) -> Hash:
    """``hash_concat(tag, *digests, tail)``, assembled in one C-level join.

    The preimage is byte-for-byte the one :func:`hash_concat` builds:
    every digest is 32 bytes, so its length prefix is the constant
    ``00000020`` and the digests join with that prefix as separator.
    Trie branch hashes (16 child digests between a tag and the branch
    value) take this path, both when the trie rehashes and when a proof
    verifier folds a branch step.
    """
    return _wrap_digest(hashlib.sha256(b"".join((
        _len_prefix(len(tag)), tag,
        _DIGEST_PREFIX if digests else b"",
        _DIGEST_PREFIX.join(map(_digest_bytes, digests)),
        _len_prefix(len(tail)), tail,
    ))).digest())


def merkle_root(leaves: Iterable[bytes | Hash]) -> Hash:
    """Binary Merkle root over ``leaves`` (duplicating the last odd node).

    Used for the packet list committed into guest block headers; the main
    provable state uses the sealable trie instead.
    """
    level = [bytes(leaf) for leaf in leaves]
    if not level:
        return Hash.zero()
    level = [hashlib.sha256(b"\x00" + leaf).digest() for leaf in level]
    while len(level) > 1:
        if len(level) % 2:
            level.append(level[-1])
        level = [
            hashlib.sha256(b"\x01" + level[i] + level[i + 1]).digest()
            for i in range(0, len(level), 2)
        ]
    return _wrap_digest(level[0])
