"""Nibble-path helpers for the Patricia trie.

Keys are arbitrary byte strings; the trie branches on 4-bit nibbles
(16-way), so a key of ``n`` bytes is a path of ``2n`` nibbles.  Paths are
plain tuples of ints in ``range(16)`` — immutable, hashable and cheap to
slice.
"""

from __future__ import annotations

from functools import lru_cache

Nibbles = tuple[int, ...]

#: ``bytes.translate`` tables between hex digits and nibble values, so
#: both codecs run in C: a key's hex string *is* its nibble path, one
#: digit per nibble.  Values 16..255 map to ``g``, which ``bytes.fromhex``
#: rejects.
_HEX_TO_NIBBLE = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))
_NIBBLE_TO_HEX = bytes(b"0123456789abcdef"[n] if n < 16 else ord("g")
                       for n in range(256))


@lru_cache(maxsize=65_536)
def key_to_nibbles(key: bytes) -> Nibbles:
    """Expand a byte string into its nibble path (high nibble first).

    A miss translates ``key.hex()`` digit by digit in C.  Interned:
    provable stores hash every key to a fixed 32 bytes and the relayer
    touches the same commitment keys many times per packet (write,
    prove, ack, seal), so the expansion is memoized.
    """
    return tuple(key.hex().encode("ascii").translate(_HEX_TO_NIBBLE))


def nibbles_to_key(path: Nibbles) -> bytes:
    """Pack an even-length nibble path back into bytes.

    Raises :class:`ValueError` on an odd length or a nibble outside
    ``range(16)``.
    """
    if len(path) % 2:
        raise ValueError("cannot pack an odd number of nibbles into bytes")
    return bytes.fromhex(bytes(path).translate(_NIBBLE_TO_HEX).decode("ascii"))


def common_prefix_len(a: Nibbles, b: Nibbles) -> int:
    """Length of the longest common prefix of two nibble paths.

    One slice comparison (in C) settles the common case, where one path
    extends the other: every write that passes through an extension.
    """
    n = min(len(a), len(b))
    if a[:n] == b[:n]:
        return n
    for i in range(n):
        if a[i] != b[i]:
            return i
    return n


@lru_cache(maxsize=65_536)
def encode_nibbles(path: Nibbles) -> bytes:
    """Canonical byte encoding of a nibble path (for hashing/wire).

    One header byte carries the parity; nibbles are then packed two per
    byte with a zero pad when odd.  The parity byte keeps e.g. ``(1,)``
    and ``(1, 0)`` distinct.

    Interned: node rebuilds along a mutated path re-encode the same
    (immutable) path tuples on every hash, and the pool of distinct
    paths in a trie is small relative to how often each is encoded.  A
    miss packs through :func:`nibbles_to_key`, in C.
    """
    header = bytes([len(path) % 2])
    padded = path if len(path) % 2 == 0 else path + (0,)
    return header + nibbles_to_key(padded)


def encoded_nibbles_len(path: Nibbles) -> int:
    """``len(encode_nibbles(path))`` without building the bytes.

    Storage accounting needs only the length; the header byte plus two
    nibbles per byte (odd paths pad) gives ``1 + (n + 1) // 2``.
    """
    return 1 + (len(path) + 1) // 2


def decode_nibbles(data: bytes) -> Nibbles:
    """Inverse of :func:`encode_nibbles`."""
    if not data:
        raise ValueError("empty nibble encoding")
    odd = data[0]
    if odd not in (0, 1):
        raise ValueError("bad nibble-path parity byte")
    path = key_to_nibbles(data[1:])
    if odd:
        if path and path[-1] != 0:
            raise ValueError("bad nibble-path padding")
        path = path[:-1]
    return path
