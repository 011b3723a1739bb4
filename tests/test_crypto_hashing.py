"""Unit tests for repro.crypto.hashing."""

import hashlib
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.hashing import Hash, hash_bytes, hash_concat, hash_digests, merkle_root
from repro.trie.nodes import _NO_VALUE, _TAG_BRANCH, branch_hash


class TestHash:
    def test_of_matches_sha256(self):
        assert Hash.of(b"hello").value == hashlib.sha256(b"hello").digest()

    def test_zero_is_32_zero_bytes(self):
        assert Hash.zero().value == bytes(32)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            Hash(b"short")

    def test_rejects_non_bytes(self):
        with pytest.raises(ValueError):
            Hash("0" * 64)  # type: ignore[arg-type]

    @pytest.mark.parametrize("raw", [b"\0" * 31, b"\0" * 33, b"", "str", bytearray(32)])
    def test_constructor_keeps_validation(self, raw):
        with pytest.raises(ValueError):
            Hash(raw)  # type: ignore[arg-type]

    def test_equality_and_hashability(self):
        a = Hash.of(b"x")
        b = Hash.of(b"x")
        assert a == b
        assert len({a, b}) == 1

    def test_bytes_roundtrip(self):
        h = Hash.of(b"data")
        assert Hash(bytes(h)) == h

    def test_hex_and_short(self):
        h = Hash.of(b"data")
        assert h.hex() == h.value.hex()
        assert h.hex().startswith(h.short())


class TestDigestFastPath:
    """Digests computed in ``repro.crypto.hashing`` skip the constructor's
    check; the objects must be indistinguishable from validated ones."""

    def fast_hashes(self):
        return [
            Hash.of(b"data"),
            hash_bytes(b"data"),
            hash_concat(b"tag", b"data"),
            hash_digests(b"tag", (Hash.of(b"a"), Hash.of(b"b")), b"tail"),
            merkle_root([b"a", b"b", b"c"]),
        ]

    def test_equal_to_and_hashes_like_validated(self):
        for fast in self.fast_hashes():
            validated = Hash(bytes(fast.value))
            assert type(fast) is Hash
            assert fast == validated and validated == fast
            assert hash(fast) == hash(validated)
            assert len(fast.value) == 32

    def test_dict_lookup_by_validated_hash_hits(self):
        table = {fast: i for i, fast in enumerate(self.fast_hashes())}
        for fast, i in list(table.items()):
            assert table.get(Hash(bytes(fast))) == i

    def test_fast_path_hash_is_frozen(self):
        fast = Hash.of(b"data")
        with pytest.raises(FrozenInstanceError):
            fast.value = bytes(32)  # type: ignore[misc]


digests = st.binary(min_size=32, max_size=32).map(Hash)
tails = st.one_of(
    st.just(b""),
    st.binary(min_size=1, max_size=1),
    st.binary(min_size=256, max_size=300),
    st.binary(max_size=64),
)


@given(st.one_of(st.binary(max_size=4), st.binary(min_size=256, max_size=260)),
       st.lists(digests, max_size=17), tails)
def test_hash_digests_equals_hash_concat(tag, ds, tail):
    expected = hash_concat(tag, *ds, tail)
    assert hash_digests(tag, ds, tail) == expected
    assert hash_digests(tag, tuple(ds), tail) == expected


@given(st.lists(digests, min_size=16, max_size=16), st.one_of(st.none(), tails))
def test_branch_hash_preimage_is_hash_concat(children, value):
    """``None`` (no branch value) hashes as the ``_NO_VALUE`` marker."""
    tail = value if value is not None else _NO_VALUE
    assert branch_hash(children, value) == hash_concat(_TAG_BRANCH, *children, tail)


class TestHashConcat:
    def test_deterministic(self):
        assert hash_concat(b"a", b"b") == hash_concat(b"a", b"b")

    def test_split_resistant(self):
        # Length prefixes must make different splits hash differently.
        assert hash_concat(b"ab", b"c") != hash_concat(b"a", b"bc")

    def test_accepts_hash_parts(self):
        h = hash_bytes(b"inner")
        assert hash_concat(h, b"x") == hash_concat(bytes(h), b"x")

    def test_order_matters(self):
        assert hash_concat(b"a", b"b") != hash_concat(b"b", b"a")


class TestMerkleRoot:
    def test_empty_is_zero(self):
        assert merkle_root([]) == Hash.zero()

    def test_single_leaf_not_raw_hash(self):
        # Domain separation: leaf hashing differs from plain sha256.
        root = merkle_root([b"leaf"])
        assert root.value != hashlib.sha256(b"leaf").digest()

    def test_order_sensitivity(self):
        assert merkle_root([b"a", b"b"]) != merkle_root([b"b", b"a"])

    def test_odd_leaf_count(self):
        # Three leaves must produce a root distinct from two or four.
        r3 = merkle_root([b"a", b"b", b"c"])
        r2 = merkle_root([b"a", b"b"])
        assert r3 != r2

    def test_deterministic(self):
        leaves = [bytes([i]) * 4 for i in range(7)]
        assert merkle_root(leaves) == merkle_root(leaves)
