"""Unit tests for trie membership / non-membership proofs."""

import hashlib

import pytest

from repro.crypto.hashing import Hash
from repro.errors import ProofError, SealedNodeError, TrieError
from repro.trie import (
    MembershipProof,
    NonMembershipProof,
    SealableTrie,
    verify_membership,
    verify_non_membership,
)


def key(i: int) -> bytes:
    return hashlib.sha256(f"key-{i}".encode()).digest()


@pytest.fixture
def populated():
    trie = SealableTrie()
    for i in range(64):
        trie.set(key(i), f"value-{i}".encode())
    return trie


class TestMembershipProofs:
    def test_valid_proof_verifies(self, populated):
        for i in (0, 7, 33, 63):
            proof = populated.prove(key(i))
            assert verify_membership(populated.root_hash, proof)

    def test_proof_binds_value(self, populated):
        proof = populated.prove(key(5))
        forged = MembershipProof(
            key=proof.key, value=b"forged", steps=proof.steps, leaf_path=proof.leaf_path,
        )
        assert not verify_membership(populated.root_hash, forged)

    def test_proof_binds_key(self, populated):
        proof = populated.prove(key(5))
        forged = MembershipProof(
            key=key(6), value=proof.value, steps=proof.steps, leaf_path=proof.leaf_path,
        )
        assert not verify_membership(populated.root_hash, forged)

    def test_proof_bound_to_root(self, populated):
        proof = populated.prove(key(5))
        other = SealableTrie()
        other.set(key(5), b"value-5")
        # Same key/value, different trie contents => different root.
        assert not verify_membership(other.root_hash, proof)

    def test_proof_fails_against_wrong_root(self, populated):
        proof = populated.prove(key(5))
        assert not verify_membership(Hash.of(b"random"), proof)

    def test_proof_after_update_is_stale(self, populated):
        proof = populated.prove(key(5))
        populated.set(key(99), b"new-entry")
        assert not verify_membership(populated.root_hash, proof)
        # But it still verifies against the historical root it was made for.

    def test_single_entry_trie(self):
        trie = SealableTrie()
        trie.set(key(1), b"only")
        proof = trie.prove(key(1))
        assert verify_membership(trie.root_hash, proof)
        assert proof.steps == ()

    def test_prove_missing_raises(self, populated):
        with pytest.raises(Exception):
            populated.prove(key(1000))

    def test_serialization_roundtrip(self, populated):
        proof = populated.prove(key(5))
        data = proof.to_bytes()
        restored = MembershipProof.from_bytes(data)
        assert restored == proof
        assert verify_membership(populated.root_hash, restored)

    def test_serialized_size_reasonable(self, populated):
        # A proof over 64 entries should be a handful of branch steps:
        # small enough to chunk into a few 1232-byte transactions (§V-A).
        proof = populated.prove(key(5))
        assert 100 < len(proof.to_bytes()) < 4096

    def test_corrupted_serialization_rejected(self, populated):
        data = bytearray(populated.prove(key(5)).to_bytes())
        data[len(data) // 2] ^= 0xFF
        try:
            restored = MembershipProof.from_bytes(bytes(data))
        except ValueError:
            return  # malformed wire data is an acceptable failure
        assert not verify_membership(populated.root_hash, restored)


    def test_truncated_hash_set_rejected(self, populated):
        """Cutting a proof anywhere, including inside a sibling hash
        set, must fail to decode: digests read from the wire go through
        the validated ``Hash`` constructor."""
        proofs = [
            (MembershipProof, populated.prove(key(5))),
            (NonMembershipProof, populated.prove_absence(key(999))),
        ]
        for cls, proof in proofs:
            data = proof.to_bytes()
            assert cls.from_bytes(data) == proof
            for cut in range(len(data)):
                with pytest.raises((ValueError, ProofError)):
                    cls.from_bytes(data[:cut])


class TestNonMembershipProofs:
    def test_absent_key_proof_verifies(self, populated):
        proof = populated.prove_absence(key(1000))
        assert verify_non_membership(populated.root_hash, proof)

    def test_empty_trie_absence(self):
        trie = SealableTrie()
        proof = trie.prove_absence(key(1))
        assert verify_non_membership(trie.root_hash, proof)

    def test_absence_proof_binds_key(self, populated):
        proof = populated.prove_absence(key(1000))
        forged = NonMembershipProof(key=key(5), steps=proof.steps, evidence=proof.evidence)
        assert not verify_non_membership(populated.root_hash, forged)

    def test_present_key_cannot_prove_absent(self, populated):
        with pytest.raises(TrieError):
            populated.prove_absence(key(5))

    def test_absence_proof_fails_on_wrong_root(self, populated):
        proof = populated.prove_absence(key(1000))
        assert not verify_non_membership(Hash.of(b"other"), proof)

    def test_many_absent_keys(self, populated):
        for i in range(500, 540):
            proof = populated.prove_absence(key(i))
            assert verify_non_membership(populated.root_hash, proof), i

    def test_serialization_roundtrip(self, populated):
        proof = populated.prove_absence(key(1000))
        restored = NonMembershipProof.from_bytes(proof.to_bytes())
        assert restored == proof
        assert verify_non_membership(populated.root_hash, restored)

    def test_divergent_leaf_evidence(self):
        # Two keys sharing a long prefix force a divergent-leaf terminal.
        trie = SealableTrie()
        trie.set(b"\x00" * 32, b"v")
        absent = b"\x00" * 31 + b"\x01"
        proof = trie.prove_absence(absent)
        assert verify_non_membership(trie.root_hash, proof)

    def test_empty_trie_proof_rejected_for_nonempty_root(self, populated):
        empty = SealableTrie()
        proof = empty.prove_absence(key(1))
        assert not verify_non_membership(populated.root_hash, proof)


class TestProofsAndSealing:
    def test_absence_beside_sealed_leaf_is_provable(self):
        """A sealed leaf stub keeps its path and value commitment, so a
        probe that diverges from it yields divergent-leaf evidence —
        absence stays provable after sealing."""
        trie = SealableTrie()
        trie.set(b"\x00" * 32, b"v")
        trie.set(b"\xff" * 32, b"w")
        trie.seal(b"\x00" * 32)
        proof = trie.prove_absence(b"\x00" * 31 + b"\x01")
        assert verify_non_membership(trie.root_hash, proof)

    def test_absence_of_sealed_key_itself_raises(self):
        """The sealed key is *present* (its commitment is retained); a
        non-membership claim for it must be refused, not proven."""
        trie = SealableTrie()
        trie.set(b"\x00" * 32, b"v")
        trie.set(b"\xff" * 32, b"w")
        trie.seal(b"\x00" * 32)
        with pytest.raises(SealedNodeError):
            trie.prove_absence(b"\x00" * 32)

    def test_old_proof_survives_sealing(self):
        """Sealing must not invalidate previously issued proofs — the
        commitment is unchanged (§III-A)."""
        trie = SealableTrie()
        for i in range(32):
            trie.set(key(i), b"v")
        proofs = [trie.prove(key(i)) for i in range(32)]
        root = trie.root_hash
        for i in range(16):
            trie.seal(key(i))
        assert trie.root_hash == root
        for proof in proofs:
            assert verify_membership(trie.root_hash, proof)


class TestProofMemoEviction:
    """Boundary behaviour of the proof memo's wholesale eviction.

    The memo clears itself when it reaches ``_PROOF_MEMO_MAX`` entries;
    proofs issued immediately before, at, and after that boundary must
    all stay correct, and the memo must also stay coherent across the
    incremental-rehash mutation path (which invalidates it wholesale).
    """

    def test_proofs_stay_correct_across_the_eviction_clear(self, populated, monkeypatch):
        import repro.trie.trie as trie_module

        monkeypatch.setattr(trie_module, "_PROOF_MEMO_MAX", 8)
        root = populated.root_hash
        # 20 distinct proofs cross the clear-at-8 boundary twice.
        proofs = [populated.prove(key(i)) for i in range(20)]
        assert len(populated._proof_memo) <= 8
        for i, proof in enumerate(proofs):
            assert proof.value == f"value-{i}".encode()
            assert verify_membership(root, proof)
        # Re-proving an evicted key regenerates an identical proof.
        assert populated.prove(key(0)).to_bytes() == proofs[0].to_bytes()

    def test_eviction_interleaves_membership_and_absence(self, populated, monkeypatch):
        import repro.trie.trie as trie_module

        monkeypatch.setattr(trie_module, "_PROOF_MEMO_MAX", 4)
        root = populated.root_hash
        for i in range(12):
            assert verify_membership(root, populated.prove(key(i)))
            assert verify_non_membership(root, populated.prove_absence(key(1000 + i)))
            assert len(populated._proof_memo) <= 4

    def test_memo_cleared_by_incremental_rehash(self, populated, monkeypatch):
        """A mutation rebuilds only the touched path (cached sibling
        hashes carry over), but the memo must still drop wholesale:
        every proof minted after the write has to bind the new root."""
        import repro.trie.trie as trie_module

        monkeypatch.setattr(trie_module, "_PROOF_MEMO_MAX", 4)
        old_root = populated.root_hash
        for i in range(6):  # warm (and overflow) the memo
            populated.prove(key(i))
        populated.set(key(1), b"updated")
        assert populated._proof_memo == {}
        new_root = populated.root_hash
        assert new_root != old_root
        for i in range(6):
            proof = populated.prove(key(i))
            expected = b"updated" if i == 1 else f"value-{i}".encode()
            assert proof.value == expected
            assert verify_membership(new_root, proof)
            assert not verify_membership(old_root, proof)
