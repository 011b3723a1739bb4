"""Property-based tests (hypothesis) for the sealable trie invariants.

These are the adversarial guarantees the paper's security argument rests
on: the trie behaves as a map; the root is a binding commitment; sealing
never changes the root; proofs cannot be transplanted or tampered with.
"""

import hashlib

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.crypto.hashing import Hash
from repro.errors import KeyNotFoundError, SealedNodeError, TrieError
from repro.trie import (
    MembershipProof,
    SealableTrie,
    verify_membership,
    verify_non_membership,
)
from repro.trie.nodes import BranchNode

# Hashed 32-byte keys, like the provable stores use.
keys = st.binary(min_size=1, max_size=8).map(lambda b: hashlib.sha256(b).digest())
values = st.binary(min_size=0, max_size=64)
entries = st.dictionaries(keys, values, min_size=0, max_size=40)


@given(entries)
def test_trie_behaves_as_map(mapping):
    trie = SealableTrie()
    for k, v in mapping.items():
        trie.set(k, v)
    for k, v in mapping.items():
        assert trie.get(k) == v
    assert dict(trie.items()) == mapping


@given(entries)
def test_root_independent_of_insertion_order(mapping):
    a = SealableTrie()
    b = SealableTrie()
    items = list(mapping.items())
    for k, v in items:
        a.set(k, v)
    for k, v in reversed(items):
        b.set(k, v)
    assert a.root_hash == b.root_hash


@given(entries, keys, values)
def test_root_is_binding(mapping, extra_key, extra_value):
    """Tries with different contents have different roots."""
    a = SealableTrie()
    for k, v in mapping.items():
        a.set(k, v)
    b = SealableTrie()
    for k, v in mapping.items():
        b.set(k, v)
    changed = extra_key not in mapping or mapping[extra_key] != extra_value
    b.set(extra_key, extra_value)
    if changed:
        assert a.root_hash != b.root_hash
    else:
        assert a.root_hash == b.root_hash


@given(st.dictionaries(keys, values, min_size=1, max_size=40))
def test_membership_proofs_verify(mapping):
    trie = SealableTrie()
    for k, v in mapping.items():
        trie.set(k, v)
    root = trie.root_hash
    for k in mapping:
        proof = trie.prove(k)
        assert verify_membership(root, proof)
        # Wire round-trip preserves validity.
        assert verify_membership(root, MembershipProof.from_bytes(proof.to_bytes()))


@given(st.dictionaries(keys, values, min_size=1, max_size=40), keys)
def test_absence_proofs_verify(mapping, probe):
    trie = SealableTrie()
    for k, v in mapping.items():
        trie.set(k, v)
    if probe in mapping:
        return
    proof = trie.prove_absence(probe)
    assert verify_non_membership(trie.root_hash, proof)


@given(st.dictionaries(keys, values, min_size=2, max_size=40), st.data())
def test_proof_value_tampering_detected(mapping, data):
    trie = SealableTrie()
    for k, v in mapping.items():
        trie.set(k, v)
    k = data.draw(st.sampled_from(sorted(mapping)))
    proof = trie.prove(k)
    tampered_value = data.draw(values.filter(lambda v: v != mapping[k]))
    forged = MembershipProof(
        key=proof.key, value=tampered_value, steps=proof.steps, leaf_path=proof.leaf_path,
    )
    assert not verify_membership(trie.root_hash, forged)


@given(st.dictionaries(keys, values, min_size=2, max_size=40), st.data())
def test_proof_cannot_be_transplanted(mapping, data):
    """A proof for key A never verifies as a proof for key B."""
    trie = SealableTrie()
    for k, v in mapping.items():
        trie.set(k, v)
    ks = sorted(mapping)
    a = data.draw(st.sampled_from(ks))
    b = data.draw(st.sampled_from([k for k in ks if k != a]))
    proof = trie.prove(a)
    forged = MembershipProof(
        key=b, value=proof.value, steps=proof.steps, leaf_path=proof.leaf_path,
    )
    assert not verify_membership(trie.root_hash, forged)


@given(st.dictionaries(keys, values, min_size=1, max_size=30), st.data())
@settings(max_examples=50)
def test_sealing_preserves_root_and_blocks_access(mapping, data):
    trie = SealableTrie()
    for k, v in mapping.items():
        trie.set(k, v)
    root = trie.root_hash
    to_seal = data.draw(st.lists(st.sampled_from(sorted(mapping)), unique=True))
    for k in to_seal:
        trie.seal(k)
        assert trie.root_hash == root
    for k in to_seal:
        try:
            trie.get(k)
            raise AssertionError("sealed key must not be readable")
        except SealedNodeError:
            pass
        except KeyNotFoundError:
            raise AssertionError("sealed key must raise SealedNodeError")
    # Unsealed siblings are untouched unless their path crosses a sealed
    # subtree — with hashed keys that cannot happen for distinct keys.
    for k, v in mapping.items():
        if k not in to_seal:
            assert trie.get(k) == v


@given(st.dictionaries(keys, values, min_size=1, max_size=30), st.data())
@settings(max_examples=50)
def test_delete_then_reinsert_restores_root(mapping, data):
    trie = SealableTrie()
    for k, v in mapping.items():
        trie.set(k, v)
    root = trie.root_hash
    k = data.draw(st.sampled_from(sorted(mapping)))
    trie.delete(k)
    assert not trie.contains(k)
    trie.set(k, mapping[k])
    assert trie.root_hash == root


@given(entries)
def test_empty_after_deleting_everything(mapping):
    trie = SealableTrie()
    for k, v in mapping.items():
        trie.set(k, v)
    for k in mapping:
        trie.delete(k)
    assert trie.root_hash == Hash.zero()
    assert trie.node_count() == 0


# ----------------------------------------------------------------------
# Differential testing against a dict reference model
# ----------------------------------------------------------------------
#
# The trie carries proof memoization and cached branch-child hashes, so
# the risky failure mode is no longer "one operation is wrong" but "a
# cache survives a mutation it should not have".  Driving the real trie
# and a plain-dict model through the same random op sequences — checking
# the root, lookups and proof verifiability after *every* step — is the
# test shape that catches stale-cache bugs.

_POOL = [hashlib.sha256(b"diff-%d" % i).digest() for i in range(12)]

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("set"), st.sampled_from(_POOL),
                  st.binary(min_size=0, max_size=32)),
        st.tuples(st.just("delete"), st.sampled_from(_POOL)),
        st.tuples(st.just("seal"), st.sampled_from(_POOL)),
    ),
    min_size=1, max_size=20,
)


def _reference_root(live: dict, sealed: dict) -> Hash:
    """Sealing preserves the root, so the model's root is the root of a
    fresh trie holding every committed (live or sealed) entry."""
    fresh = SealableTrie()
    for k, v in {**live, **sealed}.items():
        fresh.set(k, v)
    return fresh.root_hash


@settings(max_examples=220, deadline=None)
@given(_ops, st.data())
def test_differential_against_dict_model(ops, data):
    trie = SealableTrie()
    live: dict = {}    # readable committed entries
    sealed: dict = {}  # committed but sealed away

    for op in ops:
        kind, key = op[0], op[1]
        if kind == "set":
            value = op[2]
            if key in sealed:
                _expect(SealedNodeError, lambda: trie.set(key, value))
            else:
                try:
                    trie.set(key, value)
                    live[key] = value
                except SealedNodeError:
                    # The write path for a *new* key can dead-end at a
                    # sealed leaf standing where the paths diverge.
                    assert sealed and key not in live
        elif kind == "delete":
            if key in sealed:
                _expect(SealedNodeError, lambda: trie.delete(key))
            elif key in live:
                trie.delete(key)
                del live[key]
            else:
                _expect_miss(sealed, lambda: trie.delete(key))
        else:  # seal
            if key in sealed:
                _expect(SealedNodeError, lambda: trie.seal(key))
            elif key in live:
                trie.seal(key)
                sealed[key] = live.pop(key)
            else:
                _expect_miss(sealed, lambda: trie.seal(key))

        # -- after every step, the trie must agree with the model --
        # The root comparison is STRICT: sealing re-paths stubs on
        # collapse, so the incremental root always equals a fresh
        # rebuild of the committed mapping, deletes included.
        root = trie.root_hash
        assert root == _reference_root(live, sealed)
        assert (trie.storage_bytes(), trie.node_count(),
                trie.sealed_count()) == trie.recount_aggregates()
        for k, v in live.items():
            assert trie.get(k) == v
        for k in sealed:
            _expect(SealedNodeError, lambda k=k: trie.get(k))

        if live:
            probe = data.draw(st.sampled_from(sorted(live)), label="prove key")
            proof = trie.prove(probe)
            assert proof.value == live[probe]
            assert verify_membership(root, proof)
            # Memoized re-proof is byte-identical and still verifies.
            assert trie.prove(probe).to_bytes() == proof.to_bytes()
        absent = data.draw(
            st.sampled_from([k for k in _POOL
                             if k not in live and k not in sealed] or [None]),
            label="absence key",
        )
        if absent is not None:
            try:
                assert verify_non_membership(root, trie.prove_absence(absent))
            except SealedNodeError:
                # The absent key's path may dead-end inside a sealed
                # region, where no evidence can be read.
                assert sealed


def test_delete_of_last_live_sibling_of_a_sealed_stub():
    """Deterministic regression for the shape PR 5 papered over: a
    delete that leaves a sealed stub as a branch's lone occupant.
    Sealed stubs now retain their path skeleton, so the branch
    collapses by re-pathing the stub and the incremental root equals a
    fresh rebuild holding only the sealed entry — no divergence."""
    k_sealed = hashlib.sha256(b"stub-kept").digest()
    k_live = hashlib.sha256(b"stub-doomed").digest()
    trie = SealableTrie()
    trie.set(k_sealed, b"kept")
    trie.set(k_live, b"doomed")
    trie.seal(k_sealed)
    root_both = trie.root_hash

    trie.delete(k_live)
    assert not trie.contains(k_live)
    root_after = trie.root_hash
    assert root_after != root_both

    # The collapse normalizes the shape: the commitment matches a
    # fresh trie holding just the surviving (sealed) entry.
    fresh = SealableTrie()
    fresh.set(k_sealed, b"kept")
    assert root_after == fresh.root_hash

    # The deleted key is provably absent — its probe diverges from the
    # re-pathed sealed leaf stub, which still carries path + commitment.
    assert verify_non_membership(root_after, trie.prove_absence(k_live))

    # The sealed entry itself stays unreadable but committed.
    _expect(SealedNodeError, lambda: trie.get(k_sealed))

    # Reinsertion splits the stub back out and restores the exact
    # pre-delete root.
    trie.set(k_live, b"doomed")
    assert trie.root_hash == root_both


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=10, max_value=80))
def test_cached_aggregates_survive_sequenced_churn(window, total):
    """The per-node aggregate caches (storage bytes / live nodes /
    sealed stubs) must track a full recount exactly through the guest's
    real workload shape: monotone sequenced inserts with a trailing
    window of seals and deletes."""
    prefix = hashlib.sha256(b"agg-channel").digest()[:24]
    seq_key = lambda i: prefix + i.to_bytes(8, "big")
    trie = SealableTrie()
    for i in range(total):
        trie.set(seq_key(i), b"receipt-%d" % i)
        if i >= window:
            j = i - window
            if j % 3 == 0:
                trie.delete(seq_key(j))
            else:
                trie.seal(seq_key(j))
        assert (trie.storage_bytes(), trie.node_count(),
                trie.sealed_count()) == trie.recount_aggregates()


# Short raw (not hashed) keys that are prefixes of one another, so values
# end at branches: this drives ``replacing_value``, branch values and
# prefix-key leaf splits through the incremental aggregate path.
_PREFIX_POOL = [b""] + [bytes(k) for k in (
    (0x01,), (0x10,), (0x12,), (0x20,), (0x01, 0x10), (0x01, 0x12), (0x10, 0x01),
    (0x12, 0x12), (0x01, 0x10, 0x01), (0x12, 0x12, 0x10))]

_prefix_ops = st.lists(
    st.one_of(
        st.tuples(st.just("set"), st.sampled_from(_PREFIX_POOL),
                  st.binary(min_size=0, max_size=40)),
        st.tuples(st.just("delete"), st.sampled_from(_PREFIX_POOL)),
        st.tuples(st.just("seal"), st.sampled_from(_PREFIX_POOL)),
    ),
    min_size=1, max_size=30,
)


def _apply(trie, op) -> None:
    """Run one op; a refused op (absent, sealed, branch-value seal)
    raises before the root is replaced, so it leaves the trie as is."""
    try:
        if op[0] == "set":
            trie.set(op[1], op[2])
        elif op[0] == "delete":
            trie.delete(op[1])
        else:
            trie.seal(op[1])
    except TrieError:
        pass


def _assert_aggregates_match(trie) -> None:
    assert (trie.storage_bytes(), trie.node_count(),
            trie.sealed_count()) == trie.recount_aggregates()
    for node in trie._iter_live_nodes():
        if isinstance(node, BranchNode):
            assert (node.aggregates()[1] == 1) == (node.live_child_count() == 0)
            # A value-less branch whose occupants are all sealed folds
            # into a stub, so a live one always keeps a live child.
            if node.value is None:
                assert node.live_child_count() > 0
            assert node.child_count() == sum(
                1 for child in node.children if child is not None)


@settings(max_examples=200, deadline=None)
@given(_prefix_ops)
@example([("set", b"\x01", b"a"), ("set", b"\x10", b"b"), ("seal", b"\x01"),
          ("seal", b"\x10"), ("set", b"\x20", b"c"), ("delete", b"\x20")])
def test_cached_aggregates_with_prefix_keys(ops):
    """Cached aggregates equal a full recount after every op, and the
    O(1) all-sealed test agrees with the slot-scan oracle on every
    branch."""
    trie = SealableTrie()
    for op in ops:
        _apply(trie, op)
        _assert_aggregates_match(trie)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_ops, _prefix_ops), st.integers(min_value=1, max_value=5))
@example([("set", b"\x01", b"a"), ("set", b"\x10", b"b"), ("set", b"\x12", b"c"),
          ("set", b"", b"root value"), ("delete", b""), ("seal", b"\x12")], 2)
def test_cached_aggregates_across_unread_bursts(ops, read_every):
    """Ops between reads leave branches with pending (unresolved)
    aggregates that the next op must carry or resolve; the totals
    still equal a full recount whenever they are read."""
    trie = SealableTrie()
    for i, op in enumerate(ops):
        _apply(trie, op)
        if i % read_every == read_every - 1:
            _assert_aggregates_match(trie)
    _assert_aggregates_match(trie)


def _expect(error, thunk):
    try:
        thunk()
    except error:
        return
    raise AssertionError(f"expected {error.__name__}")


def _expect_miss(sealed, thunk):
    """An operation on an absent key must miss: ``KeyNotFoundError``
    normally, or ``SealedNodeError`` when its path hits a sealed node
    first (only possible if something is sealed)."""
    try:
        thunk()
    except KeyNotFoundError:
        return
    except SealedNodeError:
        assert sealed, "SealedNodeError with nothing sealed"
        return
    raise AssertionError("expected the operation to miss")
