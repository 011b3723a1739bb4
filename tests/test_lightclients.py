"""Unit tests for both light clients and the chunked-update planner."""

import pytest

from repro.crypto.hashing import Hash, hash_concat
from repro.crypto.simsig import SimSigScheme
from repro.errors import ClientError, EvidenceError
from repro.guest.block import GuestBlockHeader
from repro.guest.epoch import Epoch
from repro.lightclient.chunked import (
    plan_update_chunks,
    signatures_per_transaction,
    usable_chunk_bytes,
)
from repro.lightclient.guest_client import GuestClientUpdate, GuestLightClient
from repro.lightclient.tendermint import (
    CometHeader,
    Commit,
    LightClientUpdate,
    TendermintLightClient,
    ValidatorSet,
)
from repro.units import MAX_TRANSACTION_BYTES


@pytest.fixture
def scheme():
    return SimSigScheme()


def make_keys(scheme, count, salt=0):
    return [
        scheme.keypair_from_seed(bytes([salt]) + i.to_bytes(4, "big") + bytes(27))
        for i in range(count)
    ]


# ---------------------------------------------------------------------------
# Guest light client (what the counterparty runs)
# ---------------------------------------------------------------------------

class TestGuestLightClient:
    def setup_epoch(self, scheme, count=4, stake=100):
        keys = make_keys(scheme, count)
        validators = {kp.public_key: stake for kp in keys}
        total = stake * count
        epoch = Epoch(epoch_id=0, validators=validators, quorum_stake=total * 2 // 3 + 1)
        return keys, epoch

    def make_header(self, epoch, height=1, root=None, **overrides):
        defaults = dict(
            height=height,
            prev_hash=Hash.zero(),
            timestamp=50.0,
            host_slot=125,
            state_root=root or Hash.of(b"state"),
            epoch_id=epoch.epoch_id,
            epoch_hash=epoch.canonical_hash(),
        )
        defaults.update(overrides)
        return GuestBlockHeader(**defaults)

    def signed_update(self, keys, epoch, header, signers=None, **kw):
        message = header.sign_message()
        chosen = keys if signers is None else signers
        return GuestClientUpdate(
            header=header,
            signatures={kp.public_key: kp.sign(message) for kp in chosen},
            **kw,
        )

    def test_quorum_update_accepted(self, scheme):
        keys, epoch = self.setup_epoch(scheme)
        client = GuestLightClient(scheme, epoch)
        header = self.make_header(epoch)
        client.update(self.signed_update(keys, epoch, header))
        assert client.latest_height() == 1
        assert client.consensus_root(1) == header.state_root
        assert client.consensus_timestamp(1) == 50.0

    def test_insufficient_stake_rejected(self, scheme):
        keys, epoch = self.setup_epoch(scheme)
        client = GuestLightClient(scheme, epoch)
        header = self.make_header(epoch)
        with pytest.raises(ClientError):
            client.update(self.signed_update(keys, epoch, header, signers=keys[:2]))

    def test_forged_signature_ignored(self, scheme):
        keys, epoch = self.setup_epoch(scheme, count=3)
        client = GuestLightClient(scheme, epoch)
        header = self.make_header(epoch)
        update = self.signed_update(keys, epoch, header, signers=keys[:2])
        # Add a signature by the third validator — over the wrong message.
        bogus = dict(update.signatures)
        bogus[keys[2].public_key] = keys[2].sign(b"something else")
        with pytest.raises(ClientError):
            client.update(GuestClientUpdate(header=header, signatures=bogus))

    def test_non_validator_signatures_ignored(self, scheme):
        keys, epoch = self.setup_epoch(scheme)
        outsiders = make_keys(scheme, 4, salt=9)
        client = GuestLightClient(scheme, epoch)
        header = self.make_header(epoch)
        with pytest.raises(ClientError):
            client.update(self.signed_update(outsiders, epoch, header))

    def rotated_epoch(self, scheme, keys, epoch_id, keep=3, fresh=2, salt=5):
        """A successor epoch sharing ``keep`` members with the old one."""
        new_keys = keys[:keep] + make_keys(scheme, fresh, salt=salt)
        return new_keys, Epoch(
            epoch_id=epoch_id,
            validators={kp.public_key: 100 for kp in new_keys},
            quorum_stake=100 * len(new_keys) * 2 // 3 + 1,
        )

    def test_epoch_rotation_requires_new_set(self, scheme):
        keys, epoch0 = self.setup_epoch(scheme)
        new_keys, epoch1 = self.rotated_epoch(scheme, keys, epoch_id=1)
        client = GuestLightClient(scheme, epoch0)
        header = self.make_header(epoch1, height=5, epoch_id=1,
                                  epoch_hash=epoch1.canonical_hash())
        with pytest.raises(ClientError):
            client.update(self.signed_update(new_keys, epoch1, header))
        client.update(self.signed_update(new_keys, epoch1, header, new_epoch=epoch1))
        assert client.epoch.epoch_id == 1

    def test_epoch_skipping_allowed_with_overlap(self, scheme):
        """Alg. 2 only relays blocks with content, so a client can miss
        whole epochs; a later epoch is adopted when the set is supplied
        and its signers overlap the trusted epoch by more than 1/3."""
        keys, epoch0 = self.setup_epoch(scheme)
        new_keys, epoch5 = self.rotated_epoch(scheme, keys, epoch_id=5)
        client = GuestLightClient(scheme, epoch0)
        header = self.make_header(epoch5, epoch_id=5,
                                  epoch_hash=epoch5.canonical_hash())
        client.update(self.signed_update(new_keys, epoch5, header, new_epoch=epoch5))
        assert client.epoch.epoch_id == 5

    def test_epoch_takeover_without_overlap_rejected(self, scheme):
        """The trust rule: an epoch signed by a completely disjoint set
        (a fabricated takeover) is rejected even with a valid quorum of
        its own stake."""
        keys, epoch0 = self.setup_epoch(scheme)
        imposters = make_keys(scheme, 4, salt=7)
        fake = Epoch(
            epoch_id=1,
            validators={kp.public_key: 100 for kp in imposters},
            quorum_stake=400 * 2 // 3 + 1,
        )
        client = GuestLightClient(scheme, epoch0)
        header = self.make_header(fake, epoch_id=1,
                                  epoch_hash=fake.canonical_hash())
        with pytest.raises(ClientError, match="1/3"):
            client.update(self.signed_update(imposters, fake, header, new_epoch=fake))

    def test_older_epoch_rejected(self, scheme):
        keys, epoch0 = self.setup_epoch(scheme)
        new_keys, epoch2 = self.rotated_epoch(scheme, keys, epoch_id=2)
        client = GuestLightClient(scheme, epoch0)
        header2 = self.make_header(epoch2, height=9, epoch_id=2,
                                   epoch_hash=epoch2.canonical_hash())
        client.update(self.signed_update(new_keys, epoch2, header2, new_epoch=epoch2))
        stale = self.make_header(epoch0, height=3, epoch_id=0,
                                 epoch_hash=epoch0.canonical_hash())
        with pytest.raises(ClientError, match="older"):
            client.update(self.signed_update(keys, epoch0, stale))

    def test_epoch_id_mismatch_with_supplied_set_rejected(self, scheme):
        keys, epoch0 = self.setup_epoch(scheme)
        new_keys, epoch2 = self.rotated_epoch(scheme, keys, epoch_id=2)
        client = GuestLightClient(scheme, epoch0)
        header = self.make_header(epoch2, epoch_id=3,
                                  epoch_hash=epoch2.canonical_hash())
        with pytest.raises(ClientError):
            client.update(self.signed_update(new_keys, epoch2, header, new_epoch=epoch2))

    def test_conflicting_headers_freeze_client(self, scheme):
        keys, epoch = self.setup_epoch(scheme)
        client = GuestLightClient(scheme, epoch)
        header_a = self.make_header(epoch, root=Hash.of(b"a"))
        header_b = self.make_header(epoch, root=Hash.of(b"b"))
        client.update(self.signed_update(keys, epoch, header_a))
        with pytest.raises(EvidenceError):
            client.update(self.signed_update(keys, epoch, header_b))
        assert client.frozen

    def test_misbehaviour_submission(self, scheme):
        keys, epoch = self.setup_epoch(scheme)
        client = GuestLightClient(scheme, epoch)
        header_a = self.make_header(epoch, root=Hash.of(b"a"))
        header_b = self.make_header(epoch, root=Hash.of(b"b"))
        client.submit_misbehaviour(
            self.signed_update(keys, epoch, header_a),
            self.signed_update(keys, epoch, header_b),
        )
        assert client.frozen

    def test_misbehaviour_same_header_rejected(self, scheme):
        keys, epoch = self.setup_epoch(scheme)
        client = GuestLightClient(scheme, epoch)
        header = self.make_header(epoch)
        update = self.signed_update(keys, epoch, header)
        with pytest.raises(EvidenceError):
            client.submit_misbehaviour(update, update)
        assert not client.frozen


# ---------------------------------------------------------------------------
# Tendermint light client (what the Guest Contract runs)
# ---------------------------------------------------------------------------

class TestTendermintLightClient:
    def setup_chain(self, scheme, count=10):
        keys = make_keys(scheme, count)
        valset = ValidatorSet(members=tuple((kp.public_key, 100) for kp in keys))
        return keys, valset

    def make_update(self, keys, valset, height=1, root=None, signers=None,
                    chain_id="picasso-1"):
        header = CometHeader(
            chain_id=chain_id,
            height=height,
            time=float(height * 6),
            app_hash=root or Hash.of(b"app"),
            validators_hash=valset.canonical_hash(),
            next_validators_hash=valset.canonical_hash(),
        )
        message = header.sign_bytes()
        chosen = keys if signers is None else signers
        commit = Commit(signatures=tuple(
            (kp.public_key, kp.sign(message)) for kp in chosen
        ))
        return LightClientUpdate(header=header, commit=commit, validator_set=valset)

    def test_honest_update_accepted(self, scheme):
        keys, valset = self.setup_chain(scheme)
        client = TendermintLightClient("picasso-1", valset)
        update = self.make_update(keys, valset)
        client.update(update, scheme)
        assert client.latest_height() == 1
        assert client.consensus_root(1) == update.header.app_hash

    def test_two_thirds_power_boundary(self, scheme):
        keys, valset = self.setup_chain(scheme, count=9)
        client = TendermintLightClient("picasso-1", valset)
        exactly_two_thirds = self.make_update(keys, valset, signers=keys[:6])
        with pytest.raises(ClientError):
            client.update(exactly_two_thirds, scheme)  # needs strictly more
        client.update(self.make_update(keys, valset, signers=keys[:7]), scheme)

    def test_wrong_chain_id_rejected(self, scheme):
        keys, valset = self.setup_chain(scheme)
        client = TendermintLightClient("picasso-1", valset)
        with pytest.raises(ClientError):
            client.update(self.make_update(keys, valset, chain_id="evil-1"), scheme)

    def test_unknown_valset_must_be_supplied(self, scheme):
        """Validator-power churn rotates the set hash: updates for the
        churned set must carry it (and pass the trust rule, which they
        do — same keys, new powers)."""
        keys, valset = self.setup_chain(scheme)
        churned = ValidatorSet(members=(
            (keys[0].public_key, 150),
        ) + valset.members[1:])
        client = TendermintLightClient("picasso-1", valset)
        update = self.make_update(keys, churned)
        stripped = LightClientUpdate(header=update.header, commit=update.commit)
        with pytest.raises(ClientError):
            client.update(stripped, scheme)
        client.update(update, scheme)  # with the set supplied: fine
        assert client.latest_height() == 1

    def test_imposter_valset_rejected_by_trust_rule(self, scheme):
        """An attacker forging a self-consistent header + validator set
        (signed by keys it controls) must fail the >1/3-of-trusted-power
        overlap condition."""
        keys, valset = self.setup_chain(scheme)
        imposter_keys = make_keys(scheme, 10, salt=4)
        imposter = ValidatorSet(members=tuple((kp.public_key, 100) for kp in imposter_keys))
        client = TendermintLightClient("picasso-1", valset)
        forged = self.make_update(imposter_keys, imposter)
        with pytest.raises(ClientError):
            client.update(forged, scheme)

    def test_supplied_set_must_match_header_hash(self, scheme):
        keys, valset = self.setup_chain(scheme)
        other_keys = make_keys(scheme, 10, salt=4)
        other = ValidatorSet(members=tuple((kp.public_key, 100) for kp in other_keys))
        client = TendermintLightClient("picasso-1", valset)
        update = self.make_update(other_keys, other)
        # Header commits to `other`; supplying `valset` must be refused.
        mismatched = LightClientUpdate(header=update.header, commit=update.commit,
                                       validator_set=valset)
        with pytest.raises(ClientError):
            client.update(mismatched, scheme)

    def test_trust_on_first_use_with_empty_genesis(self, scheme):
        keys, valset = self.setup_chain(scheme)
        client = TendermintLightClient("picasso-1", ValidatorSet(members=()))
        client.update(self.make_update(keys, valset), scheme)
        assert client.latest_height() == 1
        # After TOFU the trust rule is armed: an unrelated set now fails.
        imposter_keys = make_keys(scheme, 10, salt=4)
        imposter = ValidatorSet(members=tuple((kp.public_key, 100) for kp in imposter_keys))
        with pytest.raises(ClientError):
            client.update(self.make_update(imposter_keys, imposter, height=2), scheme)

    def test_conflicting_app_hash_freezes(self, scheme):
        keys, valset = self.setup_chain(scheme)
        client = TendermintLightClient("picasso-1", valset)
        client.update(self.make_update(keys, valset, root=Hash.of(b"x")), scheme)
        with pytest.raises(ClientError):
            client.update(self.make_update(keys, valset, root=Hash.of(b"y")), scheme)
        assert client.frozen

    def test_update_serialization_roundtrip(self, scheme):
        keys, valset = self.setup_chain(scheme)
        update = self.make_update(keys, valset)
        restored = LightClientUpdate.from_bytes(update.to_bytes())
        assert restored == update


class TestValidatorSetHash:
    @staticmethod
    def recompute(valset):
        parts = [b"valset"]
        for public_key, power in valset.members:
            parts += [bytes(public_key), power.to_bytes(8, "big")]
        return hash_concat(*parts)

    def test_cached_hash_equals_fresh_recompute(self, scheme):
        valset = ValidatorSet(members=tuple(
            (kp.public_key, 100 + i) for i, kp in enumerate(make_keys(scheme, 5))))
        first = valset.canonical_hash()
        assert first == self.recompute(valset)
        assert valset.canonical_hash() is first
        # Equality, hashing and the wire form still see only ``members``.
        twin = ValidatorSet(members=valset.members)
        assert twin == valset and hash(twin) == hash(valset)
        assert twin.canonical_hash() == first
        assert twin.to_bytes() == valset.to_bytes()

    def test_different_members_never_share_a_hash(self, scheme):
        keys = make_keys(scheme, 4)
        sets = [
            ValidatorSet(members=()),
            ValidatorSet(members=tuple((kp.public_key, 100) for kp in keys)),
            ValidatorSet(members=tuple((kp.public_key, 100) for kp in keys[:3])),
            ValidatorSet(members=tuple((kp.public_key, 100) for kp in reversed(keys))),
            ValidatorSet(members=tuple((kp.public_key, 101) for kp in keys)),
            ValidatorSet(members=tuple((kp.public_key, 100) for kp in make_keys(scheme, 4, salt=1))),
        ]
        hashes = [valset.canonical_hash() for valset in sets]
        assert len(set(hashes)) == len(sets)
        assert hashes == [self.recompute(valset) for valset in sets]


# ---------------------------------------------------------------------------
# Chunk planning (Fig. 4's transaction counts)
# ---------------------------------------------------------------------------

class TestChunkPlanning:
    def plan_for(self, scheme, validators, participation=1.0, known=frozenset()):
        keys = make_keys(scheme, validators)
        valset = ValidatorSet(members=tuple((kp.public_key, 100) for kp in keys))
        signer_count = round(validators * participation)
        header = CometHeader(
            chain_id="picasso-1", height=10, time=60.0,
            app_hash=Hash.of(b"app"),
            validators_hash=valset.canonical_hash(),
            next_validators_hash=valset.canonical_hash(),
        )
        message = header.sign_bytes()
        commit = Commit(signatures=tuple(
            (kp.public_key, kp.sign(message)) for kp in keys[:signer_count]
        ))
        update = LightClientUpdate(header=header, commit=commit, validator_set=valset)
        return plan_update_chunks(update, known)

    def test_every_chunk_fits_a_transaction(self, scheme):
        plan = self.plan_for(scheme, validators=190)
        for chunk in plan.data_chunks:
            assert len(chunk) <= usable_chunk_bytes() < MAX_TRANSACTION_BYTES

    def test_signature_batches_fit(self, scheme):
        plan = self.plan_for(scheme, validators=190)
        per_tx = signatures_per_transaction(len(plan.sign_message))
        assert all(len(batch) <= per_tx for batch in plan.signature_batches)

    def test_transaction_count_in_paper_range(self, scheme):
        """Fig. 4: ~36.5 transactions per update for a Picasso-sized
        validator set.  The count must emerge from byte arithmetic."""
        plan = self.plan_for(scheme, validators=190, participation=0.85)
        assert 28 <= plan.transaction_count <= 45

    def test_known_valset_shrinks_update(self, scheme):
        keys = make_keys(scheme, 190)
        valset = ValidatorSet(members=tuple((kp.public_key, 100) for kp in keys))
        full = self.plan_for(scheme, validators=190)
        slim = self.plan_for(scheme, validators=190,
                             known=frozenset({bytes(valset.canonical_hash())}))
        assert slim.transaction_count < full.transaction_count

    def test_signature_count_preserved(self, scheme):
        plan = self.plan_for(scheme, validators=100, participation=0.9)
        assert plan.signature_count == 90

    def test_more_validators_more_transactions(self, scheme):
        small = self.plan_for(scheme, validators=50)
        large = self.plan_for(scheme, validators=200)
        assert large.transaction_count > small.transaction_count

    def test_chunks_reassemble(self, scheme):
        plan = self.plan_for(scheme, validators=50)
        staged = b"".join(plan.data_chunks)
        header_len = int.from_bytes(staged[:4], "big")
        assert header_len > 0
        assert len(staged) > header_len + 8
