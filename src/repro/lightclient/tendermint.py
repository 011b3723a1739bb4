"""A Tendermint/CometBFT-style light client (what the guest runs).

The counterparty (Picasso in the deployment) is a Tendermint chain: each
height is finalised by a commit carrying signatures from validators whose
voting power exceeds two thirds of the validator set.  The light client
verifies exactly that, tracking validator-set rotations through the
``next_validators_hash`` committed in each header.

Verification is split in two layers so it can run both off-host (one
call, signatures checked directly) and on-host (the Guest Contract feeds
in signer sets that the *runtime* verified through the precompile, one
chunk-transaction at a time — see :mod:`repro.lightclient.chunked`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.accountability import (
    AccountabilityProof,
    Finalisation,
    build_proof,
    verify_proof,
)
from repro.crypto.hashing import Hash, hash_concat
from repro.crypto.keys import PublicKey, Signature, SignatureScheme
from repro.encoding import Reader, encode_bytes, encode_str, encode_varint
from repro.errors import AccountabilityError, ClientError, EquivocationError
from repro.ibc.client import LightClient


@dataclass(frozen=True)
class ValidatorSet:
    """An ordered list of (public key, voting power) pairs."""

    members: tuple[tuple[PublicKey, int], ...]

    @property
    def total_power(self) -> int:
        return sum(power for _, power in self.members)

    def power_map(self) -> dict[PublicKey, int]:
        """``public key -> voting power``, built once per set.

        Quorum checks look up every signer's power on every update;
        the linear ``power_of`` scan made each update O(signers x
        members).  Cached on the instance (the set is frozen, so the
        map can never go stale); equality and serialisation still use
        only ``members``.
        """
        cached = self.__dict__.get("_power_map")
        if cached is None:
            cached = dict(self.members)
            object.__setattr__(self, "_power_map", cached)
        return cached

    def power_of(self, public_key: PublicKey) -> int:
        return self.power_map().get(public_key, 0)

    def canonical_hash(self) -> Hash:
        """The set's commitment, computed once per set.

        Every header check and client update compares against it;
        cached on the frozen instance like :meth:`power_map`.
        """
        cached = self.__dict__.get("_canonical_hash")
        if cached is None:
            parts: list[bytes] = [b"valset"]
            for public_key, power in self.members:
                parts.append(bytes(public_key))
                parts.append(power.to_bytes(8, "big"))
            cached = hash_concat(*parts)
            object.__setattr__(self, "_canonical_hash", cached)
        return cached

    def to_bytes(self) -> bytes:
        out = bytearray(encode_varint(len(self.members)))
        for public_key, power in self.members:
            out += bytes(public_key)
            out += encode_varint(power)
        return bytes(out)

    @classmethod
    def read_from(cls, reader: Reader) -> "ValidatorSet":
        count = reader.read_varint()
        members = tuple(
            (PublicKey(reader.read(32)), reader.read_varint()) for _ in range(count)
        )
        return cls(members=members)

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class CometHeader:
    """The signed header of one counterparty block."""

    chain_id: str
    height: int
    time: float
    #: Root of the chain's provable store (its IBC commitments).
    app_hash: Hash
    validators_hash: Hash
    next_validators_hash: Hash

    def sign_bytes(self) -> bytes:
        """The canonical message every commit signature covers."""
        return bytes(hash_concat(
            b"comet-vote",
            self.chain_id.encode("utf-8"),
            self.height.to_bytes(8, "big"),
            round(self.time * 1000).to_bytes(8, "big"),
            self.app_hash,
            self.validators_hash,
            self.next_validators_hash,
        ))

    def to_bytes(self) -> bytes:
        out = bytearray()
        out += encode_str(self.chain_id)
        out += encode_varint(self.height)
        out += encode_varint(round(self.time * 1000))
        out += bytes(self.app_hash)
        out += bytes(self.validators_hash)
        out += bytes(self.next_validators_hash)
        return bytes(out)

    @classmethod
    def read_from(cls, reader: Reader) -> "CometHeader":
        return cls(
            chain_id=reader.read_str(),
            height=reader.read_varint(),
            time=reader.read_varint() / 1000.0,
            app_hash=Hash(reader.read(32)),
            validators_hash=Hash(reader.read(32)),
            next_validators_hash=Hash(reader.read(32)),
        )


@dataclass(frozen=True)
class Commit:
    """The signatures finalising one header."""

    signatures: tuple[tuple[PublicKey, Signature], ...]

    def to_bytes(self) -> bytes:
        out = bytearray(encode_varint(len(self.signatures)))
        for public_key, signature in self.signatures:
            out += bytes(public_key)
            out += bytes(signature)
        return bytes(out)

    @classmethod
    def read_from(cls, reader: Reader) -> "Commit":
        count = reader.read_varint()
        signatures = tuple(
            (PublicKey(reader.read(32)), Signature(reader.read(64)))
            for _ in range(count)
        )
        return cls(signatures=signatures)

    def __len__(self) -> int:
        return len(self.signatures)


@dataclass(frozen=True)
class LightClientUpdate:
    """One full update: header, commit and (if rotating) the new set."""

    header: CometHeader
    commit: Commit
    #: Included when the client has not seen this header's validator set.
    validator_set: Optional[ValidatorSet] = None

    def to_bytes(self) -> bytes:
        out = bytearray()
        out += encode_bytes(self.header.to_bytes())
        out += encode_bytes(self.commit.to_bytes())
        if self.validator_set is not None:
            out += encode_varint(1)
            out += encode_bytes(self.validator_set.to_bytes())
        else:
            out += encode_varint(0)
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "LightClientUpdate":
        reader = Reader(data)
        header = CometHeader.read_from(Reader(reader.read_bytes()))
        commit = Commit.read_from(Reader(reader.read_bytes()))
        validator_set = None
        if reader.read_varint():
            validator_set = ValidatorSet.read_from(Reader(reader.read_bytes()))
        reader.expect_end()
        return cls(header=header, commit=commit, validator_set=validator_set)


class TendermintLightClient(LightClient):
    """Tendermint light client with the skipping-verification trust rule.

    A header is adopted when (a) validators holding strictly more than
    2/3 of *its own* validator set's power signed it, and (b) signers
    holding strictly more than 1/3 of the *currently trusted* set's
    power are among them — the overlap condition that lets the client
    skip heights safely.  An empty genesis set means trust-on-first-use:
    the first update's set is adopted as-is (how the deployed Guest
    Contract was initialised against Picasso).
    """

    def __init__(self, chain_id: str, genesis_validators: ValidatorSet,
                 accountable: bool = True) -> None:
        super().__init__()
        self.chain_id = chain_id
        self._trusted: Optional[ValidatorSet] = (
            genesis_validators if len(genesis_validators) else None
        )
        self._known_valsets: dict[Hash, ValidatorSet] = {
            genesis_validators.canonical_hash(): genesis_validators,
        }
        self._consensus: dict[int, tuple[Hash, float]] = {}
        self._latest = 0
        #: Accountable-safety mode (docs/ACCOUNTABILITY.md): retain each
        #: adopted header with its commit signatures so a conflicting
        #: finalisation yields an :class:`AccountabilityProof`.
        self.accountable = accountable
        #: height -> (header, adopted signature set)
        self._finalisations: dict[
            int, tuple[CometHeader, dict[PublicKey, Signature]]] = {}
        #: Proofs this client constructed on observing a conflict.
        self.equivocation_proofs: list[AccountabilityProof] = []

    # ------------------------------------------------------------------
    # LightClient interface
    # ------------------------------------------------------------------

    def latest_height(self) -> int:
        return self._latest

    def consensus_root(self, height: int) -> Optional[Hash]:
        entry = self._consensus.get(height)
        return entry[0] if entry else None

    def consensus_timestamp(self, height: int) -> Optional[float]:
        entry = self._consensus.get(height)
        return entry[1] if entry else None

    def state_summary(self):
        """What this client claims about the tracked chain — exchanged
        and validated during connection handshakes."""
        from repro.ibc.self_client import SelfClientState
        trusted = self._trusted
        return SelfClientState(
            chain_id=self.chain_id,
            latest_height=self._latest,
            trusted_set_hash=(
                bytes(trusted.canonical_hash()) if trusted is not None else b""
            ),
        )

    # ------------------------------------------------------------------
    # Update — two layers
    # ------------------------------------------------------------------

    def resolve_validator_set(self, update: LightClientUpdate) -> ValidatorSet:
        """Find (or admit) the validator set the header commits to."""
        valset = self._known_valsets.get(update.header.validators_hash)
        if valset is None:
            if update.validator_set is None:
                raise ClientError(
                    "unknown validator set and none supplied in the update"
                )
            if update.validator_set.canonical_hash() != update.header.validators_hash:
                raise ClientError("supplied validator set does not match the header")
            valset = update.validator_set
        return valset

    def apply_verified(self, header: CometHeader, signers: set[PublicKey],
                       valset: ValidatorSet,
                       signatures: Optional[dict[PublicKey, Signature]] = None,
                       ) -> None:
        """State transition given signers whose signatures are already
        verified (by the host runtime's precompile, in the chunked flow).

        ``signatures`` optionally carries the raw commit signatures for
        the verified signers; in accountable mode the client retains
        them per height so a later conflicting finalisation raises
        :class:`EquivocationError` bearing an attributable
        :class:`AccountabilityProof` instead of a bare freeze.
        """
        self.ensure_active()
        if header.chain_id != self.chain_id:
            raise ClientError(
                f"header is for chain {header.chain_id!r}, client tracks {self.chain_id!r}"
            )
        if valset.canonical_hash() != header.validators_hash:
            raise ClientError("validator set does not match the header")
        signed_power = sum(valset.power_of(signer) for signer in signers)
        threshold = (valset.total_power * 2) // 3
        if signed_power <= threshold:
            raise ClientError(
                f"signed power {signed_power} does not exceed 2/3 of "
                f"{valset.total_power}"
            )
        if self._trusted is not None:
            trusted_power = sum(self._trusted.power_of(signer) for signer in signers)
            if trusted_power * 3 <= self._trusted.total_power:
                raise ClientError(
                    f"signers hold {trusted_power} of the trusted set's "
                    f"{self._trusted.total_power} power; need more than 1/3"
                )
        known = self._consensus.get(header.height)
        if known is not None and known[0] != header.app_hash:
            proof = None
            if self.accountable:
                proof = self._build_conflict_proof(header, signers, signatures)
            self.freeze()
            if proof is not None:
                raise EquivocationError(
                    f"conflicting counterparty headers at height "
                    f"{header.height}; frozen with an accountability proof",
                    proof=proof,
                )
            raise ClientError(
                f"conflicting counterparty headers at height {header.height}; frozen"
            )
        self._consensus[header.height] = (header.app_hash, header.time)
        if self.accountable and signatures:
            retained = {
                public_key: signatures[public_key]
                for public_key in signers
                if public_key in signatures
            }
            if retained:
                self._finalisations[header.height] = (header, retained)
        if header.height >= self._latest:
            self._latest = header.height
            self._trusted = valset
        self._known_valsets[header.validators_hash] = valset

    def _build_conflict_proof(self, header: CometHeader,
                              signers: set[PublicKey],
                              signatures: Optional[dict[PublicKey, Signature]],
                              ) -> Optional[AccountabilityProof]:
        """Turn a conflicting finalisation into an accountability proof.

        Needs the retained commit of the adopted header at this height,
        raw signatures for the new header, and a shared validator set —
        otherwise the conflict stays a bare freeze."""
        if not signatures:
            return None
        record = self._finalisations.get(header.height)
        if record is None:
            return None
        known_header, known_signatures = record
        if known_header.validators_hash != header.validators_hash:
            return None
        if known_header.app_hash == header.app_hash:
            return None
        known_side = Finalisation(
            commitment=bytes(known_header.app_hash),
            sign_bytes=known_header.sign_bytes(),
            signatures=tuple(sorted(known_signatures.items(),
                                    key=lambda item: bytes(item[0]))),
            header_bytes=known_header.to_bytes(),
        )
        new_side = Finalisation(
            commitment=bytes(header.app_hash),
            sign_bytes=header.sign_bytes(),
            signatures=tuple(sorted(
                ((public_key, signatures[public_key])
                 for public_key in signers if public_key in signatures),
                key=lambda item: bytes(item[0]))),
            header_bytes=header.to_bytes(),
        )
        proof = build_proof(self.chain_id, header.height,
                            bytes(header.validators_hash),
                            known_side, new_side)
        self.equivocation_proofs.append(proof)
        return proof

    def verify_accountability(self, proof: AccountabilityProof,
                              scheme: SignatureScheme,
                              ) -> tuple[PublicKey, ...]:
        """Verify a Comet equivocation proof against a known validator
        set and return the double-signers.

        The protocol binding re-derives each side's sign-bytes and
        commitment from the embedded header, so the proof cannot lie
        about what was signed or at which height.
        """
        if proof.chain_id != self.chain_id:
            raise AccountabilityError(
                f"proof is for chain {proof.chain_id!r}, "
                f"not {self.chain_id!r}")
        valset = self._known_valsets.get(Hash(proof.valset_hash))
        if valset is None:
            raise AccountabilityError(
                "proof references a validator set this client never saw")
        for fin in (proof.first, proof.second):
            side = CometHeader.read_from(Reader(fin.header_bytes))
            if (side.chain_id != proof.chain_id
                    or side.height != proof.height
                    or bytes(side.validators_hash) != proof.valset_hash):
                raise AccountabilityError(
                    "embedded header does not match the proof's claims")
            if fin.sign_bytes != side.sign_bytes():
                raise AccountabilityError(
                    "finalisation sign-bytes do not match the header")
            if fin.commitment != bytes(side.app_hash):
                raise AccountabilityError(
                    "finalisation commitment is not the header's app hash")
        quorum = (valset.total_power * 2) // 3 + 1
        return verify_proof(
            proof,
            powers=valset.power_map(),
            total_power=valset.total_power,
            quorum_power=quorum,
            batch_verify=scheme.verify_batch,
        )

    def update(self, update: LightClientUpdate, scheme: SignatureScheme) -> None:
        """Full verification: check every commit signature directly.

        The common case — every member signature in the commit is valid —
        verifies the whole quorum in one :meth:`~repro.crypto.keys.
        SignatureScheme.verify_batch` call.  Only when the batch fails
        does the client fall back to per-signature filtering, preserving
        the original semantics (individually bad signatures are dropped,
        not fatal; the quorum thresholds decide the outcome).
        """
        valset = self.resolve_validator_set(update)
        sign_bytes = update.header.sign_bytes()
        powers = valset.power_map()
        members = [
            (public_key, signature)
            for public_key, signature in update.commit.signatures
            if powers.get(public_key, 0) > 0
        ]
        if scheme.verify_batch(
            [(public_key, sign_bytes, signature) for public_key, signature in members]
        ):
            signers = {public_key for public_key, _ in members}
        else:
            signers = {
                public_key
                for public_key, signature in members
                if scheme.verify(public_key, sign_bytes, signature)
            }
        self.apply_verified(update.header, signers, valset,
                            signatures=dict(members))
