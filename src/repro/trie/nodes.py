"""Node types of the sealable Patricia trie.

Four node kinds, following Merkle-Patricia conventions plus the paper's
sealing extension:

* :class:`LeafNode` — remaining key path + value.
* :class:`ExtensionNode` — shared path segment compressing a chain of
  single-child branches.
* :class:`BranchNode` — 16 child slots and an optional value for a key
  terminating at the branch.
* :class:`SealedNode` — the paper's novelty: a stub that preserves a
  subtree's hash while its contents have been deleted from storage
  (§III-A).  Its accounted size is just the 32-byte hash that the parent
  must retain anyway.

Hashes are computed lazily and cached; mutation happens by rebuilding the
nodes along the touched path (the trie object owns that logic), so a cache
never goes stale.  The same dirty-path discipline carries the *aggregate*
caches: every node memoizes its subtree's ``(storage bytes, live nodes,
sealed stubs)`` totals, so the per-execution state-budget check reads one
cached tuple at the root instead of walking the whole trie — the walk
that used to dominate the soak profile (docs/PERFORMANCE.md).  A branch
rebuilt around one new child does not rescan its sixteen slots either:
it inherits its predecessor's totals minus the replaced child and adds
the new child back when first asked, so a write, delete or seal costs
O(1) aggregate work per level.

Leaf hashes commit to the *hash* of the value (:func:`value_commitment`)
rather than the raw bytes.  That keeps sealed stubs *re-pathable*: a stub
remembers its remaining key path plus the fixed-size core commitment, so
when a delete strands it as a branch's lone occupant the trie can merge
the branch nibble into the stub's path and recompute its hash — exactly
what a fresh rebuild of the same mapping would produce.  Without the
indirection the stub's hash pins the pruned value bytes and the shape can
never be normalized (the stranded-stub divergence documented in
docs/PERFORMANCE.md).
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.crypto.hashing import Hash, hash_concat, hash_digests
from repro.trie.nibbles import Nibbles, encode_nibbles, encoded_nibbles_len

_TAG_LEAF = b"\x00"
_TAG_EXTENSION = b"\x01"
_TAG_BRANCH = b"\x02"
_TAG_VALUE = b"\x04"
_NO_VALUE = b"\xff"

#: Accounted per-node byte overhead (tag + bookkeeping), mirroring the
#: on-chain layout the paper's deployment uses inside its 10 MiB account.
NODE_OVERHEAD_BYTES = 8
HASH_BYTES = 32

Node = Union["LeafNode", "ExtensionNode", "BranchNode", "SealedNode"]

_ZERO = Hash.zero()


# ---------------------------------------------------------------------------
# Canonical node hashing
#
# These are *the* hash formulas of the commitment scheme; proof
# verification (repro.trie.proof) folds the same functions bottom-up, so
# they live here rather than being duplicated per call site.
# ---------------------------------------------------------------------------

def value_commitment(value: bytes) -> Hash:
    """The fixed-size commitment a leaf hash binds instead of raw bytes.

    Sealing keeps only this 32-byte digest, which is what lets a sealed
    leaf stub be re-hashed under a longer path after branch collapse.
    """
    return hash_concat(_TAG_VALUE, value)


def leaf_hash(path: Nibbles, commitment: Hash) -> Hash:
    """Hash of a leaf from its path and its :func:`value_commitment`."""
    return hash_concat(_TAG_LEAF, encode_nibbles(path), commitment)


def extension_hash(path: Nibbles, child: Hash) -> Hash:
    return hash_concat(_TAG_EXTENSION, encode_nibbles(path), child)


def branch_hash(children: Sequence[Hash], value: Optional[bytes]) -> Hash:
    """``hash_concat(_TAG_BRANCH, *children, value or _NO_VALUE)``."""
    return hash_digests(_TAG_BRANCH, children,
                        value if value is not None else _NO_VALUE)


class LeafNode:
    """A terminal node holding ``value`` at the end of ``path``."""

    __slots__ = ("path", "value", "_hash")

    def __init__(self, path: Nibbles, value: bytes) -> None:
        self.path = path
        self.value = value
        self._hash: Optional[Hash] = None

    def hash(self) -> Hash:
        if self._hash is None:
            self._hash = leaf_hash(self.path, value_commitment(self.value))
        return self._hash

    def storage_bytes(self) -> int:
        return NODE_OVERHEAD_BYTES + encoded_nibbles_len(self.path) + len(self.value)

    def aggregates(self) -> tuple[int, int, int]:
        """Subtree totals ``(storage_bytes, live_nodes, sealed_stubs)``."""
        return (self.storage_bytes(), 1, 0)

    def __repr__(self) -> str:
        return f"Leaf(path={self.path}, value={self.value[:8]!r})"


class ExtensionNode:
    """A path-compression node: ``path`` then ``child``."""

    __slots__ = ("path", "child", "_hash", "_agg")

    def __init__(self, path: Nibbles, child: Node) -> None:
        if not path:
            raise ValueError("extension path must be non-empty")
        self.path = path
        self.child = child
        self._hash: Optional[Hash] = None
        self._agg: Optional[tuple[int, int, int]] = None

    def hash(self) -> Hash:
        if self._hash is None:
            self._hash = extension_hash(self.path, self.child.hash())
        return self._hash

    def storage_bytes(self) -> int:
        return NODE_OVERHEAD_BYTES + encoded_nibbles_len(self.path) + HASH_BYTES

    def aggregates(self) -> tuple[int, int, int]:
        if self._agg is None:
            storage, live, sealed = self.child.aggregates()
            self._agg = (self.storage_bytes() + storage, 1 + live, sealed)
        return self._agg

    def __repr__(self) -> str:
        return f"Extension(path={self.path})"


class BranchNode:
    """A 16-way fan-out with an optional value terminating at the branch."""

    __slots__ = ("children", "value", "_hash", "_child_hashes", "_agg", "_base")

    def __init__(self, children: Optional[list[Optional[Node]]] = None, value: Optional[bytes] = None) -> None:
        self.children: list[Optional[Node]] = children if children is not None else [None] * 16
        if len(self.children) != 16:
            raise ValueError("branch must have exactly 16 child slots")
        self.value = value
        self._hash: Optional[Hash] = None
        #: Either the final cached tuple or a partially valid list with
        #: ``None`` holes (dirty slots from :meth:`replacing_child`).
        self._child_hashes: Optional[tuple[Hash, ...] | list[Optional[Hash]]] = None
        self._agg: Optional[tuple[int, int, int]] = None
        #: Pending aggregates ``(storage, live, sealed, index)``: this
        #: node's totals without slot ``index``'s child, which
        #: :meth:`aggregates` adds back on first use.
        self._base: Optional[tuple[int, int, int, int]] = None

    def replacing_child(self, index: int, child: Optional[Node]) -> "BranchNode":
        """A copy of this branch with one child slot replaced.

        This is the incremental-rehash path: the fifteen untouched
        sibling hashes are carried over from this node's cache (when
        warm) and only the dirty slot is recomputed — lazily, so a burst
        of writes to one subtree does not rehash intermediate states.
        The aggregates carry over the same way: the copy inherits this
        node's totals minus the replaced child (and its 32-byte slot)
        and adds the new child back when first read.
        """
        children = list(self.children)
        children[index] = child
        node = BranchNode(children, self.value)
        cached = self._child_hashes
        if cached is not None:
            patched: list[Optional[Hash]] = list(cached)
            patched[index] = None
            node._child_hashes = patched
        base = self._base
        if base is None:
            agg = self._agg
            if agg is None:  # never aggregated: the copy rescans if asked
                return node
        elif base[3] == index:
            # The pending slot is replaced again: same base, no resolve.
            node._base = base
            return node
        else:
            agg = self.aggregates()
        storage, live, sealed = agg
        old = self.children[index]
        if old is not None:
            o_storage, o_live, o_sealed = old.aggregates()
            storage -= o_storage + HASH_BYTES
            live -= o_live
            sealed -= o_sealed
        node._base = (storage, live, sealed, index)
        return node

    def replacing_value(self, value: Optional[bytes]) -> "BranchNode":
        """A copy with only the branch value changed.

        The children are untouched, so the child-hash cache transfers
        wholesale (the holes of a partially valid cache, if any, are
        filled lazily by :meth:`child_hashes`), and the aggregates
        shift by the value-length delta.
        """
        node = BranchNode(list(self.children), value)
        node._child_hashes = self._child_hashes
        delta = ((len(value) if value is not None else 0)
                 - (len(self.value) if self.value is not None else 0))
        agg = self._agg
        if agg is not None:
            node._agg = (agg[0] + delta, agg[1], agg[2])
        elif self._base is not None:
            storage, live, sealed, index = self._base
            node._base = (storage + delta, live, sealed, index)
        return node

    def child_hashes(self) -> tuple[Hash, ...]:
        """All 16 child hashes (zero hash for empty slots), cached.

        Proof generation needs a branch's sibling hashes on every step;
        without the cache each proof re-hashes the same children over and
        over.  Safe to cache because mutation rebuilds the nodes along
        the touched path rather than editing them in place.
        """
        cached = self._child_hashes
        if type(cached) is tuple:
            return cached
        if cached is None:
            hashes = tuple(
                child.hash() if child is not None else _ZERO
                for child in self.children
            )
        else:  # partially valid list: fill the dirty holes
            children = self.children
            hashes = tuple(
                existing if existing is not None
                else (children[i].hash() if children[i] is not None else _ZERO)
                for i, existing in enumerate(cached)
            )
        self._child_hashes = hashes
        return hashes

    def hash(self) -> Hash:
        if self._hash is None:
            self._hash = branch_hash(self.child_hashes(), self.value)
        return self._hash

    def child_count(self) -> int:
        return 16 - self.children.count(None)

    def live_child_count(self) -> int:
        """Children that are present and not sealed.

        The trie itself asks the O(1) equivalent ``aggregates()[1] == 1``
        (the subtree's only live node is the branch); this slot scan is
        the oracle the property tests hold that against.
        """
        return sum(
            1 for child in self.children
            if child is not None and not isinstance(child, SealedNode)
        )

    def storage_bytes(self) -> int:
        """Sparse on-chain layout: a 2-byte occupancy bitmap plus one
        hash per *present* child (matching the compact node encoding the
        deployment uses inside its 10 MiB account — empty slots cost
        nothing)."""
        value_bytes = len(self.value) if self.value is not None else 0
        bitmap_bytes = 2
        return (NODE_OVERHEAD_BYTES + bitmap_bytes
                + self.child_count() * HASH_BYTES + value_bytes)

    def aggregates(self) -> tuple[int, int, int]:
        agg = self._agg
        if agg is not None:
            return agg
        base = self._base
        if base is not None:
            storage, live, sealed, index = base
            child = self.children[index]
            if child is not None:
                c_storage, c_live, c_sealed = child.aggregates()
                storage += c_storage + HASH_BYTES
                live += c_live
                sealed += c_sealed
            self._base = None
        else:
            storage = self.storage_bytes()
            live = 1
            sealed = 0
            for child in self.children:
                if child is not None:
                    c_storage, c_live, c_sealed = child.aggregates()
                    storage += c_storage
                    live += c_live
                    sealed += c_sealed
        agg = self._agg = (storage, live, sealed)
        return agg

    def __repr__(self) -> str:
        slots = "".join("x" if c is not None else "." for c in self.children)
        return f"Branch([{slots}], value={'yes' if self.value is not None else 'no'})"


class SealedNode:
    """A pruned subtree: commitments survive, contents do not (§III-A).

    The node's contents are gone from storage; the stub keeps the root
    commitment intact.  Any traversal that would enter the pruned *data*
    must fail — which is exactly how the Guest Contract prevents double
    delivery after sealing a processed packet's receipt.  Keys that
    merely diverge from the stub's surviving skeleton are provably
    absent, and fresh keys can still be inserted beside it.

    Three kinds, mirroring what was pruned:

    * ``LEAF`` — a single sealed entry.  ``path`` is the leaf's remaining
      key path, ``core`` its :func:`value_commitment`; the hash is
      :func:`leaf_hash` over the two.
    * ``BRANCH`` — a fully sealed branch, optionally reached through an
      extension prefix ``path``.  ``children`` keeps the 16-slot
      occupancy with each present child's subtree hash, so empty slots
      remain insertable and provably absent while occupied slots are
      opaque.
    * ``OPAQUE`` — a bare subtree hash with no skeleton: what a sealed
      branch's occupied slot expands to when a fresh key is inserted
      beside it.  Fully covered; can never be re-pathed (the enclosing
      branch permanently keeps at least two of them, so collapse never
      strands one — see ``_collapse_branch``).

    Keeping paths and occupancy *outside* the hashed core is what makes
    stubs re-pathable and splittable: delete/collapse and insert produce
    exactly the stub a fresh rebuild of the same mapping would contain,
    so an incrementally maintained root never diverges from a rebuilt
    one.
    """

    __slots__ = ("path", "core", "children", "kind", "_hash")

    LEAF = 0
    BRANCH = 1
    OPAQUE = 2

    _AGG = (0, 0, 1)

    def __init__(self, path: Nibbles, kind: int,
                 core: Optional[Hash] = None,
                 children: Optional[tuple[Optional[Hash], ...]] = None) -> None:
        if kind in (SealedNode.LEAF, SealedNode.OPAQUE):
            if core is None or children is not None:
                raise ValueError("leaf/opaque stubs carry a core hash only")
            if kind == SealedNode.OPAQUE and path:
                raise ValueError("opaque stubs cannot carry a path")
        elif kind == SealedNode.BRANCH:
            if children is None or core is not None:
                raise ValueError("branch stubs carry child hashes only")
            if len(children) != 16:
                raise ValueError("branch stub must have exactly 16 child slots")
        else:
            raise ValueError(f"unknown sealed-node kind {kind}")
        self.path = path
        self.core = core
        self.children = children
        self.kind = kind
        self._hash: Optional[Hash] = None

    @classmethod
    def of_leaf(cls, leaf: "LeafNode") -> "SealedNode":
        stub = cls(leaf.path, cls.LEAF, core=value_commitment(leaf.value))
        # Same path, same commitment: the stub hashes exactly like the
        # leaf, so a hash the leaf already computed carries over.
        stub._hash = leaf._hash
        return stub

    @classmethod
    def of_branch(cls, branch: "BranchNode") -> "SealedNode":
        children = tuple(
            child.hash() if child is not None else None
            for child in branch.children
        )
        return cls((), cls.BRANCH, children=children)

    @classmethod
    def opaque(cls, subtree_hash: Hash) -> "SealedNode":
        return cls((), cls.OPAQUE, core=subtree_hash)

    def with_prefix(self, prefix: Nibbles) -> "SealedNode":
        """The same pruned data reached through ``prefix`` more nibbles —
        what branch collapse and extension merge produce."""
        if not prefix:
            return self
        if self.kind == SealedNode.OPAQUE:
            raise ValueError("opaque stubs cannot be re-pathed")
        return SealedNode(prefix + self.path, self.kind,
                          core=self.core, children=self.children)

    def covers(self, path: Nibbles) -> bool:
        """Whether ``path`` would end inside the pruned data (as opposed
        to provably diverging from, or fitting beside, the skeleton)."""
        if self.kind == SealedNode.LEAF:
            return path == self.path
        if self.kind == SealedNode.OPAQUE:
            return True
        own = self.path
        if len(path) <= len(own) or path[: len(own)] != own:
            return False
        assert self.children is not None
        return self.children[path[len(own)]] is not None

    def branch_core_hash(self) -> Hash:
        """The sealed branch's own hash (before the extension prefix)."""
        assert self.kind == SealedNode.BRANCH and self.children is not None
        return branch_hash(
            tuple(child if child is not None else _ZERO for child in self.children),
            None,
        )

    def child_hash_set(self) -> tuple[Hash, ...]:
        """All 16 child hashes with the zero hash for empty slots — the
        shape absence-proof evidence carries."""
        assert self.kind == SealedNode.BRANCH and self.children is not None
        return tuple(child if child is not None else _ZERO
                     for child in self.children)

    def hash(self) -> Hash:
        if self._hash is None:
            if self.kind == SealedNode.LEAF:
                assert self.core is not None
                self._hash = leaf_hash(self.path, self.core)
            elif self.kind == SealedNode.OPAQUE:
                assert self.core is not None
                self._hash = self.core
            else:
                core = self.branch_core_hash()
                self._hash = extension_hash(self.path, core) if self.path else core
        return self._hash

    def storage_bytes(self) -> int:
        # A stub is prunable to its 32-byte core on chain (the skeleton
        # is witness-reconstructible from any proof through it), and that
        # hash lives in the parent either way: accounted as zero.
        return 0

    def aggregates(self) -> tuple[int, int, int]:
        return self._AGG

    def __repr__(self) -> str:
        kind = {0: "leaf", 1: "branch", 2: "opaque"}[self.kind]
        return f"Sealed({kind}, path={self.path}, {self.hash().short()}…)"
