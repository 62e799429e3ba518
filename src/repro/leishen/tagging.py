"""Account tagging via contract-creation trees (paper Sec. V-B-1).

Most accounts in an asset-transfer stream carry no Etherscan label. The
paper observes that 52,482 of 52,500 labelled accounts follow one rule:
*accounts connected by creation relationships share the application name*.
Tagging therefore:

1. builds the creation tree containing the account (ancestors via
   creator edges, descendants via created edges);
2. collects the application names of every labelled tree member into a
   tag set;
3. resolves the account's tag by the tag set:

   - exactly one name -> that application name (Fig. 7a);
   - empty -> the tree root's address, so accounts created by the same
     (unknown) deployer still share one tag (Fig. 7b);
   - more than one name -> **untaggable** (conflicting tags, Fig. 7c — the
     rare publicly-deployable-contract case that makes LeiShen miss the
     JulSwap and PancakeHunny attacks).

The BlackHole (zero address) gets a reserved tag, and plain user accounts
with no creations and no label are tagged with their own address.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING, Iterable

from ..chain.trace import TransferRecord
from ..chain.types import Address, ZERO_ADDRESS
from .labels import LabelDatabase

if TYPE_CHECKING:  # pragma: no cover
    from ..chain.chain import Chain

__all__ = ["AccountTagger", "TaggedTransfer", "BLACKHOLE_TAG", "Tag"]

#: Reserved tag for the zero address (mint/burn endpoint).
BLACKHOLE_TAG = "BlackHole"

#: A resolved tag: an application name, a root-address string, the
#: BlackHole sentinel — or ``None`` for untaggable (conflicting) accounts.
Tag = str | None


@dataclass(slots=True)
class TaggedTransfer:
    """An account-level transfer lifted to tags:
    ``tagT = (tag_sender, tag_receiver, amount, token)``.

    A value, never mutated after construction; not frozen (see
    :class:`~repro.chain.trace.TransferRecord`).
    """

    seq: int
    tag_sender: Tag
    tag_receiver: Tag
    amount: int
    token: Address
    sender: Address
    receiver: Address


_MISSING = object()


class AccountTagger:
    """Resolves account tags against one chain's creation graph.

    Cache invalidation is generation-counter based: every ``tag_of`` call
    compares one integer (``chain.version``) against the last synced
    generation instead of re-scanning the creation and label stores. When
    the chain did grow, the label database and children index are synced
    *incrementally* (only the new records are visited); the tag cache is
    dropped only when something actually changed.
    """

    def __init__(self, chain: "Chain", labels: LabelDatabase | None = None) -> None:
        self._chain = chain
        #: when no explicit database is supplied, labels mirror the chain's
        #: and are re-synced whenever the chain gains labels (contracts get
        #: labelled mid-scan in long-running detections).
        self._auto_labels = labels is None
        self._labels = labels if labels is not None else LabelDatabase()
        self._synced_labels = 0
        self._synced_labels_version = -1
        self._children: dict[Address, list[Address]] = {}
        self._indexed_creations = 0
        self._cache: dict[Address, Tag] = {}
        self._synced_version = -1
        self._refresh()

    @property
    def labels(self) -> LabelDatabase:
        return self._labels

    def invalidate(self) -> None:
        """Drop caches after the chain gained new contracts or labels.

        The label database is kept as-is (so explicit removals, e.g.
        stripping attacker tags, survive); the creation index and tag
        cache are rebuilt on the next lookup.
        """
        self._children.clear()
        self._indexed_creations = 0
        self._cache.clear()
        self._synced_version = -1

    # -- tag resolution -----------------------------------------------------

    def tag_of(self, address: Address) -> Tag:
        """Resolve one account's tag (cached)."""
        if address == ZERO_ADDRESS:
            return BLACKHOLE_TAG
        if self._synced_version != self._chain.version:
            self._refresh()
        tag = self._cache.get(address, _MISSING)
        if tag is not _MISSING:
            return tag
        tag = self._resolve(address)
        self._cache[address] = tag
        return tag

    def _resolve(self, address: Address) -> Tag:
        own = self._labels.app_of(address)
        tree = self._tree_members(address)
        tag_set = {self._labels.app_of(member) for member in tree}
        tag_set.discard(None)
        if own is not None:
            tag_set.add(own)
        if len(tag_set) == 1:
            return next(iter(tag_set))
        if len(tag_set) > 1:
            return None  # conflicting tags: cannot be tagged (Fig. 7c)
        return self._root_of(address)  # no tags anywhere: tag by tree root

    def _tree_members(self, address: Address) -> set[Address]:
        """Ancestors and descendants of ``address`` in its creation tree."""
        members: set[Address] = set()
        # ancestors
        current: Address | None = address
        while current is not None and current not in members:
            members.add(current)
            current = self._chain.created_by.get(current)
        # descendants (breadth-first through created edges)
        children = self._children_index()
        frontier = [address]
        while frontier:
            node = frontier.pop()
            for child in children.get(node, ()):
                if child not in members:
                    members.add(child)
                    frontier.append(child)
        return members

    def _root_of(self, address: Address) -> str:
        current = address
        seen = {current}
        while True:
            parent = self._chain.created_by.get(current)
            if parent is None or parent in seen:
                return str(current)
            seen.add(parent)
            current = parent

    def _children_index(self) -> dict[Address, list[Address]]:
        if self._synced_version != self._chain.version:
            self._refresh()
        return self._children

    # -- incremental cache maintenance -------------------------------------

    def _refresh(self) -> None:
        """Bring label/creation views up to the chain's current generation."""
        changed = self._sync_creations()
        if self._auto_labels:
            changed = self._sync_labels() or changed
        if changed:
            self._cache.clear()
        self._synced_version = self._chain.version

    def _sync_creations(self) -> bool:
        creations = self._chain.creations
        count = len(creations)
        if count == self._indexed_creations:
            return False
        index = self._children
        for record in creations[self._indexed_creations:]:
            index.setdefault(record.creator, []).append(record.created)
        self._indexed_creations = count
        return True

    def _sync_labels(self) -> bool:
        chain = self._chain
        version = chain.labels_version
        if self._synced_labels_version == version:
            return False
        chain_labels = chain.labels
        count = len(chain_labels)
        if (
            count > self._synced_labels
            and version - self._synced_labels_version == count - self._synced_labels
        ):
            # pure appends since the last sync (the overwhelmingly common
            # case): merge only the new tail — dicts preserve insertion
            # order, so the tail is exactly the new labels.
            for address, label in islice(chain_labels.items(), self._synced_labels, None):
                self._labels.add(address, label)
        else:
            # removals or in-place re-labels: rebuild from scratch.
            self._labels = LabelDatabase.from_chain(chain)
        self._synced_labels = count
        self._synced_labels_version = version
        return True

    # -- transfer lifting --------------------------------------------------------

    def tag_transfers(self, transfers: Iterable[TransferRecord]) -> list[TaggedTransfer]:
        """Lift account-level transfers to tagged transfers."""
        tag_of = self.tag_of
        return [
            TaggedTransfer(
                t.seq,
                tag_of(t.sender),
                tag_of(t.receiver),
                t.amount,
                t.token,
                t.sender,
                t.receiver,
            )
            for t in transfers
        ]
