"""Journaled world state.

All mutable chain state (Ether balances, ERC20 ledgers, AMM reserves, vault
shares, ...) lives in one flat key/value store with write-ahead journaling.
A transaction opens a checkpoint before executing; a :class:`Revert` rolls
the journal back to that checkpoint, which is how the substrate implements
Ethereum's transaction atomicity — the property flash loans rely on.

Keys are ``(owner_address, slot)`` tuples where ``slot`` is any hashable
(usually a string or a ``(name, subkey)`` tuple), mirroring contract storage
slots without the 256-bit encoding noise.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterator

from .types import Address

__all__ = ["StateJournal", "StorageView"]

_MISSING = object()


class StateJournal:
    """A flat key/value store with nested checkpoints.

    While a checkpoint is open, every write appends the key's *previous*
    value (or a tombstone if it was absent) to one undo log, and each
    checkpoint is a mark into that log. ``rollback`` restores the entries
    past the innermost mark in reverse order and truncates the log;
    ``commit`` only drops the mark, so an outer rollback still restores
    the committed writes. The log is cleared when the outermost
    checkpoint closes.
    """

    def __init__(self) -> None:
        self._data: dict[tuple[Address, Hashable], Any] = {}
        self._log: list[tuple[tuple[Address, Hashable], Any]] = []
        self._marks: list[int] = []

    # -- reads ---------------------------------------------------------

    def get(self, owner: Address, slot: Hashable, default: Any = None) -> Any:
        return self._data.get((owner, slot), default)

    def contains(self, owner: Address, slot: Hashable) -> bool:
        return (owner, slot) in self._data

    # -- writes --------------------------------------------------------

    def set(self, owner: Address, slot: Hashable, value: Any) -> None:
        key = (owner, slot)
        if self._marks:
            self._log.append((key, self._data.get(key, _MISSING)))
        self._data[key] = value

    def delete(self, owner: Address, slot: Hashable) -> None:
        key = (owner, slot)
        old = self._data.pop(key, _MISSING)
        if old is not _MISSING and self._marks:
            self._log.append((key, old))

    def add(self, owner: Address, slot: Hashable, delta: int) -> int:
        """Numeric read-modify-write helper; returns the new value."""
        key = (owner, slot)
        old = self._data.get(key, _MISSING)
        if self._marks:
            self._log.append((key, old))
        new = self._data[key] = (0 if old is _MISSING else old) + delta
        return new

    def move(self, owner: Address, source: Hashable, dest: Hashable, amount: int) -> int:
        """Move ``amount`` from numeric slot ``source`` to slot ``dest``.

        Returns what ``source`` held before. When that is less than
        ``amount`` nothing is written; otherwise the writes and their
        undo entries are exactly those of ``set(source, held - amount)``
        followed by ``add(dest, amount)``, so ``source == dest`` is a
        no-op move.
        """
        data = self._data
        src = (owner, source)
        old = data.get(src, _MISSING)
        held = 0 if old is _MISSING else old
        if held < amount:
            return held
        data[src] = held - amount
        dst = (owner, dest)
        prior = data.get(dst, _MISSING)
        data[dst] = (0 if prior is _MISSING else prior) + amount
        if self._marks:
            self._log.extend(((src, old), (dst, prior)))
        return held

    # -- checkpoints ----------------------------------------------------

    def checkpoint(self) -> int:
        """Open a nested checkpoint; returns its depth (for assertions)."""
        self._marks.append(len(self._log))
        return len(self._marks)

    def commit(self) -> None:
        """Close the innermost checkpoint, keeping its writes."""
        if not self._marks:
            raise RuntimeError("commit without checkpoint")
        self._marks.pop()
        if not self._marks:
            self._log.clear()

    def rollback(self) -> None:
        """Undo every write since the innermost checkpoint."""
        if not self._marks:
            raise RuntimeError("rollback without checkpoint")
        mark = self._marks.pop()
        data = self._data
        for key, old in reversed(self._log[mark:]):
            if old is _MISSING:
                data.pop(key, None)
            else:
                data[key] = old
        del self._log[mark:]

    def entries(self) -> Iterator[tuple[Address, Hashable, Any]]:
        """Every stored ``(owner, slot, value)``, in first-write order."""
        for (owner, slot), value in self._data.items():
            yield owner, slot, value

    @property
    def depth(self) -> int:
        return len(self._marks)

    def __len__(self) -> int:
        return len(self._data)


class StorageView:
    """A contract-scoped facade over the shared :class:`StateJournal`.

    Contracts read and write their own storage through this view so all
    mutations stay journaled (and therefore revertible) without each
    contract knowing about checkpoints.
    """

    __slots__ = ("_state", "_owner", "_data")

    def __init__(self, state: StateJournal, owner: Address) -> None:
        self._state = state
        self._owner = owner
        self._data = state._data

    def get(self, slot: Hashable, default: Any = None) -> Any:
        return self._data.get((self._owner, slot), default)

    def set(self, slot: Hashable, value: Any) -> None:
        self._state.set(self._owner, slot, value)

    def add(self, slot: Hashable, delta: int) -> int:
        return self._state.add(self._owner, slot, delta)

    def move(self, source: Hashable, dest: Hashable, amount: int) -> int:
        return self._state.move(self._owner, source, dest, amount)

    def delete(self, slot: Hashable) -> None:
        self._state.delete(self._owner, slot)

    def contains(self, slot: Hashable) -> bool:
        return (self._owner, slot) in self._data
