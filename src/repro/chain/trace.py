"""Execution traces.

The paper's key instrumentation (Sec. V-A) is a modified Geth that records
the *happened-before* relationship between internal transactions (Ether
transfers) and ERC20 ``Transfer`` event logs. We reproduce that directly:
every observable effect of a transaction — asset transfer, message call,
event log, contract creation — is stamped with one global sequence number,
so the merged stream is totally ordered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

from .types import Address, ETHER

__all__ = [
    "TransferRecord",
    "CallRecord",
    "LogRecord",
    "CreationRecord",
    "TransactionTrace",
]


@dataclass(slots=True)
class TransferRecord:
    """One account-level asset transfer T_i = (sender, receiver, amount, token).

    ``token == ETHER`` marks a native Ether movement (an internal
    transaction in real Ethereum); any other token address marks an ERC20
    ``Transfer`` log.

    A value, never mutated after construction. Not frozen, since frozen
    fields are set one ``object.__setattr__`` at a time; so unhashable.
    """

    seq: int
    sender: Address
    receiver: Address
    amount: int
    token: Address

    @property
    def is_ether(self) -> bool:
        return self.token == ETHER

    def __str__(self) -> str:  # pragma: no cover - rendering helper
        return (
            f"T{self.seq}: {self.sender.short} -> {self.receiver.short} "
            f"{self.amount} {self.token.short}"
        )


@dataclass(slots=True)
class CallRecord:
    """A message call (external or internal) observed during execution.

    A value, never mutated after construction (see :class:`TransferRecord`).
    """

    seq: int
    caller: Address
    callee: Address
    function: str
    depth: int
    value: int = 0


@dataclass(slots=True)
class LogRecord:
    """An event log emitted by a contract.

    A value, never mutated after construction (see :class:`TransferRecord`).
    """

    seq: int
    emitter: Address
    event: str
    params: tuple[tuple[str, Any], ...] = ()

    def param(self, name: str, default: Any = None) -> Any:
        for key, value in self.params:
            if key == name:
                return value
        return default


@dataclass(frozen=True, slots=True)
class CreationRecord:
    """A contract creation: ``creator`` deployed ``created``.

    The account tagging step (Sec. V-B-1) builds its creation trees from
    these records.
    """

    seq: int
    creator: Address
    created: Address


@dataclass(slots=True)
class TransactionTrace:
    """Everything LeiShen observes about one executed transaction."""

    tx_hash: str
    sender: Address
    to: Address | None
    function: str
    block_number: int
    timestamp: int
    success: bool = True
    revert_reason: str | None = None
    transfers: list[TransferRecord] = field(default_factory=list)
    calls: list[CallRecord] = field(default_factory=list)
    logs: list[LogRecord] = field(default_factory=list)
    creations: list[CreationRecord] = field(default_factory=list)

    def ordered_events(self) -> Iterator[TransferRecord | CallRecord | LogRecord | CreationRecord]:
        """Merge every record stream in happened-before (sequence) order."""
        merged: list[Any] = [*self.transfers, *self.calls, *self.logs, *self.creations]
        merged.sort(key=lambda record: record.seq)
        return iter(merged)

    def called_functions(self) -> set[str]:
        return {call.function for call in self.calls}

    def emitted_events(self) -> set[str]:
        return {log.event for log in self.logs}

    def tokens_touched(self) -> set[Address]:
        return {transfer.token for transfer in self.transfers}

    def net_flows(self, account: Address) -> dict[Address, int]:
        """Net asset delta of ``account`` over the transaction, per token."""
        flows: dict[Address, int] = {}
        for transfer in self.transfers:
            if transfer.receiver == account:
                flows[transfer.token] = flows.get(transfer.token, 0) + transfer.amount
            if transfer.sender == account:
                flows[transfer.token] = flows.get(transfer.token, 0) - transfer.amount
        return {token: delta for token, delta in flows.items() if delta != 0}
