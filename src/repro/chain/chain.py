"""The chain: accounts, atomic transaction execution and trace capture.

This is the reproduction's stand-in for an archive Geth node plus the
paper's replay instrumentation. It executes message calls against Python
contract objects, journals every state write so a revert unwinds the whole
transaction, and stamps every observable effect (Ether transfer, ERC20
transfer, call, log, creation) with a global sequence number — giving
LeiShen the totally ordered transfer history Sec. V-A requires.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Type, TypeVar

from .contract import Contract, Msg
from .errors import (
    ChainError,
    InsufficientBalance,
    NotAContract,
    Revert,
    UnknownAccount,
)
from .state import StateJournal
from .trace import (
    CallRecord,
    CreationRecord,
    LogRecord,
    TransactionTrace,
    TransferRecord,
)
from .types import Address, AddressFactory, ETHER, keccak_address

__all__ = ["Chain", "Block", "GENESIS_TIMESTAMP", "SECONDS_PER_BLOCK"]

C = TypeVar("C", bound=Contract)

#: Block 0 timestamp; chosen so block 9,484,688 lands on 2020-02-15,
#: the day of the first flpAttack (bZx-1).
GENESIS_TIMESTAMP = 1_455_300_000
SECONDS_PER_BLOCK = 13

_ETH_BALANCE = "eth_balance"


class _LabelMap(dict):
    """Label store that bumps the owning chain's generation counters.

    Tests and callers mutate ``chain.labels`` directly, so the dict itself
    must advance the counters consumers (``AccountTagger``) key their
    cache invalidation on.
    """

    __slots__ = ("_chain",)

    def __init__(self, chain: "Chain") -> None:
        super().__init__()
        self._chain = chain

    def _bump(self) -> None:
        chain = self._chain
        chain.version += 1
        chain.labels_version += 1

    def __setitem__(self, key: Address, value: str) -> None:
        super().__setitem__(key, value)
        self._bump()

    def __delitem__(self, key: Address) -> None:
        super().__delitem__(key)
        self._bump()

    def pop(self, *args):
        result = super().pop(*args)
        self._bump()
        return result

    def update(self, *args, **kwargs) -> None:
        super().update(*args, **kwargs)
        self._bump()

    def clear(self) -> None:
        super().clear()
        self._bump()


@dataclass(slots=True)
class Block:
    """A mined block: a number, a timestamp and the included traces."""

    number: int
    timestamp: int
    traces: list[TransactionTrace] = field(default_factory=list)


class Chain:
    """A single simulated blockchain instance.

    Parameters
    ----------
    name:
        Chain profile name (``"ethereum"`` or ``"bsc"``); only affects
        labelling and the native-asset symbol used in reports.
    """

    def __init__(self, name: str = "ethereum", keep_history: bool = True) -> None:
        self.name = name
        #: when False, executed traces are returned to the caller but not
        #: retained in blocks — used by the full-scale wild scan to keep
        #: memory bounded across hundreds of thousands of transactions.
        self.keep_history = keep_history
        self.state = StateJournal()
        self.addresses = AddressFactory(namespace=name)
        self.contracts: dict[Address, Contract] = {}
        self.eoas: set[Address] = set()
        #: creator -> list of created contracts, and the reverse edge.
        self.created_by: dict[Address, Address] = {}
        self.creations: list[CreationRecord] = []
        #: ``(seq, address, contract)`` of each contract destroyed inside
        #: a call, kept until the transaction ends so a revert can restore it.
        self._destroyed: list[tuple[int, Address, Contract]] = []
        #: generation counters: ``version`` advances on any creation-graph
        #: or label change, ``labels_version`` on label changes only.
        #: Consumers (account tagging) compare one int instead of
        #: re-scanning the creation/label stores on every lookup.
        self.version = 0
        self.labels_version = 0
        #: Etherscan-style labels seeded at deployment time.
        self.labels: dict[Address, str] = _LabelMap(self)
        self.blocks: list[Block] = [Block(number=0, timestamp=GENESIS_TIMESTAMP)]
        #: the next sequence number to stamp, and the last tx nonce used.
        self._seq = 1
        self._tx_nonce = 0
        self._depth = 0
        self._trace: TransactionTrace | None = None

    # ------------------------------------------------------------------
    # accounts
    # ------------------------------------------------------------------

    def create_eoa(
        self,
        hint: str = "eoa",
        label: str | None = None,
        address: Address | None = None,
    ) -> Address:
        """Create a fresh externally-owned account.

        ``address`` pins the account to a caller-chosen deterministic
        address (the sharded wild scan uses this so the same logical
        actor resolves to the same address in every shard).
        """
        if address is None:
            address = self.addresses.fresh(hint)
        self.eoas.add(address)
        if label is not None:
            self.labels[address] = label
        return address

    def is_contract(self, address: Address) -> bool:
        return address in self.contracts

    def contract_at(self, address: Address) -> Contract:
        try:
            return self.contracts[address]
        except KeyError:
            raise UnknownAccount(f"no contract at {address}") from None

    def contract_of(self, address: Address, cls: Type[C]) -> C:
        contract = self.contract_at(address)
        if not isinstance(contract, cls):
            raise NotAContract(f"{address} is a {type(contract).__name__}, not {cls.__name__}")
        return contract

    # ------------------------------------------------------------------
    # Ether accounting
    # ------------------------------------------------------------------

    def balance(self, address: Address) -> int:
        return self.state.get(address, _ETH_BALANCE, 0)

    def faucet(self, address: Address, amount: int) -> None:
        """Mint Ether out of thin air (genesis allocation / test funding)."""
        if amount < 0:
            raise ValueError("faucet amount must be non-negative")
        self.state.add(address, _ETH_BALANCE, amount)

    def _move_ether(self, sender: Address, receiver: Address, amount: int) -> None:
        if amount == 0:
            return
        if amount < 0:
            raise Revert("negative ether transfer")
        if self.balance(sender) < amount:
            raise InsufficientBalance(
                f"{sender.short} has {self.balance(sender)} wei, needs {amount}"
            )
        self.state.add(sender, _ETH_BALANCE, -amount)
        self.state.add(receiver, _ETH_BALANCE, amount)
        self.record_transfer(sender, receiver, amount, ETHER)

    def send_ether(self, sender: Address, receiver: Address, amount: int) -> None:
        """Plain Ether send; triggers the receiver's ``receive_ether`` hook."""
        self._move_ether(sender, receiver, amount)
        contract = self.contracts.get(receiver)
        if contract is not None:
            contract.receive_ether(Msg(sender=sender, value=amount))

    # ------------------------------------------------------------------
    # trace recording
    # ------------------------------------------------------------------

    def record_transfer(self, sender: Address, receiver: Address, amount: int, token: Address) -> None:
        """Record an asset transfer: an ERC20 ``Transfer`` log (called by
        token contracts), or an Ether move when ``token`` is ``ETHER``."""
        trace = self._trace
        if trace is not None:
            seq = self._seq
            self._seq = seq + 1
            trace.transfers.append(TransferRecord(seq, sender, receiver, amount, token))

    def emit_log(self, emitter: Address, event: str, params: dict[str, Any]) -> None:
        """Record an event log; ``params`` maps each field to its value."""
        trace = self._trace
        if trace is not None:
            seq = self._seq
            self._seq = seq + 1
            trace.logs.append(LogRecord(seq, emitter, event, tuple(params.items())))

    # ------------------------------------------------------------------
    # calls and transactions
    # ------------------------------------------------------------------

    def call(
        self,
        caller: Address,
        target: Address,
        function: str,
        /,
        *args: Any,
        value: int = 0,
        **kwargs: Any,
    ) -> Any:
        """Execute a (possibly nested) message call with EVM semantics.

        The one dispatch path: the target's entry point comes from its
        class's table (:meth:`Contract.entry_point` on a miss) and is
        called with the contract and a :class:`Msg`. State changes,
        deployments and trace records made by the subtree are rolled
        back if it raises, so callers may catch :class:`Revert` like a
        Solidity ``try/catch``.
        """
        contract = self.contracts.get(target)
        if contract is None:
            raise NotAContract(f"call target {target} is not a contract")
        state = self.state
        state.checkpoint()
        trace = self._trace
        # every record of this call's subtree is stamped at or after ``mark``
        mark = self._seq
        depth = self._depth = self._depth + 1
        if trace is not None:
            self._seq = mark + 1
            trace.calls.append(CallRecord(mark, caller, target, function, depth, value))
        try:
            if value:
                self._move_ether(caller, target, value)
            cls = type(contract)
            entry = cls._entry_points.get(function) or cls.entry_point(function)
            result = entry(contract, Msg(caller, value), *args, **kwargs)
        except ChainError:
            state.rollback()
            # restore destroyed contracts before undoing deployments, so a
            # contract deployed and destroyed in this subtree ends up gone
            destroyed = self._destroyed
            while destroyed and destroyed[-1][0] >= mark:
                _, address, destroyed_contract = destroyed.pop()
                self.contracts[address] = destroyed_contract
            creations = self.creations
            if creations and creations[-1].seq >= mark:
                self._undeploy(mark)
            if trace is not None:
                for records in (trace.transfers, trace.calls, trace.logs, trace.creations):
                    while records and records[-1].seq >= mark:
                        records.pop()
            raise
        else:
            state.commit()
            return result
        finally:
            self._depth -= 1

    def transact(
        self,
        sender: Address,
        target: Address,
        function: str,
        /,
        *args: Any,
        value: int = 0,
        allow_failure: bool = False,
        **kwargs: Any,
    ) -> TransactionTrace:
        """Execute one top-level transaction atomically and return its trace.

        A reverted transaction leaves no state changes and (matching real
        receipts) no logs; the returned trace carries ``success=False``
        and the revert reason.
        """
        if self._trace is not None:
            raise ChainError("re-entrant transact(); use call() for nested invocations")
        block = self.blocks[-1]
        trace = TransactionTrace(
            tx_hash=self._tx_hash(sender, target, function),
            sender=sender,
            to=target,
            function=function,
            block_number=block.number,
            timestamp=block.timestamp,
        )
        self._trace = trace
        self.state.checkpoint()
        try:
            self.call(sender, target, function, *args, value=value, **kwargs)
        except Revert as exc:
            self.state.rollback()
            trace.success = False
            trace.revert_reason = exc.reason
            trace.transfers.clear()
            trace.calls.clear()
            trace.logs.clear()
            trace.creations.clear()
            if not allow_failure:
                self._trace = None
                raise
        except ChainError:
            # Programming error (bad target, unknown account): unwind the
            # outer checkpoint too so the chain stays usable, then surface.
            self.state.rollback()
            self._trace = None
            raise
        else:
            self.state.commit()
        finally:
            self._trace = None
            # the transaction is over: no revert can restore its destroys
            self._destroyed.clear()
        if self.keep_history:
            block.traces.append(trace)
        return trace

    def _tx_hash(self, sender: Address, target: Address, function: str) -> str:
        self._tx_nonce += 1
        nonce = str(self._tx_nonce)
        return "0x" + keccak_address(self.name, sender, target, function, nonce)[2:].ljust(64, "0")

    # ------------------------------------------------------------------
    # deployment
    # ------------------------------------------------------------------

    def deploy(
        self,
        creator: Address,
        contract_cls: Type[C],
        /,
        *args: Any,
        label: str | None = None,
        hint: str | None = None,
        address: Address | None = None,
        **kwargs: Any,
    ) -> C:
        """Deploy a contract, recording the creation relationship.

        ``label`` seeds the Etherscan-style label database. Creation
        relationships are recorded globally (the XBlock-ETH dataset the
        paper imports) and also in the current trace if one is open.
        ``address`` pins the contract to a caller-chosen deterministic
        address (see :meth:`create_eoa`). A deployment made inside a
        call that reverts is undone with it.
        """
        if address is None:
            address = self.addresses.fresh(hint or contract_cls.__name__)
        contract = contract_cls(self, address, *args, **kwargs)
        self.contracts[address] = contract
        self.created_by[address] = creator
        record = CreationRecord(self._seq, creator, address)
        self._seq += 1
        self.creations.append(record)
        self.version += 1
        if self._trace is not None:
            self._trace.creations.append(record)
        if label is not None:
            self.labels[address] = label
        return contract

    def _undeploy(self, mark: int) -> None:
        """Undo every deployment stamped at or after ``mark`` (a reverted
        call's subtree): its contract, creator edge, creation record and
        label. Deployment addresses are fresh, so nothing older is lost;
        ``version`` still advances, as for any change of the graph."""
        creations = self.creations
        while creations and creations[-1].seq >= mark:
            address = creations.pop().created
            self.contracts.pop(address, None)
            self.created_by.pop(address, None)
            self.version += 1
            if address in self.labels:
                del self.labels[address]

    def destroy(self, address: Address) -> None:
        """``selfdestruct``: drop the code, keep the history (Sec. VI-D2).

        Inside a call the destroy is stamped with a sequence number, as a
        deployment is, so a call that reverts restores the contract."""
        contract = self.contracts.pop(address, None)
        if contract is not None and self._depth:
            self._destroyed.append((self._seq, address, contract))
            self._seq += 1

    # ------------------------------------------------------------------
    # blocks
    # ------------------------------------------------------------------

    @property
    def block_number(self) -> int:
        return self.blocks[-1].number

    @property
    def timestamp(self) -> int:
        return self.blocks[-1].timestamp

    def mine(self, count: int = 1) -> Block:
        """Advance the chain by ``count`` blocks."""
        for _ in range(count):
            last = self.blocks[-1]
            self.blocks.append(Block(last.number + 1, last.timestamp + SECONDS_PER_BLOCK))
        return self.blocks[-1]

    def mine_to_timestamp(self, timestamp: int) -> Block:
        """Mine a block whose timestamp is exactly ``timestamp``."""
        last = self.blocks[-1]
        if timestamp < last.timestamp:
            raise ValueError("cannot mine into the past")
        number = last.number + max(1, (timestamp - last.timestamp) // SECONDS_PER_BLOCK)
        block = Block(number=number, timestamp=timestamp)
        self.blocks.append(block)
        return block

    def all_traces(self) -> list[TransactionTrace]:
        return [trace for block in self.blocks for trace in block.traces]
