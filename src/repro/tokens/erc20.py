"""ERC20 fungible token (EIP-20).

Every balance mutation records an ERC20 ``Transfer`` into the transaction
trace — the substrate's equivalent of the ``Transfer`` event log that real
detectors (and Etherscan) read. Mints originate from and burns terminate at
the zero address, which the paper's Table III calls the *BlackHole*.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..chain.contract import Contract, Msg, external
from ..chain.errors import InsufficientAllowance, InsufficientBalance, Revert
from ..chain.types import Address, BLACKHOLE

if TYPE_CHECKING:  # pragma: no cover
    from ..chain.chain import Chain

__all__ = ["ERC20"]

_TOTAL_SUPPLY = "total_supply"


class ERC20(Contract):
    """A standard fungible token.

    Parameters
    ----------
    symbol:
        Ticker used in reports (``"WBTC"``, ``"sUSD"``, ...).
    decimals:
        Fixed-point scale; most tokens use 18, USDC-likes use 6.
    """

    def __init__(self, chain: "Chain", address: Address, symbol: str, decimals: int = 18) -> None:
        super().__init__(chain, address)
        self.symbol = symbol
        self.decimals = decimals

    # -- views -----------------------------------------------------------

    def balance_of(self, owner: Address) -> int:
        return self.storage.get(("balance", owner), 0)

    def allowance(self, owner: Address, spender: Address) -> int:
        return self.storage.get(("allowance", owner, spender), 0)

    def total_supply(self) -> int:
        return self.storage.get(_TOTAL_SUPPLY, 0)

    @property
    def unit(self) -> int:
        """One whole token in base units."""
        return 10**self.decimals

    # -- mutations (external entry points) --------------------------------

    @external
    def transfer(self, msg: Msg, to: Address, amount: int) -> bool:
        self._move(msg.sender, to, amount)
        return True

    @external
    def approve(self, msg: Msg, spender: Address, amount: int) -> bool:
        if amount < 0:
            raise Revert("negative approval")
        self.storage.set(("allowance", msg.sender, spender), amount)
        self.emit("Approval", owner=msg.sender, spender=spender, amount=amount)
        return True

    @external
    def transferFrom(self, msg: Msg, owner: Address, to: Address, amount: int) -> bool:
        allowed = self.allowance(owner, msg.sender)
        if allowed < amount:
            raise InsufficientAllowance(
                f"{self.symbol}: allowance {allowed} < {amount} for {msg.sender.short}"
            )
        self.storage.set(("allowance", owner, msg.sender), allowed - amount)
        self._move(owner, to, amount)
        return True

    # -- supply management (contract-internal) -----------------------------

    def mint(self, to: Address, amount: int) -> None:
        """Create ``amount`` new tokens for ``to`` (Transfer from BlackHole)."""
        if amount < 0:
            raise Revert("negative mint")
        self.storage.add(("balance", to), amount)
        self.storage.add(_TOTAL_SUPPLY, amount)
        self.chain.record_transfer(BLACKHOLE, to, amount, self.address)

    def burn(self, owner: Address, amount: int) -> None:
        """Destroy ``amount`` tokens of ``owner`` (Transfer to BlackHole)."""
        if amount < 0:
            raise Revert("negative burn")
        balance = self.balance_of(owner)
        if balance < amount:
            raise InsufficientBalance(f"{self.symbol}: burn {amount} > balance {balance}")
        self.storage.set(("balance", owner), balance - amount)
        self.storage.add(_TOTAL_SUPPLY, -amount)
        self.chain.record_transfer(owner, BLACKHOLE, amount, self.address)

    # -- internals ----------------------------------------------------------

    def _move(self, sender: Address, to: Address, amount: int) -> None:
        if amount < 0:
            raise Revert("negative transfer")
        balance = self.storage.move(("balance", sender), ("balance", to), amount)
        if balance < amount:
            raise InsufficientBalance(
                f"{self.symbol}: {sender.short} has {balance}, needs {amount}"
            )
        self.chain.record_transfer(sender, to, amount, self.address)
