"""Deflationary (fee-on-transfer) ERC20.

STA — the token at the heart of the Balancer attack (paper Table I, row 3)
— burns 1% of every transfer. Pools that track internal balance records
instead of real balances drift out of sync with such tokens, which is the
mismatch the attacker drains.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..chain.errors import InsufficientBalance, Revert
from ..chain.types import Address, BLACKHOLE
from .erc20 import ERC20

if TYPE_CHECKING:  # pragma: no cover
    from ..chain.chain import Chain

__all__ = ["DeflationaryERC20"]


class DeflationaryERC20(ERC20):
    """ERC20 that burns ``fee_bps`` basis points of every transfer."""

    def __init__(
        self,
        chain: "Chain",
        address: Address,
        symbol: str,
        decimals: int = 18,
        fee_bps: int = 100,
    ) -> None:
        super().__init__(chain, address, symbol, decimals)
        if not 0 <= fee_bps < 10_000:
            raise ValueError("fee_bps must be in [0, 10000)")
        self.fee_bps = fee_bps

    def _move(self, sender: Address, to: Address, amount: int) -> None:
        if amount < 0:
            raise Revert("negative transfer")
        balance = self.balance_of(sender)
        if balance < amount:
            raise InsufficientBalance(
                f"{self.symbol}: {sender.short} has {balance}, needs {amount}"
            )
        fee = amount * self.fee_bps // 10_000
        received = amount - fee
        self.storage.set(("balance", sender), balance - amount)
        self.storage.add(("balance", to), received)
        self.storage.add("total_supply", -fee)
        self.chain.record_transfer(sender, to, received, self.address)
        if fee:
            self.chain.record_transfer(sender, BLACKHOLE, fee, self.address)
