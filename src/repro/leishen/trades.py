"""Key trade action identification (paper Sec. V-C, Table III).

From application-level transfers, LeiShen recognizes three trade actions,
each matched against two or three *continuous* transfers:

- **Swap** — A sends token t1 to B and receives t2 (and possibly t3) back;
- **Mint liquidity** — A sends assets to B and receives tokens freshly
  minted from the BlackHole;
- **Remove liquidity** — A sends tokens to the BlackHole and receives
  assets back from B.

Every action is normalized into the paper's trade tuple
``(buyer, seller, amountSell, tokenSell, amountBuy, tokenBuy)``: the buyer
is the initiating application, the seller its counterparty.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..chain.types import Address
from .simplify import AppTransfer
from .tagging import BLACKHOLE_TAG, Tag

__all__ = ["Trade", "TradeKind", "TradeIdentifier"]


class TradeKind(enum.Enum):
    SWAP = "swap"
    MINT_LIQUIDITY = "mint_liquidity"
    REMOVE_LIQUIDITY = "remove_liquidity"


@dataclass(slots=True)
class Trade:
    """The paper's trade tuple, plus bookkeeping.

    ``extra_legs`` carries the secondary output of three-transfer swaps /
    removals (the ``a3 t3`` leg of Table III); pattern matching uses the
    primary legs. A value, never mutated after construction; not frozen
    (see :class:`~repro.chain.trace.TransferRecord`).
    """

    seq: int
    kind: TradeKind
    buyer: Tag
    seller: Tag
    amount_sell: int
    token_sell: Address
    amount_buy: int
    token_buy: Address
    extra_legs: tuple[tuple[Address, int], ...] = ()

    @property
    def sell_rate(self) -> float:
        """Price paid per bought token: ``amountSell / amountBuy``."""
        if self.amount_buy == 0:
            return float("inf")
        return self.amount_sell / self.amount_buy

    @property
    def buy_rate(self) -> float:
        """Amount received per sold token: ``amountBuy / amountSell``."""
        if self.amount_sell == 0:
            return float("inf")
        return self.amount_buy / self.amount_sell


class TradeIdentifier:
    """Greedy scanner matching Table III's two- and three-transfer shapes.

    Three-transfer conditions are tried before two-transfer ones so a
    dual-output swap does not get split into a swap plus a dangling
    transfer; matched transfers are consumed and the scan continues after
    them.
    """

    #: a BlackHole transfer at most this fraction of the adjacent same-token
    #: transfer is treated as a fee burn, not an action of its own.
    FEE_BURN_RATIO = 0.2

    def identify(self, transfers: list[AppTransfer]) -> list[Trade]:
        # a fee burn goes to the BlackHole: without such a leg (all but
        # a few calls) there is nothing to strip and no copy to make
        for transfer in transfers:
            if transfer.receiver == BLACKHOLE_TAG:
                transfers = self._strip_fee_burns(transfers)
                break
        match3 = self._match3
        match2 = self._match2
        trades: list[Trade] = []
        i = 0
        n = len(transfers)
        while i < n:
            if i + 2 < n:
                trade = match3(transfers[i], transfers[i + 1], transfers[i + 2])
                if trade is not None:
                    trades.append(trade)
                    i += 3
                    continue
            if i + 1 < n:
                trade = match2(transfers[i], transfers[i + 1])
                if trade is not None:
                    trades.append(trade)
                    i += 2
                    continue
            i += 1
        return trades

    def _strip_fee_burns(self, transfers: list[AppTransfer]) -> list[AppTransfer]:
        """Drop fee-on-transfer burn records.

        Deflationary tokens (STA in the Balancer attack) emit a small
        ``Transfer(x, BlackHole, fee)`` beside every real transfer; left
        in the stream it pairs with neighbours into phantom
        remove-liquidity actions and corrupts the greedy scan. A burn is
        considered a fee when the immediately preceding transfer moves
        >= 5x the amount of the same token through the burning account.
        """
        cleaned: list[AppTransfer] = []
        for idx, transfer in enumerate(transfers):
            if (
                transfer.receiver == BLACKHOLE_TAG
                and idx > 0
                and (prev := transfers[idx - 1]).token == transfer.token
                and transfer.sender in (prev.sender, prev.receiver)
                and transfer.amount <= prev.amount * self.FEE_BURN_RATIO
            ):
                continue
            cleaned.append(transfer)
        return cleaned

    # -- two-transfer shapes --------------------------------------------------

    def _match2(self, t1: AppTransfer, t2: AppTransfer) -> Trade | None:
        if t1.sender is None or t1.receiver is None or t2.sender is None or t2.receiver is None:
            return None
        if t1.token == t2.token:
            return None
        # Swap: A -> B then B -> A.
        if (
            t1.sender == t2.receiver
            and t1.receiver == t2.sender
            and t1.sender != BLACKHOLE_TAG
            and t1.receiver != BLACKHOLE_TAG
        ):
            return Trade(
                seq=t1.seq,
                kind=TradeKind.SWAP,
                buyer=t1.sender,
                seller=t1.receiver,
                amount_sell=t1.amount,
                token_sell=t1.token,
                amount_buy=t2.amount,
                token_buy=t2.token,
            )
        # Mint liquidity: A -> B plus BlackHole -> A (either order).
        mint = self._match_mint2(t1, t2) or self._match_mint2(t2, t1)
        if mint is not None:
            return mint
        # Remove liquidity: A -> BlackHole plus B -> A (either order).
        remove = self._match_remove2(t1, t2) or self._match_remove2(t2, t1)
        return remove

    @staticmethod
    def _match_mint2(deposit: AppTransfer, minted: AppTransfer) -> Trade | None:
        if (
            minted.sender == BLACKHOLE_TAG
            and minted.receiver == deposit.sender
            and deposit.receiver != BLACKHOLE_TAG
            and deposit.sender != BLACKHOLE_TAG
        ):
            return Trade(
                seq=min(deposit.seq, minted.seq),
                kind=TradeKind.MINT_LIQUIDITY,
                buyer=deposit.sender,
                seller=deposit.receiver,
                amount_sell=deposit.amount,
                token_sell=deposit.token,
                amount_buy=minted.amount,
                token_buy=minted.token,
            )
        return None

    @staticmethod
    def _match_remove2(burned: AppTransfer, payout: AppTransfer) -> Trade | None:
        if (
            burned.receiver == BLACKHOLE_TAG
            and payout.receiver == burned.sender
            and burned.sender != BLACKHOLE_TAG
            and payout.sender != BLACKHOLE_TAG
        ):
            return Trade(
                seq=min(burned.seq, payout.seq),
                kind=TradeKind.REMOVE_LIQUIDITY,
                buyer=burned.sender,
                seller=payout.sender,
                amount_sell=burned.amount,
                token_sell=burned.token,
                amount_buy=payout.amount,
                token_buy=payout.token,
            )
        return None

    # -- three-transfer shapes ------------------------------------------------------

    def _match3(self, t1: AppTransfer, t2: AppTransfer, t3: AppTransfer) -> Trade | None:
        # every shape needs three distinct tokens: the cheapest rejection
        if t1.token == t2.token or t1.token == t3.token or t2.token == t3.token:
            return None
        if (
            t1.sender is None or t1.receiver is None
            or t2.sender is None or t2.receiver is None
            or t3.sender is None or t3.receiver is None
        ):
            return None
        # Swap with two outputs: A->B, B->A, B->A.
        if (
            t1.sender == t2.receiver == t3.receiver
            and t1.receiver == t2.sender == t3.sender
            and BLACKHOLE_TAG not in (t1.sender, t1.receiver)
        ):
            return Trade(
                seq=t1.seq,
                kind=TradeKind.SWAP,
                buyer=t1.sender,
                seller=t1.receiver,
                amount_sell=t1.amount,
                token_sell=t1.token,
                amount_buy=t2.amount,
                token_buy=t2.token,
                extra_legs=((t3.token, t3.amount),),
            )
        # Mint with two deposits: A->B, A->B, BlackHole->A.
        if (
            t1.sender == t2.sender == t3.receiver
            and t1.receiver == t2.receiver
            and t3.sender == BLACKHOLE_TAG
            and t1.sender != BLACKHOLE_TAG
            and t1.receiver != BLACKHOLE_TAG
        ):
            return Trade(
                seq=t1.seq,
                kind=TradeKind.MINT_LIQUIDITY,
                buyer=t1.sender,
                seller=t1.receiver,
                amount_sell=t1.amount,
                token_sell=t1.token,
                amount_buy=t3.amount,
                token_buy=t3.token,
                extra_legs=((t2.token, t2.amount),),
            )
        # Remove with two payouts: A->BlackHole, B->A, B->A.
        if (
            t1.receiver == BLACKHOLE_TAG
            and t2.receiver == t3.receiver == t1.sender
            and t2.sender == t3.sender
            and t1.sender != BLACKHOLE_TAG
            and t2.sender != BLACKHOLE_TAG
        ):
            return Trade(
                seq=t1.seq,
                kind=TradeKind.REMOVE_LIQUIDITY,
                buyer=t1.sender,
                seller=t2.sender,
                amount_sell=t1.amount,
                token_sell=t1.token,
                amount_buy=t2.amount,
                token_buy=t2.token,
                extra_legs=((t3.token, t3.amount),),
            )
        return None
