"""Explorer(+LeiShen) baseline (paper Sec. VI-B, Table IV column 4).

Etherscan and BscScan expose "transaction actions" — trades recovered
from the *event logs* DeFi contracts choose to emit. The paper feeds
those explorer trades into LeiShen's pattern matching and finds only four
of the known attacks: many protocols (margin venues, lending markets,
several forks' vaults) simply do not implement trade events, so the trade
stream the explorer sees is incomplete.

This baseline mirrors that: it rebuilds trades exclusively from emitted
trade-shaped events (Uniswap ``Swap``/``Mint``/``Burn``, Balancer
``LOG_SWAP``, Curve ``TokenExchange``, vault ``Deposit``/``Withdraw``),
lifts the parties with the same account tagger LeiShen uses, and then
runs the unchanged KRP/SBS/MBS matchers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..chain.trace import LogRecord, TransactionTrace
from ..defi.curve import StableSwapPool
from ..defi.uniswap import UniswapV2Pair
from ..defi.vault import Vault
from ..leishen.identify import FlashLoanIdentifier
from ..leishen.patterns import PatternMatch, PatternMatcher
from ..leishen.registry import PatternSettings
from ..leishen.tagging import AccountTagger
from ..leishen.trades import Trade, TradeKind

if TYPE_CHECKING:  # pragma: no cover
    from ..chain.chain import Chain

__all__ = ["ExplorerLeiShen"]


class ExplorerLeiShen:
    """LeiShen's patterns over explorer-style event-derived trades."""

    def __init__(
        self,
        chain: "Chain",
        config: PatternSettings = PatternSettings(),
    ) -> None:
        self.chain = chain
        self.identifier = FlashLoanIdentifier()
        self.tagger = AccountTagger(chain)
        self.matcher = PatternMatcher(config)

    def detect(self, trace: TransactionTrace) -> bool:
        matches = self.analyze(trace)
        return matches is not None and bool(matches)

    def analyze(self, trace: TransactionTrace) -> list[PatternMatch] | None:
        if not trace.success:
            return None
        flash_loans = self.identifier.identify(trace)
        if not flash_loans:
            return None
        trades = self.extract_trades(trace)
        borrower_tag = self.tagger.tag_of(flash_loans[0].borrower)
        return self.matcher.match(trades, borrower_tag)

    # -- event -> trade lifting ----------------------------------------------

    def extract_trades(self, trace: TransactionTrace) -> list[Trade]:
        trades: list[Trade] = []
        for log in trace.logs:
            trade = self._trade_of(log)
            if trade is not None:
                trades.append(trade)
        return trades

    def _trade_of(self, log: LogRecord) -> Trade | None:
        handler = getattr(self, f"_on_{log.event.lower()}", None)
        if handler is None:
            return None
        return handler(log)

    # Uniswap V2 Swap(sender, amount0In, amount1In, amount0Out, amount1Out, to)
    def _on_swap(self, log: LogRecord) -> Trade | None:
        pair = self.chain.contracts.get(log.emitter)
        if not isinstance(pair, UniswapV2Pair):
            return None
        amount0_in = log.param("amount0In", 0)
        amount1_in = log.param("amount1In", 0)
        amount0_out = log.param("amount0Out", 0)
        amount1_out = log.param("amount1Out", 0)
        if amount0_in and amount1_out:
            sell_amt, sell_tok, buy_amt, buy_tok = amount0_in, pair.token0, amount1_out, pair.token1
        elif amount1_in and amount0_out:
            sell_amt, sell_tok, buy_amt, buy_tok = amount1_in, pair.token1, amount0_out, pair.token0
        else:
            return None
        return Trade(
            seq=log.seq,
            kind=TradeKind.SWAP,
            buyer=self.tagger.tag_of(log.param("to", log.param("sender"))),
            seller=self.tagger.tag_of(log.emitter),
            amount_sell=sell_amt,
            token_sell=sell_tok,
            amount_buy=buy_amt,
            token_buy=buy_tok,
        )

    # Balancer LOG_SWAP(caller, tokenIn, tokenOut, tokenAmountIn, tokenAmountOut)
    def _on_log_swap(self, log: LogRecord) -> Trade | None:
        return Trade(
            seq=log.seq,
            kind=TradeKind.SWAP,
            buyer=self.tagger.tag_of(log.param("caller")),
            seller=self.tagger.tag_of(log.emitter),
            amount_sell=log.param("tokenAmountIn", 0),
            token_sell=log.param("tokenIn"),
            amount_buy=log.param("tokenAmountOut", 0),
            token_buy=log.param("tokenOut"),
        )

    # Curve TokenExchange(buyer, sold_id, tokens_sold, bought_id, tokens_bought)
    def _on_tokenexchange(self, log: LogRecord) -> Trade | None:
        pool = self.chain.contracts.get(log.emitter)
        if not isinstance(pool, StableSwapPool):
            return None
        sold_id = log.param("sold_id", 0)
        bought_id = log.param("bought_id", 0)
        return Trade(
            seq=log.seq,
            kind=TradeKind.SWAP,
            buyer=self.tagger.tag_of(log.param("buyer")),
            seller=self.tagger.tag_of(log.emitter),
            amount_sell=log.param("tokens_sold", 0),
            token_sell=pool.coins[sold_id],
            amount_buy=log.param("tokens_bought", 0),
            token_buy=pool.coins[bought_id],
        )

    # Vault Deposit(account, amount, shares) -> mint-liquidity trade
    def _on_deposit(self, log: LogRecord) -> Trade | None:
        vault = self.chain.contracts.get(log.emitter)
        if not isinstance(vault, Vault):
            return None
        return Trade(
            seq=log.seq,
            kind=TradeKind.MINT_LIQUIDITY,
            buyer=self.tagger.tag_of(log.param("account")),
            seller=self.tagger.tag_of(log.emitter),
            amount_sell=log.param("amount", 0),
            token_sell=vault.underlying,
            amount_buy=log.param("shares", 0),
            token_buy=vault.address,
        )

    # Vault Withdraw(account, amount, shares) -> remove-liquidity trade
    def _on_withdraw(self, log: LogRecord) -> Trade | None:
        vault = self.chain.contracts.get(log.emitter)
        if not isinstance(vault, Vault):
            return None
        return Trade(
            seq=log.seq,
            kind=TradeKind.REMOVE_LIQUIDITY,
            buyer=self.tagger.tag_of(log.param("account")),
            seller=self.tagger.tag_of(log.emitter),
            amount_sell=log.param("shares", 0),
            token_sell=vault.address,
            amount_buy=log.param("amount", 0),
            token_buy=vault.underlying,
        )

