"""Attack report data structures and price-volatility utilities."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..chain.trace import TransactionTrace
from ..chain.types import Address
from .identify import FlashLoan
from .patterns import PatternMatch
from .tagging import Tag
from .trades import Trade

__all__ = ["AttackReport", "price_volatility", "pair_volatilities"]


def _pair_key(token_a: Address, token_b: Address) -> tuple[Address, Address]:
    return (token_a, token_b) if token_a <= token_b else (token_b, token_a)


def pair_volatilities(trades: Sequence[Trade]) -> dict[tuple[Address, Address], float]:
    """Per token pair: ``(rate_max - rate_min) / rate_min`` over a trade list.

    This is the paper's price-volatility metric (Sec. III-D). Rates are
    normalized so each pair's rate is quoted in a fixed direction
    regardless of trade direction. Pairs traded fewer than two times are
    skipped, matching the empirical study.
    """
    rates: dict[tuple[Address, Address], list[float]] = {}
    for trade in trades:
        if trade.amount_buy <= 0 or trade.amount_sell <= 0:
            continue
        key = _pair_key(trade.token_sell, trade.token_buy)
        rate = trade.amount_sell / trade.amount_buy
        if key != (trade.token_sell, trade.token_buy):
            rate = 1.0 / rate
        rates.setdefault(key, []).append(rate)
    volatilities: dict[tuple[Address, Address], float] = {}
    for key, series in rates.items():
        if len(series) < 2:
            continue
        rate_min, rate_max = min(series), max(series)
        if rate_min <= 0:
            continue
        volatilities[key] = (rate_max - rate_min) / rate_min
    return volatilities


def price_volatility(trades: Sequence[Trade]) -> float:
    """The transaction's headline volatility: the max over all token pairs."""
    by_pair = pair_volatilities(trades)
    return max(by_pair.values(), default=0.0)


def _group_net_flows(
    trace: TransactionTrace, borrowers: Sequence[Address]
) -> dict[Address, int]:
    """Net asset deltas of the borrower group; intra-group transfers
    cancel, so multi-provider attacks report one coherent profit view."""
    if len(borrowers) == 1:
        return trace.net_flows(borrowers[0])
    group = set(borrowers)
    flows: dict[Address, int] = {}
    for transfer in trace.transfers:
        if transfer.receiver in group:
            flows[transfer.token] = flows.get(transfer.token, 0) + transfer.amount
        if transfer.sender in group:
            flows[transfer.token] = flows.get(transfer.token, 0) - transfer.amount
    return {token: delta for token, delta in flows.items() if delta != 0}


@dataclass(slots=True)
class AttackReport:
    """LeiShen's output for one flash loan transaction."""

    tx_hash: str
    flash_loans: list[FlashLoan]
    #: the first-identified loan's borrower (kept for compatibility; the
    #: full borrower set is in ``borrowers``).
    borrower: Address
    borrower_tag: Tag
    trades: list[Trade]
    matches: list[PatternMatch]
    #: every distinct borrower across providers, in identification order.
    borrowers: tuple[Address, ...] = ()
    #: resolved tag per entry of ``borrowers`` (``None`` = untaggable).
    borrower_tags: tuple[Tag, ...] = ()
    #: profit valued in USD (filled by the profit analyzer when available).
    profit_usd: float | None = None
    #: the analysed transaction, which :attr:`profit_flows` is built from.
    trace: TransactionTrace | None = field(default=None, repr=False, compare=False)
    _profit_flows: dict[Address, int] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def profit_flows(self) -> dict[Address, int]:
        """Net asset deltas of the borrower group across the tx, token -> amount.

        Built from :attr:`trace` the first time it is read, so a report
        whose flows nobody reads never pays for them; empty without a
        trace.
        """
        flows = self._profit_flows
        if flows is None:
            trace = self.trace
            flows = {} if trace is None else _group_net_flows(trace, self.borrowers)
            self._profit_flows = flows
        return flows

    @property
    def is_attack(self) -> bool:
        return bool(self.matches)

    @property
    def patterns(self) -> set[str]:
        """Registry keys of every matched pattern."""
        return {match.pattern for match in self.matches}

    def volatility(self) -> float:
        return price_volatility(self.trades)

    def summary(self) -> str:
        names = ",".join(sorted(self.patterns)) or "none"
        providers = ",".join(sorted({fl.provider for fl in self.flash_loans}))
        return (
            f"tx={self.tx_hash[:10]} providers={providers} patterns={names} "
            f"trades={len(self.trades)} volatility={self.volatility():.4f}"
        )
