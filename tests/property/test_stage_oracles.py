"""Differential tests: detector stages against their loop references.

The merge fixpoint of ``TransferSimplifier``, ``FlashLoanIdentifier``
and ``TradeIdentifier`` were rewritten for speed, and so were the
middle-trade searches of SBS and SANDWICH, the series walk of KRP, the
round search of DONATION, and the lifting of account-level transfers,
once tagging, then simplification, now one pass. The earlier code is
kept below unchanged as references, and generated inputs must give
equal output from both:

- transfer lists with relay chains of 2-5 hops, amounts at the merge
  tolerance border, ``None`` tags, BlackHole legs and ``A -> I -> A``
  loops; for the lifting pass, the same shapes as account-level
  transfers over a chain with labelled and conflicting creation trees,
  a Wrapped Ether contract and fee burns, under each of the eight rule
  toggles and with application-level transfers off;
- traces with several swaps open at once, duplicate providers and
  incomplete provider fingerprints;
- trade lists of up to 60 trades in two quote tokens and on two venues,
  with tied seqs, amounts at the pattern's tolerance border, zero
  amounts (infinite rates), wei-scale amounts, and amounts whose rate
  overflows a float. The searches must return the same match, the very
  same trades, or raise the same exception;
- for KRP and DONATION, trade lists with tied seqs, rates that rise,
  plateau and dip, zero amounts, and amounts at the tolerance and gain
  borders.

The pass order of the merge decides which hops merge, and the
tolerance test is a division: both are pinned by explicit examples.
"""

from __future__ import annotations

import itertools
from typing import Iterable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain import ZERO_ADDRESS, Address, Chain, Contract, ETHER
from repro.chain.trace import CallRecord, LogRecord, TransactionTrace, TransferRecord
from repro.leishen import (
    ALL_PATTERN_KEYS,
    BLACKHOLE_TAG,
    AccountTagger,
    AppTransfer,
    AttackReport,
    FlashLoanIdentifier,
    LeiShen,
    LeiShenConfig,
    PatternSettings,
    SimplifierConfig,
    TradeIdentifier,
    TransferSimplifier,
)
from repro.leishen.identify import FlashLoan
from repro.leishen.registry import (
    DonationInflation,
    KeepRaisingPrice,
    SandwichFrontrun,
    SymmetricBuySell,
    _match,
)
from repro.leishen.trades import Trade, TradeKind
from tests.tagged import TaggedTransfer

TOLERANCE = SimplifierConfig().merge_tolerance
TOKENS = (ETHER, *(Address("0x" + f"{i:02x}" * 20) for i in (1, 2, 3)))
TAGS = ("A", "B", "C", "I1", "I2", "I3", BLACKHOLE_TAG, None)
ACCOUNTS = tuple(Address("0x" + f"{i:02x}" * 20) for i in (0x10, 0x11, 0x12, 0x13))


# -- references: the loops before the rewrite ----------------------------------


class ReferenceSimplifier(TransferSimplifier):
    """The merge fixpoint with ``_mergeable`` and ``_remove_intra_app``."""

    @staticmethod
    def _remove_intra_app(transfers: Iterable[AppTransfer]) -> list[AppTransfer]:
        return [
            t
            for t in transfers
            if t.sender is None or t.receiver is None or t.sender != t.receiver
        ]

    def _merge_inter_app(self, transfers: list[AppTransfer]) -> list[AppTransfer]:
        """Collapse A->I->B chains; iterates to a fixpoint so longer relay
        chains (A->I1->I2->B) also merge."""
        tolerance = self.config.merge_tolerance
        changed = True
        while changed:
            changed = False
            merged: list[AppTransfer] = []
            i = 0
            while i < len(transfers):
                current = transfers[i]
                if i + 1 < len(transfers):
                    nxt = transfers[i + 1]
                    if self._mergeable(current, nxt, tolerance):
                        merged.append(
                            AppTransfer(
                                seq=current.seq,
                                sender=current.sender,
                                receiver=nxt.receiver,
                                amount=nxt.amount,
                                token=current.token,
                            )
                        )
                        i += 2
                        changed = True
                        continue
                merged.append(current)
                i += 1
            transfers = merged
            if self.config.remove_intra_app and changed:
                # A merge can surface a new intra-app transfer
                # (A -> I -> A); keep the stream clean between passes.
                transfers = self._remove_intra_app(transfers)
        return transfers

    @staticmethod
    def _mergeable(first: AppTransfer, second: AppTransfer, tolerance: float) -> bool:
        if first.token != second.token:
            return False
        if first.receiver is None or first.receiver != second.sender:
            return False
        if first.receiver in (first.sender, second.receiver):
            return False  # not an intermediary hop
        big = max(first.amount, second.amount)
        if big == 0:
            return False
        return abs(first.amount - second.amount) / big <= tolerance


class ReferenceIdentifier:
    """Flash-loan identification as three provider scans."""

    def identify(self, trace: TransactionTrace) -> list[FlashLoan]:
        loans: list[FlashLoan] = []
        loans.extend(self._identify_uniswap(trace))
        loans.extend(self._identify_aave(trace))
        loans.extend(self._identify_dydx(trace))
        return loans

    def _identify_uniswap(self, trace: TransactionTrace) -> list[FlashLoan]:
        loans: list[FlashLoan] = []
        open_swaps: list = []
        for call in trace.calls:
            if call.function == "swap":
                open_swaps.append(call)
            elif call.function == "uniswapV2Call":
                matching = [c for c in open_swaps if c.callee == call.caller]
                if not matching:
                    continue
                swap_call = matching[-1]
                token, amount = self._loaned_asset(trace, swap_call.callee, call.callee, call.seq)
                loans.append(
                    FlashLoan(
                        provider="Uniswap",
                        provider_account=swap_call.callee,
                        borrower=call.callee,
                        token=token,
                        amount=amount,
                    )
                )
        return loans

    def _identify_aave(self, trace: TransactionTrace) -> list[FlashLoan]:
        if "flashLoan" not in trace.called_functions():
            return []
        loans: list[FlashLoan] = []
        for log in trace.logs:
            if log.event == "FlashLoan":
                loans.append(
                    FlashLoan(
                        provider="AAVE",
                        provider_account=log.emitter,
                        borrower=log.param("target"),
                        token=log.param("reserve"),
                        amount=log.param("amount", 0),
                    )
                )
        return loans

    def _identify_dydx(self, trace: TransactionTrace) -> list[FlashLoan]:
        events = trace.emitted_events()
        required = {"LogOperation", "LogWithdraw", "LogCall", "LogDeposit"}
        if not required <= events:
            return []
        loans: list[FlashLoan] = []
        for log in trace.logs:
            if log.event == "LogWithdraw":
                loans.append(
                    FlashLoan(
                        provider="dYdX",
                        provider_account=log.emitter,
                        borrower=log.param("account"),
                        token=log.param("market"),
                        amount=log.param("amount", 0),
                    )
                )
        return loans

    @staticmethod
    def _loaned_asset(
        trace: TransactionTrace, pair: Address, borrower: Address, before_seq: int
    ) -> tuple[Address, int]:
        """The optimistic transfer a pair sent the borrower before calling back."""
        for transfer in reversed(trace.transfers):
            if (
                transfer.seq < before_seq
                and transfer.sender == pair
                and transfer.receiver == borrower
            ):
                return transfer.token, transfer.amount
        # Flash swap where funds were sent elsewhere: fall back to unknown.
        return Address("0x" + "0" * 40), 0


class ReferenceTradeIdentifier(TradeIdentifier):
    """The windowed scan with list-taking ``_match2`` / ``_match3``."""

    def identify(self, transfers: list[AppTransfer]) -> list[Trade]:
        transfers = ReferenceLifting.strip_fee_burns(transfers)
        trades: list[Trade] = []
        i = 0
        n = len(transfers)
        while i < n:
            window3 = transfers[i : i + 3]
            trade = self._match3(window3) if len(window3) == 3 else None
            if trade is not None:
                trades.append(trade)
                i += 3
                continue
            window2 = transfers[i : i + 2]
            trade = self._match2(window2) if len(window2) == 2 else None
            if trade is not None:
                trades.append(trade)
                i += 2
                continue
            i += 1
        return trades

    def _match2(self, pair: list[AppTransfer]) -> Trade | None:
        t1, t2 = pair
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

    def _match3(self, triple: list[AppTransfer]) -> Trade | None:
        t1, t2, t3 = triple
        if any(t.sender is None or t.receiver is None for t in triple):
            return None
        if len({t1.token, t2.token, t3.token}) != 3:
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


class ReferenceSymmetricBuySell(SymmetricBuySell):
    """SBS with the cubic own buy x own sell x any buy loop."""

    def _find_triple(self, token, own_buys, own_sells, any_buys, *, tol, min_volatility):
        for t1 in own_buys:
            for t3 in own_sells:
                if t3.seq <= t1.seq:
                    continue
                if t1.token_sell != t3.token_buy:
                    continue  # different quote currency; rates not comparable
                big = max(t1.amount_buy, t3.amount_sell)
                if big == 0 or abs(t1.amount_buy - t3.amount_sell) / big > tol:
                    continue
                for t2 in any_buys:
                    if not (t1.seq < t2.seq < t3.seq) or t2 is t1:
                        continue
                    if t2.token_sell != t1.token_sell:
                        continue
                    p1, p2 = t1.sell_rate, t2.sell_rate
                    p3 = t3.amount_buy / t3.amount_sell if t3.amount_sell else float("inf")
                    if not (p1 < p3 < p2):
                        continue
                    if p1 <= 0 or (p2 - p1) / p1 < min_volatility:
                        continue
                    return _match(
                        self.key,
                        token,
                        (t1, t2, t3),
                        (
                            ("buy_rate", p1),
                            ("raise_rate", p2),
                            ("sell_rate", p3),
                            ("volatility", (p2 - p1) / p1),
                        ),
                    )
        return None


class ReferenceSandwich(SandwichFrontrun):
    """SANDWICH with the cubic own buy x own sell x victim buy loop."""

    def _find_sandwich(self, token, own_buys, own_sells, victim_buys, tol):
        for t1 in own_buys:
            for t3 in own_sells:
                if t3.seq <= t1.seq:
                    continue
                if t1.token_sell != t3.token_buy:
                    continue  # different quote; rates not comparable
                if t1.seller != t3.seller:
                    continue  # frontrun and backrun hit the same venue
                big = max(t1.amount_buy, t3.amount_sell)
                if big == 0 or abs(t1.amount_buy - t3.amount_sell) / big > tol:
                    continue
                if t3.buy_rate <= t1.sell_rate:
                    continue  # exit not profitable; no sandwich payoff
                for t2 in victim_buys:
                    if not (t1.seq < t2.seq < t3.seq):
                        continue
                    if t2.seller != t1.seller or t2.token_sell != t1.token_sell:
                        continue
                    if t2.sell_rate < t1.sell_rate:
                        continue  # victim paid less than the frontrun; no squeeze
                    return _match(
                        self.key,
                        token,
                        (t1, t2, t3),
                        (
                            ("front_rate", t1.sell_rate),
                            ("victim_rate", t2.sell_rate),
                            ("exit_rate", t3.buy_rate),
                        ),
                    )
        return None


class ReferenceKeepRaisingPrice(KeepRaisingPrice):
    """KRP rebuilding the prior buys and their per-seller series per sell."""

    def match(self, trades, borrower, params):
        min_buys = params["min_buys"]
        matches = []
        for token in {t.token_buy: None for t in trades if t.buyer == borrower}:
            buys = [t for t in trades if t.buyer == borrower and t.token_buy == token]
            sells = [t for t in trades if t.buyer == borrower and t.token_sell == token]
            if not sells:
                continue
            for sell in sells:
                prior = [b for b in buys if b.seq < sell.seq]
                by_seller: dict = {}
                for buy in prior:
                    by_seller.setdefault(buy.seller, []).append(buy)
                for seller, series in by_seller.items():
                    if len(series) < min_buys:
                        continue
                    rates = [buy.sell_rate for buy in series]
                    rising = rates[0] < rates[-1] and all(
                        earlier <= later for earlier, later in zip(rates, rates[1:])
                    )
                    first, last = series[0], series[-1]
                    if rising:
                        matches.append(
                            _match(
                                self.key,
                                token,
                                (*series, sell),
                                (
                                    ("n_buys", len(series)),
                                    ("first_rate", first.sell_rate),
                                    ("last_rate", last.sell_rate),
                                    ("seller", str(seller)),
                                ),
                            )
                        )
                        break  # one match per (token, sell) is enough
                else:
                    continue
                break  # token matched; move on
        return matches


class ReferenceDonation(DonationInflation):
    """DONATION trying every deposit against every removal."""

    def match(self, trades, borrower, params):
        tol = params["amount_tolerance"]
        min_gain = params["min_gain"]
        matches = []
        deposits = [
            t for t in trades if t.buyer == borrower and t.kind is TradeKind.MINT_LIQUIDITY
        ]
        removals = [
            t for t in trades if t.buyer == borrower and t.kind is TradeKind.REMOVE_LIQUIDITY
        ]
        seen: set = set()
        for t1 in deposits:
            if t1.token_buy in seen:
                continue
            for t2 in removals:
                if t2.seq <= t1.seq:
                    continue
                if t2.token_sell != t1.token_buy or t2.token_buy != t1.token_sell:
                    continue  # not the same share/underlying pair
                if t1.seller != t2.seller:
                    continue
                big = max(t1.amount_buy, t2.amount_sell)
                if big == 0 or abs(t1.amount_buy - t2.amount_sell) / big > tol:
                    continue  # share amounts must round-trip
                if t1.amount_sell <= 0:
                    continue
                gain = (t2.amount_buy - t1.amount_sell) / t1.amount_sell
                if gain < min_gain:
                    continue
                seen.add(t1.token_buy)
                matches.append(
                    _match(
                        self.key,
                        t1.token_buy,
                        (t1, t2),
                        (
                            ("gain", gain),
                            ("deposit", float(t1.amount_sell)),
                        ),
                    )
                )
                break
        return matches


class ReferenceLifting:
    """Lifting as two stages: every transfer tagged into a
    ``TaggedTransfer`` list, then rules 1-2 as a filter and rule 3 as
    :class:`ReferenceSimplifier`'s fixpoint; fee burns stripped by a
    copy that is always made."""

    def __init__(self, tagger: AccountTagger, config: SimplifierConfig) -> None:
        self.tagger = tagger
        self.config = config

    def tag_transfers(self, transfers) -> list[TaggedTransfer]:
        tag_of = self.tagger.tag_of
        return [
            TaggedTransfer(
                t.seq, tag_of(t.sender), tag_of(t.receiver), t.amount, t.token,
                t.sender, t.receiver,
            )
            for t in transfers
        ]

    def simplify(self, tagged: list[TaggedTransfer]) -> list[AppTransfer]:
        cfg = self.config
        transfers = []
        for t in tagged:
            sender = t.tag_sender
            receiver = t.tag_receiver
            if cfg.remove_intra_app and sender is not None and sender == receiver:
                continue
            if cfg.remove_weth:
                if sender == cfg.weth_tag or receiver == cfg.weth_tag:
                    continue
                token = ETHER if t.token in cfg.weth_tokens else t.token
            else:
                token = t.token
            transfers.append(AppTransfer(t.seq, sender, receiver, t.amount, token))
        if cfg.merge_inter_app:
            transfers = ReferenceSimplifier(cfg)._merge_inter_app(transfers)
        return transfers

    @staticmethod
    def strip_fee_burns(transfers: list[AppTransfer]) -> list[AppTransfer]:
        cleaned = []
        for idx, transfer in enumerate(transfers):
            if (
                transfer.receiver == BLACKHOLE_TAG
                and idx > 0
                and (prev := transfers[idx - 1]).token == transfer.token
                and transfer.sender in (prev.sender, prev.receiver)
                and transfer.amount <= prev.amount * TradeIdentifier.FEE_BURN_RATIO
            ):
                continue
            cleaned.append(transfer)
        return cleaned


class ReferenceLeiShen(LeiShen):
    """``analyze`` with the two-stage lifting: the ablation
    (``use_app_level_transfers=False``) still tags every transfer, then
    drops the tags."""

    def analyze(self, trace: TransactionTrace) -> AttackReport | None:
        if not trace.success:
            return None
        flash_loans = self.identifier.identify(trace)
        if not flash_loans:
            return None
        borrowers = tuple(dict.fromkeys(loan.borrower for loan in flash_loans))
        lifting = ReferenceLifting(self.tagger, self.config.simplifier)
        tagged = lifting.tag_transfers(trace.transfers)
        if self.config.use_app_level_transfers:
            app_transfers = lifting.simplify(tagged)
            borrower_tags = tuple(map(self.tagger.tag_of, borrowers))
        else:
            app_transfers = [
                AppTransfer(
                    t.seq, str(t.sender),
                    str(t.receiver) if t.receiver != ZERO_ADDRESS else "BlackHole",
                    t.amount, t.token,
                )
                for t in trace.transfers
            ]
            borrower_tags = tuple(map(str, borrowers))
        trades = ReferenceTradeIdentifier().identify(app_transfers)
        matches = []
        for tag in dict.fromkeys(borrower_tags):
            if tag is not None:
                matches.extend(self.matcher.match(trades, tag))
        return AttackReport(
            trace.tx_hash, flash_loans, borrowers[0], borrower_tags[0], trades,
            matches, borrowers, borrower_tags, None, trace,
        )


# -- generators -------------------------------------------------------------------


@st.composite
def border_amount(draw, previous: int) -> int:
    """An amount whose relative distance to ``previous`` sits at the
    tolerance border, on either side of it."""
    if draw(st.booleans()):
        # larger: d / (previous + d) <= tolerance  <=>  d <= previous * t / (1 - t)
        step = int(previous * TOLERANCE / (1 - TOLERANCE))
    else:
        step = -int(previous * TOLERANCE)
    return max(0, previous + step + draw(st.integers(-2, 2)))


@st.composite
def relay_chain(draw) -> list[tuple]:
    """``A -> I1 -> ... -> B`` over 2-5 hops, amounts at the border."""
    hops = draw(st.integers(2, 5))
    tags = [draw(st.sampled_from(TAGS)) for _ in range(hops + 1)]
    if draw(st.booleans()):
        tags[-1] = tags[0]  # A -> I -> ... -> A: the merge surfaces a loop
    token = draw(st.sampled_from(TOKENS))
    amount = draw(st.one_of(st.integers(0, 10**6), st.integers(10**17, 10**25)))
    legs = []
    for sender, receiver in zip(tags, tags[1:]):
        legs.append((sender, receiver, amount, token))
        amount = draw(border_amount(amount))
    return legs


single_leg = st.tuples(
    st.sampled_from(TAGS),
    st.sampled_from(TAGS),
    st.one_of(st.integers(0, 10**6), st.integers(10**17, 10**25)),
    st.sampled_from(TOKENS),
)

transfer_lists = st.lists(
    st.one_of(relay_chain(), single_leg.map(lambda leg: [leg])), max_size=8
).map(
    lambda groups: [
        AppTransfer(seq, *leg)
        for seq, leg in enumerate(leg for group in groups for leg in group)
    ]
)


@st.composite
def traces(draw) -> TransactionTrace:
    """Calls, logs and transfers drawn from a small account pool, so
    swaps on one pair overlap, callbacks miss, and providers repeat."""
    account = st.sampled_from(ACCOUNTS)
    kinds = draw(st.lists(
        st.sampled_from(("call", "log", "transfer", "flash_swap", "dydx")), max_size=30
    ))
    trace = TransactionTrace(
        tx_hash="0x" + "ab" * 32, sender=ACCOUNTS[0], to=ACCOUNTS[1],
        function="attack", block_number=1, timestamp=0,
    )
    seq = 0
    for kind in kinds:
        if kind == "call":
            function = draw(st.sampled_from(("swap", "uniswapV2Call", "flashLoan", "transfer")))
            trace.calls.append(
                CallRecord(seq, draw(account), draw(account), function, draw(st.integers(0, 3)))
            )
        elif kind == "flash_swap":
            # swap on a pair, the optimistic transfer, the callback
            pair, borrower = draw(account), draw(account)
            trace.calls.append(CallRecord(seq, draw(account), pair, "swap", 1))
            trace.transfers.append(TransferRecord(
                seq + 1, pair, borrower, draw(st.integers(0, 100)), draw(st.sampled_from(TOKENS)),
            ))
            trace.calls.append(CallRecord(seq + 2, pair, borrower, "uniswapV2Call", 2))
            seq += 2
        elif kind == "transfer":
            trace.transfers.append(TransferRecord(
                seq, draw(account), draw(account), draw(st.integers(0, 100)),
                draw(st.sampled_from(TOKENS)),
            ))
        else:
            events = (
                ("LogOperation", "LogWithdraw", "LogCall", "LogDeposit")
                if kind == "dydx"
                else (draw(st.sampled_from(
                    ("FlashLoan", "LogOperation", "LogWithdraw", "LogCall", "LogDeposit", "Swap")
                )),)
            )
            for event in events:
                names = draw(st.lists(
                    st.sampled_from(("target", "reserve", "account", "market", "amount")),
                    unique=True,
                ))
                params = tuple((name, seq if name == "amount" else draw(account)) for name in names)
                trace.logs.append(LogRecord(seq, draw(account), event, params))
                seq += 1
        seq += 1
    return trace


PARTIES = ("A", "B", "C", BLACKHOLE_TAG, None)
#: small amounts, so fee burns (<= 20% of the previous leg) sit at the border
trade_amount = st.sampled_from((0, 1, 4, 5, 6, 20, 25, 100))


@st.composite
def trade_shape(draw) -> list[tuple]:
    """One of Table III's two- and three-transfer shapes, sometimes with
    a repeated token or its legs in reverse order, so it may not match."""
    a = draw(st.sampled_from(PARTIES))
    b = draw(st.sampled_from(PARTIES))
    t1, t2, t3 = draw(st.permutations(TOKENS))[:3]
    if draw(st.booleans()):
        t3 = draw(st.sampled_from((t1, t2)))
    shape = draw(st.sampled_from(("swap2", "swap3", "mint2", "mint3", "remove2", "remove3")))
    legs = {
        "swap2": [(a, b, t1), (b, a, t2)],
        "swap3": [(a, b, t1), (b, a, t2), (b, a, t3)],
        "mint2": [(a, b, t1), (BLACKHOLE_TAG, a, t2)],
        "mint3": [(a, b, t1), (a, b, t2), (BLACKHOLE_TAG, a, t3)],
        "remove2": [(a, BLACKHOLE_TAG, t1), (b, a, t2)],
        "remove3": [(a, BLACKHOLE_TAG, t1), (b, a, t2), (b, a, t3)],
    }[shape]
    if draw(st.booleans()):
        legs.reverse()
    return [(sender, receiver, draw(trade_amount), token) for sender, receiver, token in legs]


trade_lists = st.lists(
    st.one_of(
        trade_shape(),
        st.tuples(
            st.sampled_from(PARTIES), st.sampled_from(PARTIES), trade_amount,
            st.sampled_from(TOKENS),
        ).map(lambda leg: [leg]),
    ),
    max_size=8,
).map(
    lambda groups: [
        AppTransfer(seq, *leg)
        for seq, leg in enumerate(leg for group in groups for leg in group)
    ]
)


BORROWER = "B"
TARGET, QUOTES = TOKENS[1], TOKENS[2:]
#: small amounts make tied and bordering rates likely; 0 makes them infinite
SMALL_AMOUNTS = (0, 1, 2, 3, 5, 7, 9, 10, 13, 20, 100)
wei_amount = st.integers(10**17, 10**25)
#: a rate of this over a small amount does not fit a float
OVERFLOW_AMOUNT = 10**400
#: (buyer, venue, quote, the buyer buys the target), skewed so that the
#: borrower, venue V1 and the first quote come up most
TRADE_SHAPES = tuple(itertools.product(
    (BORROWER, BORROWER, "C", "D"), ("V1", "V1", "V2"), (*QUOTES, QUOTES[0]),
    (True, False),
))
MAX_SEQ = 30


@st.composite
def pattern_trades(draw, tolerance: float) -> list[Trade]:
    """Up to 60 swaps of one target token against two quotes, sorted by
    seq with ties, by the borrower and two other buyers on two venues.

    Target amounts often sit at the ``tolerance`` border of one base, so
    round trips pass the amount test. The other amounts are small, or
    two wei-scale draws; in a quarter of the lists, one in six is an
    amount whose rates overflow. Each trade is one integer draw, decoded into
    seq, shape and amounts, which keeps a 60-trade list cheap to draw.
    """
    base = draw(st.one_of(st.integers(1, 100), wei_amount))
    amounts = [*SMALL_AMOUNTS, *draw(st.lists(wei_amount, min_size=2, max_size=2))]
    if draw(st.integers(0, 3)) == 3:
        amounts += [OVERFLOW_AMOUNT] * 3
    up, down = int(base * tolerance / (1 - tolerance)), -int(base * tolerance)
    targets = [
        max(0, base + step + jitter) for step in (0, up, down) for jitter in (-2, 0, 2)
    ] + amounts
    count = draw(st.integers(0, 60))
    codes = draw(st.lists(
        st.integers(0, (MAX_SEQ + 1) * len(TRADE_SHAPES) * len(targets) * len(amounts) - 1),
        min_size=count,
        max_size=count,
    ))
    trades = []
    for code in codes:
        code, seq = divmod(code, MAX_SEQ + 1)
        code, shape = divmod(code, len(TRADE_SHAPES))
        target_index, amount_index = divmod(code, len(amounts))
        buyer, seller, quote, buys_target = TRADE_SHAPES[shape]
        target_amount, quote_amount = targets[target_index], amounts[amount_index]
        if buys_target:
            legs = (quote_amount, quote, target_amount, TARGET)
        else:
            legs = (target_amount, TARGET, quote_amount, quote)
        trades.append(Trade(seq, TradeKind.SWAP, buyer, seller, *legs))
    # sorted by seq, as the matcher hands trades to every plugin
    trades.sort(key=lambda trade: trade.seq)
    return trades


def _outcome(plugin, trades, params=None):
    """A plugin's matches with the identity of each matched trade, or the
    exception it raised."""
    try:
        matches = plugin.match(trades, BORROWER, params or plugin.defaults)
    except OverflowError as exc:
        return ("raised", str(exc))
    return matches, [[id(trade) for trade in match.trades] for match in matches]


class _Account(Contract):
    """A contract that only holds a place in a creation tree."""


def _lifting_world() -> tuple[Chain, tuple[Address, ...]]:
    """A chain whose accounts cover every tagging case, and the accounts:
    plain EOAs (own-address tags), a labelled and an unlabelled creation
    tree (an application name; the root's address), a tree whose labels
    conflict (``None``), an intermediary app, Wrapped Ether and the
    BlackHole."""
    chain = Chain()
    accounts = [chain.create_eoa(), chain.create_eoa()]
    uniswap = chain.create_eoa(label="Uniswap: Deployer")
    accounts += [uniswap, chain.deploy(uniswap, _Account).address]
    kyber = chain.deploy(chain.create_eoa(), _Account, label="Kyber: Proxy").address
    accounts += [kyber, chain.deploy(kyber, _Account).address]
    root = chain.create_eoa()
    accounts += [chain.deploy(root, _Account).address, chain.deploy(root, _Account).address]
    yearn = chain.create_eoa(label="Yearn: Deployer")
    mid = chain.deploy(yearn, _Account).address
    accounts += [mid, chain.deploy(mid, _Account, label="Curve: Pool").address]
    weth = chain.deploy(chain.create_eoa(), _Account, label="Wrapped Ether: WETH").address
    accounts += [weth, ZERO_ADDRESS]
    return chain, tuple(accounts)


LIFTING_CHAIN, LIFTING_ACCOUNTS = _lifting_world()
WETH_TOKEN = TOKENS[3]
lifting_account = st.sampled_from(LIFTING_ACCOUNTS)
lifting_amount = st.one_of(st.integers(0, 10**6), st.integers(10**17, 10**25))


@st.composite
def account_relay(draw) -> list[tuple]:
    """``A -> I1 -> ... -> B`` between accounts over 2-5 hops, amounts at
    the merge border; sometimes back to ``A``, sometimes with a fee burn
    from a hop's sender."""
    hops = draw(st.integers(2, 5))
    path = [draw(lifting_account) for _ in range(hops + 1)]
    if draw(st.booleans()):
        path[-1] = path[0]
    token = draw(st.sampled_from(TOKENS))
    amount = draw(lifting_amount)
    legs = []
    for sender, receiver in zip(path, path[1:]):
        legs.append((sender, receiver, amount, token))
        if draw(st.integers(0, 5)) == 0:
            legs.append((sender, ZERO_ADDRESS, amount // draw(st.sampled_from((4, 5, 6))), token))
        amount = draw(border_amount(amount))
    return legs


account_leg = st.tuples(
    lifting_account, lifting_account, lifting_amount, st.sampled_from(TOKENS)
)

account_transfers = st.lists(
    st.one_of(account_relay(), account_leg.map(lambda leg: [leg])), max_size=8
).map(
    lambda groups: [
        TransferRecord(seq, *leg)
        for seq, leg in enumerate(leg for group in groups for leg in group)
    ]
)

#: (remove_intra_app, remove_weth, merge_inter_app): all eight
RULE_TOGGLES = list(itertools.product((True, False), repeat=3))


def _simplifier_config(toggles) -> SimplifierConfig:
    intra, weth, merge = toggles
    return SimplifierConfig(
        weth_tokens=frozenset({WETH_TOKEN}),
        remove_intra_app=intra, remove_weth=weth, merge_inter_app=merge,
    )


def _flash_loan_trace(borrower: Address, transfers: list[TransferRecord]) -> TransactionTrace:
    """``transfers`` in a transaction with AAVE's fingerprint for ``borrower``."""
    seq = len(transfers)
    trace = TransactionTrace(
        tx_hash="0x" + "cd" * 32, sender=LIFTING_ACCOUNTS[0], to=borrower,
        function="attack", block_number=1, timestamp=0,
    )
    trace.transfers.extend(transfers)
    trace.calls.append(CallRecord(seq, LIFTING_ACCOUNTS[0], LIFTING_ACCOUNTS[1], "flashLoan", 0))
    trace.logs.append(LogRecord(
        seq + 1, LIFTING_ACCOUNTS[1], "FlashLoan",
        (("target", borrower), ("reserve", TOKENS[1]), ("amount", 10)),
    ))
    return trace


#: KRP's series: buys of the target from sellers V1-V3, each rate a step
#: up, a plateau or a dip from the seller's last; zero amounts give rates
#: of 0 and infinity, and an overflowing amount a rate that raises.
KRP_STEPS = ("up", "up", "up", "flat", "flat", "dip", "zero_buy", "zero_sell", "overflow")
KRP_EVENTS = ("buy", "buy", "buy", "sell", "other_token", "other_buyer")


@st.composite
def krp_trades(draw) -> list[Trade]:
    """Up to 40 swaps in seq order with ties: the borrower's buys of the
    target and of a second token, its sells of both, and another
    buyer's trades."""
    other = QUOTES[1]
    rates: dict = {}
    trades = []
    seq = 0
    for _ in range(draw(st.integers(0, 40))):
        seq += draw(st.sampled_from((0, 1, 1)))
        event = draw(st.sampled_from(KRP_EVENTS))
        seller = draw(st.sampled_from(("V1", "V2", "V3")))
        token = other if event == "other_token" and draw(st.booleans()) else TARGET
        buyer = "C" if event == "other_buyer" else BORROWER
        if event == "sell" or (event == "other_token" and draw(st.booleans())):
            trades.append(Trade(seq, TradeKind.SWAP, buyer, seller, 10, token, 15, QUOTES[0]))
            continue
        step = draw(st.sampled_from(KRP_STEPS))
        level = rates.get(seller, 10)
        level = {"up": level + draw(st.integers(1, 3)), "dip": max(1, level - 1)}.get(step, level)
        rates[seller] = level
        amount_sell, amount_buy = {
            "zero_buy": (level, 0), "zero_sell": (0, 5), "overflow": (10**400, 1),
        }.get(step, (level, 5))
        trades.append(Trade(
            seq, TradeKind.SWAP, buyer, seller, amount_sell, QUOTES[0], amount_buy, token,
        ))
    return trades


DONATION_TOLERANCE = DonationInflation.defaults["amount_tolerance"]
DONATION_GAIN = DonationInflation.defaults["min_gain"]


#: (venue, share token, underlying) of a round, skewed to the first
DONATION_KEYS = (
    ("V1", TOKENS[1], ETHER), ("V1", TOKENS[1], ETHER), ("V1", TOKENS[2], ETHER),
    ("V2", TOKENS[1], ETHER), ("V1", TOKENS[1], TOKENS[3]),
)


@st.composite
def donation_trades(draw) -> list[Trade]:
    """Up to 30 mints and removals in seq order with ties, by the
    borrower and another buyer, over a few (venue, share, underlying)
    keys; share amounts at the tolerance border, payouts at the gain
    border, and zero amounts."""
    trades = []
    seq = 0
    for _ in range(draw(st.integers(0, 30))):
        seq += draw(st.sampled_from((0, 1, 1)))
        buyer = draw(st.sampled_from((BORROWER, BORROWER, "C")))
        venue, share, underlying = draw(st.sampled_from(DONATION_KEYS))
        base = draw(st.sampled_from((0, 1000, 10**18)))
        deposit = draw(st.sampled_from((0, 1000, 4000)))
        if draw(st.booleans()):
            trades.append(Trade(
                seq, TradeKind.MINT_LIQUIDITY, buyer, venue, deposit, underlying, base, share,
            ))
        else:
            shares_back = draw(border_amount(base)) if base else 0
            payout = deposit + int(deposit * DONATION_GAIN) + draw(st.integers(-2, 2))
            trades.append(Trade(
                seq, TradeKind.REMOVE_LIQUIDITY, buyer, venue,
                shares_back, share, max(0, payout), underlying,
            ))
    return trades


# -- the differential tests ----------------------------------------------------------

#: wei-scale amounts one relative tolerance apart: ``d / big <= 0.001``
#: holds, the product form ``d <= 0.001 * big`` does not.
BORDER_BIG = 9_662_122_087_363_330_367
BORDER_DIFF = 9_662_122_087_363_331


def _merge(simplifier_type, transfers, **config):
    return simplifier_type(SimplifierConfig(**config))._merge_inter_app(list(transfers))


class TestMergeFixpoint:
    def test_four_hop_relay_merges_pairwise(self):
        # One pass merges (A, I1)+(I1, I2) and (I2, I3)+(I3, B); the two
        # results are 0.18% apart, so the fixpoint stops there. A single
        # stack sweep would fold all four hops into A -> B.
        token = TOKENS[1]
        relay = [
            AppTransfer(1, "A", "I1", 100_000, token),
            AppTransfer(2, "I1", "I2", 100_090, token),
            AppTransfer(3, "I2", "I3", 100_180, token),
            AppTransfer(4, "I3", "B", 100_270, token),
        ]
        expected = [
            AppTransfer(1, "A", "I2", 100_090, token),
            AppTransfer(3, "I2", "B", 100_270, token),
        ]
        assert _merge(TransferSimplifier, relay) == expected
        assert _merge(ReferenceSimplifier, relay) == expected

    def test_tolerance_is_a_division(self):
        assert BORDER_DIFF / BORDER_BIG <= TOLERANCE
        assert not BORDER_DIFF <= TOLERANCE * BORDER_BIG
        token = TOKENS[2]
        hop = [
            AppTransfer(1, "A", "I1", BORDER_BIG, token),
            AppTransfer(2, "I1", "B", BORDER_BIG - BORDER_DIFF, token),
        ]
        expected = [AppTransfer(1, "A", "B", BORDER_BIG - BORDER_DIFF, token)]
        assert _merge(TransferSimplifier, hop) == expected
        assert _merge(ReferenceSimplifier, hop) == expected

    @given(transfer_lists, st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, transfers, remove_intra_app):
        assert _merge(TransferSimplifier, transfers, remove_intra_app=remove_intra_app) == (
            _merge(ReferenceSimplifier, transfers, remove_intra_app=remove_intra_app)
        )


class TestFlashLoanIdentifier:
    @given(traces())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, trace):
        assert FlashLoanIdentifier().identify(trace) == ReferenceIdentifier().identify(trace)


class TestTradeIdentifier:
    @given(trade_lists)
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, transfers):
        assert TradeIdentifier().identify(transfers) == (
            ReferenceTradeIdentifier().identify(transfers)
        )


class TestMiddleTradeSearch:
    @given(pattern_trades(SymmetricBuySell.defaults["amount_tolerance"]))
    @settings(max_examples=300, deadline=None)
    def test_sbs_matches_reference(self, trades):
        assert _outcome(SymmetricBuySell(), trades) == (
            _outcome(ReferenceSymmetricBuySell(), trades)
        )

    @given(pattern_trades(SandwichFrontrun.defaults["amount_tolerance"]))
    @settings(max_examples=300, deadline=None)
    def test_sandwich_matches_reference(self, trades):
        assert _outcome(SandwichFrontrun(), trades) == (
            _outcome(ReferenceSandwich(), trades)
        )

    @staticmethod
    def _swap(seq, buyer, amount_sell, token_sell, amount_buy, token_buy, seller="V1"):
        return Trade(seq, TradeKind.SWAP, buyer, seller, amount_sell, token_sell,
                     amount_buy, token_buy)

    def test_first_middle_trade_wins(self):
        # two t2 candidates pass; the earlier one, not the dearer, is t2
        q = QUOTES[0]
        trades = [
            self._swap(0, BORROWER, 10, q, 10, TARGET),
            self._swap(1, "C", 20, q, 10, TARGET),
            self._swap(2, "C", 40, q, 10, TARGET),
            self._swap(3, BORROWER, 10, TARGET, 15, q),
        ]
        for plugin, reference in (
            (SymmetricBuySell(), ReferenceSymmetricBuySell()),
            (SandwichFrontrun(), ReferenceSandwich()),
        ):
            (match,) = plugin.match(trades, BORROWER, plugin.defaults)
            assert match.trades[1] is trades[1]
            assert _outcome(plugin, trades) == _outcome(reference, trades)

    def test_tied_seqs_are_outside_the_interval(self):
        # t2 must lie strictly between t1 and t3: buys tied with either
        # end are no candidates, however dear
        q = QUOTES[0]
        trades = [
            self._swap(0, BORROWER, 10, q, 10, TARGET),
            self._swap(0, "C", 40, q, 10, TARGET),
            self._swap(3, "C", 40, q, 10, TARGET),
            self._swap(3, BORROWER, 10, TARGET, 15, q),
        ]
        for plugin, reference in (
            (SymmetricBuySell(), ReferenceSymmetricBuySell()),
            (SandwichFrontrun(), ReferenceSandwich()),
        ):
            assert plugin.match(trades, BORROWER, plugin.defaults) == []
            assert _outcome(plugin, trades) == _outcome(reference, trades)

    def test_volatility_bound_is_inclusive(self):
        # p1 = 25, p3 = 30, p2 = 32: (32 - 25) / 25 is 0.28 to the bit
        q = QUOTES[0]
        trades = [
            self._swap(0, BORROWER, 25, q, 1, TARGET),
            self._swap(1, "C", 32, q, 1, TARGET),
            self._swap(2, BORROWER, 1, TARGET, 30, q),
        ]
        plugin = SymmetricBuySell()
        (match,) = plugin.match(trades, BORROWER, plugin.defaults)
        assert match.detail("volatility") == plugin.defaults["min_volatility"]
        assert _outcome(plugin, trades) == _outcome(ReferenceSymmetricBuySell(), trades)

    def test_exit_rate_overflows_only_after_t1(self):
        # a round trip whose exit rate overflows: the loop computes it for
        # a sell after t1, even with no t2 that could pass, and never for
        # a sell tied with t1
        q = QUOTES[0]
        for exit_seq, raises in ((1, True), (0, False)):
            trades = [
                self._swap(0, BORROWER, 10, q, 10, TARGET),
                self._swap(exit_seq, BORROWER, 10, TARGET, OVERFLOW_AMOUNT, q),
            ]
            if exit_seq:
                trades.insert(1, self._swap(1, "C", 5, q, 10, TARGET))
                trades[-1].seq = 2
            for plugin, reference in (
                (SymmetricBuySell(), ReferenceSymmetricBuySell()),
                (SandwichFrontrun(), ReferenceSandwich()),
            ):
                outcome = _outcome(plugin, sorted(trades, key=lambda trade: trade.seq))
                assert (outcome[0] == "raised") is raises, plugin.key
                assert outcome == _outcome(reference, trades)

    def test_entry_rate_is_computed_only_for_a_round_trip(self):
        # t1's rate overflows, but no sell after it returns its amount
        q = QUOTES[0]
        trades = [
            self._swap(0, BORROWER, OVERFLOW_AMOUNT, q, 10, TARGET),
            self._swap(1, BORROWER, 20, TARGET, 30, q),
        ]
        for plugin, reference in (
            (SymmetricBuySell(), ReferenceSymmetricBuySell()),
            (SandwichFrontrun(), ReferenceSandwich()),
        ):
            assert plugin.match(trades, BORROWER, plugin.defaults) == []
            assert _outcome(plugin, trades) == _outcome(reference, trades)

    def test_overflowing_only_candidate_raises(self):
        # no t2 could pass, but the loop still computes the one candidate's
        # rate, which overflows: the search may not skip t1
        q = QUOTES[0]
        trades = [
            self._swap(0, BORROWER, 10, q, 10, TARGET),
            self._swap(1, "C", OVERFLOW_AMOUNT, q, 1, TARGET),
            self._swap(2, BORROWER, 10, TARGET, 15, q),
        ]
        for plugin, reference in (
            (SymmetricBuySell(), ReferenceSymmetricBuySell()),
            (SandwichFrontrun(), ReferenceSandwich()),
        ):
            outcome = _outcome(plugin, trades)
            assert outcome[0] == "raised", plugin.key
            assert outcome == _outcome(reference, trades)

    def test_overflow_before_the_match_raises(self):
        # the loop computes the overflowing rate of seq 1 before it
        # reaches the passing t2 at seq 2
        q = QUOTES[0]
        trades = [
            self._swap(0, BORROWER, 10, q, 10, TARGET),
            self._swap(1, "C", OVERFLOW_AMOUNT, q, 1, TARGET),
            self._swap(2, "C", 40, q, 10, TARGET),
            self._swap(3, BORROWER, 10, TARGET, 15, q),
        ]
        for plugin, reference in (
            (SymmetricBuySell(), ReferenceSymmetricBuySell()),
            (SandwichFrontrun(), ReferenceSandwich()),
        ):
            outcome = _outcome(plugin, trades)
            assert outcome[0] == "raised"
            assert outcome == _outcome(reference, trades)
        # after the match, the overflow is never computed
        trades[1], trades[2] = trades[2], trades[1]
        trades[1].seq, trades[2].seq = 1, 2
        for plugin, reference in (
            (SymmetricBuySell(), ReferenceSymmetricBuySell()),
            (SandwichFrontrun(), ReferenceSandwich()),
        ):
            (match,) = plugin.match(trades, BORROWER, plugin.defaults)
            assert match.trades[1] is trades[1]
            assert _outcome(plugin, trades) == _outcome(reference, trades)


class TestLiftingPass:
    @pytest.mark.parametrize("toggles", RULE_TOGGLES)
    @given(account_transfers)
    @settings(max_examples=60, deadline=None)
    def test_matches_two_stage_reference(self, toggles, transfers):
        config = _simplifier_config(toggles)
        lifted = TransferSimplifier(config).simplify(
            transfers, AccountTagger(LIFTING_CHAIN).tags()
        )
        reference = ReferenceLifting(AccountTagger(LIFTING_CHAIN), config)
        expected = reference.simplify(reference.tag_transfers(transfers))
        assert lifted == expected
        assert TradeIdentifier().identify(lifted) == (
            ReferenceTradeIdentifier().identify(expected)
        )

    @pytest.mark.parametrize("app_level", [True, False], ids=["app", "account"])
    @pytest.mark.parametrize("toggles", RULE_TOGGLES)
    @given(account_transfers, lifting_account)
    @settings(max_examples=25, deadline=None)
    def test_analyze_matches_reference(self, toggles, app_level, transfers, borrower):
        config = LeiShenConfig(
            simplifier=_simplifier_config(toggles),
            patterns=PatternSettings(enabled=ALL_PATTERN_KEYS),
            use_app_level_transfers=app_level,
        )
        trace = _flash_loan_trace(borrower, transfers)
        report = LeiShen(LIFTING_CHAIN, config).analyze(trace)
        expected = ReferenceLeiShen(LIFTING_CHAIN, config).analyze(trace)
        assert report == expected
        assert repr(report) == repr(expected)

    def test_world_covers_every_tag_kind(self):
        tags = [AccountTagger(LIFTING_CHAIN).tag_of(a) for a in LIFTING_ACCOUNTS]
        assert None in tags
        assert {"Uniswap", "Kyber", "Wrapped Ether", BLACKHOLE_TAG} <= set(tags)
        assert str(LIFTING_ACCOUNTS[0]) in tags  # a plain EOA's own address

    def test_ablation_tags_nothing(self):
        # account-level transfers need no tag, the borrower's included
        config = LeiShenConfig(use_app_level_transfers=False)
        detector = LeiShen(LIFTING_CHAIN, config)
        borrower = LIFTING_ACCOUNTS[3]
        transfers = [TransferRecord(0, borrower, LIFTING_ACCOUNTS[5], 10, TOKENS[1])]
        report = detector.analyze(_flash_loan_trace(borrower, transfers))
        assert report.borrower_tag == str(borrower)
        assert len(detector.tagger.tags()) == 0


class TestSeriesAndRoundSearch:
    @given(krp_trades(), st.sampled_from((1, 2, 3, 5)))
    @settings(max_examples=300, deadline=None)
    def test_krp_matches_reference(self, trades, min_buys):
        params = {"min_buys": min_buys}
        assert _outcome(KeepRaisingPrice(), trades, params) == (
            _outcome(ReferenceKeepRaisingPrice(), trades, params)
        )

    @given(donation_trades())
    @settings(max_examples=300, deadline=None)
    def test_donation_matches_reference(self, trades):
        assert _outcome(DonationInflation(), trades) == (
            _outcome(ReferenceDonation(), trades)
        )

    @staticmethod
    def _buy(seq, seller, amount_sell, amount_buy=5):
        return Trade(seq, TradeKind.SWAP, BORROWER, seller, amount_sell, QUOTES[0],
                     amount_buy, TARGET)

    @staticmethod
    def _sell(seq, seller="V1"):
        return Trade(seq, TradeKind.SWAP, BORROWER, seller, 10, TARGET, 15, QUOTES[0])

    def test_krp_buys_tied_with_the_sell_are_not_prior(self):
        # the fifth rising buy shares the sell's seq: no match until a
        # later sell
        trades = [self._buy(i, "V1", 10 + i) for i in range(4)]
        trades += [self._buy(4, "V1", 20), self._sell(4)]
        assert KeepRaisingPrice().match(trades, BORROWER, {"min_buys": 5}) == []
        trades.append(self._sell(5))
        (match,) = KeepRaisingPrice().match(trades, BORROWER, {"min_buys": 5})
        assert match.trades[-1] is trades[-1]
        assert _outcome(KeepRaisingPrice(), trades) == (
            _outcome(ReferenceKeepRaisingPrice(), trades)
        )

    def test_krp_first_seen_seller_wins(self):
        # V2 qualifies first in time, but V1 was seen first
        trades = [self._buy(0, "V1", 10), self._buy(1, "V2", 10), self._buy(2, "V2", 11)]
        trades += [self._buy(3, "V1", 12), self._sell(4)]
        (match,) = KeepRaisingPrice().match(trades, BORROWER, {"min_buys": 2})
        assert match.detail("seller") == "V1"
        assert _outcome(KeepRaisingPrice(), trades, {"min_buys": 2}) == (
            _outcome(ReferenceKeepRaisingPrice(), trades, {"min_buys": 2})
        )

    def test_krp_plateau_rises_but_a_dip_never_recovers(self):
        plateau = [self._buy(0, "V1", 10), self._buy(1, "V1", 10), self._buy(2, "V1", 11)]
        assert KeepRaisingPrice().match([*plateau, self._sell(3)], BORROWER, {"min_buys": 3})
        dip = [self._buy(0, "V1", 10), self._buy(1, "V1", 9), self._buy(2, "V1", 30)]
        trades = [*dip, self._sell(3), self._buy(4, "V1", 40), self._sell(5)]
        assert KeepRaisingPrice().match(trades, BORROWER, {"min_buys": 3}) == []
        assert _outcome(KeepRaisingPrice(), trades, {"min_buys": 3}) == (
            _outcome(ReferenceKeepRaisingPrice(), trades, {"min_buys": 3})
        )

    def test_krp_overflow_raises_only_in_a_counted_series(self):
        # the overflowing buy's series has too few buys to be tested
        trades = [self._buy(0, "V2", 10**400, 1), *(self._buy(i, "V1", 10 + i) for i in (1, 2))]
        trades.append(self._sell(3))
        assert KeepRaisingPrice().match(trades, BORROWER, {"min_buys": 2})
        outcome = _outcome(KeepRaisingPrice(), trades, {"min_buys": 1})
        assert outcome[0] == "raised"
        assert outcome == _outcome(ReferenceKeepRaisingPrice(), trades, {"min_buys": 1})

    def test_donation_rounds_pair_by_share_underlying_and_venue(self):
        deposit = Trade(0, TradeKind.MINT_LIQUIDITY, BORROWER, "V1", 1000, ETHER, 500, TARGET)
        wrong_venue = Trade(1, TradeKind.REMOVE_LIQUIDITY, BORROWER, "V2", 500, TARGET, 2000, ETHER)
        right = Trade(2, TradeKind.REMOVE_LIQUIDITY, BORROWER, "V1", 500, TARGET, 1250, ETHER)
        trades = [deposit, wrong_venue, right]
        (match,) = DonationInflation().match(trades, BORROWER, DonationInflation.defaults)
        assert match.trades == (deposit, right)
        assert match.detail("gain") == DONATION_GAIN
        assert _outcome(DonationInflation(), trades) == _outcome(ReferenceDonation(), trades)

    def test_donation_first_round_trip_in_seq_wins(self):
        # three removals within the tolerance of the 1,000 minted shares,
        # above, below and at it: the first in seq wins, and a payout a
        # hair under the gain bound is passed over
        deposit = Trade(0, TradeKind.MINT_LIQUIDITY, BORROWER, "V1", 1000, ETHER, 1000, TARGET)

        def removal(seq, shares, payout=1250):
            return Trade(seq, TradeKind.REMOVE_LIQUIDITY, BORROWER, "V1", shares, TARGET,
                         payout, ETHER)

        for shares in ((1001, 999, 1000), (999, 1001, 1000), (1000, 1001, 999)):
            trades = [deposit, removal(1, 1002), removal(2, shares[0], 1249)]
            trades += [removal(3 + i, amount) for i, amount in enumerate(shares)]
            (match,) = DonationInflation().match(trades, BORROWER, DonationInflation.defaults)
            assert match.trades == (deposit, trades[3])
            assert _outcome(DonationInflation(), trades) == _outcome(ReferenceDonation(), trades)

    def test_donation_removal_tied_with_the_deposit_is_not_after_it(self):
        deposit = Trade(3, TradeKind.MINT_LIQUIDITY, BORROWER, "V1", 1000, ETHER, 500, TARGET)
        tied = Trade(3, TradeKind.REMOVE_LIQUIDITY, BORROWER, "V1", 500, TARGET, 2000, ETHER)
        for trades in ([deposit, tied], [tied, deposit]):
            assert DonationInflation().match(trades, BORROWER, DonationInflation.defaults) == []
            assert _outcome(DonationInflation(), trades) == _outcome(ReferenceDonation(), trades)
