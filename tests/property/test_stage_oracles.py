"""Differential tests: detector stages against their loop references.

The merge fixpoint of ``TransferSimplifier``, ``FlashLoanIdentifier``
and ``TradeIdentifier`` were rewritten for speed, and so were the
middle-trade searches of SBS and SANDWICH. The earlier loops are kept
below unchanged as references, and generated inputs must give equal
output from both:

- transfer lists with relay chains of 2-5 hops, amounts at the merge
  tolerance border, ``None`` tags, BlackHole legs and ``A -> I -> A``
  loops;
- traces with several swaps open at once, duplicate providers and
  incomplete provider fingerprints;
- trade lists of up to 60 trades in two quote tokens and on two venues,
  with tied seqs, amounts at the pattern's tolerance border, zero
  amounts (infinite rates), wei-scale amounts, and amounts whose rate
  overflows a float. The searches must return the same match, the very
  same trades, or raise the same exception.

The pass order of the merge decides which hops merge, and the
tolerance test is a division: both are pinned by explicit examples.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain import Address, ETHER
from repro.chain.trace import CallRecord, LogRecord, TransactionTrace, TransferRecord
from repro.leishen import (
    BLACKHOLE_TAG,
    AppTransfer,
    FlashLoanIdentifier,
    SimplifierConfig,
    TradeIdentifier,
    TransferSimplifier,
)
from repro.leishen.identify import FlashLoan
from repro.leishen.registry import SandwichFrontrun, SymmetricBuySell, _match
from repro.leishen.trades import Trade, TradeKind

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
        transfers = self._strip_fee_burns(transfers)
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


def _outcome(plugin, trades):
    """A plugin's matches with the identity of each matched trade, or the
    exception it raised."""
    try:
        matches = plugin.match(trades, BORROWER, plugin.defaults)
    except OverflowError as exc:
        return ("raised", str(exc))
    return matches, [[id(trade) for trade in match.trades] for match in matches]


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
