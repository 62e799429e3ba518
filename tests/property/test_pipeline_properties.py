"""Property tests on the detection pipeline's data transformations."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain import Address, ETHER
from repro.leishen import (
    PatternMatcher,
    PatternSettings,
    SimplifierConfig,
    Trade,
    TradeKind,
    TransferSimplifier,
)
from tests.tagged import TaggedTransfer, simplify_tagged

TOKENS = [Address("0x" + f"{i + 1:02x}" * 20) for i in range(3)]
TAGS = ["A", "B", "Kyber", "Vault", None]
ACCT = Address("0x" + "99" * 20)

tagged_transfer = st.builds(
    TaggedTransfer,
    seq=st.integers(1, 10**6),
    tag_sender=st.sampled_from(TAGS),
    tag_receiver=st.sampled_from(TAGS),
    amount=st.integers(1, 10**24),
    token=st.sampled_from(TOKENS),
    sender=st.just(ACCT),
    receiver=st.just(ACCT),
)


def net_flows(transfers, tags=("A", "B")):
    """Net (tag, token) flows, WETH-unification-aware."""
    flows = {}
    for t in transfers:
        sender = getattr(t, "tag_sender", None) or getattr(t, "sender", None)
        receiver = getattr(t, "tag_receiver", None) or getattr(t, "receiver", None)
        for tag, sign in ((sender, -1), (receiver, +1)):
            if tag in tags:
                flows[(tag, t.token)] = flows.get((tag, t.token), 0) + sign * t.amount
    return flows


class TestSimplifierProperties:
    @given(st.lists(tagged_transfer, max_size=25))
    @settings(max_examples=80)
    def test_no_intra_app_output(self, transfers):
        out = simplify_tagged(TransferSimplifier(SimplifierConfig()), transfers)
        assert not any(t.sender == t.receiver and t.sender is not None for t in out)

    @given(st.lists(tagged_transfer, max_size=25))
    @settings(max_examples=80)
    def test_idempotent_on_own_output(self, transfers):
        simplifier = TransferSimplifier(SimplifierConfig())
        once = simplify_tagged(simplifier, transfers)
        as_tagged = [
            TaggedTransfer(
                seq=t.seq, tag_sender=t.sender, tag_receiver=t.receiver,
                amount=t.amount, token=t.token, sender=ACCT, receiver=ACCT,
            )
            for t in once
        ]
        assert simplify_tagged(simplifier, as_tagged) == once

    @given(st.lists(tagged_transfer, max_size=25))
    @settings(max_examples=80)
    def test_merge_preserves_endpoint_net_flows(self, transfers):
        """Merging relays must not change what A and B net-receive
        (intermediary fee differences are bounded by the tolerance)."""
        config = SimplifierConfig(merge_tolerance=0.0)  # exact merges only
        out = simplify_tagged(TransferSimplifier(config), transfers)
        before = net_flows(transfers)
        after = net_flows(out)
        for key in set(before) | set(after):
            # intra-app removal only drops same-tag flows (net zero), and
            # exact merges conserve endpoint amounts
            assert before.get(key, 0) == after.get(key, 0)

    @given(st.lists(tagged_transfer, max_size=25))
    @settings(max_examples=50)
    def test_output_never_longer(self, transfers):
        out = simplify_tagged(TransferSimplifier(SimplifierConfig()), transfers)
        assert len(out) <= len(transfers)


X, Q = TOKENS[0], TOKENS[1]


def make_trade(seq, buyer, sell_amount, sell_token, buy_amount, buy_token, seller="P"):
    return Trade(
        seq=seq, kind=TradeKind.SWAP, buyer=buyer, seller=seller,
        amount_sell=sell_amount, token_sell=sell_token,
        amount_buy=buy_amount, token_buy=buy_token,
    )


random_trade = st.builds(
    make_trade,
    seq=st.integers(1, 1000),
    buyer=st.sampled_from(["atk", "other"]),
    sell_amount=st.integers(1, 10**12),
    sell_token=st.sampled_from([X, Q]),
    buy_amount=st.integers(1, 10**12),
    buy_token=st.sampled_from([X, Q]),
    seller=st.sampled_from(["P", "V"]),
)


class TestPatternProperties:
    @given(st.lists(random_trade, max_size=25))
    @settings(max_examples=80)
    def test_relaxed_thresholds_detect_superset(self, trades):
        strict = PatternMatcher(PatternSettings.make())
        relaxed = PatternMatcher(
            PatternSettings.make(
                params={
                    "KRP": {"min_buys": 3},
                    "SBS": {"min_volatility": 0.05},
                    "MBS": {"min_rounds": 2},
                }
            )
        )
        strict_patterns = {m.pattern for m in strict.match(trades, "atk")}
        relaxed_patterns = {m.pattern for m in relaxed.match(trades, "atk")}
        assert strict_patterns <= relaxed_patterns

    @given(st.lists(random_trade, max_size=25))
    @settings(max_examples=60)
    def test_matches_only_reference_existing_trades(self, trades):
        matcher = PatternMatcher()
        for match in matcher.match(trades, "atk"):
            for trade in match.trades:
                assert trade in trades

    @given(st.lists(random_trade, max_size=20))
    @settings(max_examples=60)
    def test_deterministic(self, trades):
        a = PatternMatcher().match(trades, "atk")
        b = PatternMatcher().match(trades, "atk")
        assert [(m.pattern, m.target_token) for m in a] == [
            (m.pattern, m.target_token) for m in b
        ]
