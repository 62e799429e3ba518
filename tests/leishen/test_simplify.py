"""The three simplification rules (paper Sec. V-B-2)."""

import pytest

from repro.chain import Address, ETHER
from repro.leishen import SimplifierConfig, TransferSimplifier
from tests.tagged import TaggedTransfer, simplify_tagged

TOKEN = Address("0x" + "77" * 20)
WETH_TOKEN = Address("0x" + "88" * 20)
ACCT = Address("0x" + "99" * 20)


def tagged(seq, sender, receiver, amount, token=TOKEN):
    return TaggedTransfer(
        seq=seq, tag_sender=sender, tag_receiver=receiver,
        amount=amount, token=token, sender=ACCT, receiver=ACCT,
    )


def simplifier(**overrides):
    return TransferSimplifier(
        SimplifierConfig(weth_tokens=frozenset({WETH_TOKEN}), **overrides)
    )


class TestIntraApp:
    def test_removed(self):
        out = simplify_tagged(simplifier(), [tagged(1, "Uniswap", "Uniswap", 10)])
        assert out == []

    def test_inter_app_kept(self):
        out = simplify_tagged(simplifier(), [tagged(1, "A", "B", 10)])
        assert len(out) == 1

    def test_untagged_kept(self):
        out = simplify_tagged(simplifier(), [tagged(1, None, None, 10)])
        assert len(out) == 1

    def test_disabled(self):
        out = simplify_tagged(
            simplifier(remove_intra_app=False), [tagged(1, "Uniswap", "Uniswap", 10)]
        )
        assert len(out) == 1


class TestWeth:
    def test_transfers_touching_weth_contract_removed(self):
        transfers = [
            tagged(1, "A", "Wrapped Ether", 10),
            tagged(2, "Wrapped Ether", "A", 10, token=WETH_TOKEN),
        ]
        assert simplify_tagged(simplifier(), transfers) == []

    def test_weth_token_unified_to_ether(self):
        out = simplify_tagged(simplifier(), [tagged(1, "A", "B", 10, token=WETH_TOKEN)])
        assert out[0].token == ETHER

    def test_disabled_keeps_weth(self):
        out = simplify_tagged(
            simplifier(remove_weth=False), [tagged(1, "A", "B", 10, token=WETH_TOKEN)]
        )
        assert out[0].token == WETH_TOKEN


class TestMerge:
    def test_exact_relay_merged(self):
        transfers = [tagged(1, "A", "Kyber", 100), tagged(2, "Kyber", "B", 100)]
        out = simplify_tagged(simplifier(), transfers)
        assert len(out) == 1
        assert (out[0].sender, out[0].receiver, out[0].amount) == ("A", "B", 100)

    def test_fee_within_tolerance_merged(self):
        transfers = [tagged(1, "A", "Kyber", 100_000), tagged(2, "Kyber", "B", 99_950)]
        out = simplify_tagged(simplifier(), transfers)
        assert len(out) == 1
        assert out[0].amount == 99_950  # delivered amount wins

    def test_fee_beyond_tolerance_not_merged(self):
        transfers = [tagged(1, "A", "Kyber", 100_000), tagged(2, "Kyber", "B", 98_000)]
        assert len(simplify_tagged(simplifier(), transfers)) == 2

    def test_different_token_not_merged(self):
        other = Address("0x" + "66" * 20)
        transfers = [tagged(1, "A", "K", 100), tagged(2, "K", "B", 100, token=other)]
        assert len(simplify_tagged(simplifier(), transfers)) == 2

    def test_chain_of_relays_merges_to_fixpoint(self):
        transfers = [
            tagged(1, "A", "K1", 100),
            tagged(2, "K1", "K2", 100),
            tagged(3, "K2", "B", 100),
        ]
        out = simplify_tagged(simplifier(), transfers)
        assert len(out) == 1
        assert (out[0].sender, out[0].receiver) == ("A", "B")

    def test_round_trip_through_intermediary_cancels(self):
        # A -> K -> A becomes intra-app and disappears entirely
        transfers = [tagged(1, "A", "K", 100), tagged(2, "K", "A", 100)]
        assert simplify_tagged(simplifier(), transfers) == []

    def test_sender_equals_intermediary_not_merged(self):
        transfers = [tagged(1, "K", "K2", 100), tagged(2, "K2", "K", 100)]
        # relay back to origin is a round trip, not a pass-through
        assert simplify_tagged(simplifier(), transfers) == []

    def test_disabled(self):
        transfers = [tagged(1, "A", "K", 100), tagged(2, "K", "B", 100)]
        out = simplify_tagged(simplifier(merge_inter_app=False), transfers)
        assert len(out) == 2

    def test_untagged_intermediary_not_merged(self):
        transfers = [tagged(1, "A", None, 100), tagged(2, None, "B", 100)]
        assert len(simplify_tagged(simplifier(), transfers)) == 2


class TestEndToEnd:
    def test_bzx1_fig6_construction(self, bzx1_outcome):
        """The paper's Fig. 6: after simplification the margin trade appears
        as a direct bZx <-> Uniswap exchange (Kyber hop merged)."""
        world = bzx1_outcome.world
        detector = world.detector()
        app_transfers = detector.simplifier.simplify(
            bzx1_outcome.trace.transfers, detector.tagger.tags()
        )
        pairs = {(t.sender, t.receiver) for t in app_transfers}
        assert ("bZx", "Uniswap") in pairs
        assert ("Uniswap", "bZx") in pairs
        assert not any("Kyber" in (t.sender, t.receiver) for t in app_transfers)
