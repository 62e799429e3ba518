"""Router, aggregator and venue edge cases."""

import pytest

from repro.chain import ETH, Revert


@pytest.fixture()
def routed(world):
    token = world.new_token("RTE")
    pair = world.dex_pair(token, world.weth, 10**6 * token.unit, 10**4 * ETH)
    router = world.dex_router()
    trader = world.create_attacker("r")
    token.mint(trader, 10**6 * token.unit)
    world.fund_weth(trader, 1_000 * ETH)
    world.approve(trader, token, router.address)
    world.approve(trader, world.weth, router.address)
    return world, token, pair, router, trader


class TestRouter:
    def test_slippage_guard_reverts(self, routed):
        world, token, pair, router, trader = routed
        with pytest.raises(Revert, match="slippage"):
            world.chain.transact(
                trader, router.address, "swapExactTokensForTokens",
                100 * token.unit, 10**30, (pair.address,), token.address,
            )

    def test_multi_hop_swap(self, routed):
        world, token, pair, router, trader = routed
        other = world.new_token("RT2")
        pair2 = world.dex_pair(other, world.weth, 10**6 * other.unit, 10**4 * ETH)
        got = world.chain.transact(
            trader, router.address, "swapExactTokensForTokens",
            100 * token.unit, 0, (pair.address, pair2.address), token.address,
        )
        assert other.balance_of(trader) > 0

    def test_explicit_recipient(self, routed):
        world, token, pair, router, trader = routed
        friend = world.create_attacker("friend")
        world.chain.transact(
            trader, router.address, "swapExactTokensForTokens",
            100 * token.unit, 0, (pair.address,), token.address, friend,
        )
        assert world.weth.balance_of(friend) > 0

    def test_router_hops_vanish_at_app_level(self, routed):
        """Router legs are intra-app (same Uniswap tag): the simplified
        stream shows one clean trader <-> Uniswap swap."""
        from repro.leishen import TradeKind

        world, token, pair, router, trader = routed
        trace = world.chain.transact(
            trader, router.address, "swapExactTokensForTokens",
            100 * token.unit, 0, (pair.address,), token.address,
        )
        detector = world.detector()
        app_transfers = detector.simplifier.simplify(trace.transfers, detector.tagger.tags())
        trades = detector.trade_identifier.identify(app_transfers)
        assert len(trades) == 1
        assert trades[0].kind is TradeKind.SWAP
        assert trades[0].seller == "Uniswap"


class TestPairSync:
    def test_sync_after_donation(self, routed):
        world, token, pair, router, trader = routed
        world.chain.transact(trader, token.address, "transfer", pair.address, 1_000 * token.unit)
        r_before = pair.reserve_of(token.address)
        world.chain.transact(trader, pair.address, "sync")
        assert pair.reserve_of(token.address) == r_before + 1_000 * token.unit


class TestTransactGuards:
    def test_reentrant_transact_rejected(self, world):
        from repro.chain import ChainError, Contract, Msg, external

        class Nested(Contract):
            @external
            def go(self, msg: Msg):
                # calling transact() from inside a transaction is a
                # programming error the chain must reject loudly
                self.chain.transact(msg.sender, self.address, "noop")

            @external
            def noop(self, msg: Msg):
                pass

        user = world.create_attacker("u")
        nested = world.chain.deploy(user, Nested)
        with pytest.raises(ChainError, match="re-entrant"):
            world.chain.transact(user, nested.address, "go")
        assert world.chain.state.depth == 0
