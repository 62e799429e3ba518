"""Benign flash-loan transaction profiles for the wild scan.

The 272,984 flash loan transactions of the paper's evaluation are
overwhelmingly legitimate: arbitrage, liquidations, collateral swaps and
strategy rebalancing (paper Sec. I cites these as the main uses). This
module builds a shared wild-scan market once, plus a cast of reusable bot
contracts, and exposes one generator function per profile — including the
two false-positive sources the paper's manual verification identified:
yield-aggregator strategies (MBS look-alikes) and operator "migration"
transactions (SBS look-alikes).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable

from ..chain.trace import TransactionTrace
from ..chain.types import Address, ETH
from ..study.scenarios.base import ScriptedAttackContract
from ..tokens.erc20 import ERC20
from ..world import DeFiWorld

__all__ = ["WildMarket", "GroundTruth", "LabeledTrace", "BENIGN_PROFILES"]

#: flash-loan providers by share, Uniswap 208,342 : dYdX 41,741 : AAVE
#: 22,959 (paper Sec. VI-A), as the cumulative weights ``rng.choices``
#: would accumulate from those counts on every draw.
_PROVIDERS = ("Uniswap", "dYdX", "AAVE")
_PROVIDER_CUM_WEIGHTS = list(accumulate((208_342, 41_741, 22_959)))


@dataclass(frozen=True, slots=True)
class GroundTruth:
    """What the manual-verification step (paper Sec. VI-C) would conclude."""

    is_attack: bool
    profile: str
    #: criteria the paper used: a net profit and an undisclosed source.
    net_profit: bool = False
    source_disclosed: bool = True
    #: true when the transaction is initiated by a yield-aggregator app.
    aggregator_initiated: bool = False
    attacked_app: str | None = None
    attacker: Address | None = None
    attack_contract: Address | None = None
    asset: str | None = None
    month: int | None = None
    #: ground-truth patterns for true attacks (pattern-level TP/FP).
    patterns: tuple[str, ...] = ()
    #: attack family (a registry pattern key) for labelled scenario
    #: scoring — the primary pattern the injected shape embodies.
    #: ``None`` for benign traffic and pre-registry labels.
    family: str | None = None
    #: whether this is one of the 33 previously-known attacks/repeats.
    known: bool = False
    #: split-attack group id when this transaction is one round of an
    #: attack deliberately split across consecutive transactions (the
    #: cross-transaction windowed-detection ground truth); ``None`` for
    #: everything else. Per-transaction detection must miss these — only
    #: the windowed matcher sees the whole action sequence.
    split_group: int | None = None


@dataclass(slots=True)
class LabeledTrace:
    trace: TransactionTrace
    truth: GroundTruth


def _plan_body(atk: ScriptedAttackContract) -> None:
    """Bot body: execute the plan injected by the generator."""
    plan: Callable[[ScriptedAttackContract], None] | None = getattr(atk, "plan", None)
    if plan is not None:
        plan(atk)


@dataclass
class WildMarket:
    """The shared venue set every benign profile trades against."""

    world: DeFiWorld
    rng: random.Random

    def __post_init__(self) -> None:
        w = self.world
        self.weth = w.weth
        self.usdc = w.new_token("USDC", 6)
        self.dai = w.new_token("DAI")
        self.usdt = w.new_token("USDT", 6)
        self.wbtc = w.new_token("WBTC", 8)
        u, e = self.usdc.unit, ETH
        self.pool_weth_usdc = w.dex_pair(self.weth, self.usdc, 50_000 * e, 75_000_000 * u)
        self.pool_weth_dai = w.dex_pair(self.weth, self.dai, 50_000 * e, 75_000_000 * self.dai.unit)
        self.pool_weth_wbtc = w.dex_pair(self.weth, self.wbtc, 38_500 * e, 1_000 * self.wbtc.unit)
        self.sushi_weth_usdc = w.dex_pair(
            self.weth, self.usdc, 30_000 * e, 45_200_000 * u, app="SushiSwap"
        )
        self.sushi_weth_dai = w.dex_pair(
            self.weth, self.dai, 30_000 * e, 45_100_000 * self.dai.unit, app="SushiSwap"
        )
        self.curve = w.curve_pool(
            {self.usdc: 80_000_000 * u, self.usdt: 80_000_000 * self.usdt.unit}
        )
        self.vault = w.vault(self.usdc, "fUSDC", app="Harvest", seed_amount=200_000_000 * u)
        self.aggregator = w.aggregator("1inch", fee_bps=5)
        self.market = w.lending_market(
            prices={
                self.weth.address: 1.0,
                self.usdc.address: 1 / 1500 * 10**18 / 10**6,
                self.dai.address: 1 / 1500,
                self.wbtc.address: 25.6 * 10**18 / 10**8,
            },
            funding={
                self.weth: 100_000 * e,
                self.usdc: 100_000_000 * u,
                self.dai: 100_000_000 * self.dai.unit,
            },
        )
        # a standing underwater borrower for liquidation profiles
        self.victim = w.chain.create_eoa("victim-whale")
        self.dai.mint(self.victim, 50_000_000 * self.dai.unit)
        w.approve(self.victim, self.dai, self.market.address)
        w.chain.transact(
            self.victim,
            self.market.address,
            "borrow",
            self.dai.address,
            40_000_000 * self.dai.unit,
            self.usdc.address,
            20_000_000 * u,
        )
        # flash loan providers
        self.aave = w.aave(
            funding={self.usdc: 200_000_000 * u, self.weth: 200_000 * e,
                     self.dai: 200_000_000 * self.dai.unit}
        )
        self.dydx = w.dydx(
            funding={self.usdc: 200_000_000 * u, self.weth: 200_000 * e,
                     self.dai: 200_000_000 * self.dai.unit}
        )
        # dedicated deep flash-swap pairs so borrowing does not disturb
        # the priced markets above
        self.flash_pair_usdc = w.dex_pair(self.usdc, self.dai, 400_000_000 * u,
                                          400_000_000 * self.dai.unit)
        self.flash_pair_weth = w.dex_pair(self.weth, self.usdt, 2_000_000 * e,
                                          3_000_000_000 * self.usdt.unit)
        self.bots = [self._new_bot(f"bot-{i}") for i in range(12)]
        # labeled keeper EOAs for aggregator-initiated strategies
        self.keepers = [
            w.chain.create_eoa("keeper-agg", label="Harvest Strategy: Keeper"),
            w.chain.create_eoa("keeper-agg2", label="Yearn Strategy: Keeper"),
        ]
        self.plain_keeper = w.chain.create_eoa("keeper-plain")
        # operator market for migration (SBS look-alike) transactions
        self.ops_token = w.new_token("OPS")
        self.ops_pool = w.dex_pair(self.ops_token, self.weth, 600_000 * ETH, 6_000 * e)
        self.ops_venue = w.margin_venue(
            [self.ops_pool],
            funding={self.weth: 200_000 * e, self.ops_token: 2_000_000 * ETH},
            app="ProtocolOps",
        )
        self.ops_venue.emits_trade_events = False
        self.ops_operator = w.chain.create_eoa("ops-operator", label="ProtocolOps: Operator")
        # strategy mini-market: the MBS false-positive surface. The vault
        # rebalance dance is structurally identical to an MBS attack —
        # which is exactly why the paper's MBS precision is 56.1%.
        from ..study.scenarios.common import imbalance_mark

        self.strategy_usd = w.new_token("sUSD0")
        self.strategy_alt = w.new_token("sALT0")
        su = self.strategy_usd.unit
        self.strategy_curve = w.curve_pool(
            {self.strategy_usd: 50_000_000 * su, self.strategy_alt: 50_000_000 * su},
            app="StrategySwap",
        )
        self.strategy_vault = w.vault(
            self.strategy_usd,
            "stUSD",
            app="Harvest",
            value_per_underlying=imbalance_mark(self.strategy_curve, 0.04),
            seed_amount=80_000_000 * su,
        )
        self.strategy_vault.emits_trade_events = False
        self.strategy_flash_pair = w.dex_pair(
            self.strategy_usd, self.weth, 100_000_000 * su, 10_000 * e
        )
        w.dydx(funding={self.strategy_usd: 100_000_000 * su})
        w.aave(funding={self.strategy_usd: 100_000_000 * su})
        self._float_bots()

    def _new_bot(self, hint: str) -> ScriptedAttackContract:
        owner = self.world.chain.create_eoa(f"{hint}-owner")
        return self.world.chain.deploy(owner, ScriptedAttackContract, _plan_body, hint=hint)

    def _float_bots(self) -> None:
        """Give every bot a working float so fees and repayments clear."""
        for bot in [*self.bots]:
            for token in (self.usdc, self.dai, self.usdt, self.weth, self.wbtc,
                          self.strategy_usd):
                token.mint(bot.address, 1_000_000 * token.unit)

    def top_up(self, bot: ScriptedAttackContract) -> None:
        """Refill a bot whose float ran low (fees bleed over thousands of
        transactions; a real operator would do the same)."""
        for token in (self.usdc, self.dai, self.weth, self.strategy_usd):
            if token.balance_of(bot.address) < 500_000 * token.unit:
                token.mint(bot.address, 1_000_000 * token.unit)

    # ------------------------------------------------------------------
    # execution helper
    # ------------------------------------------------------------------

    def run_flash(
        self,
        sender: Address,
        bot: ScriptedAttackContract,
        plan: Callable[[ScriptedAttackContract], None],
        provider: str,
        token: ERC20,
        amount: int,
        flash_pair: Address | None = None,
    ) -> TransactionTrace:
        bot.plan = plan
        chain = self.world.chain
        if provider == "AAVE":
            return chain.transact(sender, bot.address, "run_aave", self.aave.address,
                                  token.address, amount)
        if provider == "dYdX":
            return chain.transact(sender, bot.address, "run_dydx", self.dydx.address,
                                  token.address, amount)
        if flash_pair is None:
            if token is self.weth:
                flash_pair = self.flash_pair_weth.address
            else:
                flash_pair = self.flash_pair_usdc.address
        return chain.transact(sender, bot.address, "run_uniswap", flash_pair,
                              token.address, amount)

    def pick_bot(self) -> ScriptedAttackContract:
        bot = self.rng.choice(self.bots)
        self.top_up(bot)
        return bot

    def pick_provider(self) -> str:
        return self.rng.choices(_PROVIDERS, cum_weights=_PROVIDER_CUM_WEIGHTS)[0]


# ---------------------------------------------------------------------------
# benign profiles: each returns a LabeledTrace
# ---------------------------------------------------------------------------


def profile_idle(market: WildMarket) -> LabeledTrace:
    """Borrow and repay, nothing else — probe/test transactions."""
    bot = market.pick_bot()
    amount = market.rng.randint(1_000, 500_000) * market.usdc.unit
    trace = market.run_flash(
        bot.chain.created_by[bot.address], bot, lambda atk: None,
        market.pick_provider(), market.usdc, amount,
    )
    return LabeledTrace(trace, GroundTruth(is_attack=False, profile="idle"))


def profile_two_pool_arb(market: WildMarket) -> LabeledTrace:
    """Classic cross-DEX arbitrage: buy WETH on the cheaper pool, sell on
    the dearer one — real arbitrage is price-aware and convergent."""
    bot = market.pick_bot()
    amount = market.rng.randint(10_000, 300_000) * market.usdc.unit
    pool_a, pool_b = market.pool_weth_usdc, market.sushi_weth_usdc
    # buy WETH where it is cheap (fewer USDC per WETH)
    if pool_a.spot_price(market.weth.address, market.usdc.address) > pool_b.spot_price(
        market.weth.address, market.usdc.address
    ):
        pool_a, pool_b = pool_b, pool_a

    def plan(atk: ScriptedAttackContract) -> None:
        got = atk.swap_pool(pool_a.address, market.usdc.address, amount)
        atk.swap_pool(pool_b.address, market.weth.address, got)

    trace = market.run_flash(
        bot.chain.created_by[bot.address], bot, plan,
        market.pick_provider(), market.usdc, amount + 1000,
    )
    return LabeledTrace(trace, GroundTruth(is_attack=False, profile="arbitrage"))


def profile_aggregator_hop(market: WildMarket) -> LabeledTrace:
    """Routed swap through the 1inch-style aggregator (inter-app merges)."""
    bot = market.pick_bot()
    amount = market.rng.randint(5_000, 500_000) * market.dai.unit

    def plan(atk: ScriptedAttackContract) -> None:
        got = atk.aggregator_trade(
            market.aggregator.address, market.pool_weth_dai.address,
            market.dai.address, amount, market.weth.address,
        )
        atk.swap_pool(market.sushi_weth_dai.address, market.weth.address, got)

    trace = market.run_flash(
        bot.chain.created_by[bot.address], bot, plan,
        market.pick_provider(), market.dai, amount + 1000,
    )
    return LabeledTrace(trace, GroundTruth(is_attack=False, profile="aggregator_hop"))


def profile_collateral_swap(market: WildMarket) -> LabeledTrace:
    """Flash-funded collateral management on the lending market."""
    bot = market.pick_bot()
    amount = market.rng.randint(100, 2_000) * ETH

    def plan(atk: ScriptedAttackContract) -> None:
        atk.approve(market.weth.address, market.market.address)
        # borrow USDC worth half the ETH collateral (1 ETH ~ 1500 USDC)
        borrow = max(amount * 1500 // ETH * market.usdc.unit // 2, market.usdc.unit)
        atk.call(market.market.address, "borrow", market.weth.address, amount,
                 market.usdc.address, borrow)
        atk.approve(market.usdc.address, market.market.address)
        atk.call(market.market.address, "repay", market.usdc.address, borrow)
        atk.call(market.market.address, "withdraw_collateral", market.weth.address, amount)

    trace = market.run_flash(
        bot.chain.created_by[bot.address], bot, plan,
        market.pick_provider(), market.weth, amount,
    )
    return LabeledTrace(trace, GroundTruth(is_attack=False, profile="collateral_swap"))


def profile_liquidation(market: WildMarket) -> LabeledTrace:
    """Flash-funded liquidation: repay USDC debt, seize DAI collateral."""
    bot = market.pick_bot()
    amount = market.rng.randint(1_000, 50_000) * market.usdc.unit
    # keep the standing victim position deep enough to liquidate against
    if market.market.debt_of(market.victim, market.usdc.address) < amount * 2:
        market.dai.mint(market.victim, 40_000_000 * market.dai.unit)
        market.world.chain.transact(
            market.victim, market.market.address, "borrow",
            market.dai.address, 40_000_000 * market.dai.unit,
            market.usdc.address, 20_000_000 * market.usdc.unit,
        )

    def plan(atk: ScriptedAttackContract) -> None:
        atk.approve(market.usdc.address, market.market.address)
        atk.call(market.market.address, "liquidate", market.victim,
                 market.usdc.address, amount, market.dai.address)

    trace = market.run_flash(
        bot.chain.created_by[bot.address], bot, plan,
        market.pick_provider(), market.usdc, amount,
    )
    return LabeledTrace(trace, GroundTruth(is_attack=False, profile="liquidation"))


def profile_lp_cycle(market: WildMarket) -> LabeledTrace:
    """Add and remove liquidity in one transaction (LP management)."""
    bot = market.pick_bot()
    router = market.world.dex_router()
    pair = market.pool_weth_usdc
    eth_amount = market.rng.randint(10, 200) * ETH

    def plan(atk: ScriptedAttackContract) -> None:
        usdc_amount = int(eth_amount * pair.reserve_of(market.usdc.address)
                          / pair.reserve_of(market.weth.address))
        atk.approve(market.weth.address, router.address)
        atk.approve(market.usdc.address, router.address)
        amount0, amount1 = (
            (eth_amount, usdc_amount)
            if pair.token0 == market.weth.address
            else (usdc_amount, eth_amount)
        )
        liquidity = atk.call(router.address, "addLiquidity", pair.address, amount0, amount1)
        atk.approve(pair.address, router.address)
        atk.call(router.address, "removeLiquidity", pair.address, liquidity)

    trace = market.run_flash(
        bot.chain.created_by[bot.address], bot, plan,
        market.pick_provider(), market.weth, eth_amount,
    )
    return LabeledTrace(trace, GroundTruth(is_attack=False, profile="lp_cycle"))


# -- false-positive sources ---------------------------------------------------


def profile_yield_strategy(market: WildMarket, aggregator_initiated: bool) -> LabeledTrace:
    """Yield-strategy rebalance: >= 3 profitable vault rounds.

    Structurally indistinguishable from MBS — the paper's dominant
    false-positive source (Sec. VI-C). When ``aggregator_initiated`` the
    transaction sender carries a yield-aggregator label, which is what the
    paper's precision-lifting heuristic keys on.
    """
    bot = market.pick_bot()
    usd = market.strategy_usd
    deposit = market.rng.randint(5_000_000, 10_000_000) * usd.unit
    manipulation = market.rng.randint(8_000_000, 12_000_000) * usd.unit
    vault, curve = market.strategy_vault, market.strategy_curve

    def plan(atk: ScriptedAttackContract) -> None:
        for _ in range(3):
            got = atk.curve_swap(curve.address, 0, 1, manipulation)
            shares = atk.vault_deposit(vault.address, deposit)
            atk.curve_swap(curve.address, 1, 0, got)
            atk.vault_withdraw(vault.address, shares)

    sender = market.rng.choice(market.keepers) if aggregator_initiated else market.plain_keeper
    trace = market.run_flash(sender, bot, plan, market.pick_provider(),
                             usd, deposit + manipulation,
                             flash_pair=market.strategy_flash_pair.address)
    return LabeledTrace(
        trace,
        GroundTruth(
            is_attack=False,
            profile="yield_strategy",
            net_profit=True,
            aggregator_initiated=aggregator_initiated,
        ),
    )


def profile_migration(market: WildMarket) -> LabeledTrace:
    """Operator liquidity migration shaped exactly like SBS.

    The operator moves treasury inventory between its own venue and pool;
    the transfers conform to SBS, but the 'profit' is an internal wash and
    the operator is a disclosed, labelled party — a manual-inspection FP.
    """
    bot = market.pick_bot()
    quote, target = market.weth, market.ops_token
    pool, venue = market.ops_pool, market.ops_venue
    base = market.rng.randint(300, 500) * ETH

    def plan(atk: ScriptedAttackContract) -> None:
        bought = atk.oracle_swap(venue.address, quote.address, base, target.address)
        pumped = atk.swap_pool(pool.address, quote.address, base * 6)
        atk.swap_pool(pool.address, target.address, pumped * 55 // 100)
        atk.oracle_swap(venue.address, target.address, bought, quote.address)
        rest = atk.balance(target.address)
        if rest:
            atk.swap_pool(pool.address, target.address, rest)

    trace = market.run_flash(market.ops_operator, bot, plan, "AAVE",
                             market.weth, base * 7 + ETH)
    return LabeledTrace(
        trace,
        GroundTruth(is_attack=False, profile="migration", net_profit=False,
                    source_disclosed=True),
    )


#: benign mix (name, weight at full scale, runner). Weights approximate the
#: composition of real flash-loan traffic; FP profiles are counted
#: separately by the generator.
BENIGN_PROFILES: tuple[tuple[str, float, Callable[[WildMarket], LabeledTrace]], ...] = (
    ("arbitrage", 0.42, profile_two_pool_arb),
    ("aggregator_hop", 0.16, profile_aggregator_hop),
    ("idle", 0.14, profile_idle),
    ("collateral_swap", 0.10, profile_collateral_swap),
    ("liquidation", 0.10, profile_liquidation),
    ("lp_cycle", 0.08, profile_lp_cycle),
)

