"""Synthetic wild attacks for the Table V/VI/VII evaluation.

The paper detects 180 transactions over 14.5M blocks: 142 true attacks
(33 known including 11 repeats, 109 previously unknown) plus 38 false
positives. This module injects the attack side with a composition
calibrated to every aggregate the paper reports:

- per-pattern true positives: KRP 21, SBS 68, MBS 60 (7 dual-pattern);
- 15 SBS attacks whose trades also trip MBS spuriously and 5 MBS attacks
  that trip SBS spuriously (pattern-level FPs inside true-attack
  transactions — the arithmetic the paper's Table V implies);
- Table VI's most-attacked apps among the unknown attacks: Balancer
  31 attacks / 5 attackers / 14 contracts / 13 assets; Uniswap 16/6/8/5;
  Yearn 11/1/1/1;
- a heavy-tailed profit distribution with a ~6.1M USD severest attack
  and >21M USD total (Table VII);
- unknown-attack months following Fig. 8's calibrated series.

Attack shapes reuse the study's validated KRP/SBS/MBS/dual bodies on
lazily-created mini-markets inside the shared wild world.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..chain.contract import Msg, external
from ..chain.types import Address, ETH, keccak_address
from ..study.scenarios.base import ScriptedAttackContract
from ..tokens.erc20 import ERC20
from .mutate import BASELINE, Mutation
from .profiles import GroundTruth, LabeledTrace, WildMarket
from .timeline import monthly_attack_weights

__all__ = [
    "AttackCluster",
    "ATTACK_CLUSTERS",
    "ADVERSARIAL_CLUSTERS",
    "MintableToken",
    "plan_adversarial",
    "WildAttackInjector",
    "FULL_SCALE_ATTACKS",
    "FULL_SCALE_MIGRATIONS",
    "FULL_SCALE_STRATEGIES",
    "AttackPlan",
    "plan_attacks",
    "SplitAttackSpec",
    "SPLIT_ATTACK_SPECS",
    "split_spec_of",
]


@dataclass(frozen=True, slots=True)
class AttackCluster:
    """A group of related wild attacks against one application."""

    app: str
    shape: str  # "krp" | "sbs" | "mbs" | "dual" | "sandwich" | "mint" | "donation"
    #: ground-truth patterns ("dual" shape with sbs-only truth models the
    #: paper's pattern-level false positives inside true attacks).
    truth_patterns: tuple[str, ...]
    n_attacks: int
    n_attackers: int
    n_contracts: int
    n_assets: int
    known: bool = False
    #: approximate per-attack profit in USD (sizes the mini-market).
    profit_usd: float = 20_000.0
    #: scales only the trade amounts (not the market) — used for the
    #: dust-profit attacks at the bottom of Table VII's distribution.
    amount_factor: float = 1.0
    #: vault mark sensitivity for mbs/donation-shaped clusters.
    sensitivity: float = 0.05
    #: attack family (a registry pattern key) recorded on the ground
    #: truth for labelled per-family scoring. ``None`` on the paper's
    #: historical clusters keeps their ground-truth wire bytes (and the
    #: pinned config and result digests) unchanged.
    family: "str | None" = None


#: full-scale composition; the sums reproduce every Table V/VI aggregate:
#: KRP/SBS/MBS true positives 21/68/60, 15 attacks whose trades also trip
#: MBS spuriously, 5 tripping SBS spuriously, Table VI's top-three apps,
#: 33 known vs 109 unknown. Tests assert these sums.
ATTACK_CLUSTERS: tuple[AttackCluster, ...] = (
    # --- unknown attacks (109) — Table VI top three first -------------
    AttackCluster("Balancer", "sbs", ("SBS",), 23, 5, 14, 13, profit_usd=40_000),
    AttackCluster("Balancer", "dual", ("SBS",), 8, 5, 14, 13, profit_usd=150_000),
    AttackCluster("Uniswap", "krp", ("KRP",), 16, 6, 8, 5, profit_usd=60_000),
    AttackCluster("Yearn", "mbs", ("MBS",), 11, 1, 1, 1, profit_usd=30_000),
    AttackCluster("SushiSwap", "krp", ("KRP",), 3, 1, 2, 2, profit_usd=15_000),
    AttackCluster("CreamFinance", "sbs", ("SBS",), 5, 2, 3, 3, profit_usd=250_000),
    AttackCluster("GrimFinance", "sbs", ("SBS",), 1, 1, 1, 1, profit_usd=6_102_198),
    AttackCluster("IndexedFinance", "dual", ("SBS",), 7, 1, 2, 2, profit_usd=120_000),
    AttackCluster("PunkProtocol", "mbs", ("MBS",), 6, 2, 2, 2, profit_usd=8_000),
    AttackCluster("BT.Finance", "mbs", ("MBS",), 7, 1, 1, 1, profit_usd=2_000),
    AttackCluster("DODO", "mbs", ("MBS",), 5, 1, 2, 2, profit_usd=600),
    AttackCluster("AlphaFinance", "sbs", ("SBS",), 5, 1, 1, 1, profit_usd=1_000),
    AttackCluster("SaddleFi", "dual", ("SBS", "MBS"), 4, 1, 1, 1, profit_usd=90_000),
    AttackCluster("RariCapital", "dual", ("MBS",), 5, 1, 1, 1, profit_usd=300),
    AttackCluster("DustFarm", "mbs", ("MBS",), 3, 1, 1, 1, profit_usd=25,
                  amount_factor=8e-6, sensitivity=400.0),
    # --- known attacks and their identical repeats (33) ----------------
    AttackCluster("bZx", "sbs", ("SBS",), 6, 2, 2, 2, known=True, profit_usd=350_000),
    AttackCluster("Harvest", "mbs", ("MBS",), 10, 1, 2, 2, known=True, profit_usd=300_000),
    AttackCluster("Eminence", "mbs", ("MBS",), 6, 1, 1, 1, known=True, profit_usd=100_000),
    AttackCluster("BalancerSTA", "krp", ("KRP",), 2, 1, 1, 1, known=True, profit_usd=80_000),
    AttackCluster("YearnDAI", "sbs", ("SBS",), 6, 1, 1, 1, known=True, profit_usd=200_000),
    AttackCluster("Saddle", "dual", ("SBS", "MBS"), 3, 1, 1, 1, known=True, profit_usd=50_000),
)

FULL_SCALE_ATTACKS = sum(c.n_attacks for c in ATTACK_CLUSTERS)

#: full-scale counts of the two false-positive sources (see the module
#: docstring for the Table V arithmetic these reproduce). Kept next to
#: the attack composition so the scan engine's scheduler and the
#: sequential generator share one source of truth.
FULL_SCALE_MIGRATIONS = 6
FULL_SCALE_STRATEGIES = 32

#: Adversarial attack families beyond the paper's three patterns:
#: sandwich/frontrunning, unprotected-mint supply dumps and
#: donation-style single-round share inflation. Kept OUT of
#: ``ATTACK_CLUSTERS`` so the historical schedule (and every identity
#: digest built on it) is untouched; ``WildScanConfig.adversarial``
#: appends them as a schedule tail, and the robustness harness injects
#: them directly. The paper-default pattern set does not detect these —
#: their plugins must be enabled via ``PatternSettings``.
ADVERSARIAL_CLUSTERS: tuple[AttackCluster, ...] = (
    AttackCluster("MevBooster", "sandwich", ("SANDWICH",), 6, 2, 2, 2,
                  profit_usd=30_000, family="SANDWICH"),
    AttackCluster("CoverMint", "mint", ("MINT",), 5, 1, 2, 2,
                  profit_usd=150_000, family="MINT"),
    AttackCluster("BeanVault", "donation", ("DONATION",), 4, 1, 1, 1,
                  profit_usd=120_000, sensitivity=2.5, family="DONATION"),
)


def plan_adversarial(count: int) -> list["AttackPlan"]:
    """Deterministic plan of ``count`` adversarial attacks.

    Cycles the adversarial clusters round-robin; like
    :func:`plan_attacks` it is pure data depending on nothing but its
    argument, so every backend computes the identical tail.
    """
    plans: list[AttackPlan] = []
    for i in range(count):
        cluster = ADVERSARIAL_CLUSTERS[i % len(ADVERSARIAL_CLUSTERS)]
        instance = i // len(ADVERSARIAL_CLUSTERS)
        plans.append((
            cluster,
            instance % cluster.n_attackers,
            instance % cluster.n_contracts,
            instance % cluster.n_assets,
            None,
        ))
    return plans

#: One planned wild attack: (cluster, attacker_id, contract_id, asset_id,
#: month). Pure data — the scan engine ships plans to worker processes.
AttackPlan = tuple[AttackCluster, int, int, int, "int | None"]


def _expand_months() -> list[int]:
    months: list[int] = []
    for month, weight in enumerate(monthly_attack_weights()):
        months.extend([month] * weight)
    return months


def plan_attacks(scale: float) -> list[AttackPlan]:
    """Scaled, deterministic attack schedule (market-independent).

    The plan depends only on ``scale`` — no chain, market or RNG state —
    which is what lets the scan engine compute one canonical schedule and
    shard it across worker processes.
    """
    unknown_months = _expand_months()
    plans: list[AttackPlan] = []
    unknown_index = 0
    for cluster in ATTACK_CLUSTERS:
        count = max(1, round(cluster.n_attacks * scale)) if scale < 1 else cluster.n_attacks
        for i in range(count):
            attacker_id = i % cluster.n_attackers
            contract_id = i % cluster.n_contracts
            asset_id = i % cluster.n_assets
            month: int | None = None
            if not cluster.known:
                # jump through the chronological month list with a stride
                # coprime to its length, so scaled-down runs still sample
                # the whole Fig. 8 shape rather than its first months.
                slot = (unknown_index * 37) % len(unknown_months)
                month = unknown_months[slot]
                unknown_index += 1
            plans.append((cluster, attacker_id, contract_id, asset_id, month))
    return plans


class MintableToken(ERC20):
    """An ERC20 with an unprotected supply-expansion entry point.

    Models the access-control bugs behind Cover-style infinite-mint
    incidents: anyone can call ``exploit_mint`` and credit themselves
    fresh supply, which shows up in the transfer history as a BlackHole
    mint with no matching acquisition trade.
    """

    @external
    def exploit_mint(self, msg: Msg, amount: int) -> None:
        self.mint(msg.sender, amount)


#: ceiling on ``amount_scale`` for the vault-based shapes (mbs/donation):
#: their flash pair and vault are sized to the baseline amounts, so an
#: unbounded scale-up would exceed lendable reserves and revert instead
#: of testing detection.
_VAULT_SCALE_CAP = 1.5


def _scaled(value: int, factor: float) -> int:
    """Integer amount scaling that is *exact* at factor 1.0.

    The baseline mutation must reproduce the unmutated attack bytes, and
    ``int(value * 1.0)`` is lossy above 2**53 — so the identity factor
    bypasses float math entirely.
    """
    return value if factor == 1.0 else int(value * factor)


class _MiniMarket:
    """One (app, asset) attack surface inside the shared wild world."""

    def __init__(
        self,
        market: WildMarket,
        app: str,
        asset: str,
        shape: str,
        size: float,
        amount_factor: float = 1.0,
        sensitivity: float = 0.05,
    ) -> None:
        world = market.world
        self.market = market
        self.app = app
        self.shape = shape
        self.quote = market.weth
        scale = max(0.05, min(size, 20.0))
        if shape in ("krp", "sbs", "dual"):
            self.target = world.new_token(asset)
            pool_target = int(1_000_000 * scale) * self.target.unit
            pool_quote = int(10_000 * scale) * ETH
            self.pool = world.dex_pair(self.target, self.quote, pool_target, pool_quote)
            self.venue = world.margin_venue(
                [self.pool],
                funding={
                    world.registry.by_symbol(self.quote.symbol): int(500_000 * scale) * ETH,
                    self.target: 4 * pool_target,
                },
                app=app,
            )
            self.venue.emits_trade_events = False
            self.base_quote = int(1_000 * scale) * ETH
            self.flash_pair = market.flash_pair_weth
            self.flash_token = world.registry.by_symbol(self.quote.symbol)
        elif shape == "sandwich":
            from .profiles import _plan_body

            self.target = world.new_token(asset)
            pool_target = int(1_000_000 * scale) * self.target.unit
            pool_quote = int(10_000 * scale) * ETH
            self.pool = world.dex_pair(self.target, self.quote, pool_target, pool_quote)
            self.front_amount = pool_quote // 50
            self.victim_amount = pool_quote // 20
            self.base_quote = self.front_amount
            self.flash_pair = market.flash_pair_weth
            self.flash_token = world.registry.by_symbol(self.quote.symbol)
            # An independent user whose scripted bot the attacker's tx
            # sandwiches; its own funds, its own creation root, so the
            # victim buy is not attributed to the borrower tag.
            victim_eoa = world.chain.create_eoa(
                f"victim-{app}-{asset}",
                address=keccak_address("sandwich-victim", app, asset),
            )
            self.victim = world.chain.deploy(
                victim_eoa, ScriptedAttackContract, _plan_body,
                hint=f"victim-bot-{app}-{asset}",
                address=keccak_address("sandwich-victim-bot", app, asset),
            )
            self.flash_token.mint(self.victim.address, pool_quote * 8)
        elif shape == "mint":
            deployer = world.chain.create_eoa(
                f"mint-dev-{app}-{asset}",
                address=keccak_address("mint-deployer", app, asset),
            )
            self.token = world.chain.deploy(
                deployer, MintableToken, asset, 18,
                hint=f"mintable-{asset}",
                address=keccak_address("mintable-token", app, asset),
            )
            world.registry.register(self.token)
            unit = self.token.unit
            # legitimate circulating supply so the dump pools can be seeded
            self.token.mint(world.whale, 10_000_000_000 * unit)
            pool_tokens = int(1_000_000 * scale) * unit
            self.pool_a = world.dex_pair(
                self.token, self.quote, pool_tokens, int(10_000 * scale) * ETH
            )
            self.pool_b = world.dex_pair(
                self.token, market.usdc, pool_tokens,
                int(15_000_000 * scale) * market.usdc.unit,
            )
            self.mint_amount = int(50_000 * scale) * unit
            self.base_quote = int(100 * scale) * ETH
            self.flash_pair = market.flash_pair_weth
            self.flash_token = world.registry.by_symbol(self.quote.symbol)
        else:  # mbs / donation: vault + curve mini market
            from ..study.scenarios.common import imbalance_mark

            self.underlying = world.new_token(asset)
            self.alt = world.new_token(asset + "q")
            size_units = int(100_000_000 * scale) * self.underlying.unit
            self.curve = world.curve_pool(
                {self.underlying: size_units, self.alt: size_units}, app=app + "Swap"
            )
            self.vault = world.vault(
                self.underlying,
                "v" + asset,
                app=app,
                value_per_underlying=imbalance_mark(self.curve, sensitivity),
                seed_amount=size_units * 2,
            )
            self.vault.emits_trade_events = False
            self.deposit = max(500, int(25_000_000 * scale * amount_factor)) * self.underlying.unit
            self.manipulation = max(200, int(20_000_000 * scale * amount_factor)) * self.underlying.unit
            borrow = self.deposit + self.manipulation
            self.flash_pair = world.dex_pair(self.underlying, market.weth, borrow * 2, 10_000 * ETH)
            self.flash_token = self.underlying
            world.dydx(funding={self.underlying: borrow * 4})
            world.aave(funding={self.underlying: borrow * 4})

    # -- attack bodies ----------------------------------------------------

    def body(self, mutation: Mutation | None = None):
        fn = {
            "krp": self._krp_body,
            "sbs": self._sbs_body,
            "dual": self._dual_body,
            "mbs": self._mbs_body,
            "sandwich": self._sandwich_body,
            "mint": self._mint_body,
            "donation": self._donation_body,
        }[self.shape]
        m = mutation or BASELINE

        def scripted(atk: ScriptedAttackContract) -> None:
            fn(atk, m)

        return scripted

    def borrow_spec(self, mutation: Mutation | None = None) -> tuple[ERC20, int, "Address"]:
        m = mutation or BASELINE
        # extra headroom for scaled-up mutants; identity (1.0) for baseline
        headroom = max(1.0, m.amount_scale) * (1.0 + max(0, m.round_delta) / 4)
        if self.shape in ("mbs", "donation"):
            # vault shapes borrow from a pair sized to the baseline amounts,
            # so amount mutations are capped at what it can actually lend
            # (the bodies apply the same cap to their spend)
            headroom = min(headroom, _VAULT_SCALE_CAP)
            # cushion for per-round pool fees so dust-sized deposits do not
            # starve the later rounds
            cushion = self.manipulation // 25
            return (
                self.flash_token,
                _scaled(self.deposit + self.manipulation + cushion, headroom),
                self.flash_pair.address,
            )
        multiplier = {"krp": 8, "sbs": 8, "dual": 8, "sandwich": 2, "mint": 1}[self.shape]
        return (
            self.flash_token,
            _scaled(self.base_quote * multiplier, headroom),
            self.flash_pair.address,
        )

    def _sbs_body(self, atk: ScriptedAttackContract, m: Mutation) -> None:
        quote, target, pool, venue = self.quote, self.target, self.pool, self.venue
        amount = _scaled(self.base_quote, m.amount_scale)
        bought = atk.oracle_swap(venue.address, quote.address, amount, target.address)
        if m.round_delta >= 0:
            pumped = atk.swap_pool(
                pool.address, quote.address, _scaled(amount * 6, m.pump_scale)
            )
            atk.swap_pool(pool.address, target.address, pumped * 55 // 100)
        if m.interleave:
            atk.swap_pool(pool.address, quote.address, amount // 20)
        exit_amount = _scaled(bought, m.exit_fraction)
        atk.oracle_swap(venue.address, target.address, exit_amount, quote.address)
        rest = atk.balance(target.address)
        if rest:
            atk.swap_pool(pool.address, target.address, rest)

    def _krp_body(self, atk: ScriptedAttackContract, m: Mutation) -> None:
        quote, target, pool, venue = self.quote, self.target, self.pool, self.venue
        step = _scaled(self.base_quote // 2, m.amount_scale)
        n = max(1, 6 + m.round_delta)
        dip_at = n // 2 if m.interleave else -1
        for i in range(n):
            atk.swap_pool(pool.address, quote.address, step)
            if i == dip_at:
                # benign-looking counter-sell: breaks the monotone rise
                atk.swap_pool(pool.address, target.address, atk.balance(target.address) // 3)
        amount = atk.balance(target.address)
        atk.oracle_swap(venue.address, target.address, amount, quote.address)

    def _dual_body(self, atk: ScriptedAttackContract, m: Mutation) -> None:
        """Saddle-shape: three profitable symmetric venue rounds plus an
        SBS triple — matches both patterns. Not part of the mutation
        matrix; only the baseline is exercised."""
        quote, target, pool, venue = self.quote, self.target, self.pool, self.venue
        unit_q = self.base_quote // 10
        got1 = atk.oracle_swap(venue.address, quote.address, unit_q * 10, target.address)
        atk.swap_pool(pool.address, quote.address, unit_q * 30)
        atk.swap_pool(pool.address, target.address, atk.balance(target.address) - got1 - got1 // 3)
        atk.oracle_swap(venue.address, target.address, got1, quote.address)
        got2 = atk.oracle_swap(venue.address, quote.address, unit_q * 3, target.address)
        atk.swap_pool(pool.address, quote.address, unit_q * 4)
        atk.oracle_swap(venue.address, target.address, got2, quote.address)
        atk.swap_pool(pool.address, target.address, atk.balance(target.address))
        got3 = atk.oracle_swap(venue.address, quote.address, unit_q * 6, target.address)
        atk.swap_pool(pool.address, quote.address, unit_q * 6)
        atk.oracle_swap(venue.address, target.address, got3, quote.address)
        rest = atk.balance(target.address)
        if rest:
            atk.swap_pool(pool.address, target.address, rest)

    def _mbs_body(self, atk: ScriptedAttackContract, m: Mutation) -> None:
        curve, vault = self.curve, self.vault
        amount_scale = min(m.amount_scale, _VAULT_SCALE_CAP)
        manipulation = _scaled(self.manipulation, amount_scale * m.pump_scale)
        deposit = _scaled(self.deposit, amount_scale)
        for _ in range(max(1, 3 + m.round_delta)):
            got = atk.curve_swap(curve.address, 0, 1, manipulation)
            shares = atk.vault_deposit(vault.address, deposit)
            atk.curve_swap(curve.address, 1, 0, got)
            atk.vault_withdraw(vault.address, _scaled(shares, m.exit_fraction))
            if m.interleave:
                probe = atk.vault_deposit(vault.address, deposit // 100)
                atk.vault_withdraw(vault.address, probe)

    def _sandwich_body(self, atk: ScriptedAttackContract, m: Mutation) -> None:
        quote, target, pool = self.quote, self.target, self.pool
        amount = _scaled(self.front_amount, m.amount_scale)
        bought = atk.swap_pool(pool.address, quote.address, amount)
        if m.round_delta >= 0:
            victim_amount = _scaled(self.victim_amount, m.pump_scale)
            self.victim.plan = lambda v: v.swap_pool(
                pool.address, quote.address, victim_amount
            )
            atk.call(self.victim.address, "run")
        if m.interleave:
            atk.swap_pool(pool.address, quote.address, amount // 20)
        atk.swap_pool(pool.address, target.address, _scaled(bought, m.exit_fraction))

    def _mint_body(self, atk: ScriptedAttackContract, m: Mutation) -> None:
        token, pools = self.token, (self.pool_a, self.pool_b)
        if m.interleave:
            # small legitimate acquisition *before* the exploit mint (after
            # it, the mint transfer would pair with the buy's deposit leg
            # and lift as a phantom liquidity trade)
            atk.swap_pool(self.pool_a.address, self.quote.address, self.base_quote // 10)
        atk.call(token.address, "exploit_mint", _scaled(self.mint_amount, m.amount_scale))
        n = max(1, 2 + m.round_delta)
        remaining = atk.balance(token.address)
        if n == 1:
            atk.swap_pool(self.pool_a.address, token.address, remaining - 1)
            return
        for i in range(n - 1):
            # tranches deliberately differ from the minted amount so the
            # mint transfer never fuses with a dump leg in simplification
            tranche = remaining * 3 // 5
            atk.swap_pool(pools[i % 2].address, token.address, tranche)
            remaining -= tranche
        atk.swap_pool(
            pools[(n - 1) % 2].address, token.address, _scaled(remaining, m.exit_fraction)
        )

    def _donation_body(self, atk: ScriptedAttackContract, m: Mutation) -> None:
        curve, vault = self.curve, self.vault
        amount_scale = min(m.amount_scale, _VAULT_SCALE_CAP)
        manipulation = _scaled(self.manipulation, amount_scale * m.pump_scale)
        deposit = _scaled(self.deposit, amount_scale)
        for _ in range(1 + max(0, m.round_delta)):
            got = 0
            if m.round_delta >= 0:
                got = atk.curve_swap(curve.address, 0, 1, manipulation)
            shares = atk.vault_deposit(vault.address, deposit)
            if got:
                atk.curve_swap(curve.address, 1, 0, got)
            atk.vault_withdraw(vault.address, _scaled(shares, m.exit_fraction))
            if m.interleave:
                probe = atk.vault_deposit(vault.address, deposit // 100)
                atk.vault_withdraw(vault.address, probe)


@dataclass(frozen=True, slots=True)
class SplitAttackSpec:
    """One cross-transaction split-attack shape (windowed ground truth).

    A split attack spreads a single KRP/MBS action sequence over
    ``rounds`` consecutive transactions so each transaction alone never
    matches a pattern — only a matcher that accumulates trades across
    transactions (``repro.leishen.window``) sees the full sequence.
    """

    shape: str  # "mbs" | "krp"
    #: consecutive transactions the action sequence spans.
    rounds: int
    truth_patterns: tuple[str, ...]


#: the split shapes cycled over requested groups (group ``g`` uses spec
#: ``g % len(SPLIT_ATTACK_SPECS)``): an MBS attack whose three profitable
#: rounds land in three consecutive transactions, and a KRP buy series
#: split mid-buy (two rising buys per transaction, the dump in the last).
SPLIT_ATTACK_SPECS: tuple[SplitAttackSpec, ...] = (
    SplitAttackSpec("mbs", 3, ("MBS",)),
    SplitAttackSpec("krp", 3, ("KRP",)),
)


def split_spec_of(group: int) -> SplitAttackSpec:
    """The split-attack shape executed by group ``group``."""
    return SPLIT_ATTACK_SPECS[group % len(SPLIT_ATTACK_SPECS)]


class _SplitSurface:
    """Attack surface for one split-attack group.

    Built like a ``_MiniMarket``, but the body executes ONE round per
    transaction so the full action sequence only exists across the
    window. Every round transaction still takes (and repays) a flash
    loan: LeiShen's identification gate only surfaces flash-loan
    transactions, and an attacker splitting rounds while borrowing per
    round is exactly the adversary windowed detection targets. The KRP
    buy legs are paid from the contract's own pre-seeded capital because
    borrowed funds cannot outlive their transaction — the loan is repaid
    from the held balance each round and the dump round recoups it.
    """

    def __init__(self, market: WildMarket, spec: SplitAttackSpec, group: int) -> None:
        world = market.world
        self.market = market
        self.shape = spec.shape
        self.app = f"SplitTarget{group}"
        if spec.shape == "krp":
            self.asset = f"SPT{group}"
            self.quote = world.new_token(f"SPQ{group}")
            self.target = world.new_token(self.asset)
            pool_target = 1_000_000 * self.target.unit
            pool_quote = 10_000 * self.quote.unit
            self.pool = world.dex_pair(self.target, self.quote, pool_target, pool_quote)
            self.venue = world.margin_venue(
                [self.pool],
                funding={self.quote: 500_000 * self.quote.unit,
                         self.target: 4 * pool_target},
                app=self.app,
            )
            self.venue.emits_trade_events = False
            self.base_quote = 1_000 * self.quote.unit
            #: own capital covering the buy legs + per-round flash fees.
            self.capital = 4 * self.base_quote
            self.flash_pair = world.dex_pair(
                self.quote, market.weth, self.base_quote * 64, 10_000 * ETH
            )
            self.flash_token = self.quote
            self.borrow = self.base_quote * 8
        else:  # mbs: vault + curve mini market, one manipulation round per tx
            from ..study.scenarios.common import imbalance_mark

            self.asset = f"SPM{group}"
            self.underlying = world.new_token(self.asset)
            self.alt = world.new_token(self.asset + "q")
            size_units = 50_000_000 * self.underlying.unit
            self.curve = world.curve_pool(
                {self.underlying: size_units, self.alt: size_units},
                app=self.app + "Swap",
            )
            self.vault = world.vault(
                self.underlying,
                "v" + self.asset,
                app=self.app,
                value_per_underlying=imbalance_mark(self.curve, 0.05),
                seed_amount=size_units * 2,
            )
            self.vault.emits_trade_events = False
            self.deposit = 12_000_000 * self.underlying.unit
            self.manipulation = 10_000_000 * self.underlying.unit
            self.capital = 0
            borrow = self.deposit + self.manipulation
            self.flash_pair = world.dex_pair(
                self.underlying, market.weth, borrow * 2, 10_000 * ETH
            )
            self.flash_token = self.underlying
            # cushion for per-round pool fees, as in the one-shot shape
            self.borrow = borrow + self.manipulation // 25

    def fund(self, contract: Address) -> None:
        """Seed the attack contract's working capital (KRP buy legs)."""
        if self.capital:
            self.flash_token.mint(contract, self.capital)

    def round(self, atk: ScriptedAttackContract, round_index: int, n_rounds: int) -> None:
        """One transaction's slice of the split action sequence."""
        if self.shape == "krp":
            step = self.base_quote // 2
            atk.swap_pool(self.pool.address, self.quote.address, step)
            atk.swap_pool(self.pool.address, self.quote.address, step)
            if round_index == n_rounds - 1:
                amount = atk.balance(self.target.address)
                atk.oracle_swap(
                    self.venue.address, self.target.address, amount, self.quote.address
                )
        else:
            got = atk.curve_swap(self.curve.address, 0, 1, self.manipulation)
            shares = atk.vault_deposit(self.vault.address, self.deposit)
            atk.curve_swap(self.curve.address, 1, 0, got)
            atk.vault_withdraw(self.vault.address, shares)


class WildAttackInjector:
    """Plans and executes the scaled attack population."""

    def __init__(self, market: WildMarket, rng: random.Random, scale: float) -> None:
        self.market = market
        self.rng = rng
        self.scale = scale
        self._mini_markets: dict[tuple[str, str, int], _MiniMarket] = {}
        self._attackers: dict[tuple[str, int], Address] = {}
        self._contracts: dict[tuple[str, int], ScriptedAttackContract] = {}
        self._split_surfaces: dict[int, _SplitSurface] = {}
        self._split_attackers: dict[int, Address] = {}
        self._split_contracts: dict[int, ScriptedAttackContract] = {}

    def plan(self) -> list[AttackPlan]:
        """Scaled list of (cluster, attacker_id, contract_id, asset_id, month)."""
        return plan_attacks(self.scale)

    def execute(self, cluster: AttackCluster, attacker_id: int, contract_id: int,
                asset_id: int, month: int | None,
                mutation: "Mutation | None" = None,
                subsidize: bool = False) -> LabeledTrace:
        mini = self._mini_market(cluster, asset_id)
        attacker = self._attacker(cluster, attacker_id)
        contract = self._contract(cluster, contract_id, attacker)
        token, amount, flash_pair = mini.borrow_spec(mutation)
        # Always consume the provider draw so a mutated run never shifts
        # the shard's RNG stream relative to the baseline schedule.
        provider = self.market.pick_provider()
        if mutation is not None and mutation.provider is not None:
            provider = mutation.provider
        if subsidize:
            # pre-tx fee cushion: mutations that destroy the attack's
            # profit must still *execute* (an evaded detection, not a
            # reverted transaction) for the robustness measurement
            token.mint(contract.address, amount // 3 + 1)
        trace = self.market.run_flash(attacker, contract, mini.body(mutation),
                                      provider, token, amount,
                                      flash_pair=flash_pair)
        if mini.shape in ("mbs", "donation"):
            asset_symbol = mini.underlying.symbol
        elif mini.shape == "mint":
            asset_symbol = mini.token.symbol
        else:
            asset_symbol = mini.target.symbol
        return LabeledTrace(
            trace,
            GroundTruth(
                is_attack=True,
                profile=f"attack:{cluster.shape}",
                net_profit=True,
                source_disclosed=False,
                attacked_app=cluster.app,
                attacker=attacker,
                attack_contract=contract.address,
                asset=asset_symbol,
                month=month,
                patterns=cluster.truth_patterns,
                known=cluster.known,
                family=cluster.family,
            ),
        )

    def execute_split(self, group: int, round_index: int, n_rounds: int) -> LabeledTrace:
        """Execute one round transaction of a cross-transaction split attack.

        The round's trades never match a pattern on their own; the
        ground truth carries ``split_group`` so the windowed evaluation
        can score recall per group rather than per transaction. The
        provider is pinned (no RNG draw) so split tasks never perturb
        the shard's RNG stream.
        """
        spec = split_spec_of(group)
        surface = self._split_surface(spec, group)
        attacker = self._split_attacker(group)
        contract = self._split_contract(group, attacker)
        if round_index == 0:
            surface.fund(contract.address)

        def body(atk: ScriptedAttackContract) -> None:
            surface.round(atk, round_index, n_rounds)

        trace = self.market.run_flash(
            attacker, contract, body, "Uniswap",
            surface.flash_token, surface.borrow,
            flash_pair=surface.flash_pair.address,
        )
        return LabeledTrace(
            trace,
            GroundTruth(
                is_attack=True,
                profile=f"attack-split:{spec.shape}",
                net_profit=round_index == n_rounds - 1,
                source_disclosed=False,
                attacked_app=surface.app,
                attacker=attacker,
                attack_contract=contract.address,
                asset=surface.asset,
                month=None,
                patterns=spec.truth_patterns,
                known=False,
                split_group=group,
            ),
        )

    # -- lazily built pieces ------------------------------------------------

    def _mini_market(self, cluster: AttackCluster, asset_id: int) -> _MiniMarket:
        key = (cluster.app, cluster.shape, asset_id)
        if key not in self._mini_markets:
            size = cluster.profit_usd / 600_000.0  # calibrated per REF profits
            if cluster.amount_factor != 1.0:
                size = 0.05  # dust attacks run on a floor-size market
            asset = f"{cluster.app[:3].upper()}{asset_id}"
            self._mini_markets[key] = _MiniMarket(
                self.market, cluster.app, asset, cluster.shape, size,
                amount_factor=cluster.amount_factor,
                sensitivity=cluster.sensitivity,
            )
        return self._mini_markets[key]

    def _split_surface(self, spec: SplitAttackSpec, group: int) -> _SplitSurface:
        if group not in self._split_surfaces:
            self._split_surfaces[group] = _SplitSurface(self.market, spec, group)
        return self._split_surfaces[group]

    def _split_attacker(self, group: int) -> Address:
        if group not in self._split_attackers:
            # canonical address, like _attacker: the same split group
            # resolves to the same attacker in every shard.
            self._split_attackers[group] = self.market.world.chain.create_eoa(
                f"split-attacker-{group}",
                address=keccak_address("split-attacker", str(group)),
            )
        return self._split_attackers[group]

    def _split_contract(self, group: int, attacker: Address) -> ScriptedAttackContract:
        if group not in self._split_contracts:
            from .profiles import _plan_body

            self._split_contracts[group] = self.market.world.chain.deploy(
                attacker, ScriptedAttackContract, _plan_body,
                hint=f"split-attack-{group}",
                address=keccak_address("split-attack-contract", str(group)),
            )
        return self._split_contracts[group]

    def _attacker(self, cluster: AttackCluster, attacker_id: int) -> Address:
        key = (cluster.app, attacker_id)
        if key not in self._attackers:
            # canonical address: the same logical attacker resolves to the
            # same address in every shard of a sharded scan, keeping the
            # Table VI attacker/contract counts partition-invariant.
            self._attackers[key] = self.market.world.chain.create_eoa(
                f"wild-attacker-{cluster.app}-{attacker_id}",
                address=keccak_address("wild-attacker", cluster.app, str(attacker_id)),
            )
        return self._attackers[key]

    def _contract(self, cluster: AttackCluster, contract_id: int, attacker: Address) -> ScriptedAttackContract:
        key = (cluster.app, contract_id)
        if key not in self._contracts:
            from .profiles import _plan_body

            self._contracts[key] = self.market.world.chain.deploy(
                attacker, ScriptedAttackContract, _plan_body,
                hint=f"wild-attack-{cluster.app}-{contract_id}",
                address=keccak_address("wild-attack-contract", cluster.app, str(contract_id)),
            )
        return self._contracts[key]
