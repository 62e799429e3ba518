"""DeFiRanger, Explorer+LeiShen, and volatility baselines."""

import pytest

from repro.baselines import DeFiRanger, ExplorerLeiShen, VolatilityDetector
from repro.study.scenarios import SCENARIO_BUILDERS


class TestDeFiRanger:
    def test_detects_symmetric_round_attacks(self, harvest_outcome):
        assert DeFiRanger(harvest_outcome.world.chain).detect(harvest_outcome.trace)

    def test_misses_victim_executed_raise(self, bzx1_outcome):
        """bZx-1's raise is the venue's trade; the symmetric trades hit
        different accounts — outside DeFiRanger's two-trade rule."""
        assert not DeFiRanger(bzx1_outcome.world.chain).detect(bzx1_outcome.trace)

    def test_misses_batch_buying(self):
        outcome = SCENARIO_BUILDERS["bzx2"]()
        assert not DeFiRanger(outcome.world.chain).detect(outcome.trace)

    def test_non_flash_tx_is_none(self, world):
        token = world.new_token("DR")
        a, b = world.create_attacker("a"), world.create_attacker("b")
        token.mint(a, 10)
        trace = world.chain.transact(a, token.address, "transfer", b, 5)
        assert DeFiRanger(world.chain).analyze(trace) is None

    def test_report_contains_evidence(self, harvest_outcome):
        report = DeFiRanger(harvest_outcome.world.chain).analyze(harvest_outcome.trace)
        assert report.is_attack and len(report.evidence) >= 3  # three rounds


class TestExplorerLeiShen:
    def test_detects_event_rich_attacks(self, harvest_outcome):
        assert ExplorerLeiShen(harvest_outcome.world.chain).detect(harvest_outcome.trace)

    def test_misses_eventless_venues(self):
        outcome = SCENARIO_BUILDERS["cheesebank"]()
        assert not ExplorerLeiShen(outcome.world.chain).detect(outcome.trace)

    def test_event_trades_match_transfer_trades_for_uniswap(self, bzx1_outcome):
        explorer = ExplorerLeiShen(bzx1_outcome.world.chain)
        trades = explorer.extract_trades(bzx1_outcome.trace)
        # only the two Uniswap swaps are event-visible in bZx-1
        assert len(trades) == 2

    def test_vault_events_lift_to_mint_remove(self, harvest_outcome):
        from repro.leishen import TradeKind

        explorer = ExplorerLeiShen(harvest_outcome.world.chain)
        trades = explorer.extract_trades(harvest_outcome.trace)
        kinds = {t.kind for t in trades}
        assert TradeKind.MINT_LIQUIDITY in kinds
        assert TradeKind.REMOVE_LIQUIDITY in kinds

    def test_registry_parity_with_detector_on_event_rich_attack(self, harvest_outcome):
        """Both paths run the same registry plugins: on a venue whose
        events carry the full trade stream, the explorer baseline and
        the transfer-lifting detector must agree pattern for pattern."""
        world = harvest_outcome.world
        report = world.detector().analyze(harvest_outcome.trace)
        matches = ExplorerLeiShen(world.chain).analyze(harvest_outcome.trace)
        assert matches and report is not None
        assert {m.pattern for m in matches} == report.patterns

    def test_settings_seam_disables_patterns(self, harvest_outcome):
        """The baseline honours the same enabled-set seam as the
        detector — disabling MBS blinds it to Harvest."""
        from repro.leishen.registry import PatternSettings

        settings = PatternSettings(enabled=("KRP", "SBS"))
        explorer = ExplorerLeiShen(harvest_outcome.world.chain, settings)
        assert not explorer.detect(harvest_outcome.trace)

    def test_settings_still_tune_thresholds(self, harvest_outcome):
        from repro.leishen.registry import PatternSettings

        strict = ExplorerLeiShen(
            harvest_outcome.world.chain,
            PatternSettings.make(params={"MBS": {"min_rounds": 99}}),
        )
        assert not strict.detect(harvest_outcome.trace)


class TestVolatilityDetector:
    def test_flags_extreme_volatility(self):
        outcome = SCENARIO_BUILDERS["balancer"]()
        detector = VolatilityDetector(outcome.world.detector(), threshold=0.99)
        assert detector.detect(outcome.trace)

    def test_misses_low_volatility_attack(self, harvest_outcome):
        """Harvest's 0.5% volatility sails under the 99% threshold —
        the paper's argument against threshold-only detection."""
        detector = VolatilityDetector(harvest_outcome.world.detector(), threshold=0.99)
        assert not detector.detect(harvest_outcome.trace)
        # yet LeiShen catches it
        assert harvest_outcome.world.detector().detect(harvest_outcome.trace)

    def test_report_carries_measured_volatility(self, bzx1_outcome):
        detector = VolatilityDetector(bzx1_outcome.world.detector(), threshold=0.2)
        report = detector.analyze(bzx1_outcome.trace)
        assert report.max_volatility == pytest.approx(0.4167, rel=0.05)
        assert report.is_attack
