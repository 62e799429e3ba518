"""Wild scan: population generation, detection, verification tables."""

import pytest

from repro.engine import ScanEngine
from repro.workload import WildScanConfig


@pytest.fixture(scope="module")
def scan_result():
    return ScanEngine(WildScanConfig(scale=0.01, seed=7)).run()


@pytest.fixture(scope="module")
def scan_with_heuristic():
    return ScanEngine(WildScanConfig(scale=0.01, seed=7, with_heuristic=True)).run()


class TestScan:
    def test_population_size_scales(self, scan_result):
        assert scan_result.total_transactions == pytest.approx(2_730, abs=60)

    def test_krp_precision_always_100(self, scan_result):
        krp = scan_result.rows["KRP"]
        assert krp.n > 0 and krp.fp == 0

    def test_sbs_has_false_positives(self, scan_result):
        sbs = scan_result.rows["SBS"]
        assert sbs.tp > 0 and sbs.fp >= 1  # the migration look-alikes

    def test_mbs_lowest_precision(self, scan_result):
        rows = {r.pattern: r for r in scan_result.table5()}
        assert rows["MBS"].precision < rows["KRP"].precision
        assert rows["MBS"].precision <= rows["SBS"].precision + 0.15

    def test_overall_precision_in_paper_band(self, scan_result):
        assert 0.6 <= scan_result.precision <= 1.0
        assert scan_result.true_positives >= 15  # ~20 injected at this scale

    def test_heuristic_raises_mbs_precision(self, scan_result, scan_with_heuristic):
        before = scan_result.rows["MBS"]
        after = scan_with_heuristic.rows["MBS"]
        assert after.fp < before.fp
        assert after.precision > before.precision
        assert after.tp == before.tp  # no true attacks suppressed

    def test_deterministic_given_seed(self):
        a = ScanEngine(WildScanConfig(scale=0.005, seed=3)).run()
        b = ScanEngine(WildScanConfig(scale=0.005, seed=3)).run()
        assert a.detected_count == b.detected_count
        assert [d.tx_hash for d in a.detections] == [d.tx_hash for d in b.detections]

    def test_different_seed_differs(self):
        a = ScanEngine(WildScanConfig(scale=0.005, seed=3)).run()
        b = ScanEngine(WildScanConfig(scale=0.005, seed=4)).run()
        assert [d.tx_hash for d in a.detections] != [d.tx_hash for d in b.detections]


class TestTables:
    def test_table6_groups_unknown_attacks(self, scan_result):
        rows = scan_result.table6()
        assert rows
        apps = {row[0] for row in rows}
        assert "Balancer" in apps or "Uniswap" in apps
        for _, attacks, attackers, contracts, assets in rows:
            assert attackers <= attacks and contracts <= attacks and assets <= attacks

    def test_table7_heavy_tail(self, scan_result):
        stats = scan_result.table7()
        assert stats["max_profit_usd"] > 100 * stats["min_profit_usd"]
        assert stats["total_profit_usd"] > stats["max_profit_usd"]
        assert stats["top10_profit_usd"] >= stats["top20_profit_usd"]

    def test_fig8_months_within_range(self, scan_result):
        months = scan_result.fig8_months()
        assert months
        assert all(5 <= m <= 27 for m in months)

    def test_no_detection_before_first_flpattack(self, scan_result):
        """Paper Sec. VI-D: no attacks detected before bZx-1 (Feb 2020)."""
        months = scan_result.fig8_months()
        assert all(m >= 1 for m in months)


class TestConfigValidation:
    def test_zero_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            WildScanConfig(scale=0.005, seed=7, jobs=0)

    def test_negative_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            WildScanConfig(scale=0.005, seed=7, jobs=-2)

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError, match="shards"):
            WildScanConfig(scale=0.005, seed=7, shards=0)

    def test_default_and_explicit_values_accepted(self):
        WildScanConfig(scale=0.005, seed=7)  # shards=None: automatic
        WildScanConfig(scale=0.005, seed=7, jobs=1, shards=1)


class TestEmptyResultGuards:
    """Division guards: empty scans report 0.0, never ZeroDivisionError."""

    def test_pattern_row_with_no_matches(self):
        from repro.workload.generator import PatternRow

        row = PatternRow(pattern="KRP")
        assert row.precision == 0.0

    def test_result_with_no_detections(self):
        from repro.workload.generator import WildScanResult

        result = WildScanResult(config=WildScanConfig(scale=0.005, seed=7))
        assert result.detected_count == 0
        assert result.true_positives == 0
        assert result.precision == 0.0
