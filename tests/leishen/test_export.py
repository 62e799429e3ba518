"""JSON export of reports and scan results."""

import json

import pytest

from repro.leishen import report_to_dict, report_to_json, scan_result_to_dict


class TestReportExport:
    def test_round_trips_through_json(self, bzx1_outcome):
        report = bzx1_outcome.world.detector().analyze(bzx1_outcome.trace)
        text = report_to_json(report, bzx1_outcome.world.registry)
        data = json.loads(text)
        assert data["is_attack"] is True
        assert data["patterns"] == ["SBS"]
        assert data["flash_loans"][0]["provider"] == "dYdX"
        assert data["price_volatility"] == pytest.approx(report.volatility())

    def test_symbols_resolved_via_registry(self, bzx1_outcome):
        report = bzx1_outcome.world.detector().analyze(bzx1_outcome.trace)
        data = report_to_dict(report, bzx1_outcome.world.registry)
        traded = {leg["sell"]["token"] for leg in data["trades"]}
        traded |= {leg["buy"]["token"] for leg in data["trades"]}
        assert "WBTC" in traded

    def test_amounts_are_strings(self, bzx1_outcome):
        """Wei-scale integers exceed JSON number precision; they must be
        serialized as strings."""
        report = bzx1_outcome.world.detector().analyze(bzx1_outcome.trace)
        data = report_to_dict(report)
        assert all(isinstance(l["amount"], str) for l in data["flash_loans"])
        assert all(isinstance(t["sell"]["amount"], str) for t in data["trades"])

    def test_benign_report_exports(self, world):
        from repro.study.scenarios.base import ScriptedAttackContract

        token = world.new_token("EXB")
        solo = world.dydx(funding={token: 10**6 * token.unit})
        user = world.create_attacker("u")
        bot = world.chain.deploy(user, ScriptedAttackContract, lambda atk: None)
        token.mint(bot.address, 10)
        trace = world.chain.transact(
            user, bot.address, "run_dydx", solo.address, token.address, 10**3 * token.unit
        )
        report = world.detector().analyze(trace)
        data = report_to_dict(report)
        assert data["is_attack"] is False and data["patterns"] == []


class TestScanExport:
    def test_scan_summary_json_safe(self):
        from repro.engine import ScanEngine
        from repro.workload import WildScanConfig

        result = ScanEngine(WildScanConfig(scale=0.005, seed=9)).run()
        data = scan_result_to_dict(result)
        json.dumps(data)  # must not raise
        assert data["per_pattern"]["KRP"]["fp"] == 0
        assert data["detected"] == result.detected_count
