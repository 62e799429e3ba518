"""Experiment harness: every table/figure renders and keeps paper shape."""

import pytest

from repro.engine import ScanEngine
from repro.experiments import ablations, fig1, fig8, perf, table1, table4, table5, table6, table7
from repro.experiments.runner import main
from repro.workload.generator import WildScanConfig


@pytest.fixture(scope="module")
def scan_result():
    return ScanEngine(WildScanConfig(scale=0.01, seed=7)).run()


class TestRenderings:
    def test_fig1(self):
        points = fig1.run()
        totals = {p: sum(pt.counts[p] for pt in points) for p in points[0].counts}
        assert totals == {"Uniswap": 208_342, "dYdX": 41_741, "AAVE": 22_959}
        assert "208342" in fig1.render(points)

    def test_table1_subset(self):
        rows = table1.run(keys=["harvest", "bzx1"])
        text = table1.render(rows)
        assert "Harvest" in text and "bZx-1" in text

    def test_table4_full(self):
        rows = table4.run()
        text = table4.render(rows)
        assert "DeFiRanger 9, Explorer+LeiShen 4, LeiShen 15" in text
        assert all(row.matches_paper for row in rows)

    def test_table5(self, scan_result):
        text = table5.render(scan_result)
        assert "KRP" in text and "precision" in text

    def test_table6(self, scan_result):
        assert "Balancer" in table6.render(scan_result)

    def test_table7(self, scan_result):
        text = table7.render(scan_result)
        assert "total_profit_usd" in text

    def test_fig8(self, scan_result):
        text = fig8.render(scan_result)
        assert "6.5 and 4.3" in text

    def test_perf_within_budget(self):
        stats = perf.run(iterations=5)
        assert stats.mean_ms < 10.0  # the paper's mean latency
        assert stats.p75_ms < 16.0  # the paper's p75


class TestAblations:
    def test_pipeline_variants(self):
        rows = ablations.run_pipeline_ablation(keys=["wault", "harvest", "bzx1"])
        by_name = {row.name: row for row in rows}
        assert by_name["full pipeline"].detected == 3
        # account-level transfers lose the split-contract attack (wault)
        assert by_name["account-level transfers"].detected < 3

    def test_threshold_sweep_monotone(self):
        rows = ablations.run_threshold_sweep(scale=0.005, seed=7)
        base = rows[0]
        relaxed_all = rows[-1]
        assert relaxed_all[1] >= base[1]  # more detections
        assert relaxed_all[3] <= base[3] + 1e-9  # not better precision


class TestRunnerCli:
    def test_runs_single_experiment(self, capsys):
        assert main(["table4"]) == 0
        out = capsys.readouterr().out
        assert "Table IV" in out

    def test_scale_flag(self, capsys):
        assert main(["table5", "--scale", "0.01"]) == 0
        assert "wild scan at scale 0.01" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["nope"])
