"""CLI surface of the run ledger: --ledger / --resume on scan/stream/cluster."""

from __future__ import annotations

import pytest

from repro.experiments.runner import main


class TestScanSubcommand:
    def test_scan_renders_without_ledger(self, capsys):
        assert main(["scan", "--scale", "0.005", "--shards", "4"]) == 0
        out = capsys.readouterr().out
        assert "Wild scan at scale 0.005" in out
        assert "ledger:" not in out

    def test_scan_journal_then_resume(self, tmp_path, capsys):
        path = str(tmp_path / "run.ledger")
        assert main(["scan", "--scale", "0.005", "--shards", "4",
                     "--ledger", path]) == 0
        first = capsys.readouterr().out
        assert "0 shard(s) resumed" in first
        assert "4 freshly executed" in first

        assert main(["scan", "--scale", "0.005", "--shards", "4",
                     "--resume", path]) == 0
        second = capsys.readouterr().out
        assert "4 shard(s) resumed" in second
        assert "0 freshly executed" in second


class TestStreamSubcommand:
    def test_stream_journal_then_resume(self, tmp_path, capsys):
        path = str(tmp_path / "run.ledger")
        args = ["stream", "--scale", "0.005", "--shards", "4", "--jobs", "2"]
        assert main([*args, "--ledger", path]) == 0
        first = capsys.readouterr().out
        assert "4 freshly executed" in first
        assert main([*args, "--resume", path]) == 0
        second = capsys.readouterr().out
        assert "4 shard(s) resumed" in second


class TestClusterSubcommand:
    def test_cluster_journal_then_resume(self, tmp_path, capsys):
        path = str(tmp_path / "run.ledger")
        args = ["cluster", "--scale", "0.005", "--shards", "4",
                "--workers", "2", "--no-verify"]
        assert main([*args, "--ledger", path]) == 0
        capsys.readouterr()
        assert main([*args, "--resume", path]) == 0
        second = capsys.readouterr().out
        assert "4 shard(s) resumed from the journal" in second

    def test_verify_compares_full_detections(self):
        """The identity check covers each detection's wire form, not just
        its tx hash: a profit moved by $1 fails it."""
        from repro.engine.scan import ScanEngine
        from repro.experiments import cluster
        from repro.workload.generator import WildScanConfig

        config = WildScanConfig(scale=0.005, seed=7, shards=4)
        result = ScanEngine(config).run()
        assert "byte-identical" in cluster.verify_identity(config, result)
        result.detections[0].profit_usd += 1.0
        with pytest.raises(AssertionError, match="identity violation"):
            cluster.verify_identity(config, result)


class TestStandbyCLI:
    def test_standby_adopts_a_complete_journal(self, tmp_path, capsys):
        """End-to-end --standby: the primary address is already dead and
        the journal already complete, so adoption merges immediately."""
        import socket

        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        dead = "%s:%d" % probe.getsockname()[:2]
        probe.close()

        path = str(tmp_path / "run.ledger")
        assert main(["scan", "--scale", "0.005", "--shards", "4",
                     "--ledger", path]) == 0
        capsys.readouterr()

        assert main(["cluster", "--scale", "0.005", "--shards", "4",
                     "--standby", dead, "--host", "127.0.0.1", "--port", "0",
                     "--resume", path]) == 0
        out = capsys.readouterr().out
        assert "standby following" in out
        assert "adopting the journal" in out
        assert "4 shard(s) adopted from the dead primary's journal" in out


class TestFlagValidation:
    def test_ledger_and_resume_mutually_exclusive(self, tmp_path):
        path = str(tmp_path / "run.ledger")
        with pytest.raises(SystemExit):
            main(["scan", "--ledger", path, "--resume", path])

    def test_resume_requires_existing_file(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["scan", "--resume", str(tmp_path / "absent.ledger")])

    def test_ledger_rejected_for_table_experiments(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["table4", "--ledger", str(tmp_path / "run.ledger")])

    def test_ledger_rejected_for_worker_mode(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["cluster", "--connect", "127.0.0.1:9", "--ledger",
                  str(tmp_path / "run.ledger")])

    def test_compact_every_requires_ledger(self):
        with pytest.raises(SystemExit):
            main(["scan", "--compact-every", "2"])

    def test_compact_every_must_be_positive(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["scan", "--ledger", str(tmp_path / "run.ledger"),
                  "--compact-every", "0"])

    def test_standby_requires_ledger(self):
        with pytest.raises(SystemExit):
            main(["cluster", "--standby", "127.0.0.1:9733"])

    def test_standby_and_serve_mutually_exclusive(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["cluster", "--standby", "127.0.0.1:9733", "--serve",
                  "--ledger", str(tmp_path / "run.ledger")])

    def test_standby_rejected_outside_cluster(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["scan", "--standby", "127.0.0.1:9733",
                  "--ledger", str(tmp_path / "run.ledger")])

    def test_connect_rejects_malformed_address_list(self):
        with pytest.raises(ValueError, match="--connect expects HOST:PORT"):
            main(["cluster", "--connect", "127.0.0.1:9733,badaddress"])

    def test_config_mismatch_fails_loudly(self, tmp_path, capsys):
        from repro.runtime import LedgerError

        path = str(tmp_path / "run.ledger")
        assert main(["scan", "--scale", "0.005", "--shards", "4",
                     "--ledger", path]) == 0
        capsys.readouterr()
        with pytest.raises(LedgerError, match="config digest mismatch"):
            main(["scan", "--scale", "0.01", "--shards", "4",
                  "--resume", path])
