"""Stream-engine ledger integration: journal at end of stream, skip on
resume, merge from the journal.

Resume granularity for the stream engine is the shard (contexts only
finalize at end of stream), so the contract here is: journaled shards
never re-enter the pipeline, fresh shards are journaled once the stream
drains, and a resumed merge is byte-identical to an uninterrupted one.
"""

from __future__ import annotations

import pytest

from repro.engine.plan import build_schedule, shard_schedule
from repro.engine.scan import ScanEngine, run_shard
from repro.engine.stream import StreamEngine
from repro.runtime import RunLedger
from repro.workload.generator import WildScanConfig
from tests.fingerprint import fingerprint

SCALE = 0.005
SEED = 7
SHARDS = 4


def _config(jobs: int = 2) -> WildScanConfig:
    return WildScanConfig(scale=SCALE, seed=SEED, jobs=jobs, shards=SHARDS)


@pytest.fixture(scope="module")
def cold_result():
    return ScanEngine(_config(jobs=1)).run()


class TestStreamLedger:
    def test_journaled_stream_matches_batch(self, tmp_path, cold_result):
        engine = StreamEngine(_config(), ledger=tmp_path / "s.ledger")
        streamed = engine.run()
        assert engine.ledger.recorded_count == SHARDS
        assert fingerprint(streamed.result) == fingerprint(cold_result)

    def test_partial_ledger_resumes_identical(self, tmp_path, cold_result):
        cfg = _config()
        path = tmp_path / "s.ledger"
        parts = shard_schedule(build_schedule(cfg.scale, cfg.seed), SHARDS)
        partial = RunLedger.create(path, cfg, SHARDS)
        for index in (0, 2):
            partial.record(run_shard((cfg, index, SHARDS, parts[index])))
        partial.close()

        engine = StreamEngine(cfg, ledger=path)
        streamed = engine.run()
        assert engine.ledger.resumed_count == 2
        assert engine.ledger.recorded_count == 2
        assert fingerprint(streamed.result) == fingerprint(cold_result)
        # journaled shards never entered the pipeline: every streamed
        # block only carries the two remaining shards' transactions.
        streamed_txs = sum(stats.transactions for stats in streamed.blocks)
        expected = sum(len(parts[index]) for index in (1, 3))
        assert streamed_txs == expected

    def test_complete_ledger_streams_nothing(self, tmp_path, cold_result):
        cfg = _config()
        path = tmp_path / "s.ledger"
        StreamEngine(cfg, ledger=path).run()

        engine = StreamEngine(cfg, ledger=path)
        streamed = engine.run()
        assert engine.ledger.resumed_count == SHARDS
        assert engine.ledger.recorded_count == 0
        assert streamed.blocks == []
        assert fingerprint(streamed.result) == fingerprint(cold_result)

    def test_ledger_rejected_with_custom_source(self, tmp_path):
        engine = StreamEngine(_config(), ledger=tmp_path / "s.ledger")
        with pytest.raises(ValueError, match="canonical schedule"):
            engine.run(source=iter(()))
