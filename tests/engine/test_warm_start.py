"""Warm-start parity: snapshot warm starts never touch results.

For a fixed ``(seed, scale, shards)`` the published scan result is
byte-identical — via the wire encoding, the strictest equality the repo
has — whether shard contexts were built cold or warm-started from a
:class:`ShardContextSnapshot`, whichever form the snapshot arrives in.
"""

from __future__ import annotations

import json

from repro.engine import build_schedule, shard_schedule
from repro.engine.scan import (
    ScanEngine,
    ShardContextSnapshot,
    clear_context_snapshots,
    context_snapshot_for,
    run_shard,
)
from repro.engine.wire import detection_to_wire
from repro.workload.generator import WildScanConfig, WildScanner


def fingerprint(result) -> str:
    """The scan result's full wire identity as one comparable string."""
    return json.dumps(
        {
            "total": result.total_transactions,
            "detections": [detection_to_wire(d) for d in result.detections],
            "rows": {
                name: [row.n, row.tp, row.fp]
                for name, row in sorted(result.rows.items())
            },
        },
        sort_keys=True,
    )


def scan(**overrides) -> str:
    defaults = dict(scale=0.003, seed=7, jobs=1, shards=4)
    defaults.update(overrides)
    return fingerprint(WildScanner(WildScanConfig(**defaults)).run())


class TestWarmStartParity:
    def test_warm_rerun_is_byte_identical(self):
        clear_context_snapshots()
        cold = scan()
        assert context_snapshot_for(0, 4) is not None  # cache populated
        warm = scan()
        assert cold == warm

    def test_warm_start_actually_hits_the_cache(self):
        clear_context_snapshots()
        config = WildScanConfig(scale=0.003, seed=7, jobs=1, shards=4, profile=True)
        cold_engine = ScanEngine(config)
        cold_engine.run()
        assert cold_engine.profile["counters"].get("warm_starts", 0) == 0
        warm_engine = ScanEngine(config)
        warm_engine.run()
        assert warm_engine.profile["counters"]["warm_starts"] == 4

    def test_warm_start_crosses_seed_and_scale(self):
        # build identity is the chain *name* (the market build consumes
        # no rng), so a snapshot cached at one (seed, scale) warms any
        # other config with the same shard naming.
        clear_context_snapshots()
        WildScanner(WildScanConfig(scale=0.003, seed=7, jobs=1, shards=4)).run()
        engine = ScanEngine(
            WildScanConfig(scale=0.002, seed=11, jobs=1, shards=4, profile=True)
        )
        result = engine.run()
        assert engine.profile["counters"]["warm_starts"] == 4
        clear_context_snapshots()
        assert fingerprint(result) == scan(seed=11, scale=0.002)

    def test_run_shard_accepts_wire_snapshot(self):
        clear_context_snapshots()
        config = WildScanConfig(scale=0.003, seed=7, jobs=1, shards=4)
        tasks = shard_schedule(build_schedule(config.scale, config.seed), 4)
        cold = run_shard((config, 0, 4, tasks[0]))
        snapshot = context_snapshot_for(0, 4)
        assert isinstance(snapshot, ShardContextSnapshot)
        wire = snapshot.to_wire()
        assert wire["chain_name"] == "ethereum-s0"
        clear_context_snapshots()
        warm = run_shard((config, 0, 4, tasks[0], wire))
        assert [d.tx_hash for d in cold.detections] == [
            d.tx_hash for d in warm.detections
        ]
        assert cold.row_counts == warm.row_counts

    def test_malformed_snapshot_is_ignored(self):
        clear_context_snapshots()
        config = WildScanConfig(scale=0.003, seed=7, jobs=1, shards=4)
        tasks = shard_schedule(build_schedule(config.scale, config.seed), 4)
        cold = run_shard((config, 0, 4, tasks[0]))
        clear_context_snapshots()
        # wrong chain name: must rebuild cold rather than apply
        bogus = {"chain_name": "ethereum-s3", "tag_snapshot": {}}
        guarded = run_shard((config, 0, 4, tasks[0], bogus))
        assert [d.tx_hash for d in cold.detections] == [
            d.tx_hash for d in guarded.detections
        ]
        assert ShardContextSnapshot.from_wire({"nonsense": 1}) is None
