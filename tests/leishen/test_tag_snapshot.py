"""Tag-cache warm start: snapshots must never change a tag result.

``AccountTagger.label_sync_snapshot()`` captures the synced label and
creation-tree state right after a deterministic world build; a
:class:`ShardContextSnapshot` carrying it into an identically built
chain skips the cold sync. The contract pinned here: warm start is
*safe-or-ignored* — it either reproduces the cold tagger bit for bit,
or (on any mismatch) is silently dropped and the cold sync runs instead.
"""

from __future__ import annotations

import pytest

from repro.engine.scan import (
    ShardContextSnapshot,
    build_shard_context,
    clear_context_snapshots,
    context_snapshot_for,
    run_shard,
)
from repro.leishen.tagging import AccountTagger
from repro.workload.generator import WildScanConfig

SCALE = 0.005
SEED = 7
SHARDS = 4


@pytest.fixture(autouse=True)
def _fresh_snapshot_store():
    clear_context_snapshots()
    yield
    clear_context_snapshots()


def _config() -> WildScanConfig:
    return WildScanConfig(scale=SCALE, seed=SEED, shards=SHARDS)


def _capsule(ctx) -> ShardContextSnapshot:
    """A context snapshot of ``ctx``'s freshly built tagger."""
    return ShardContextSnapshot(
        chain_name=ctx.detector.chain.name,
        tag_snapshot=ctx.detector.tagger.label_sync_snapshot(),
    )


class TestSnapshotEquivalence:
    def test_warm_tagger_resolves_identical_tags(self):
        cold_ctx = build_shard_context(_config(), 0, SHARDS)
        cold_tagger = cold_ctx.detector.tagger
        assert not cold_tagger.warm_started
        capsule = _capsule(cold_ctx)
        clear_context_snapshots()  # warm only from the capsule passed in

        warm_ctx = build_shard_context(_config(), 0, SHARDS, capsule)
        warm_tagger = warm_ctx.detector.tagger
        assert warm_tagger.warm_started
        chain = warm_ctx.detector.chain
        addresses = set(chain.created_by) | set(chain.labels)
        assert addresses, "world build produced no accounts to tag"
        for address in sorted(addresses):
            assert warm_tagger.tag_of(address) == cold_tagger.tag_of(address)

    def test_warm_shard_result_byte_identical(self):
        """A full shard executed on a warm-started tagger produces the
        same ShardResult as the cold build — detections, counters, all."""
        cfg = _config()
        from repro.engine.plan import build_schedule, shard_schedule

        parts = shard_schedule(build_schedule(cfg.scale, cfg.seed), SHARDS)
        cold = run_shard((cfg, 1, SHARDS, parts[1]))
        capsule = context_snapshot_for(1, SHARDS)
        assert capsule is not None  # captured by the first build
        clear_context_snapshots()
        warm = run_shard((cfg, 1, SHARDS, parts[1], capsule))
        assert warm.total_transactions == cold.total_transactions
        assert [d.tx_hash for d in warm.detections] == [
            d.tx_hash for d in cold.detections
        ]
        assert warm.row_counts == cold.row_counts

    def test_snapshot_is_json_safe(self):
        import json

        ctx = build_shard_context(_config(), 0, SHARDS)
        capsule = _capsule(ctx)
        wire = json.loads(json.dumps(capsule.to_wire()))
        decoded = ShardContextSnapshot.from_wire(wire)
        assert decoded == capsule
        tagger = AccountTagger(ctx.detector.chain, snapshot=decoded.tag_snapshot)
        assert tagger.warm_started


class TestSnapshotRejection:
    def test_foreign_chain_snapshot_ignored(self):
        """A snapshot from shard 0 must be rejected by shard 1's chain
        (different namespace), falling back to the cold sync."""
        ctx0 = build_shard_context(_config(), 0, SHARDS)
        capsule = _capsule(ctx0)
        ctx1 = build_shard_context(_config(), 1, SHARDS, capsule)
        assert not ctx1.detector.tagger.warm_started
        # the tagger itself rejects shard 0's state, whatever name it rides under
        tagger = AccountTagger(ctx1.detector.chain, snapshot=capsule.tag_snapshot)
        assert not tagger.warm_started

    def test_stale_generation_snapshot_ignored(self):
        ctx = build_shard_context(_config(), 0, SHARDS)
        snapshot = ctx.detector.tagger.label_sync_snapshot()
        stale = dict(snapshot, version=snapshot["version"] - 1)
        tagger = AccountTagger(ctx.detector.chain, snapshot=stale)
        assert not tagger.warm_started

    def test_malformed_snapshot_ignored(self):
        ctx = build_shard_context(_config(), 0, SHARDS)
        tagger = AccountTagger(ctx.detector.chain, snapshot={"nonsense": True})
        assert not tagger.warm_started
        # and the cold sync still produced a working tagger
        chain = ctx.detector.chain
        for address in list(chain.labels)[:3]:
            assert tagger.tag_of(address) is not None


class TestProcessLevelStore:
    def test_rebuilding_same_shard_warm_starts(self):
        first = build_shard_context(_config(), 2, SHARDS)
        assert not first.detector.tagger.warm_started
        second = build_shard_context(_config(), 2, SHARDS)
        assert second.detector.tagger.warm_started

    def test_store_is_keyed_by_shard(self):
        build_shard_context(_config(), 0, SHARDS)
        assert context_snapshot_for(0, SHARDS) is not None
        assert context_snapshot_for(3, SHARDS) is None

    def test_clear_resets_the_store(self):
        build_shard_context(_config(), 0, SHARDS)
        clear_context_snapshots()
        assert context_snapshot_for(0, SHARDS) is None
        rebuilt = build_shard_context(_config(), 0, SHARDS)
        assert not rebuilt.detector.tagger.warm_started
