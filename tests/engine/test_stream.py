"""Streaming pipeline: batch identity, ordering, backpressure, replay.

The contract under test mirrors the batch engine's: streaming changes
*when* detections become visible (block-ordered, as the watermark
passes), never *what* is detected — for a fixed ``(seed, scale, shards)``
the merged result is byte-identical to ``ScanEngine.run()``.
"""

from __future__ import annotations

import pytest

from repro.engine import (
    ScanEngine,
    StreamBlock,
    StreamEngine,
    build_schedule,
    schedule_block_stream,
    screen_blocks,
    shard_of,
    shard_schedule,
)
from repro.engine.stream import BlockStats, StreamResult
from repro.workload.generator import WildScanConfig
from repro.workload.timeline import STUDY_FIRST_BLOCK, STUDY_LAST_BLOCK
from tests.fingerprint import fingerprint

SCALE = 0.005
SEED = 7


@pytest.fixture(scope="module")
def batch_result():
    return ScanEngine(WildScanConfig(scale=SCALE, seed=SEED, jobs=1, shards=4)).run()


@pytest.fixture(scope="module")
def streamed():
    config = WildScanConfig(scale=SCALE, seed=SEED, jobs=4, shards=4)
    return StreamEngine(config, queue_depth=16, block_size=16).run()


class TestStreamIdentity:
    def test_stream_equals_batch(self, batch_result, streamed):
        assert fingerprint(streamed.result) == fingerprint(batch_result)

    def test_stream_identical_across_jobs(self, streamed):
        config = WildScanConfig(scale=SCALE, seed=SEED, jobs=1, shards=4)
        single = StreamEngine(config, queue_depth=16, block_size=16).run()
        assert fingerprint(single.result) == fingerprint(streamed.result)


class TestStreamMechanics:
    def test_blocks_emitted_in_order(self, streamed):
        numbers = [stats.number for stats in streamed.blocks]
        assert numbers == sorted(numbers)
        assert len(numbers) == len(set(numbers))

    def test_blocks_cover_the_population(self, streamed):
        assert sum(stats.transactions for stats in streamed.blocks) == (
            streamed.total_transactions
        )
        assert sum(stats.detections for stats in streamed.blocks) == len(
            streamed.result.detections
        )

    def test_backpressure_bound_held(self, streamed):
        assert 0 < streamed.max_queue_depth <= streamed.queue_depth

    def test_on_block_sees_detections_live(self):
        config = WildScanConfig(scale=SCALE, seed=SEED, jobs=2, shards=4)
        seen: list[tuple[int, int]] = []

        def on_block(stats, detections):
            assert stats.detections == len(detections)
            seen.append((stats.number, len(detections)))

        result = StreamEngine(config, block_size=16).run(on_block=on_block)
        assert seen == [(s.number, s.detections) for s in result.blocks]
        assert sum(count for _, count in seen) == len(result.result.detections)

    def test_worker_error_propagates(self):
        config = WildScanConfig(scale=SCALE, seed=SEED, jobs=2, shards=4)
        bogus = StreamBlock(number=1, entries=((0, ("no-such-kind",)),))
        with pytest.raises(IndexError):
            StreamEngine(config).run(source=[bogus])

    def test_queue_depth_and_block_size_validated(self):
        config = WildScanConfig(scale=SCALE, seed=SEED)
        with pytest.raises(ValueError, match="queue_depth"):
            StreamEngine(config, queue_depth=0)
        with pytest.raises(ValueError, match="block_size"):
            StreamEngine(config, block_size=0)


class TestBlockStream:
    def test_covers_schedule_contiguously(self):
        tasks = build_schedule(SCALE, SEED)
        blocks = list(schedule_block_stream(tasks, block_size=16))
        positions = [p for block in blocks for p, _ in block.entries]
        assert positions == list(range(len(tasks)))
        assert all(len(block.entries) <= 16 for block in blocks)

    def test_heights_monotonic_within_study_window(self):
        tasks = build_schedule(SCALE, SEED)
        numbers = [b.number for b in schedule_block_stream(tasks, block_size=16)]
        assert numbers == sorted(numbers)
        assert all(
            STUDY_FIRST_BLOCK <= number <= STUDY_LAST_BLOCK for number in numbers
        )

    def test_shard_of_matches_round_robin_partition(self):
        tasks = build_schedule(SCALE, SEED)
        parts = shard_schedule(tasks, 4)
        for position, task in enumerate(tasks):
            shard = shard_of(position, 4)
            assert parts[shard][position // 4] == task


class TestLatencyPercentile:
    """Nearest-rank percentiles: ``ceil(fraction * n) - 1``, zero-based.

    The regression pinned here: ``int(fraction * n)`` mapped p95 of 20
    blocks to index 19 — the maximum, i.e. p100 — overstating tail
    latency by one whole rank."""

    @staticmethod
    def _result(latencies):
        blocks = [
            BlockStats(
                number=i, transactions=1, detections=0,
                latency_ms=value, detect_ms=0.0,
            )
            for i, value in enumerate(latencies)
        ]
        return StreamResult(
            result=None, blocks=blocks, elapsed_s=1.0, jobs=1,
            shard_count=1, queue_depth=1, block_size=1,
        )

    def test_known_list_p50_p95_p100(self):
        # 20 blocks with latencies 1..20 ms, shuffled to prove sorting
        latencies = [float(v) for v in range(1, 21)]
        latencies = latencies[10:] + latencies[:10]
        result = self._result(latencies)
        assert result.latency_percentile(0.50) == 10.0  # ceil(10) - 1 = rank 10
        assert result.latency_percentile(0.95) == 19.0  # NOT the 20.0 maximum
        assert result.latency_percentile(1.00) == 20.0  # p100 is the maximum

    def test_small_and_degenerate_lists(self):
        assert self._result([]).latency_percentile(0.95) == 0.0
        single = self._result([7.0])
        assert single.latency_percentile(0.0) == 7.0
        assert single.latency_percentile(0.5) == 7.0
        assert single.latency_percentile(1.0) == 7.0
        pair = self._result([1.0, 2.0])
        assert pair.latency_percentile(0.5) == 1.0
        assert pair.latency_percentile(0.51) == 2.0


class TestReplayScreening:
    def test_screen_blocks_replays_recorded_history(self, world):
        from repro.study.scenarios.base import ScriptedAttackContract

        token = world.new_token("RP")
        solo = world.dydx(funding={token: 10**6 * token.unit})
        user = world.create_attacker("replay-user")
        bot = world.chain.deploy(user, ScriptedAttackContract, lambda atk: None)
        token.mint(bot.address, 10)
        first = world.chain.block_number + 1
        world.chain.mine()
        world.chain.transact(
            user, bot.address, "run_dydx", solo.address, token.address,
            1_000 * token.unit,
        )
        from repro.chain.explorer import ChainExplorer

        blocks = ChainExplorer(world.chain).blocks_between(
            first, world.chain.block_number
        )
        screened = list(screen_blocks(world.detector(), blocks))
        assert len(screened) == 1  # only the flash loan tx is yielded
        assert not screened[0].is_attack
        assert screened[0].latency_ms >= 0

    def test_screen_blocks_detects_a_real_attack(self, bzx1_outcome):
        from repro.chain.explorer import ChainExplorer

        world = bzx1_outcome.world
        blocks = ChainExplorer(world.chain).blocks_between(
            0, world.chain.block_number
        )
        attacks = [s for s in screen_blocks(world.detector(), blocks) if s.is_attack]
        assert [s.report.tx_hash for s in attacks] == [bzx1_outcome.trace.tx_hash]
        assert set(attacks[0].report.patterns) == {"SBS"}  # bZx-1's pattern
