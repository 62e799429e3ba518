"""Windowed streaming: per-tx identity, split-attack recall, bounded state.

The windowed matcher is strictly additive observability. These tests pin
the three sides of that contract end to end: (1) enabling the window
never changes a byte of the per-transaction result, for any jobs/shards;
(2) attacks split across transactions — invisible per-tx by construction
— are recovered by the window with the right contributing transactions;
(3) window state stays bounded over a long replay.
"""

from __future__ import annotations

import pytest

from repro.engine import ScanEngine
from repro.engine.stream import StreamEngine
from repro.leishen.window import windowed_recall
from repro.workload.attacks import SPLIT_ATTACK_SPECS, split_spec_of
from repro.workload.generator import WildScanConfig
from tests.fingerprint import fingerprint

SCALE = 0.005
SEED = 7
SPLITS = 2


def _config(jobs=1, shards=4, splits=SPLITS):
    return WildScanConfig(
        scale=SCALE, seed=SEED, jobs=jobs, shards=shards, split_attacks=splits
    )


@pytest.fixture(scope="module")
def batch_result():
    return ScanEngine(_config(jobs=1)).run()


@pytest.fixture(scope="module")
def windowed_run():
    engine = StreamEngine(_config(jobs=2), block_size=16, windowed=True)
    return engine.run(), engine


class TestPerTxIdentity:
    def test_windowed_off_equals_batch(self, batch_result):
        streamed = StreamEngine(_config(jobs=2), block_size=16).run()
        assert fingerprint(streamed.result) == fingerprint(batch_result)
        assert streamed.windowed is None
        assert streamed.window_blocks == 0

    def test_windowed_on_leaves_per_tx_result_identical(
        self, batch_result, windowed_run
    ):
        streamed, _ = windowed_run
        assert fingerprint(streamed.result) == fingerprint(batch_result)

    def test_windowed_detections_identical_across_jobs(self, windowed_run):
        streamed, _ = windowed_run
        single = StreamEngine(_config(jobs=1), block_size=16, windowed=True).run()
        assert single.windowed == streamed.windowed
        assert fingerprint(single.result) == fingerprint(streamed.result)

    def test_windowed_detections_stable_under_smaller_blocks(self, windowed_run):
        streamed, _ = windowed_run
        # a smaller block size re-partitions the stream (so block spans
        # shift), but what is detected — pattern, token, tag, and the
        # contributing transactions — must not move.
        rerun = StreamEngine(_config(jobs=3), block_size=4, windowed=True).run()

        def identity(detection):
            return (
                detection.pattern,
                detection.target_token,
                detection.borrower_tag,
                detection.tx_hashes,
                detection.split_group,
            )

        assert sorted(map(identity, rerun.windowed)) == sorted(
            map(identity, streamed.windowed)
        )


class TestSplitAttackRecall:
    def test_split_rounds_are_missed_per_tx_and_recovered_windowed(
        self, batch_result, windowed_run
    ):
        streamed, _ = windowed_run
        assert windowed_recall(streamed.windowed, range(SPLITS)) == 1.0
        labelled = {
            d.split_group: d for d in streamed.windowed if d.split_group is not None
        }
        assert sorted(labelled) == list(range(SPLITS))
        per_tx_hashes = {d.tx_hash for d in batch_result.detections}
        for group, detection in labelled.items():
            spec = split_spec_of(group)
            assert detection.pattern in spec.truth_patterns
            # every split round contributed, and none of those rounds
            # was visible to the per-transaction detector.
            assert len(detection.tx_hashes) == spec.rounds
            assert len(set(detection.tx_hashes)) == spec.rounds
            assert not set(detection.tx_hashes) & per_tx_hashes
        # the two groups are distinct attacks with distinct transactions
        groups = list(labelled.values())
        assert not set(groups[0].tx_hashes) & set(groups[1].tx_hashes)

    def test_block_span_recorded(self, windowed_run):
        streamed, _ = windowed_run
        for detection in streamed.windowed:
            assert detection.first_block <= detection.last_block
            assert detection.borrower_tag

    def test_no_spurious_windowed_detections_without_splits(self):
        streamed = StreamEngine(
            _config(jobs=2, splits=0), block_size=16, windowed=True
        ).run()
        assert streamed.windowed == []

    def test_covers_both_split_shapes(self):
        # the fixture exercises one MBS and one KRP group — keep that
        # true if the spec table ever changes.
        shapes = {split_spec_of(g).shape for g in range(SPLITS)}
        assert shapes == {spec.shape for spec in SPLIT_ATTACK_SPECS[:SPLITS]}


class TestBoundedWindowState:
    def test_window_state_bounded_over_long_small_block_replay(self):
        engine = StreamEngine(
            _config(jobs=2), block_size=4, windowed=True, window_blocks=3
        )
        high_water = []

        def sample(stats, detections):
            matcher = engine.window_matcher
            high_water.append((matcher.block_count, matcher.observation_count))
            assert matcher.block_count <= 3

        streamed = engine.run(on_block=sample)
        assert len(high_water) == len(streamed.blocks)
        assert engine.window_matcher.block_count <= 3
        # the replay is much longer than the window, so the bound binds.
        assert len(streamed.blocks) > 3
        assert max(count for count, _ in high_water) == 3

    def test_window_blocks_validated(self):
        with pytest.raises(ValueError):
            StreamEngine(_config(), windowed=True, window_blocks=0)
