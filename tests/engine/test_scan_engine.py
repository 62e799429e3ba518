"""The sharded scan engine's determinism contract and plumbing.

The load-bearing guarantee: ``jobs`` is an execution knob only. For a
fixed ``(seed, scale, shards)`` every published result — Table V rows,
Table VI rows, detections, the Fig. 8 histogram, even the rendered
experiment text — is byte-identical at ``jobs=1`` and ``jobs=4``.
"""

from __future__ import annotations

import pytest

from repro.engine import (
    DEFAULT_SHARD_COUNT,
    MIN_SHARDED_POPULATION,
    ScanEngine,
    build_schedule,
    population_size,
    resolve_shard_count,
    shard_schedule,
    shard_seed,
)
from repro.workload.generator import WildScanConfig
from tests.fingerprint import fingerprint

SCALE = 0.005
SEED = 7


@pytest.fixture(scope="module")
def sequential_result():
    return ScanEngine(WildScanConfig(scale=SCALE, seed=SEED, jobs=1, shards=4)).run()


@pytest.fixture(scope="module")
def parallel_result():
    return ScanEngine(WildScanConfig(scale=SCALE, seed=SEED, jobs=4, shards=4)).run()


class TestJobsDeterminism:
    def test_results_identical_across_jobs(self, sequential_result, parallel_result):
        assert fingerprint(sequential_result) == fingerprint(parallel_result)

    def test_detection_hashes_unique_across_shards(self, parallel_result):
        hashes = [d.tx_hash for d in parallel_result.detections]
        assert len(hashes) == len(set(hashes))

    def test_rendered_experiments_byte_identical(
        self, sequential_result, parallel_result
    ):
        from repro.experiments import fig8, table5, table6

        for view in (table5, table6, fig8):
            assert view.render(sequential_result) == view.render(parallel_result)

    def test_jobs_capped_by_shard_count(self):
        # more workers than shards is fine — still identical
        one = ScanEngine(WildScanConfig(scale=SCALE, seed=SEED, jobs=1, shards=2)).run()
        many = ScanEngine(WildScanConfig(scale=SCALE, seed=SEED, jobs=16, shards=2)).run()
        assert fingerprint(one) == fingerprint(many)


class TestShardPlumbing:
    def test_schedule_is_deterministic(self):
        assert build_schedule(SCALE, SEED) == build_schedule(SCALE, SEED)
        assert build_schedule(SCALE, SEED) != build_schedule(SCALE, SEED + 1)

    def test_schedule_covers_population(self):
        assert len(build_schedule(SCALE, SEED)) == population_size(SCALE)

    def test_partition_is_lossless(self):
        tasks = build_schedule(SCALE, SEED)
        parts = shard_schedule(tasks, 4)
        assert len(parts) == 4
        assert sorted(map(tuple, tasks)) == sorted(
            tuple(t) for part in parts for t in part
        )

    def test_partition_independent_of_jobs(self):
        # the partition is a pure function of the task list and shard count
        tasks = build_schedule(SCALE, SEED)
        assert shard_schedule(tasks, 4) == shard_schedule(list(tasks), 4)

    def test_resolve_shard_count_rules(self):
        assert resolve_shard_count(None, MIN_SHARDED_POPULATION - 1) == 1
        assert resolve_shard_count(None, MIN_SHARDED_POPULATION) == DEFAULT_SHARD_COUNT
        assert resolve_shard_count(6, 10_000) == 6
        assert resolve_shard_count(8, 3) == 3  # never more shards than tasks
        with pytest.raises(ValueError):
            resolve_shard_count(0, 100)

    def test_shard_seed_distinct_per_shard(self):
        seeds = {shard_seed(SEED, i) for i in range(8)}
        assert len(seeds) == 8
        assert shard_seed(SEED, 0) != shard_seed(SEED + 1, 0)


class TestProfiledScan:
    """``profile=True`` is observability only: it changes no result byte."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_profile_changes_no_result_byte(self, sequential_result, jobs):
        config = WildScanConfig(
            scale=SCALE, seed=SEED, jobs=jobs, shards=4, profile=True
        )
        engine = ScanEngine(config)
        profiled = engine.run()
        assert fingerprint(profiled) == fingerprint(sequential_result)
        counters = engine.profile["counters"]
        assert counters["transactions"] == profiled.total_transactions
        assert counters["shards_profiled"] == 4
        assert "detect" in engine.profile["timers_ns"]


class TestParallelRecovery:
    """Pool breakage re-runs only incomplete shards; worker bugs propagate."""

    @pytest.fixture()
    def payloads(self):
        from repro.engine.scan import run_shard

        cfg = WildScanConfig(scale=0.002, seed=SEED, jobs=2, shards=2)
        tasks = build_schedule(cfg.scale, cfg.seed)
        parts = shard_schedule(tasks, 2)
        payloads = [(cfg, index, 2, part) for index, part in enumerate(parts)]
        expected = [run_shard(payload) for payload in payloads]
        return payloads, expected

    @staticmethod
    def _result_snapshot(outcomes):
        from repro.engine.wire import shard_result_to_wire

        return [shard_result_to_wire(outcome) for outcome in outcomes]

    @staticmethod
    def _fake_future(value=None, error=None):
        class _Future:
            def result(self):
                if error is not None:
                    raise error
                return value

        return _Future()

    def test_broken_pool_keeps_completed_shards(self, payloads, monkeypatch):
        import concurrent.futures
        from concurrent.futures.process import BrokenProcessPool

        from repro.engine import scan

        payloads, expected = payloads
        executed: list[int] = []
        real_run_shard = scan.run_shard

        def counting_run_shard(payload):
            executed.append(payload[1])
            return real_run_shard(payload)

        monkeypatch.setattr(scan, "run_shard", counting_run_shard)
        make_future = self._fake_future

        class HalfBrokenPool:
            def __init__(self, *args, **kwargs):
                self.submitted = 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, payload):
                self.submitted += 1
                if self.submitted == 1:
                    return make_future(value=fn(payload))
                return make_future(error=BrokenProcessPool("worker died"))

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", HalfBrokenPool)
        outcomes = scan.ScanEngine._run_parallel(payloads, workers=2)
        assert self._result_snapshot(outcomes) == self._result_snapshot(expected)
        # shard 0 ran once in the "pool" and was kept; only shard 1 re-ran
        assert executed == [0, 1]

    def test_spawn_denied_runs_everything_in_process(self, payloads, monkeypatch):
        import concurrent.futures

        from repro.engine import scan

        payloads, expected = payloads

        class DeniedPool:
            def __init__(self, *args, **kwargs):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, payload):
                raise PermissionError("process spawning denied")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", DeniedPool)
        outcomes = scan.ScanEngine._run_parallel(payloads, workers=2)
        assert self._result_snapshot(outcomes) == self._result_snapshot(expected)

    def test_worker_exception_propagates(self, payloads, monkeypatch):
        import concurrent.futures

        from repro.engine import scan

        payloads, _ = payloads
        make_future = self._fake_future

        class BuggyWorkerPool:
            def __init__(self, *args, **kwargs):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, payload):
                return make_future(error=ValueError("bug in shard code"))

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", BuggyWorkerPool)
        with pytest.raises(ValueError, match="bug in shard code"):
            scan.ScanEngine._run_parallel(payloads, workers=2)


class TestAdversarialTail:
    """The adversarial schedule tail rides the same identity contract."""

    @pytest.fixture(scope="class")
    def adversarial_config(self):
        from repro.leishen.registry import ALL_PATTERN_KEYS, PatternSettings

        return WildScanConfig(
            scale=SCALE, seed=SEED, shards=4, adversarial=6,
            pattern_config=PatternSettings(enabled=ALL_PATTERN_KEYS),
        )

    @pytest.fixture(scope="class")
    def adversarial_batch(self, adversarial_config):
        return ScanEngine(adversarial_config).run()

    def test_every_family_detected_with_full_registry(self, adversarial_batch):
        families = {
            d.truth.family
            for d in adversarial_batch.detections
            if d.truth.family is not None
        }
        assert families == {"SANDWICH", "MINT", "DONATION"}
        for detection in adversarial_batch.detections:
            if detection.truth.family is not None:
                assert detection.patterns == (detection.truth.family,)

    def test_stream_matches_batch_with_tail(self, adversarial_config, adversarial_batch):
        from repro.engine.stream import StreamEngine

        streamed = StreamEngine(adversarial_config, block_size=16).run()
        assert fingerprint(streamed.result) == fingerprint(adversarial_batch)

    def test_paper_default_scan_ignores_tail_families(self):
        config = WildScanConfig(scale=SCALE, seed=SEED, shards=4, adversarial=6)
        result = ScanEngine(config).run()
        assert not [d for d in result.detections if d.truth.family is not None]
