"""Elastic pool behavior: scale from zero, drain idle, probation trials.

Every scenario re-checks the cluster's core invariant — the merged
``WildScanResult`` stays byte-identical to the batch scanner no matter
what the autoscaler does — and then asserts the scaling events that the
scenario was built to provoke (``workers_spawned``, ``workers_drained``,
``workers_readmitted``, ``probation_passes``, ``probation_failures``).
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.cluster import ClusterWorker, Coordinator, ElasticPool, run_cluster_scan
from repro.cluster.autoscale import DEFAULT_PROBATION_COOLDOWN
from repro.cluster.worker import WorkerKilled
from repro.engine import ScanEngine
from repro.workload.generator import WildScanConfig
from tests.fingerprint import fingerprint

SCALE = 0.005
SEED = 7


def _config(shards: int = 4) -> WildScanConfig:
    return WildScanConfig(scale=SCALE, seed=SEED, shards=shards)


def _baseline(config: WildScanConfig):
    return fingerprint(ScanEngine(config).run())


def _wait_for(predicate, timeout: float = 10.0, message: str = "condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError(f"timed out waiting for {message}")


class TestScaleFromZero:
    def test_zero_workers_scale_up_and_merge_identically(self):
        """``run(timeout=None)`` with no connected workers must spawn
        against queue depth instead of hanging forever."""
        config = _config()
        result, stats = run_cluster_scan(
            config,
            workers=0,
            autoscale=True,
            max_workers=2,
            autoscale_options=dict(poll_interval=0.02),
            worker_factory=lambda i, addr: ClusterWorker(addr, name=f"z-{i}"),
        )
        assert fingerprint(result) == _baseline(config)
        # demand (4 shards) exceeds max_workers, so the pool fills to the
        # cap in its first tick and never needs more.
        assert stats.workers_spawned == 2
        assert stats.workers_seen == 2
        assert stats.local_fallback_shards == 0


class TestAcceptanceScenario:
    def test_kill_exclude_readmit_merges_identically(self):
        """The ISSUE acceptance run: start from zero, scale to two, lose
        one worker mid-shard (immediate exclusion), re-admit it on
        probation, and still merge byte-identically — with every scaling
        event visible in the stats."""
        config = _config(shards=6)
        state = {"killed": False}

        def factory(index: int, address) -> ClusterWorker:
            def hook(worker, shard, task):
                if task == 0:
                    time.sleep(0.15)  # keep shards in flight during probation
                if index == 0 and not state["killed"] and task == 3:
                    state["killed"] = True
                    raise WorkerKilled()

            return ClusterWorker(address, name=f"e-{index}", task_hook=hook)

        result, stats = run_cluster_scan(
            config,
            workers=0,
            autoscale=True,
            max_workers=2,
            autoscale_options=dict(poll_interval=0.02, probation_cooldown=0.1),
            worker_factory=factory,
            max_worker_strikes=1,
            heartbeat_timeout=5.0,
        )
        assert state["killed"], "the rigged worker never reached its kill point"
        assert fingerprint(result) == _baseline(config)
        assert stats.worker_losses >= 1
        assert stats.requeues >= 1
        assert stats.workers_excluded >= 1
        # two initial spawns plus at least one replacement/respawn
        assert stats.workers_spawned >= 3
        assert stats.workers_readmitted >= 1
        assert stats.probation_passes >= 1
        assert stats.local_fallback_shards == 0


class TestScaleDown:
    def test_idle_workers_drain_after_grace(self):
        """Once the queue empties, pool-spawned idle workers above
        ``min_workers`` are drained — cleanly: no losses, no strikes."""
        config = _config()
        release = threading.Event()

        def factory(index: int, address) -> ClusterWorker:
            def hold(worker, shard, task):
                if task == 0:
                    release.wait(15.0)

            return ClusterWorker(
                address, name=f"s-{index}", task_hook=hold if index == 0 else None
            )

        coordinator = Coordinator(config, heartbeat_timeout=5.0)
        pool = ElasticPool(
            coordinator,
            min_workers=0,
            max_workers=4,
            initial_workers=4,
            poll_interval=0.02,
            idle_grace=0.1,
            worker_factory=factory,
        )
        try:
            coordinator.start()
            pool.start()
            # the queue empties while s-0 (at most) still holds a shard;
            # after the idle grace the other workers are asked to retire.
            _wait_for(
                lambda: coordinator.stats.workers_drained >= 2,
                message="idle workers to be drained",
            )
            release.set()
            result = coordinator.run()
        finally:
            release.set()
            pool.stop()
            coordinator.shutdown()

        assert fingerprint(result) == _baseline(config)
        assert coordinator.stats.workers_drained >= 2
        # clean drains are not churn: nobody lost, nobody struck
        assert coordinator.stats.worker_losses == 0
        assert coordinator.stats.workers_excluded == 0


class TestProbation:
    def test_reconnecting_worker_earns_readmission(self):
        """An excluded ``reconnect=True`` worker keeps knocking; after
        the cooldown it is let back in for a trial shard, and a clean
        result clears its strikes (``probation_passes``)."""
        config = _config(shards=6)
        state = {"failed": False}

        def factory(index: int, address) -> ClusterWorker:
            if index == 0:
                def fail_once(worker, shard, task):
                    if not state["failed"] and task == 2:
                        state["failed"] = True
                        raise ValueError("rigged shard failure")

                return ClusterWorker(
                    address,
                    name="r-0",
                    task_hook=fail_once,
                    reconnect=True,
                    reconnect_backoff=0.05,
                    reconnect_max_delay=0.1,
                    reconnect_tries=50,
                )

            def slow(worker, shard, task):
                if task == 0:
                    time.sleep(0.15)

            return ClusterWorker(address, name=f"r-{index}", task_hook=slow)

        result, stats = run_cluster_scan(
            config,
            workers=2,
            autoscale=True,
            max_workers=2,
            autoscale_options=dict(poll_interval=0.02, probation_cooldown=0.1),
            worker_factory=factory,
            max_worker_strikes=1,
            heartbeat_timeout=5.0,
        )
        assert state["failed"]
        assert fingerprint(result) == _baseline(config)
        assert stats.shard_errors >= 1
        assert stats.workers_excluded >= 1
        assert stats.workers_readmitted >= 1
        assert stats.probation_passes >= 1

    def test_failed_probation_reexcludes_immediately(self):
        """A worker that faults on its trial shard is re-excluded on the
        spot (one strike is enough on probation), and the run still
        completes through the healthy workers."""
        config = _config(shards=6)

        def factory(index: int, address) -> ClusterWorker:
            if index == 0:
                def always_fail(worker, shard, task):
                    if task == 1:
                        raise ValueError("permanently rigged")

                return ClusterWorker(
                    address,
                    name="p-0",
                    task_hook=always_fail,
                    reconnect=True,
                    reconnect_backoff=0.05,
                    reconnect_max_delay=0.1,
                    reconnect_tries=100,
                )

            def slow(worker, shard, task):
                if task == 0:
                    time.sleep(0.15)

            return ClusterWorker(address, name=f"p-{index}", task_hook=slow)

        result, stats = run_cluster_scan(
            config,
            workers=2,
            autoscale=True,
            max_workers=2,
            autoscale_options=dict(poll_interval=0.02, probation_cooldown=0.2),
            worker_factory=factory,
            max_worker_strikes=1,
            max_shard_attempts=10,
            heartbeat_timeout=5.0,
        )
        assert fingerprint(result) == _baseline(config)
        assert stats.probation_failures >= 1
        # initial exclusion plus at least one probation re-exclusion
        assert stats.workers_excluded >= 2
        assert stats.workers_readmitted >= 1


class TestValidation:
    def test_pool_rejects_bad_bounds(self):
        dummy = object()
        with pytest.raises(ValueError):
            ElasticPool(dummy, max_workers=0)
        with pytest.raises(ValueError):
            ElasticPool(dummy, min_workers=3, max_workers=2)
        with pytest.raises(ValueError):
            ElasticPool(dummy, initial_workers=5, max_workers=2)
        with pytest.raises(ValueError):
            ElasticPool(dummy, poll_interval=0.0)
        with pytest.raises(ValueError):
            ElasticPool(dummy, idle_grace=-1.0)

    def test_zero_workers_without_autoscale_rejected(self):
        with pytest.raises(ValueError):
            run_cluster_scan(_config(), workers=0)

    def test_worker_rejects_bad_reconnect_options(self):
        with pytest.raises(ValueError):
            ClusterWorker(("127.0.0.1", 1), recv_timeout=0.0)
        with pytest.raises(ValueError):
            ClusterWorker(("127.0.0.1", 1), reconnect_backoff=0.0)
        with pytest.raises(ValueError):
            ClusterWorker(("127.0.0.1", 1), reconnect_tries=-1)

    def test_default_cooldown_is_positive(self):
        assert DEFAULT_PROBATION_COOLDOWN > 0
