"""Kill-and-resume identity: the tentpole contract of the run ledger.

A run SIGKILLed mid-flight leaves a journal with a prefix of its shards
(possibly ending in a torn line); resuming from that journal schedules
only the remainder and merges to a result byte-identical to an
uninterrupted run. Both the batch engine and the cluster coordinator are
killed for real — a forked child process, ``SIGKILL``, no cleanup.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.engine.scan import ScanEngine
from repro.runtime import RunLedger
from repro.workload.generator import WildScanConfig
from tests.fingerprint import fingerprint

SCALE = 0.005
SEED = 7
SHARDS = 4
#: per-task stall in the child, slow enough to catch mid-run.
DELAY = 0.003

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="kill tests need the fork start method",
)


def _config() -> WildScanConfig:
    return WildScanConfig(scale=SCALE, seed=SEED, shards=SHARDS)


def _journaled_shards(path) -> int:
    """Count intact shard records in the ledger file (torn tail ignored)."""
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except FileNotFoundError:
        return 0
    count = 0
    for line in lines[1:]:
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            break
        if record.get("kind") == "shard":
            count += 1
    return count


def _run_child_until_first_shard(target, path, timeout: float = 120.0):
    """Fork ``target(path)``; SIGKILL it as soon as one shard is journaled.

    Returns the number of intact shard records left behind. Skips the
    test when the sandbox denies process spawning.
    """
    ctx = multiprocessing.get_context("fork")
    process = ctx.Process(target=target, args=(str(path),), daemon=True)
    try:
        process.start()
    except (OSError, PermissionError) as exc:  # pragma: no cover
        pytest.skip(f"process spawning denied: {exc}")
    deadline = time.monotonic() + timeout
    try:
        while time.monotonic() < deadline:
            if _journaled_shards(path) >= 1:
                break
            if not process.is_alive():
                break
            time.sleep(0.02)
        if process.is_alive():
            os.kill(process.pid, signal.SIGKILL)
        process.join(timeout=10.0)
    finally:
        if process.is_alive():  # pragma: no cover
            process.terminate()
            process.join(timeout=5.0)
    journaled = _journaled_shards(path)
    assert journaled >= 1, "child died before journaling a single shard"
    return journaled


def _slow_batch_main(path: str) -> None:
    """Child: run the batch engine with every task slowed down."""
    from repro.engine import scan

    original = scan.execute_task

    def slow_execute(ctx, task):
        time.sleep(DELAY)
        return original(ctx, task)

    scan.execute_task = slow_execute
    ScanEngine(_config(), ledger=path).run()


def _slow_cluster_main(path: str) -> None:
    """Child: coordinator + two thread workers, every task slowed down."""
    from repro.cluster.local import run_cluster_scan
    from repro.cluster.worker import ClusterWorker

    def factory(index, address):
        def hook(worker, shard, number):
            time.sleep(DELAY)

        return ClusterWorker(address, name=f"slow-{index}", task_hook=hook)

    run_cluster_scan(_config(), workers=2, worker_factory=factory, ledger=path)


@pytest.fixture(scope="module")
def cold_result():
    return ScanEngine(_config()).run()


class TestBatchKillResume:
    def test_sigkilled_batch_run_resumes_byte_identical(
        self, tmp_path, cold_result
    ):
        path = tmp_path / "batch.ledger"
        journaled = _run_child_until_first_shard(_slow_batch_main, path)
        assert journaled < SHARDS, "child finished before the kill landed"

        engine = ScanEngine(_config(), ledger=path)
        resumed = engine.run()
        assert engine.ledger.resumed_count == journaled
        assert engine.ledger.recorded_count == SHARDS - journaled
        assert fingerprint(resumed) == fingerprint(cold_result)

    def test_second_resume_schedules_nothing(self, tmp_path, cold_result):
        path = tmp_path / "batch.ledger"
        _run_child_until_first_shard(_slow_batch_main, path)
        ScanEngine(_config(), ledger=path).run()  # completes the journal

        engine = ScanEngine(_config(), ledger=path)
        result = engine.run()
        assert engine.ledger.resumed_count == SHARDS
        assert engine.ledger.recorded_count == 0
        assert fingerprint(result) == fingerprint(cold_result)


class TestClusterKillResume:
    def test_sigkilled_coordinator_resumes_byte_identical(
        self, tmp_path, cold_result
    ):
        from repro.cluster.local import run_cluster_scan

        path = tmp_path / "cluster.ledger"
        journaled = _run_child_until_first_shard(_slow_cluster_main, path)
        assert journaled < SHARDS, "child finished before the kill landed"

        result, stats = run_cluster_scan(_config(), workers=2, ledger=path)
        assert stats.resumed_shards == journaled
        assert fingerprint(result) == fingerprint(cold_result)

        # the finished journal now resumes with zero assignments.
        result2, stats2 = run_cluster_scan(_config(), workers=2, ledger=path)
        assert stats2.resumed_shards == SHARDS
        assert stats2.assignments == 0
        assert fingerprint(result2) == fingerprint(cold_result)

    def test_late_duplicate_after_resume_is_suppressed(
        self, tmp_path, cold_result
    ):
        """Regression: a straggler's result for a shard the resumed run
        already loaded from the journal must be suppressed, not merged
        twice and not re-journaled."""
        from repro.cluster.coordinator import Coordinator
        from repro.cluster.protocol import (
            PROTOCOL_VERSION,
            recv_message,
            send_message,
        )
        import socket

        path = tmp_path / "late.ledger"
        journaled = _run_child_until_first_shard(_slow_cluster_main, path)
        before = RunLedger.open(path)  # cuts a torn tail: every line parses
        resumed_shard = sorted(before.completed_shards())[0]
        late_payload = next(
            record["payload"]
            for record in map(json.loads, path.read_text().splitlines()[1:])
            if record["shard"] == resumed_shard
        )

        coordinator = Coordinator(_config(), ledger=path)
        coordinator.start()
        try:
            host, port = coordinator.address
            with socket.create_connection((host, port), timeout=10.0) as sock:
                send_message(
                    sock,
                    {"type": "hello", "worker": "late", "protocol": PROTOCOL_VERSION},
                )
                welcome = recv_message(sock)
                assert welcome["type"] == "welcome"
                # replay a result for a shard the journal already holds.
                send_message(
                    sock,
                    {"type": "result", "shard": resumed_shard,
                     "payload": late_payload},
                )
                send_message(sock, {"type": "bye"})
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if coordinator.stats.duplicates_suppressed >= 1:
                    break
                time.sleep(0.02)
            assert coordinator.stats.duplicates_suppressed == 1
        finally:
            coordinator.shutdown()
        # the journal must not have grown a duplicate record.
        after = RunLedger.open(path)
        assert after.completed_shards() == before.completed_shards()
        assert journaled == len(before.completed_shards())
