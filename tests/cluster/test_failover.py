"""Hot-standby coordinator failover: adoption, reconnection, identity.

The contract under test: a journaled cluster scan survives the death of
its coordinator. A standby that was probing the primary detects the
death, adopts the ledger mid-scan (resuming every journaled shard,
queueing only the remainder), workers with a multi-address connect list
fail over through their ordinary reconnect loop, and the merged result
is byte-identical to an uninterrupted run. Late results from the dead
primary's workers are suppressed as duplicates.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import socket
import threading
import time
from pathlib import Path

import pytest

from repro.cluster import (
    ClusterWorker,
    Coordinator,
    StandbyCoordinator,
    StandbyError,
)
from repro.cluster.protocol import PROTOCOL_VERSION, recv_message, send_message
from repro.engine.plan import build_schedule, resolve_shard_count, shard_schedule
from repro.engine.scan import ScanEngine, run_shard
from repro.engine.wire import shard_result_to_wire
from repro.runtime import RunLedger
from repro.workload.generator import WildScanConfig
from tests.fingerprint import fingerprint

SCALE = 0.005
SEED = 7
SHARDS = 4
#: the same scan's ledger as the last compacting build left it
COMPACTED_V2 = Path(__file__).parents[1] / "runtime" / "data" / "compacted-v2.ledger"
#: per-task stall in workers, slow enough to catch a scan mid-flight.
DELAY = 0.01


def _config() -> WildScanConfig:
    return WildScanConfig(scale=SCALE, seed=SEED, shards=SHARDS)


def _dead_address() -> tuple[str, int]:
    """An address nothing is listening on (bound once, then released)."""
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    address = probe.getsockname()[:2]
    probe.close()
    return address


def _journaled_shards(path) -> int:
    """Intact journaled shard records (torn tail ignored)."""
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


def _spawn_worker(addresses, name, *, delay=DELAY, tries=200):
    """A reconnecting worker thread; returns (worker, thread, summary_box)."""
    hook = (lambda worker, shard, number: time.sleep(delay)) if delay else None
    worker = ClusterWorker(
        addresses,
        name=name,
        connect_timeout=2.0,
        reconnect=True,
        reconnect_backoff=0.05,
        reconnect_max_delay=0.25,
        reconnect_tries=tries,
        task_hook=hook,
    )
    box: list = []
    thread = threading.Thread(
        target=lambda: box.append(worker.run()), name=name, daemon=True
    )
    thread.start()
    return worker, thread, box


@pytest.fixture(scope="module")
def cold_result():
    return ScanEngine(_config()).run()


@pytest.fixture(scope="module")
def outcomes():
    cfg = _config()
    tasks = build_schedule(cfg.scale, cfg.seed)
    count = resolve_shard_count(cfg.shards, len(tasks))
    parts = shard_schedule(tasks, count)
    return [run_shard((cfg, i, count, part)) for i, part in enumerate(parts)]


class TestWorkerMultiAddress:
    def test_single_pair_and_list_normalization(self):
        single = ClusterWorker(("127.0.0.1", 5000), name="w")
        assert single.addresses == [("127.0.0.1", 5000)]
        assert single.address == ("127.0.0.1", 5000)
        many = ClusterWorker(
            [("127.0.0.1", 5000), ("127.0.0.1", 5001), ("127.0.0.1", 5000)],
            name="w",
        )
        assert many.addresses == [("127.0.0.1", 5000), ("127.0.0.1", 5001)]

    def test_empty_address_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            ClusterWorker([], name="w")

    def test_worker_rotates_to_live_address(self, cold_result):
        """First address refuses (nothing listens): the worker rotates to
        the live coordinator within the same connect attempt."""
        dead = _dead_address()
        with Coordinator(_config()) as coordinator:
            worker, thread, box = _spawn_worker(
                [dead, coordinator.address], "rotating", delay=0.0
            )
            result = coordinator.run(timeout=120.0)
            worker.stop()
            thread.join(timeout=10.0)
        assert fingerprint(result) == fingerprint(cold_result)
        assert box and box[0].failovers >= 1
        assert box[0].shards_completed >= 1  # the live address did the work

    def test_connect_is_sticky_on_success(self):
        """_connect rotates past the dead address once, then stays on the
        live one for subsequent attempts (cursor only moves on failure)."""
        from repro.cluster.worker import WorkerSummary

        dead = _dead_address()
        with Coordinator(_config()) as coordinator:
            worker = ClusterWorker([dead, coordinator.address], name="sticky")
            summary = WorkerSummary(name="sticky")
            for expected_failovers in (1, 1):  # second attempt: no rotation
                sock = worker._connect(summary)
                sock.close()
                assert worker.address == coordinator.address
                assert summary.failovers == expected_failovers

    def test_welcome_broadcasts_failover_addresses(self, cold_result):
        """A fleet launched with only the primary's address still learns
        the standby's address from the welcome (protocol v5)."""
        standby_address = ("10.9.9.9", 4321)  # never dialed: scan finishes
        with Coordinator(
            _config(), failover_addresses=[standby_address]
        ) as coordinator:
            worker, thread, box = _spawn_worker(
                coordinator.address, "learner", delay=0.0
            )
            result = coordinator.run(timeout=120.0)
            worker.stop()
            thread.join(timeout=10.0)
        assert fingerprint(result) == fingerprint(cold_result)
        assert standby_address in worker.addresses


class TestStandbyGuards:
    def test_standby_requires_ledger(self):
        with pytest.raises(ValueError, match="ledger"):
            StandbyCoordinator(_config(), primary=("127.0.0.1", 1), ledger=None)

    def test_adopt_before_start_raises(self, tmp_path):
        standby = StandbyCoordinator(
            _config(),
            primary=("127.0.0.1", 1),
            ledger=tmp_path / "run.ledger",
        )
        with pytest.raises(StandbyError, match="never started"):
            standby.adopt()
        standby.shutdown()

    def test_stats_before_adoption_raise(self, tmp_path):
        standby = StandbyCoordinator(
            _config(),
            primary=("127.0.0.1", 1),
            ledger=tmp_path / "run.ledger",
        )
        with pytest.raises(StandbyError, match="no stats"):
            standby.stats
        standby.shutdown()


class TestAdoption:
    def test_standby_adopts_dead_primarys_journal(
        self, tmp_path, cold_result, outcomes
    ):
        """The primary journaled two shards and died before the fleet
        existed: the standby detects the refused serve socket, adopts,
        resumes both shards, and finishes the scan byte-identically."""
        path = tmp_path / "run.ledger"
        ledger = RunLedger.create(path, _config(), SHARDS)
        for outcome in outcomes[:2]:
            ledger.record(outcome)
        ledger.close()

        standby = StandbyCoordinator(
            _config(),
            primary=_dead_address(),
            ledger=path,
            probe_interval=0.02,
            probe_failures=2,
            coordinator_options={"local_fallback": True},
        )
        with standby:
            assert standby.wait_for_primary_death(timeout=30.0)
            result = standby.adopt_and_run(timeout=2.0)
            assert standby.stats.resumed_shards == 2
            assert standby.stats.local_fallback_shards == 2
        assert fingerprint(result) == fingerprint(cold_result)

    def test_adoption_of_compacted_journal(self, tmp_path, cold_result):
        """Adoption works when the dead primary ran a build that
        compacted: the snapshot record of shards 0-1 and the record of
        shard 2 seed completion, and the ledger merge restores full
        identity."""
        path = tmp_path / "run.ledger"
        path.write_bytes(COMPACTED_V2.read_bytes())

        standby = StandbyCoordinator(
            _config(),
            primary=_dead_address(),
            ledger=path,
            probe_interval=0.02,
            probe_failures=2,
            coordinator_options={"local_fallback": True},
        )
        with standby:
            assert standby.wait_for_primary_death(timeout=30.0)
            result = standby.adopt_and_run(timeout=2.0)
            assert standby.stats.resumed_shards == 3
        assert fingerprint(result) == fingerprint(cold_result)

    def test_double_adopt_raises(self, tmp_path, outcomes):
        path = tmp_path / "run.ledger"
        ledger = RunLedger.create(path, _config(), SHARDS)
        for outcome in outcomes:
            ledger.record(outcome)
        ledger.close()
        standby = StandbyCoordinator(
            _config(),
            primary=_dead_address(),
            ledger=path,
            probe_interval=0.02,
            probe_failures=1,
        )
        standby.start()
        assert standby.wait_for_primary_death(timeout=30.0)
        coordinator = standby.adopt()
        try:
            with pytest.raises(StandbyError, match="already adopted"):
                standby.adopt()
        finally:
            coordinator.shutdown()

    def test_late_duplicate_from_dead_primarys_worker_suppressed(
        self, tmp_path, cold_result, outcomes
    ):
        """A worker that outlived the dead primary delivers a result the
        journal already holds: suppressed, not merged twice, and never
        re-journaled."""
        path = tmp_path / "run.ledger"
        ledger = RunLedger.create(path, _config(), SHARDS)
        ledger.record(outcomes[0])
        ledger.close()
        journal_before = path.read_bytes()

        standby = StandbyCoordinator(
            _config(),
            primary=_dead_address(),
            ledger=path,
            probe_interval=0.02,
            probe_failures=2,
            coordinator_options={"local_fallback": True},
        )
        standby.start()
        assert standby.wait_for_primary_death(timeout=30.0)
        coordinator = standby.adopt()
        try:
            with socket.create_connection(standby.address, timeout=10.0) as sock:
                send_message(
                    sock,
                    {"type": "hello", "worker": "orphan",
                     "protocol": PROTOCOL_VERSION},
                )
                welcome = recv_message(sock)
                assert welcome["type"] == "welcome"
                send_message(
                    sock,
                    {"type": "result", "shard": 0,
                     "payload": shard_result_to_wire(outcomes[0])},
                )
                send_message(sock, {"type": "bye"})
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if coordinator.stats.duplicates_suppressed >= 1:
                    break
                time.sleep(0.02)
            assert coordinator.stats.duplicates_suppressed == 1
            result = coordinator.run(timeout=2.0)
        finally:
            coordinator.shutdown()
        assert fingerprint(result) == fingerprint(cold_result)
        assert coordinator.stats.resumed_shards == 1
        # the journal grew only the genuinely new shards — no duplicate.
        after = RunLedger.open(path, config=_config(), shard_count=SHARDS)
        assert after.completed_shards() == frozenset(range(SHARDS))
        assert path.read_bytes().startswith(journal_before)


class TestLiveFailover:
    def test_workers_fail_over_mid_scan(self, tmp_path, cold_result):
        """In-process end-to-end: primary serves a journaled scan to two
        slow workers carrying both addresses; the primary dies mid-scan;
        the standby adopts and the same workers finish the run."""
        path = tmp_path / "run.ledger"
        primary = Coordinator(_config(), ledger=path, local_fallback=False)
        primary.start()
        standby = StandbyCoordinator(
            _config(),
            primary=primary.address,
            ledger=path,
            probe_interval=0.05,
            probe_failures=2,
            coordinator_options={"local_fallback": True},
        )
        standby.start()
        fleet = [
            _spawn_worker([primary.address, standby.address], f"dual-{i}")
            for i in range(2)
        ]
        try:
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                if _journaled_shards(path) >= 1:
                    break
                time.sleep(0.01)
            journaled = _journaled_shards(path)
            assert journaled >= 1, "no shard journaled before the kill"
            # the "kill": the primary's serve socket and every worker
            # connection drop; probes start getting refused.
            primary.shutdown()

            assert standby.wait_for_primary_death(timeout=30.0)
            result = standby.adopt_and_run(timeout=120.0)
            assert standby.stats.resumed_shards >= journaled
            assert standby.stats.resumed_shards >= 1
        finally:
            for worker, _, _ in fleet:
                worker.stop()
            for _, thread, _ in fleet:
                thread.join(timeout=10.0)
            standby.shutdown()
        assert fingerprint(result) == fingerprint(cold_result)
        # at least one worker must have actually moved coordinators,
        # unless the adopted run resumed everything from the journal.
        if standby.stats.resumed_shards < SHARDS:
            assert any(box and box[0].failovers >= 1 for _, _, box in fleet)


    def test_default_worker_fails_over_to_the_adopted_standby(
        self, tmp_path, cold_result
    ):
        """A worker built as ``cluster --connect PRIMARY,STANDBY`` builds
        it (both addresses, default reconnect options) follows the scan
        from the dead primary to the adopted standby, which finishes
        through it instead of by local fallback."""
        path = tmp_path / "run.ledger"
        primary = Coordinator(_config(), ledger=path, local_fallback=False)
        primary.start()
        standby = StandbyCoordinator(
            _config(),
            primary=primary.address,
            ledger=path,
            probe_interval=0.05,
            probe_failures=2,
        )
        standby.start()
        worker = ClusterWorker(
            [primary.address, standby.address],
            name="cli",
            task_hook=lambda worker, shard, number: time.sleep(0.002),
        )
        box: list = []
        thread = threading.Thread(
            target=lambda: box.append(worker.run()), name="cli", daemon=True
        )
        thread.start()
        try:
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline and _journaled_shards(path) < 1:
                time.sleep(0.01)
            assert _journaled_shards(path) >= 1, "no shard journaled before the kill"
            primary.shutdown()
            assert standby.wait_for_primary_death(timeout=30.0)
            result = standby.adopt_and_run(timeout=60.0)
        finally:
            standby.shutdown()
            # drained, or refused by both addresses: the worker ends
            thread.join(timeout=30.0)
            worker.stop()
        assert not thread.is_alive()
        assert standby.stats.assignments >= 1
        assert standby.stats.local_fallback_shards == 0
        assert fingerprint(result) == fingerprint(cold_result)
        assert box and box[0].failovers >= 1 and box[0].shards_completed >= 2

    def test_worker_between_shards_fails_over_on_graceful_stop(
        self, tmp_path, cold_result
    ):
        """A primary stopped in process (``shutdown()``) while a
        two-address worker waits for work hangs up instead of draining
        it: the worker moves to the adopted standby and finishes the
        scan there. A raw connection holds the last shard meanwhile, so
        the worker is parked, not mid-shard, when the primary stops."""
        path = tmp_path / "run.ledger"
        primary = Coordinator(_config(), ledger=path, local_fallback=False)
        primary.start()
        standby = StandbyCoordinator(
            _config(), primary=primary.address, ledger=path,
            probe_interval=0.05, probe_failures=2,
        )
        standby.start()
        holder = socket.create_connection(primary.address, timeout=10.0)
        send_message(holder, {"type": "hello", "worker": "holder",
                              "protocol": PROTOCOL_VERSION})
        assert recv_message(holder)["type"] == "welcome"
        send_message(holder, {"type": "ready"})
        assert recv_message(holder)["type"] == "assign"
        worker = ClusterWorker([primary.address, standby.address], name="parked")
        box: list = []
        thread = threading.Thread(
            target=lambda: box.append(worker.run()), name="parked", daemon=True
        )
        thread.start()
        try:
            deadline = time.monotonic() + 120.0
            while (
                time.monotonic() < deadline
                and primary.capacity_snapshot().completed < SHARDS - 1
            ):
                time.sleep(0.01)
            assert primary.capacity_snapshot().completed == SHARDS - 1
            primary.shutdown()
            assert standby.wait_for_primary_death(timeout=30.0)
            result = standby.adopt_and_run(timeout=30.0)
        finally:
            holder.close()
            standby.shutdown()
            thread.join(timeout=30.0)
            worker.stop()
        assert not thread.is_alive()
        assert standby.stats.resumed_shards == SHARDS - 1
        assert standby.stats.local_fallback_shards == 0
        assert fingerprint(result) == fingerprint(cold_result)
        summary = box[0]
        assert summary.failovers >= 1 and summary.shards_completed == SHARDS
        # the adopted run drained it at the end
        assert not summary.disconnected


def _primary_main(path: str, port: int) -> None:
    """Child process: a primary coordinator serving the journaled scan."""
    coordinator = Coordinator(
        _config(),
        host="127.0.0.1",
        port=port,
        ledger=path,
        local_fallback=False,
    )
    coordinator.start()
    coordinator.run()


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="kill tests need the fork start method",
)
class TestSigkillFailover:
    def test_sigkilled_primary_standby_adopts_byte_identical(
        self, tmp_path, cold_result
    ):
        """The real thing: the primary is a separate process and dies by
        SIGKILL mid-scan — no cleanup, possibly a torn journal tail. The
        standby adopts; workers fail over; identity holds."""
        path = tmp_path / "run.ledger"
        primary_address = _dead_address()  # reserve a port for the child

        ctx = multiprocessing.get_context("fork")
        child = ctx.Process(
            target=_primary_main,
            args=(str(path), primary_address[1]),
            daemon=True,
        )
        try:
            child.start()
        except (OSError, PermissionError) as exc:  # pragma: no cover
            pytest.skip(f"process spawning denied: {exc}")

        standby = StandbyCoordinator(
            _config(),
            primary=primary_address,
            ledger=path,
            probe_interval=0.05,
            probe_failures=3,
            coordinator_options={"local_fallback": True},
        )
        standby.start()
        fleet = [
            _spawn_worker([primary_address, standby.address], f"surv-{i}")
            for i in range(2)
        ]
        try:
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                if _journaled_shards(path) >= 1:
                    break
                if not child.is_alive():
                    break
                time.sleep(0.01)
            journaled = _journaled_shards(path)
            assert journaled >= 1, "child died before journaling a shard"
            if child.is_alive():
                os.kill(child.pid, signal.SIGKILL)
            child.join(timeout=10.0)

            assert standby.wait_for_primary_death(timeout=60.0)
            result = standby.adopt_and_run(timeout=120.0)
            assert standby.stats.resumed_shards >= 1
        finally:
            for worker, _, _ in fleet:
                worker.stop()
            for _, thread, _ in fleet:
                thread.join(timeout=10.0)
            standby.shutdown()
            if child.is_alive():  # pragma: no cover
                child.terminate()
                child.join(timeout=5.0)
        assert fingerprint(result) == fingerprint(cold_result)
