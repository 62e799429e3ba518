"""Cluster fault injection: the merge survives everything we throw at it.

Every test pins the same invariant from a different failure direction:
for a fixed ``(seed, scale, shards)`` the coordinator's merged
``WildScanResult`` is byte-identical to ``ScanEngine.run()`` no matter
how many workers serve the run, which of them die or stall mid-shard,
and in what order their results arrive.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.cluster import (
    ClusterError,
    ClusterWorker,
    Coordinator,
    WorkerKilled,
    run_cluster_scan,
)
from repro.cluster.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    recv_message,
    send_message,
)
from repro.engine.wire import config_to_wire
from repro.engine.plan import build_schedule, shard_schedule
from repro.engine.scan import ScanEngine, run_shard
from repro.engine.wire import shard_result_to_wire
from repro.workload.generator import WildScanConfig
from tests.fingerprint import fingerprint

SCALE = 0.005
SEED = 7
SHARDS = 4


def _config(shards: int = SHARDS) -> WildScanConfig:
    return WildScanConfig(scale=SCALE, seed=SEED, shards=shards)


@pytest.fixture(scope="module")
def batch_fingerprint():
    return fingerprint(ScanEngine(_config()).run())


def _wait_for(predicate, timeout: float = 10.0, message: str = "condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError(f"timed out waiting for {message}")


class TestHappyPath:
    def test_two_workers_identical_to_batch(self, batch_fingerprint):
        result, stats = run_cluster_scan(
            _config(),
            workers=2,
            worker_factory=lambda i, addr: ClusterWorker(addr, name=f"w-{i}"),
        )
        assert fingerprint(result) == batch_fingerprint
        assert stats.workers_seen == 2
        assert stats.assignments == SHARDS
        assert stats.requeues == 0

    def test_worker_count_never_changes_the_result(self, batch_fingerprint):
        for workers in (1, 3):
            result, _ = run_cluster_scan(
                _config(),
                workers=workers,
                worker_factory=lambda i, addr: ClusterWorker(addr, name=f"n-{i}"),
            )
            assert fingerprint(result) == batch_fingerprint

    def test_process_workers_identical_to_batch(self, batch_fingerprint):
        # real OS processes when the environment allows them; silently
        # degrades to threads elsewhere — identical either way.
        result, stats = run_cluster_scan(_config(), workers=2)
        assert fingerprint(result) == batch_fingerprint
        assert stats.workers_seen == 2

    def test_schedule_tails_identical_to_batch(self):
        """Workers run the engines' own schedule, split-attack and
        adversarial tails included."""
        config = WildScanConfig(
            scale=SCALE, seed=SEED, shards=SHARDS, adversarial=6, split_attacks=2
        )
        reference = fingerprint(ScanEngine(config).run())
        result, stats = run_cluster_scan(config, workers=2, use_processes=False)
        assert fingerprint(result) == reference
        assert stats.local_fallback_shards == 0


class TestKilledWorker:
    def test_killed_mid_shard_requeues_and_merges_identically(self, batch_fingerprint):
        state = {"killed": False}

        def factory(index: int, address) -> ClusterWorker:
            def die(worker, shard, task):
                if not state["killed"] and task == 3:
                    state["killed"] = True
                    raise WorkerKilled()

            return ClusterWorker(
                address, name=f"k-{index}", task_hook=die if index == 0 else None
            )

        result, stats = run_cluster_scan(
            _config(), workers=2, worker_factory=factory, heartbeat_timeout=5.0
        )
        assert state["killed"], "the rigged worker never reached its kill point"
        assert stats.worker_losses == 1
        assert stats.requeues >= 1
        assert fingerprint(result) == batch_fingerprint


class TestHeartbeatTimeout:
    def test_stalled_worker_requeues_and_late_duplicate_is_suppressed(
        self, batch_fingerprint
    ):
        """Protocol-level: a stalled worker's shard is speculatively
        requeued, a second worker completes it, and the straggler's late
        result is discarded — not double-merged."""
        config = _config(shards=1)
        batch = ScanEngine(config).run()
        tasks = build_schedule(config.scale, config.seed)
        parts = shard_schedule(tasks, 1)
        payload = shard_result_to_wire(run_shard((config, 0, 1, parts[0])))

        coordinator = Coordinator(config, heartbeat_timeout=0.3)
        coordinator.start()
        slow = fast = None
        try:
            host, port = coordinator.address
            slow = socket.create_connection((host, port), timeout=5.0)
            send_message(
                slow,
                {"type": "hello", "worker": "slow", "protocol": PROTOCOL_VERSION},
            )
            assert recv_message(slow)["type"] == "welcome"
            send_message(slow, {"type": "ready"})
            assign = recv_message(slow)
            assert assign["type"] == "assign"
            assert (assign["seed"], assign["scale"]) == (config.seed, config.scale)
            assert assign["shard"] == 0 and assign["shard_count"] == 1

            # "slow" now goes silent: no heartbeat, no result. The monitor
            # must requeue its shard without closing the connection.
            _wait_for(
                lambda: coordinator.stats.heartbeat_requeues >= 1,
                message="heartbeat-timeout requeue",
            )

            fast = socket.create_connection((host, port), timeout=5.0)
            send_message(
                fast,
                {"type": "hello", "worker": "fast", "protocol": PROTOCOL_VERSION},
            )
            assert recv_message(fast)["type"] == "welcome"
            send_message(fast, {"type": "ready"})
            reassign = recv_message(fast)
            assert reassign["type"] == "assign" and reassign["shard"] == 0

            send_message(fast, {"type": "result", "shard": 0, "payload": payload})
            _wait_for(
                lambda: len(coordinator._completed) == 1,
                message="first completion to land",
            )

            # the straggler wakes up and sends the same shard — late.
            send_message(slow, {"type": "result", "shard": 0, "payload": payload})
            _wait_for(
                lambda: coordinator.stats.duplicates_suppressed == 1,
                message="late duplicate suppression",
            )

            result = coordinator.run()
        finally:
            for sock in (slow, fast):
                if sock is not None:
                    sock.close()
            coordinator.shutdown()

        assert fingerprint(result) == fingerprint(batch)
        assert coordinator.stats.heartbeat_requeues >= 1
        assert coordinator.stats.duplicates_suppressed == 1
        # the merge consumed exactly one copy of the shard
        assert result.total_transactions == batch.total_transactions


class TestFailingWorkers:
    def test_repeatedly_failing_worker_is_excluded(self, batch_fingerprint):
        def factory(index: int, address) -> ClusterWorker:
            def explode(worker, shard, task):
                raise ValueError(f"worker {index} refuses shard {shard}")

            return ClusterWorker(
                address, name=f"f-{index}", task_hook=explode if index == 0 else None
            )

        result, stats = run_cluster_scan(
            _config(),
            workers=2,
            worker_factory=factory,
            max_worker_strikes=2,
        )
        assert stats.workers_excluded == 1
        assert stats.shard_errors >= 2
        assert stats.requeues >= 2
        assert fingerprint(result) == batch_fingerprint

    def test_poisoned_shard_aborts_after_bounded_retries(self):
        def factory(index: int, address) -> ClusterWorker:
            def explode(worker, shard, task):
                raise ValueError("poisoned")

            return ClusterWorker(address, name=f"p-{index}", task_hook=explode)

        with pytest.raises(ClusterError, match="still failing"):
            run_cluster_scan(
                _config(),
                workers=1,
                worker_factory=factory,
                max_shard_attempts=1,
                max_worker_strikes=100,  # exclusion must not mask the abort
                local_fallback=True,  # bounded retry beats fallback
            )


class TestNoWorkersLeft:
    def _doomed_factory(self, index: int, address) -> ClusterWorker:
        def die_instantly(worker, shard, task):
            raise WorkerKilled()

        return ClusterWorker(address, name=f"d-{index}", task_hook=die_instantly)

    def test_local_fallback_completes_the_run(self, batch_fingerprint):
        result, stats = run_cluster_scan(
            _config(),
            workers=1,
            worker_factory=self._doomed_factory,
            max_worker_strikes=1,
            local_fallback=True,
        )
        assert stats.workers_excluded == 1
        assert stats.local_fallback_shards == SHARDS
        assert fingerprint(result) == batch_fingerprint

    def test_without_fallback_the_run_fails_loudly(self):
        with pytest.raises(ClusterError, match="no workers left"):
            run_cluster_scan(
                _config(),
                workers=1,
                worker_factory=self._doomed_factory,
                max_worker_strikes=1,
                local_fallback=False,
            )


class TestWorkerLiveness:
    def test_worker_times_out_on_silently_dead_coordinator(self):
        """A coordinator host that dies without FIN must not strand the
        worker in ``recv_message`` forever: the recv timeout (a few
        heartbeat intervals) expires and the worker reports itself
        disconnected."""
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.bind(("127.0.0.1", 0))
        server.listen(1)
        release = threading.Event()
        held: list[socket.socket] = []

        def fake_coordinator():
            conn, _ = server.accept()
            held.append(conn)  # keep the socket open: no FIN, ever
            hello = recv_message(conn)
            assert hello["type"] == "hello"
            send_message(
                conn,
                {
                    "type": "welcome",
                    "protocol": PROTOCOL_VERSION,
                    "config": config_to_wire(_config(shards=1)),
                    "shard_count": 1,
                    "heartbeat_interval": 0.05,
                },
            )
            release.wait(30.0)  # then go silent — no assign, no drain

        thread = threading.Thread(target=fake_coordinator, daemon=True)
        thread.start()
        try:
            worker = ClusterWorker(server.getsockname()[:2], name="stranded")
            start = time.monotonic()
            summary = worker.run()
            elapsed = time.monotonic() - start
            assert summary.disconnected
            assert summary.shards_completed == 0
            # recv timeout is a few 0.05 s intervals (floored at 1 s),
            # nowhere near a hang
            assert elapsed < 10.0
        finally:
            release.set()
            for conn in held:
                conn.close()
            server.close()


class TestShutdownLiveness:
    def test_shutdown_is_prompt_with_large_heartbeat_timeout(self):
        """The monitor loop waits on the condition, so ``shutdown()``
        wakes it immediately instead of blocking up to
        ``heartbeat_timeout/4`` and leaking the thread past the join."""
        coordinator = Coordinator(_config(shards=1), heartbeat_timeout=60.0)
        coordinator.start()
        time.sleep(0.2)  # let the monitor enter its wait
        start = time.monotonic()
        coordinator.shutdown()
        assert time.monotonic() - start < 2.0
        assert all(not thread.is_alive() for thread in coordinator._threads)

    def test_finished_run_drains_a_worker_slow_to_ask_again(self):
        """``run()`` returns on the last merged shard and shuts down: a
        worker that sends its next ``ready`` a moment later is still
        drained, not cut off as if its coordinator had vanished."""

        class SlowToAsk(ClusterWorker):
            def _send(self, message):
                if message["type"] == "ready" and self.results:
                    time.sleep(0.5)
                if message["type"] == "result":
                    self.results += 1
                super()._send(message)

        coordinator = Coordinator(_config(shards=2))
        coordinator.start()
        workers = [SlowToAsk(coordinator.address, name=f"slow-{i}") for i in range(2)]
        boxes: list[list] = [[], []]
        threads = []
        for worker, box in zip(workers, boxes):
            worker.results = 0
            thread = threading.Thread(
                target=lambda w=worker, b=box: b.append(w.run()), daemon=True
            )
            thread.start()
            threads.append(thread)
        coordinator.run(timeout=60.0)
        for thread in threads:
            thread.join(timeout=10.0)
        summaries = [box[0] for box in boxes]
        assert sum(s.shards_completed for s in summaries) == 2
        assert coordinator.stats.local_fallback_shards == 0
        assert not any(s.disconnected for s in summaries)

    def test_loss_during_shutdown_is_not_a_strike(self):
        """A drain that races the shutdown socket teardown must not be
        booked as a worker loss (that would strike — and potentially
        exclude — healthy workers after the run already finished)."""
        coordinator = Coordinator(_config(shards=1))
        coordinator.start()
        sock = None
        try:
            sock = socket.create_connection(coordinator.address, timeout=5.0)
            send_message(
                sock,
                {"type": "hello", "worker": "clean", "protocol": PROTOCOL_VERSION},
            )
            assert recv_message(sock)["type"] == "welcome"
            _wait_for(
                lambda: "clean" in coordinator._workers,
                message="worker registration",
            )
            worker = coordinator._workers["clean"]
            with coordinator._cond:
                coordinator._stopping = True
            coordinator._handle_loss(worker, worker.conn)
            assert coordinator.stats.worker_losses == 0
            assert worker.strikes == 0
            assert coordinator.stats.workers_excluded == 0
        finally:
            if sock is not None:
                sock.close()
            coordinator.shutdown()


class TestParkedWorker:
    def test_parked_worker_backlog_and_late_assignment(self):
        """A parked worker keeps heartbeating into a socket nobody reads
        (its handler thread sits in ``_handle_ready``). The backlog must
        not wedge anything: the coordinator park-pings it, hands it a
        late requeued shard, drains the buffered heartbeats afterwards,
        and the stats stay churn-free after the clean drain."""
        config = _config(shards=2)
        baseline = fingerprint(ScanEngine(config).run())
        tasks = build_schedule(config.scale, config.seed)
        parts = shard_schedule(tasks, 2)
        payloads = {
            index: shard_result_to_wire(run_shard((config, index, 2, parts[index])))
            for index in range(2)
        }

        coordinator = Coordinator(
            config, heartbeat_timeout=5.0, heartbeat_interval=0.05
        )
        coordinator.start()
        parked = flaky = None
        try:
            host, port = coordinator.address
            parked = socket.create_connection((host, port), timeout=5.0)
            send_message(
                parked,
                {"type": "hello", "worker": "parked", "protocol": PROTOCOL_VERSION},
            )
            assert recv_message(parked)["type"] == "welcome"
            send_message(parked, {"type": "ready"})
            first = recv_message(parked)
            assert first["type"] == "assign"

            flaky = socket.create_connection((host, port), timeout=5.0)
            send_message(
                flaky,
                {"type": "hello", "worker": "flaky", "protocol": PROTOCOL_VERSION},
            )
            assert recv_message(flaky)["type"] == "welcome"
            send_message(flaky, {"type": "ready"})
            second = recv_message(flaky)
            assert second["type"] == "assign"
            assert second["shard"] != first["shard"]

            # "parked" finishes its shard and parks on the next ready;
            # its handler thread now waits in _handle_ready while these
            # heartbeats pile up unread in the coordinator's buffer.
            send_message(
                parked,
                {
                    "type": "result",
                    "shard": first["shard"],
                    "payload": payloads[first["shard"]],
                },
            )
            send_message(parked, {"type": "ready"})
            for _ in range(50):
                send_message(parked, {"type": "heartbeat"})

            # the parked worker sees coordinator park pings while it waits
            parked.settimeout(5.0)
            ping = recv_message(parked)
            assert ping["type"] == "heartbeat"

            # "flaky" fails its shard; the requeue must reach the parked
            # worker as a late assignment despite the buffered backlog
            send_message(
                flaky, {"type": "shard-error", "shard": second["shard"],
                        "error": "ValueError('rigged')"},
            )
            while True:
                message = recv_message(parked)
                if message["type"] != "heartbeat":
                    break
            assert message["type"] == "assign"
            assert message["shard"] == second["shard"]
            send_message(
                parked,
                {
                    "type": "result",
                    "shard": second["shard"],
                    "payload": payloads[second["shard"]],
                },
            )

            result = coordinator.run()
        finally:
            for sock in (parked, flaky):
                if sock is not None:
                    sock.close()
            coordinator.shutdown()

        assert fingerprint(result) == baseline
        assert coordinator.stats.shard_errors == 1
        # churn-free after the clean drain: no losses, no exclusions
        assert coordinator.stats.worker_losses == 0
        assert coordinator.stats.workers_excluded == 0
        assert coordinator.stats.duplicates_suppressed == 0


class TestCoordinatorValidation:
    def test_rejects_bad_options(self):
        config = _config()
        with pytest.raises(ValueError, match="heartbeat_timeout"):
            Coordinator(config, heartbeat_timeout=0)
        with pytest.raises(ValueError, match="max_shard_attempts"):
            Coordinator(config, max_shard_attempts=0)
        with pytest.raises(ValueError, match="max_worker_strikes"):
            Coordinator(config, max_worker_strikes=0)

    def test_rejects_protocol_mismatch(self):
        coordinator = Coordinator(_config(shards=1))
        coordinator.start()
        try:
            sock = socket.create_connection(coordinator.address, timeout=5.0)
            send_message(sock, {"type": "hello", "worker": "old", "protocol": 999})
            with pytest.raises((ConnectionError, OSError)):
                # coordinator drops the connection instead of welcoming
                recv_message(sock)
            sock.close()
        finally:
            coordinator.shutdown()


class TestStatsViews:
    def test_capacity_snapshot_derived_views(self):
        from repro.cluster.coordinator import CapacitySnapshot

        snapshot = CapacitySnapshot(
            shard_count=8, completed=3, pending=2, running=3,
            live_workers=("a", "b"), idle_workers=("b",),
            retiring_workers=("c",), excluded_ages={"d": 1.5},
            stopping=False, failed=False,
        )
        assert snapshot.outstanding == 5
        assert snapshot.demand == 5
        assert not snapshot.finished

    def test_resumed_shards_defaults_to_zero(self):
        from repro.cluster.coordinator import ClusterStats

        assert ClusterStats().resumed_shards == 0


class TestUndecodableFrames:
    """A ``result`` frame that does not decode is a protocol error: its
    sender loses the connection and earns a strike, its shard requeues to
    a healthy worker at once, and nothing of the frame is merged or
    journaled."""

    @staticmethod
    def _run_past_bad_result(tmp_path, bad_frame):
        """One shard, taken by a raw-socket worker that answers with
        ``bad_frame(shard, payload)`` while a healthy worker sits parked;
        returns ``(result, coordinator, elapsed_s, genuine_payload)``."""
        config = _config(shards=1)
        parts = shard_schedule(build_schedule(config.scale, config.seed), 1)
        payload = shard_result_to_wire(run_shard((config, 0, 1, parts[0])))
        coordinator = Coordinator(
            config, ledger=tmp_path / "run.ledger", local_fallback=False
        )
        coordinator.start()
        healthy = threading.Thread(
            target=ClusterWorker(coordinator.address, name="healthy").run, daemon=True
        )
        try:
            with socket.create_connection(coordinator.address, timeout=10.0) as sock:
                send_message(
                    sock, {"type": "hello", "worker": "bad", "protocol": PROTOCOL_VERSION}
                )
                assert recv_message(sock)["type"] == "welcome"
                send_message(sock, {"type": "ready"})
                assign = recv_message(sock)
                assert assign["type"] == "assign"
                healthy.start()
                _wait_for(
                    lambda: coordinator.stats.workers_seen == 2,
                    message="the healthy worker to park",
                )
                send_message(sock, bad_frame(assign["shard"], payload))
                started = time.monotonic()
                result = coordinator.run(timeout=30.0)
                elapsed = time.monotonic() - started
        finally:
            coordinator.shutdown()
            healthy.join(timeout=10.0)
        return result, coordinator, elapsed, payload

    @pytest.mark.parametrize(
        "bad_frame",
        [
            lambda shard, payload: {
                "type": "result", "shard": shard, "payload": {**payload, "detections": 3}
            },
            lambda shard, payload: {"type": "result", "payload": payload},
            lambda shard, payload: {
                "type": "result", "shard": shard,
                "payload": {**payload, "row_counts": {"FOO": [1, 0, 1]}},
            },
            lambda shard, payload: {
                "type": "result", "shard": shard,
                "payload": {**payload, "row_counts": {"SANDWICH": [1, 0, 1]}},
            },
            lambda shard, payload: {"type": "shard-error", "shard": [shard]},
        ],
        ids=["detections-int", "no-shard", "unknown-row", "row-not-enabled",
             "shard-error-list"],
    )
    def test_bad_frame_requeues_with_a_strike(self, tmp_path, bad_frame):
        result, coordinator, elapsed, payload = self._run_past_bad_result(
            tmp_path, bad_frame
        )
        batch = ScanEngine(_config(shards=1)).run()
        assert fingerprint(result) == fingerprint(batch)
        assert elapsed < 20.0  # finished by the healthy worker, not a timeout
        assert coordinator.stats.worker_losses == 1
        assert coordinator.stats.requeues == 1
        assert coordinator._workers["bad"].strikes == 1
        assert coordinator._workers["healthy"].completed == 1
        # only the healthy worker's result reached the journal, and it
        # resumes to the same bytes
        from repro.runtime import RunLedger

        lines = (tmp_path / "run.ledger").read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[1])["payload"] == payload
        resumed = ScanEngine(_config(shards=1), ledger=tmp_path / "run.ledger").run()
        assert fingerprint(resumed) == fingerprint(batch)
        assert RunLedger.open(tmp_path / "run.ledger").is_complete

    @pytest.mark.parametrize(
        "override",
        [{"seed": SEED + 1}, {"scale": SCALE * 2}, {"shard_count": 2}, {"shard": 1},
         {"shard": "0"}],
        ids=["seed", "scale", "shard-count", "shard-out-of-range", "shard-string"],
    )
    def test_worker_refuses_an_assign_for_another_scan(self, override):
        """The worker decodes each ``assign`` against its ``welcome``: a
        descriptor that names another scan is a protocol error, never a
        shard run under a re-derived config or a local crash reported as
        a shard error."""
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.bind(("127.0.0.1", 0))
        server.listen(1)
        release = threading.Event()
        held: list[socket.socket] = []

        def fake_coordinator():
            conn, _ = server.accept()
            held.append(conn)
            assert recv_message(conn)["type"] == "hello"
            send_message(conn, {
                "type": "welcome", "protocol": PROTOCOL_VERSION,
                "config": config_to_wire(_config(shards=1)), "shard_count": 1,
                "heartbeat_interval": 0.05,
            })
            assert recv_message(conn)["type"] == "ready"
            send_message(conn, {
                "type": "assign", "seed": SEED, "scale": SCALE, "shard": 0,
                "shard_count": 1, **override,
            })
            release.wait(30.0)

        thread = threading.Thread(target=fake_coordinator, daemon=True)
        thread.start()
        try:
            worker = ClusterWorker(server.getsockname()[:2], name="strict")
            with pytest.raises(ProtocolError, match="assign frame"):
                worker.run()
        finally:
            release.set()
            thread.join(timeout=10.0)
            for conn in held:
                conn.close()
            server.close()
