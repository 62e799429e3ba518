"""The resident service's contracts: dedup, identity, restart.

These are the acceptance pins for the multi-tenant tier:

- concurrent overlapping submissions coalesce onto one run;
- everything the service serves is byte-identical to a standalone
  :class:`~repro.engine.ScanEngine` run of the same config, on every
  backend, paged or unpaged;
- a service restarted over a half-journaled run adopts the ledger,
  finishes only the missing shards, and changes nothing.
"""

from __future__ import annotations

import threading

import pytest

from repro.engine.plan import build_schedule, shard_schedule
from repro.engine.scan import ScanEngine, run_shard
from repro.engine.wire import detection_to_wire
from repro.runtime import RunLedger
from repro.service import (
    AdmissionError,
    ScanService,
    ServiceError,
    UnknownRunError,
    run_id_for,
)
from repro.workload.generator import WildScanConfig

CONFIG = WildScanConfig(scale=0.01, seed=7, shards=2)


def standalone_wire(config) -> list[dict]:
    return [detection_to_wire(d) for d in ScanEngine(config).run().detections]


def test_submit_runs_and_serves_identical_results(tmp_path):
    reference = standalone_wire(CONFIG)
    with ScanService(tmp_path) as service:
        view, coalesced = service.submit(CONFIG)
        assert not coalesced
        assert view["run_id"] == run_id_for(CONFIG)
        done = service.wait(view["run_id"], timeout=120)
        assert done["state"] == "completed"
        assert done["summary"]["detected"] == len(reference)
        page = service.results(view["run_id"])
        assert page["detections"] == reference
        assert page["total_detections"] == len(reference)


def test_concurrent_duplicate_submissions_coalesce(tmp_path):
    """N threads race the same config in; exactly one run may exist."""
    results: list[tuple[dict, bool]] = []
    with ScanService(tmp_path, executors=2) as service:
        barrier = threading.Barrier(6)

        def submit() -> None:
            barrier.wait()
            results.append(service.submit(CONFIG))

        threads = [threading.Thread(target=submit) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        run_ids = {view["run_id"] for view, _ in results}
        assert run_ids == {run_id_for(CONFIG)}
        coalesced = [flag for _, flag in results]
        assert coalesced.count(False) == 1  # one admission...
        assert coalesced.count(True) == 5  # ...five coalesces
        assert service.counters["submitted"] == 1
        assert service.counters["coalesced"] == 5
        service.wait(run_id_for(CONFIG), timeout=120)
        assert len(service.runs()) == 1


def test_concurrent_distinct_submissions_all_identical(tmp_path):
    """Two submissions served concurrently by one resident process, each
    byte-identical to its own standalone engine run."""
    configs = [
        WildScanConfig(scale=0.01, seed=seed, shards=2) for seed in (7, 11)
    ]
    references = [standalone_wire(config) for config in configs]
    with ScanService(tmp_path, executors=2) as service:
        views = [service.submit(config)[0] for config in configs]
        for view, reference in zip(views, references):
            done = service.wait(view["run_id"], timeout=120)
            assert done["state"] == "completed"
            assert service.results(view["run_id"])["detections"] == reference


def test_status_polling_during_live_run(tmp_path):
    service = ScanService(tmp_path, executors=1)
    inner = service._execute
    started, release = threading.Event(), threading.Event()

    def gated(record):
        started.set()
        assert release.wait(30)
        inner(record)

    service._execute = gated
    other = WildScanConfig(scale=0.01, seed=11, shards=2)
    try:
        with service:
            view, _ = service.submit(CONFIG)
            assert view["state"] == "queued"
            assert started.wait(30)
            live = service.status(view["run_id"])
            assert live["state"] == "running"
            assert live["started_at"] is not None
            # a run queued behind the live one reports its position...
            queued, _ = service.submit(other)
            assert queued["state"] == "queued"
            assert queued["queue_position"] == 1
            # ...and a duplicate of the *live* run coalesces onto it.
            dup, coalesced = service.submit(CONFIG)
            assert coalesced and dup["state"] == "running"
            with pytest.raises(ServiceError, match="completed ledgers only"):
                service.results(view["run_id"])
            release.set()
            done = service.wait(view["run_id"], timeout=120)
            assert done["state"] == "completed"
            service.wait(queued["run_id"], timeout=120)
    finally:
        release.set()


def test_paged_fetch_equals_unpaged_merge(tmp_path):
    reference = standalone_wire(CONFIG)
    assert len(reference) >= 3  # the pagination needs something to page
    with ScanService(tmp_path) as service:
        view, _ = service.submit(CONFIG)
        service.wait(view["run_id"], timeout=120)
        unpaged = service.results(view["run_id"])["detections"]
        paged: list[dict] = []
        offset = 0
        while True:
            page = service.results(view["run_id"], offset=offset, limit=2)
            assert page["count"] == len(page["detections"]) <= 2
            paged.extend(page["detections"])
            if page["next_offset"] is None:
                break
            offset = page["next_offset"]
        assert paged == unpaged == reference
        # an offset past the end is an empty last page, not an error.
        past = service.results(view["run_id"], offset=len(reference) + 5)
        assert past["detections"] == [] and past["next_offset"] is None


@pytest.mark.parametrize("backend", ["stream", "cluster"])
def test_alternate_backends_identical(tmp_path, backend):
    reference = standalone_wire(CONFIG)
    with ScanService(tmp_path, cluster_workers=2) as service:
        view, _ = service.submit(CONFIG, backend=backend)
        done = service.wait(view["run_id"], timeout=300)
        assert done["state"] == "completed", done["error"]
        assert done["backend"] == backend
        assert service.results(view["run_id"])["detections"] == reference


def test_admission_rejects_when_queue_full(tmp_path):
    service = ScanService(tmp_path, executors=1, max_queue=1)
    inner = service._execute
    started, release = threading.Event(), threading.Event()

    def gated(record):
        started.set()
        assert release.wait(30)
        inner(record)

    service._execute = gated
    try:
        with service:
            first, _ = service.submit(CONFIG)
            assert started.wait(30)  # executor busy; queue is empty again
            service.submit(WildScanConfig(scale=0.01, seed=11, shards=2))
            with pytest.raises(AdmissionError, match="queue is full"):
                service.submit(WildScanConfig(scale=0.01, seed=12, shards=2))
            assert service.counters["rejected"] == 1
            # duplicates of admitted runs still coalesce while the queue
            # is full — coalescing is not an admission.
            _, coalesced = service.submit(CONFIG)
            assert coalesced
            release.set()
            service.wait(first["run_id"], timeout=120)
    finally:
        release.set()


def test_draining_service_rejects_submissions(tmp_path):
    with ScanService(tmp_path) as service:
        assert service.drain(timeout=30)
        with pytest.raises(AdmissionError, match="draining"):
            service.submit(CONFIG)


def test_failed_run_reports_and_resubmits(tmp_path):
    service = ScanService(tmp_path, executors=1)
    inner = service._execute
    fail_once = {"armed": True}

    def flaky(record):
        if fail_once.pop("armed", False):
            raise RuntimeError("synthetic executor failure")
        inner(record)

    service._execute = flaky
    with service:
        view, _ = service.submit(CONFIG)
        failed = service.wait(view["run_id"], timeout=120)
        assert failed["state"] == "failed"
        assert "synthetic executor failure" in failed["error"]
        with pytest.raises(ServiceError, match="failed"):
            service.results(view["run_id"])
        # a failed run does not coalesce — resubmission re-queues it.
        again, coalesced = service.submit(CONFIG)
        assert not coalesced
        assert service.counters["resubmitted"] == 1
        done = service.wait(again["run_id"], timeout=120)
        assert done["state"] == "completed"
        assert done["error"] is None


def test_unknown_run_and_bad_paging_args(tmp_path):
    with ScanService(tmp_path) as service:
        with pytest.raises(UnknownRunError, match="unknown run"):
            service.status("run-does-not-exist")
        view, _ = service.submit(CONFIG)
        service.wait(view["run_id"], timeout=120)
        with pytest.raises(ServiceError, match="offset"):
            service.results(view["run_id"], offset=-1)
        with pytest.raises(ServiceError, match="limit"):
            service.results(view["run_id"], limit=0)
        with pytest.raises(ServiceError, match="backend"):
            service.submit(CONFIG, backend="quantum")


def test_restart_adopts_incomplete_ledger_byte_identically(tmp_path):
    """Kill mid-run, restart: the ledger resumes, the result is unchanged."""
    reference = standalone_wire(CONFIG)
    run_id = run_id_for(CONFIG)

    # simulate the killed service: a manifest stuck at ``running`` next
    # to a ledger holding the first of two shards.
    dead = ScanService(tmp_path)
    record = dead.registry.create(CONFIG)
    record.state = "running"
    dead.registry.save(record)
    parts = shard_schedule(build_schedule(CONFIG.scale, CONFIG.seed), 2)
    ledger = RunLedger.create(dead.registry.ledger_path(run_id), CONFIG, 2)
    ledger.record(run_shard((CONFIG, 0, 2, parts[0])))
    ledger.close()

    with ScanService(tmp_path) as service:
        adopted = service.status(run_id)
        assert adopted["adopted"]
        assert service.counters["adopted_resuming"] == 1
        done = service.wait(run_id, timeout=120)
        assert done["state"] == "completed"
        assert done["shards_resumed"] == 1  # the journaled shard
        assert done["shards_recorded"] == 1  # only the missing one ran
        assert service.results(run_id)["detections"] == reference


def test_restart_adopts_completed_ledger_without_rescanning(tmp_path):
    reference = standalone_wire(CONFIG)
    with ScanService(tmp_path) as first:
        view, _ = first.submit(CONFIG)
        first.wait(view["run_id"], timeout=120)
    ledger_path = first.registry.ledger_path(view["run_id"])
    ledger_bytes = ledger_path.read_bytes()

    # a cleanly completed manifest restarts straight to servable...
    with ScanService(tmp_path) as second:
        assert second.status(view["run_id"])["state"] == "completed"
        assert second.results(view["run_id"])["detections"] == reference

    # ...and one stuck at ``running`` beside a complete ledger (death in
    # the window between the last shard landing and the state flip) is
    # reclassified from the ledger bytes, without re-scanning.
    record = first.registry.load(view["run_id"])
    record.state = "running"
    record.finished_at = None
    first.registry.save(record)
    with ScanService(tmp_path) as third:
        assert third.counters["adopted_completed"] == 1
        done = third.status(view["run_id"])
        assert done["state"] == "completed"
        assert done["shards_resumed"] == 2  # every shard from the journal
        assert third.results(view["run_id"])["detections"] == reference
    # serving results never rewrites the journal.
    assert ledger_path.read_bytes() == ledger_bytes


def test_restart_requeues_never_started_run(tmp_path):
    dead = ScanService(tmp_path)
    dead.registry.create(CONFIG)  # manifest only, no ledger, state queued

    with ScanService(tmp_path) as service:
        done = service.wait(run_id_for(CONFIG), timeout=120)
        assert done["state"] == "completed"


def test_shutdown_leaves_queue_for_next_start(tmp_path):
    service = ScanService(tmp_path, executors=1)
    inner = service._execute
    started, release = threading.Event(), threading.Event()

    def gated(record):
        started.set()
        assert release.wait(30)
        inner(record)

    service._execute = gated
    other = WildScanConfig(scale=0.01, seed=11, shards=2)
    with service:
        active, _ = service.submit(CONFIG)
        assert started.wait(30)
        queued, _ = service.submit(other)
        release.set()
        # shutdown drains the active run; the queued one stays on disk.
    assert service.status(active["run_id"])["state"] == "completed"

    with ScanService(tmp_path) as revived:
        done = revived.wait(queued["run_id"], timeout=120)
        assert done["state"] == "completed"


def test_stats_shape(tmp_path):
    with ScanService(tmp_path) as service:
        view, _ = service.submit(CONFIG)
        service.wait(view["run_id"], timeout=120)
        stats = service.stats()
        assert stats["runs_by_state"] == {"completed": 1}
        assert stats["counters"]["completed"] == 1
        assert stats["queue_depth"] == 0
        assert not stats["draining"]


def test_wait_without_timeout_blocks_on_notify(tmp_path):
    """``wait(run_id)`` with no timeout parks on the condition and wakes
    promptly when the run completes.

    Regression: the no-timeout path used to compute a ``remaining`` of
    ``None`` and fall into ``Condition.wait`` with a bogus value instead
    of blocking outright — an indefinite wait must ride ``notify_all``,
    not a poll loop.
    """
    import time

    with ScanService(tmp_path) as service:
        view, _ = service.submit(CONFIG)
        woke: dict = {}

        def waiter():
            done = service.wait(view["run_id"])  # no timeout at all
            woke["view"] = done
            woke["at"] = time.monotonic()

        thread = threading.Thread(target=waiter)
        thread.start()
        done = service.wait(view["run_id"], timeout=120)
        completed_at = time.monotonic()
        assert done["state"] == "completed"
        thread.join(timeout=10)
        assert not thread.is_alive(), "no-timeout waiter never woke"
        assert woke["view"]["state"] == "completed"
        # promptness: the notify-driven wake lands within moments of the
        # state transition, not a poll interval later.
        assert woke["at"] - completed_at < 5.0


def test_wait_without_timeout_returns_immediately_when_done(tmp_path):
    with ScanService(tmp_path) as service:
        view, _ = service.submit(CONFIG)
        service.wait(view["run_id"], timeout=120)
        done = service.wait(view["run_id"])  # already terminal: no block
        assert done["state"] == "completed"
