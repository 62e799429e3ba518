"""The resident service's contracts: dedup, identity, restart.

These are the acceptance pins for the multi-tenant tier:

- concurrent overlapping submissions coalesce onto one run;
- everything the service serves is byte-identical to a standalone
  :class:`~repro.engine.ScanEngine` run of the same config, paged or
  unpaged;
- a service restarted over a half-journaled run adopts the ledger,
  finishes only the missing shards, and changes nothing; one restarted
  over manifests an older build wrote adopts them too.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import replace

import pytest

from repro.engine.plan import build_schedule, shard_schedule
from repro.engine.scan import ScanEngine, run_shard
from repro.engine.wire import config_to_wire, detection_to_wire
from repro.leishen.registry import PatternSettings
from repro.runtime import RunLedger
from repro.service.registry import RunRecord
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
            assert done["started_at"] >= done["submitted_at"]
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


def _rewrite_as_v1(registry, run_id: str, backend: str) -> None:
    """Rewrite a run's manifest in the v1 schema: the same fields plus
    the execution backend the run was submitted to."""
    path = registry.manifest_path(run_id)
    payload = json.loads(path.read_text())
    payload.update(manifest_version=1, backend=backend)
    path.write_text(json.dumps(payload, sort_keys=True))


def test_restart_adopts_v1_manifests(tmp_path):
    """A completed v1 ``cluster`` run beside its complete ledger serves its
    results without re-scanning; a queued v1 ``stream`` run executes
    through ``ScanEngine``. Both serve a standalone run's bytes."""
    other = WildScanConfig(scale=0.01, seed=11, shards=2)
    with ScanService(tmp_path) as first:
        completed = first.submit(CONFIG)[0]["run_id"]
        first.wait(completed, timeout=120)
    queued = first.registry.create(other).run_id
    _rewrite_as_v1(first.registry, completed, "cluster")
    _rewrite_as_v1(first.registry, queued, "stream")
    ledger_bytes = first.registry.ledger_path(completed).read_bytes()

    with ScanService(tmp_path) as service:
        assert service.status(completed)["state"] == "completed"
        done = service.wait(queued, timeout=120)
        assert done["state"] == "completed", done["error"]
        assert done["shards_recorded"] == 2
        assert service.results(completed)["detections"] == standalone_wire(CONFIG)
        assert service.results(queued)["detections"] == standalone_wire(other)
        assert "backend" not in done
    assert first.registry.ledger_path(completed).read_bytes() == ledger_bytes


def test_default_spellings_coalesce_onto_one_run(tmp_path):
    """Spelling the paper defaults out names the same run, whether that
    run is still running or completed."""
    gate = threading.Event()
    with ScanService(tmp_path) as service:
        inner = service._execute
        service._execute = lambda record: (gate.wait(60), inner(record))
        run_id = service.submit(CONFIG)[0]["run_id"]
        view, coalesced = service.submit(replace(CONFIG, pattern_config=PatternSettings()))
        assert coalesced and view["run_id"] == run_id
        gate.set()
        assert service.wait(run_id, timeout=120)["state"] == "completed"
        paper = PatternSettings.make(params={"KRP": {"min_buys": 5}, "MBS": {"min_rounds": 3}})
        view, coalesced = service.submit(replace(CONFIG, pattern_config=paper))
        assert coalesced and view["run_id"] == run_id and view["state"] == "completed"
        assert service.counters["submitted"] == 1


def _legacy_wire(config) -> tuple[str, dict]:
    """``config`` as older builds wrote it with a flat pattern config at
    the paper's thresholds: its digest under those builds, and its wire
    form."""
    wire = {
        **config_to_wire(config),
        "pattern_config": {"krp_min_buys": 5, "sbs_min_volatility": 0.28,
                           "sbs_amount_tolerance": 0.001, "mbs_min_rounds": 3},
    }
    blob = json.dumps(wire, sort_keys=True, separators=(",", ":")).encode()
    digest = hashlib.sha256(blob).hexdigest()
    return digest, wire


def test_restart_adopts_legacy_run_under_its_old_id(tmp_path):
    """A half-journaled run an older build submitted with a flat pattern
    config resumes and serves under its old run id; a fresh submit of the
    same scan gets the canonical id."""
    digest, wire = _legacy_wire(CONFIG)
    old_id = f"run-{digest[:16]}"
    assert old_id == "run-b642163518e6ebe4"  # the previous build's run id
    registry = ScanService(tmp_path).registry
    registry.save(RunRecord(run_id=old_id, config=wire, config_digest=digest,
                            state="running"))
    header = {"kind": "header", "ledger_version": 2, "wire_version": 2,
              "seed": CONFIG.seed, "scale": CONFIG.scale, "shard_count": 2,
              "config_digest": digest, "config": wire}
    path = registry.ledger_path(old_id)
    path.write_text(json.dumps(header, sort_keys=True) + "\n")
    parts = shard_schedule(build_schedule(CONFIG.scale, CONFIG.seed), 2)
    with RunLedger.open(path) as ledger:
        ledger.record(run_shard((CONFIG, 0, 2, parts[0])))

    with ScanService(tmp_path) as service:
        done = service.wait(old_id, timeout=120)
        assert done["state"] == "completed", done["error"]
        assert (done["shards_resumed"], done["shards_recorded"]) == (1, 1)
        assert service.results(old_id)["detections"] == standalone_wire(CONFIG)
        view, coalesced = service.submit(CONFIG)
        assert not coalesced and view["run_id"] == run_id_for(CONFIG) != old_id


def test_restart_fails_run_whose_ledger_header_does_not_decode(tmp_path):
    """An undecodable ledger header fails its own run at start; the other
    runs are adopted."""
    other = WildScanConfig(scale=0.01, seed=11, shards=2)
    dead = ScanService(tmp_path)
    broken = dead.registry.create(CONFIG)
    broken.state = "running"
    dead.registry.save(broken)
    ledger_path = dead.registry.ledger_path(broken.run_id)
    RunLedger.create(ledger_path, CONFIG, 2).close()
    header = json.loads(ledger_path.read_text())
    header["config"]["pattern_config"] = {"enabled": 5, "params": {}, "registry": 1}
    ledger_path.write_text(json.dumps(header) + "\n")
    queued = dead.registry.create(other).run_id

    with ScanService(tmp_path) as service:
        failed = service.status(broken.run_id)
        assert failed["state"] == "failed"
        assert "header config does not decode" in failed["error"]
        assert str(ledger_path) in failed["error"]
        assert service.wait(queued, timeout=120)["state"] == "completed"


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


def test_undecodable_ledger_is_a_ledger_error(tmp_path):
    """A journaled payload that does not decode fails at ledger open: a
    results fetch raises ``LedgerError``, and a restart that re-checks the
    ledger (the manifest was left ``running``) fails the run instead of
    crashing ``start()``."""
    from repro.runtime import LedgerError

    with ScanService(tmp_path) as first:
        run_id = first.submit(CONFIG)[0]["run_id"]
        first.wait(run_id, timeout=120)
    ledger_path = first.registry.ledger_path(run_id)
    lines = ledger_path.read_text().splitlines()
    record = json.loads(lines[1])
    record["payload"]["detections"] = 3
    ledger_path.write_text("\n".join([lines[0], json.dumps(record), *lines[2:]]) + "\n")

    with ScanService(tmp_path) as second:
        with pytest.raises(LedgerError, match="line 2: shard result: detections"):
            second.results(run_id)

    manifest = first.registry.load(run_id)
    manifest.state = "running"
    first.registry.save(manifest)
    with ScanService(tmp_path) as third:
        view = third.status(run_id)
        assert view["state"] == "failed"
        assert "line 2: shard result: detections" in view["error"]
