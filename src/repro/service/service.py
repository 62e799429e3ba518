"""The resident scan service: run queue, results cache, paged results.

Everything before this module was one-shot — build a world, scan, exit.
:class:`ScanService` turns the same machinery into a multi-tenant
resident process:

- **Admission-controlled run queue.** ``submit`` derives the run id
  from the config digest, so a duplicate submission — same seed, scale,
  shards, thresholds — coalesces onto the in-flight or completed run
  instead of scanning twice. A bounded queue (``max_queue``) rejects
  overload loudly with :class:`AdmissionError` instead of thrashing;
  ``executors`` caps concurrent scans.

- **Durable, restart-surviving results.** Every run journals to its own
  :class:`~repro.runtime.RunLedger` under the service data dir. Results
  are *served from completed ledgers* — fetching never re-scans; decoded
  merges rest in a TTL + LRU results cache — and a restarted service
  adopts what it finds on disk: complete ledgers become servable
  ``completed`` runs, incomplete ones re-enter the queue as
  ``resuming`` and finish from the journal byte-identically.

- **Supervised execution tier.** Each admitted run executes through one
  of the existing backends: the batch :class:`~repro.engine.ScanEngine`
  (default), the streaming engine, or an embedded cluster
  — a per-run :class:`~repro.cluster.coordinator.Coordinator` fronted
  by an :class:`~repro.cluster.autoscale.ElasticPool` that scales local
  workers against queue depth. ``shutdown`` drains gracefully: active
  runs finish (their shards are journaled either way), queued runs stay
  queued on disk for the next start.

The service is transport-agnostic; :mod:`repro.service.server` puts a
length-prefixed JSON TCP front on it and
:mod:`repro.service.client` speaks to that from other processes.
"""

from __future__ import annotations

import threading
import time
import traceback
from collections import deque

from ..engine.plan import build_full_schedule
from ..engine.wire import config_from_wire, detection_to_wire
from .cache import TTLCache
from .registry import COALESCE_STATES, RunRecord, RunRegistry, run_id_for

__all__ = [
    "AdmissionError",
    "BACKENDS",
    "DEFAULT_EXECUTORS",
    "DEFAULT_MAX_QUEUE",
    "ScanService",
    "ServiceError",
    "UnknownRunError",
]

#: execution backends a run may request.
BACKENDS = ("batch", "stream", "cluster")

DEFAULT_EXECUTORS = 2
DEFAULT_MAX_QUEUE = 16
#: seconds a decoded merge result stays resident untouched.
DEFAULT_RESULTS_TTL = 300.0


class ServiceError(RuntimeError):
    """The request cannot be served (bad state, bad arguments)."""


class AdmissionError(ServiceError):
    """The run was rejected at admission (queue full or draining)."""


class UnknownRunError(ServiceError):
    """No run with that id exists in this service's registry."""


class ScanService:
    """A resident multi-tenant scan service over a data directory.

    Thread-safe throughout: the TCP server calls into it from connection
    handler threads while executor threads run scans. All run-record
    state transitions happen under one condition variable, which also
    serves as the completion signal for :meth:`wait`.
    """

    def __init__(
        self,
        data_dir,
        *,
        executors: int = DEFAULT_EXECUTORS,
        max_queue: int = DEFAULT_MAX_QUEUE,
        results_ttl: float | None = DEFAULT_RESULTS_TTL,
        results_entries: int = 16,
        default_backend: str = "batch",
        cluster_workers: int = 2,
        clock=time.monotonic,
    ) -> None:
        if executors < 1:
            raise ValueError(f"executors must be >= 1, got {executors}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if default_backend not in BACKENDS:
            raise ValueError(
                f"default_backend must be one of {BACKENDS}, got {default_backend!r}"
            )
        if cluster_workers < 1:
            raise ValueError(f"cluster_workers must be >= 1, got {cluster_workers}")
        self.registry = RunRegistry(data_dir)
        self.executors = executors
        self.max_queue = max_queue
        self.default_backend = default_backend
        self.cluster_workers = cluster_workers
        #: decoded merge results for completed runs, keyed by run id.
        self.results_cache = TTLCache(results_entries, results_ttl, clock=clock)

        self._cond = threading.Condition()
        self._records: dict[str, RunRecord] = {}
        self._queue: deque[str] = deque()
        self._active: set[str] = set()
        self._stopping = False
        self._draining = False
        self._threads: list[threading.Thread] = []
        self._started = False
        self.counters = {
            "submitted": 0,
            "coalesced": 0,
            "rejected": 0,
            "resubmitted": 0,
            "completed": 0,
            "failed": 0,
            "adopted_resuming": 0,
            "adopted_completed": 0,
        }

    # -- lifecycle -------------------------------------------------------

    def __enter__(self) -> "ScanService":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def start(self) -> None:
        """Adopt what the data dir holds, then start the executor pool."""
        if self._started:
            return
        self._started = True
        self._adopt()
        for index in range(self.executors):
            thread = threading.Thread(
                target=self._executor_loop,
                name=f"scan-service-executor-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def _adopt(self) -> None:
        """Reconcile persisted runs with their ledgers (restart path).

        The ledger is the source of truth: a complete journal makes the
        run ``completed`` (whatever the manifest said when the previous
        process died), an incomplete one re-enters the queue as
        ``resuming``, a never-started ``queued`` run re-enters as
        ``queued``, and an unreadable/mismatched ledger fails the run
        with the ledger's (now self-describing) error message.
        """
        from ..runtime.ledger import LedgerError, RunLedger

        for run_id, record in self.registry.load_all().items():
            if record.state == "completed":
                self._records[run_id] = record
                continue
            if record.state == "failed":
                self._records[run_id] = record
                continue
            ledger_path = self.registry.ledger_path(run_id)
            if not ledger_path.exists():
                # submitted but never started: back into the queue.
                record.state = "queued"
                self._records[run_id] = record
                self._queue.append(run_id)
                self.registry.save(record)
                continue
            try:
                ledger = RunLedger.open(ledger_path)
            except LedgerError as exc:
                record.state = "failed"
                record.error = str(exc)
                record.finished_at = time.time()
                self._records[run_id] = record
                self.registry.save(record)
                continue
            try:
                complete = ledger.is_complete
                record.shard_count = ledger.shard_count
                if complete:
                    result = ledger.merge()
                    record.state = "completed"
                    record.summary = self._summarize(result)
                    record.shards_resumed = ledger.completed_count
                    record.shards_recorded = 0
                    if record.finished_at is None:
                        record.finished_at = time.time()
                    self.results_cache.put(run_id, result)
                    self.counters["adopted_completed"] += 1
                else:
                    record.state = "resuming"
                    record.adopted = True
                    self._queue.append(run_id)
                    self.counters["adopted_resuming"] += 1
            finally:
                ledger.close()
            self._records[run_id] = record
            self.registry.save(record)

    def drain(self, timeout: float | None = None) -> bool:
        """Stop admitting, let the queue and active runs empty; ``True``
        when everything finished inside ``timeout``."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            self._draining = True
            self._cond.notify_all()
            while self._queue or self._active:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._cond.wait(remaining if remaining is not None else 0.2)
            return True

    def shutdown(self, timeout: float = 30.0) -> None:
        """Graceful stop: active runs finish (their shards are journaled),
        queued runs stay queued on disk for the next start."""
        with self._cond:
            self._stopping = True
            self._cond.notify_all()
        for thread in self._threads:
            thread.join(timeout)
        self._threads.clear()

    # -- submission / admission ------------------------------------------

    def submit(
        self,
        config,
        *,
        backend: str | None = None,
        jobs: int = 1,
    ) -> tuple[dict, bool]:
        """Admit one scan job; returns ``(run_view, coalesced)``.

        ``config`` is a :class:`~repro.workload.generator.WildScanConfig`
        or its wire dict (validated strictly either way). A run with the
        same config digest that is queued, running or completed coalesces
        — the caller gets the existing run's view and ``coalesced=True``.
        A previously *failed* run is re-admitted through the normal
        queue. :class:`AdmissionError` rejects submissions while the
        queue is full or the service is draining.
        """
        if isinstance(config, dict):
            config = config_from_wire(config)  # strict: raises ValueError
        if backend is None:
            backend = self.default_backend
        if backend not in BACKENDS:
            raise ServiceError(f"unknown backend {backend!r}; pick one of {BACKENDS}")
        if jobs < 1:
            raise ServiceError(f"jobs must be >= 1, got {jobs}")
        run_id = run_id_for(config)
        with self._cond:
            record = self._records.get(run_id)
            if record is not None and record.state in COALESCE_STATES:
                self.counters["coalesced"] += 1
                return self._view_locked(record), True
            if self._stopping or self._draining:
                self.counters["rejected"] += 1
                raise AdmissionError("service is draining; not admitting new runs")
            if len(self._queue) >= self.max_queue:
                self.counters["rejected"] += 1
                raise AdmissionError(
                    f"admission queue is full ({self.max_queue} queued); "
                    f"retry after the backlog drains"
                )
            if record is not None:  # failed: re-admit
                record.state = "queued"
                record.error = None
                record.finished_at = None
                record.backend = backend
                record.jobs = jobs
                record.submitted_at = time.time()
                self.counters["resubmitted"] += 1
            else:
                record = self.registry.create(config, backend=backend, jobs=jobs)
                self._records[run_id] = record
                self.counters["submitted"] += 1
            self.registry.save(record)
            self._queue.append(run_id)
            self._cond.notify_all()
            return self._view_locked(record), False

    # -- queries ---------------------------------------------------------

    def status(self, run_id: str) -> dict:
        with self._cond:
            return self._view_locked(self._record_locked(run_id))

    def runs(self) -> list[dict]:
        """Every known run's view, most recently submitted first."""
        with self._cond:
            views = [self._view_locked(r) for r in self._records.values()]
        return sorted(views, key=lambda v: v["submitted_at"], reverse=True)

    def wait(self, run_id: str, timeout: float | None = None) -> dict:
        """Block until ``run_id`` completes or fails; returns its view.

        With no ``timeout`` the waiter blocks on the condition outright
        (``Condition.wait(None)``) and wakes only on notify — every
        state transition already calls ``notify_all``, so polling here
        would only burn CPU on idle waiters.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            record = self._record_locked(run_id)
            while record.state not in ("completed", "failed"):
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise TimeoutError(
                            f"run {run_id} still {record.state} after {timeout}s"
                        )
                self._cond.wait(remaining)
            return self._view_locked(record)

    def results(self, run_id: str, offset: int = 0, limit: int | None = None) -> dict:
        """One page of a completed run's detections, straight from its ledger.

        Never re-scans: the merged result decodes from the journaled
        bytes (cached in the results tier) and pagination bounds the
        response. ``limit=None`` returns everything from ``offset``.
        """
        if offset < 0:
            raise ServiceError(f"offset must be >= 0, got {offset}")
        if limit is not None and limit < 1:
            raise ServiceError(f"limit must be >= 1 (or None), got {limit}")
        with self._cond:
            record = self._record_locked(run_id)
            state = record.state
            summary = record.summary
        if state != "completed":
            raise ServiceError(
                f"run {run_id} is {state}; results are served from completed "
                f"ledgers only"
            )
        result = self._load_result(run_id)
        detections = result.detections
        end = len(detections) if limit is None else min(offset + limit, len(detections))
        page = detections[offset:end]
        return {
            "run_id": run_id,
            "total_detections": len(detections),
            "offset": offset,
            "count": len(page),
            "next_offset": end if end < len(detections) else None,
            "summary": summary or self._summarize(result),
            "detections": [detection_to_wire(d) for d in page],
        }

    def stats(self) -> dict:
        with self._cond:
            states: dict[str, int] = {}
            for record in self._records.values():
                states[record.state] = states.get(record.state, 0) + 1
            return {
                "queue_depth": len(self._queue),
                "active": sorted(self._active),
                "executors": self.executors,
                "max_queue": self.max_queue,
                "draining": self._draining or self._stopping,
                "runs_by_state": states,
                "counters": dict(self.counters),
                "results_cache": self.results_cache.stats(),
            }

    # -- internals -------------------------------------------------------

    def _record_locked(self, run_id: str) -> RunRecord:
        record = self._records.get(run_id)
        if record is None:
            raise UnknownRunError(f"unknown run {run_id!r}")
        return record

    def _view_locked(self, record: RunRecord) -> dict:
        view = record.to_dict()
        if record.state in ("queued", "resuming"):
            try:
                view["queue_position"] = list(self._queue).index(record.run_id) + 1
            except ValueError:
                view["queue_position"] = None
        return view

    @staticmethod
    def _summarize(result) -> dict:
        return {
            "total_transactions": result.total_transactions,
            "detected": result.detected_count,
            "true_positives": result.true_positives,
            "precision": result.precision,
            "rows": {
                name: [row.n, row.tp, row.fp] for name, row in result.rows.items()
            },
        }

    def _load_result(self, run_id: str):
        """The merged ``WildScanResult`` for a completed run, via the
        results cache or a fresh decode of the run's ledger."""
        result = self.results_cache.get(run_id)
        if result is not None:
            return result
        from ..runtime.ledger import RunLedger

        with RunLedger.open(self.registry.ledger_path(run_id)) as ledger:
            result = ledger.merge()
        self.results_cache.put(run_id, result)
        return result

    # -- execution tier --------------------------------------------------

    def _executor_loop(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._stopping:
                    self._cond.wait(0.2)
                if self._stopping:
                    return
                run_id = self._queue.popleft()
                record = self._records[run_id]
                record.state = "running"
                record.started_at = time.time()
                self._active.add(run_id)
                self.registry.save(record)
                self._cond.notify_all()
            error: str | None = None
            try:
                self._execute(record)
            except Exception as exc:  # a failing run must not kill the pool
                error = "".join(
                    traceback.format_exception_only(type(exc), exc)
                ).strip()
            with self._cond:
                self._active.discard(run_id)
                if error is not None:
                    record.state = "failed"
                    record.error = error
                    self.counters["failed"] += 1
                else:
                    record.state = "completed"
                    self.counters["completed"] += 1
                record.finished_at = time.time()
                self.registry.save(record)
                self._cond.notify_all()

    def _execute(self, record: RunRecord) -> None:
        """Run one admitted job through its backend, journaled."""
        from dataclasses import replace

        from ..runtime.ledger import RunLedger

        config = config_from_wire(record.config)
        if record.jobs != 1 and record.backend in ("batch", "stream"):
            config = replace(config, jobs=record.jobs)
        _, shard_count = build_full_schedule(config)
        record.shard_count = shard_count

        ledger = RunLedger.resume_or_create(
            self.registry.ledger_path(record.run_id), config, shard_count
        )
        try:
            if record.backend == "stream":
                from ..engine.stream import StreamEngine

                result = StreamEngine(config, ledger=ledger).run().result
            elif record.backend == "cluster":
                from ..cluster.local import run_cluster_scan

                result, _stats = run_cluster_scan(
                    config,
                    workers=0,
                    autoscale=True,
                    max_workers=self.cluster_workers,
                    ledger=ledger,
                )
            else:
                from ..engine.scan import ScanEngine

                result = ScanEngine(config, ledger=ledger).run()
            record.shards_resumed = ledger.resumed_count
            record.shards_recorded = ledger.recorded_count
        finally:
            ledger.close()
        record.summary = self._summarize(result)
        self.results_cache.put(record.run_id, result)
