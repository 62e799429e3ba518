"""Distributed wild scan — the cluster deployment mode as an experiment.

Not a paper table: this surface runs the paper's Sec. VI-C evaluation
across cluster workers (:mod:`repro.cluster`) and reports wall-clock,
fault counters and the identity check against the batch engine. Four
modes, selected by the CLI flags:

- ``--workers N`` (default): coordinator plus ``N`` locally spawned
  workers — the single-machine path;
- ``--serve``: coordinator only, listening for remote workers on
  ``--host``/``--port``;
- ``--connect HOST:PORT[,HOST:PORT...]``: worker only, serving whichever
  listed coordinator answers (primary first, failover standby next)
  until drained;
- ``--standby HOST:PORT``: hot-standby coordinator — follow the primary
  at that address, probe its liveness, and adopt the shared
  ``--ledger`` journal when it dies, finishing the scan.

``--autoscale`` turns the fixed local spawn into an elastic pool
(:mod:`repro.cluster.autoscale`): ``--workers`` becomes the initial pool
size (0 scales from zero against queue depth), bounded by
``--min-workers``/``--max-workers``, with idle drain and probation
re-admission of excluded workers.

``coordinator_options`` of each mode are forwarded to the coordinator
(``heartbeat_timeout``; the local mode also takes ``run_cluster_scan``'s
autoscale arguments).
"""

from __future__ import annotations

import time

from .scan import run_report

__all__ = [
    "render_local", "render_serve", "render_standby", "render_worker",
    "verify_identity",
]


def _report(result, stats, elapsed, workers, details=(), *, ledger, profile_path) -> str:
    txs_per_s = result.total_transactions / elapsed if elapsed else 0.0
    lines = [
        "faults: "
        f"{stats.requeues} requeue(s) ({stats.heartbeat_requeues} via heartbeat "
        f"timeout), {stats.worker_losses} worker loss(es), "
        f"{stats.duplicates_suppressed} duplicate(s) suppressed, "
        f"{stats.workers_excluded} worker(s) excluded, "
        f"{stats.local_fallback_shards} shard(s) via local fallback",
    ]
    if stats.workers_spawned or stats.workers_drained or stats.workers_readmitted:
        lines.append(
            "elastic: "
            f"{stats.workers_spawned} worker(s) spawned, "
            f"{stats.workers_drained} drained, "
            f"{stats.workers_readmitted} readmitted on probation "
            f"({stats.probation_passes} passed, {stats.probation_failures} failed)"
        )
    return "\n".join([
        f"Cluster scan — {result.total_transactions} txs across "
        f"{workers} in {elapsed:.2f}s ({txs_per_s:,.0f} txs/s)",
        *run_report(
            result, [*lines, *details], ledger=ledger, profile=stats.profile,
            profile_path=profile_path,
        ),
    ])


def verify_identity(config, result) -> str:
    """The identity line for ``result``, a cluster scan of ``config``;
    raises AssertionError unless it matches ``ScanEngine.run()``: the
    total, every detection's full wire form and the Table V rows."""
    from ..engine import ScanEngine
    from ..engine.wire import detection_to_wire

    def identity(scanned) -> tuple:
        return (
            scanned.total_transactions,
            [detection_to_wire(d) for d in scanned.detections],
            {name: (row.n, row.tp, row.fp) for name, row in scanned.rows.items()},
        )

    if identity(ScanEngine(config).run()) != identity(result):
        raise AssertionError(
            "identity violation: cluster scan diverged from ScanEngine.run()"
        )
    return "identity: merged result byte-identical to the batch engine"


def render_local(
    config, *, workers: int = 2, verify: bool = True, ledger=None,
    profile_path=None, **coordinator_options,
) -> str:
    """Coordinator plus ``workers`` local workers; optionally verify
    against the batch engine (doubles the work — skip with
    ``--no-verify`` at full scale)."""
    from ..cluster import run_cluster_scan
    from ..engine.scan import open_shards

    if ledger is not None:
        # opened here rather than by the coordinator, so that the report
        # can read how many shards it resumed and recorded.
        ledger = open_shards(config, ledger)[2]
    start = time.perf_counter()
    result, stats = run_cluster_scan(
        config, workers=workers, ledger=ledger, **coordinator_options
    )
    elapsed = time.perf_counter() - start
    return _report(
        result, stats, elapsed, f"{stats.workers_seen} local worker(s)",
        [verify_identity(config, result)] if verify else [],
        ledger=ledger, profile_path=profile_path,
    )


def render_serve(
    config, *, host: str = "0.0.0.0", port: int = 9733, ledger=None,
    profile_path=None, **coordinator_options,
) -> str:
    """Coordinator-only mode: wait for remote workers, then merge."""
    from ..cluster import Coordinator

    coordinator = Coordinator(
        config, host=host, port=port, ledger=ledger, **coordinator_options
    )
    bound_host, bound_port = coordinator.address
    print(
        f"coordinator serving {coordinator.shard_count} shard(s) on "
        f"{bound_host}:{bound_port} — connect workers with: "
        f"experiments cluster --connect {bound_host}:{bound_port}",
        flush=True,
    )
    start = time.perf_counter()
    with coordinator:
        result = coordinator.run()
    elapsed = time.perf_counter() - start
    return _report(
        result, coordinator.stats, elapsed,
        f"{coordinator.stats.workers_seen} remote worker(s)",
        ledger=coordinator.ledger, profile_path=profile_path,
    )


def render_standby(
    config, primary: tuple[str, int], *, host: str = "0.0.0.0", port: int = 0,
    ledger, profile_path=None, **coordinator_options,
) -> str:
    """Hot-standby mode: follow the primary coordinator at ``primary``,
    adopt the shared ``ledger`` journal when the liveness probe declares
    it dead, and finish the scan on this standby's own serve socket.
    Workers should list both addresses: ``--connect PRIMARY,STANDBY``."""
    from ..cluster import StandbyCoordinator

    standby = StandbyCoordinator(
        config,
        primary=primary,
        ledger=ledger,
        host=host,
        port=port,
        coordinator_options=coordinator_options,
    )
    standby.start()
    bound_host, bound_port = standby.address
    primary_host, primary_port = standby.primary
    print(
        f"standby following {primary_host}:{primary_port}, adoption address "
        f"{bound_host}:{bound_port} — point workers at both: --connect "
        f"{primary_host}:{primary_port},{bound_host}:{bound_port}",
        flush=True,
    )
    try:
        standby.wait_for_primary_death()
        detect_s = standby.death_detected_at - standby.started_at
        print(
            f"primary dead after {detect_s:.2f}s of following "
            f"({standby.probe_count} probe(s)) — adopting the journal",
            flush=True,
        )
        start = time.perf_counter()
        result = standby.adopt_and_run()
        elapsed = time.perf_counter() - start
    finally:
        standby.shutdown()
    stats = standby.stats
    return _report(
        result, stats, elapsed, f"{stats.workers_seen} failed-over worker(s)",
        [
            f"failover: {stats.resumed_shards} shard(s) adopted from the dead "
            f"primary's journal, {stats.assignments} reassigned"
        ],
        ledger=standby.coordinator.ledger, profile_path=profile_path,
    )


def render_worker(addresses: list[tuple[str, int]]) -> str:
    """Worker mode: serve a coordinator from ``addresses`` (primary
    first, standbys after) until drained; a coordinator lost mid-scan
    fails over to the next address."""
    from ..cluster import ClusterWorker

    summary = ClusterWorker(addresses).run()
    state = (
        "killed" if summary.killed
        else "coordinator vanished" if summary.disconnected
        else "drained"
    )
    failed_over = (
        f", {summary.failovers} coordinator failover(s)" if summary.failovers else ""
    )
    return (
        f"worker {summary.name}: {summary.shards_completed} shard(s) completed, "
        f"{summary.shard_errors} shard error(s), {summary.tasks_executed} task(s) "
        f"executed{failed_over} — {state}"
    )
