"""Single-machine cluster runs: spawn local workers, run, merge.

``experiments cluster --workers N`` uses this module: a coordinator on
a loopback ephemeral port plus ``N``
worker *processes* (fork start method when available). Environments
that deny process spawning degrade to worker *threads* — byte-identical
results either way, because the partition and merge never depend on
where shards run.
Tests inject instrumented workers (``worker_factory``) to simulate
kills and stalls; those always run as threads so their hooks can share
state with the test.

``run_cluster_scan(..., autoscale=True)`` replaces the fixed spawn with
an :class:`~repro.cluster.autoscale.ElasticPool`: ``workers`` becomes
the *initial* pool size (0 is allowed — the pool scales from zero
against queue depth), bounded by ``min_workers``/``max_workers``, with
idle drain and probation re-admission of excluded workers.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

from .coordinator import ClusterStats, Coordinator
from .worker import ClusterWorker, WorkerSummary

__all__ = ["LocalWorkerHandle", "run_cluster_scan", "spawn_local_workers"]


def _worker_process_main(host: str, port: int, name: str) -> None:
    """Top-level so it pickles under every multiprocessing start method."""
    ClusterWorker((host, port), name=name).run()


@dataclass(slots=True)
class LocalWorkerHandle:
    """One spawned local worker (process or thread)."""

    name: str
    kind: str  # "process" | "thread"
    _target: object
    #: filled in for thread workers once the worker drains.
    summary: WorkerSummary | None = None

    @property
    def alive(self) -> bool:
        return self._target.is_alive()

    def join(self, timeout: float | None = None) -> None:
        self._target.join(timeout)
        if self.kind == "process" and self._target.is_alive():
            self._target.terminate()
            self._target.join(1.0)

    def kill(self) -> None:
        """Hard-kill a process worker (no-op for thread workers)."""
        if self.kind == "process":
            self._target.kill()
            self._target.join(1.0)


def _spawn_thread(worker: ClusterWorker) -> LocalWorkerHandle:
    handle = LocalWorkerHandle(name=worker.name, kind="thread", _target=None)

    def main() -> None:
        handle.summary = worker.run()

    thread = threading.Thread(target=main, name=worker.name, daemon=True)
    handle._target = thread
    thread.start()
    return handle


def spawn_local_workers(
    address: tuple[str, int],
    count: int,
    *,
    name_prefix: str = "local",
    use_processes: bool | None = None,
    worker_factory: Callable[[int, tuple[str, int]], ClusterWorker] | None = None,
) -> list[LocalWorkerHandle]:
    """Spawn ``count`` workers against ``address``.

    ``use_processes=None`` tries real processes first and silently
    degrades to threads where spawning is denied (sandboxes), mirroring
    ``ScanEngine``'s fallback. A ``worker_factory`` forces threads: its
    instrumented workers carry test hooks that cannot cross a process
    boundary.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    host, port = address
    handles: list[LocalWorkerHandle] = []
    if worker_factory is not None:
        for index in range(count):
            handles.append(_spawn_thread(worker_factory(index, address)))
        return handles

    processes_ok = use_processes is not False
    if processes_ok:
        import multiprocessing

        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
        for index in range(count):
            name = f"{name_prefix}-{index}"
            process = ctx.Process(
                target=_worker_process_main, args=(host, port, name), name=name
            )
            try:
                process.start()
            except (OSError, PermissionError):
                if use_processes is True:
                    raise
                processes_ok = False
                break
            handles.append(LocalWorkerHandle(name=name, kind="process", _target=process))
    if not processes_ok:
        for index in range(len(handles), count):
            worker = ClusterWorker(address, name=f"{name_prefix}-{index}")
            handles.append(_spawn_thread(worker))
    return handles


def run_cluster_scan(
    config,
    workers: int = 2,
    *,
    autoscale: bool = False,
    min_workers: int = 0,
    max_workers: int | None = None,
    autoscale_options: dict | None = None,
    use_processes: bool | None = None,
    worker_factory: Callable[[int, tuple[str, int]], ClusterWorker] | None = None,
    timeout: float | None = None,
    **coordinator_options,
) -> tuple[object, ClusterStats]:
    """One-call cluster scan on this machine.

    Starts a coordinator on an ephemeral loopback port, spawns
    ``workers`` local workers, blocks until the merge, and returns
    ``(WildScanResult, ClusterStats)``. The result is byte-identical to
    ``ScanEngine.run()`` for the same config — worker losses along the
    way only show up in the stats.

    With ``autoscale=True`` the fixed spawn becomes an
    :class:`~repro.cluster.autoscale.ElasticPool`: ``workers`` is the
    initial pool size (0 scales from zero), capped by ``max_workers``
    (default ``max(workers, 2)``), floored by ``min_workers``; extra
    pool knobs (``poll_interval``, ``idle_grace``,
    ``probation_cooldown``, ...) go through ``autoscale_options``.
    """
    if workers < 0 or (workers == 0 and not autoscale):
        raise ValueError(
            f"workers must be >= 1 (or >= 0 with autoscale=True), got {workers}"
        )
    coordinator = Coordinator(config, **coordinator_options)
    coordinator.start()
    handles: list[LocalWorkerHandle] = []
    pool = None
    try:
        if autoscale:
            from .autoscale import ElasticPool

            pool = ElasticPool(
                coordinator,
                min_workers=min_workers,
                max_workers=(
                    max_workers if max_workers is not None else max(workers, 2)
                ),
                initial_workers=workers,
                use_processes=use_processes,
                worker_factory=worker_factory,
                **(autoscale_options or {}),
            )
            pool.start()
        else:
            handles = spawn_local_workers(
                coordinator.address,
                workers,
                use_processes=use_processes,
                worker_factory=worker_factory,
            )
        result = coordinator.run(timeout=timeout)
    finally:
        if pool is not None:
            pool.stop()
        coordinator.shutdown()
        for handle in handles:
            handle.join(5.0)
    return result, coordinator.stats
