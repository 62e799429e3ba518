"""Elastic wild scan: scale from zero, lose a worker, re-admit it.

Run::

    python examples/elastic_scan.py [scale]

Starts a cluster coordinator with **no** workers at all. The attached
elastic pool (:mod:`repro.cluster.autoscale`) notices the queue depth
and scales the fleet up to two workers on its own. Worker 0 is rigged to
die abruptly mid-shard; with ``max_worker_strikes=1`` the loss excludes
it immediately. After the probation cooldown the pool re-admits the
identity for one trial shard — a clean result clears its strikes and it
rejoins the fleet. The merged result is then compared against a plain
in-process ``ScanEngine`` run: byte-identical, because scaling decisions
never touch the shard partition or the merge order.
"""

from __future__ import annotations

import sys

from repro.cluster import ClusterWorker, WorkerKilled, run_cluster_scan
from repro.engine import ScanEngine
from repro.workload.generator import WildScanConfig


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.005
    config = WildScanConfig(scale=scale, seed=7, shards=6)

    victim_state = {"killed": False}

    def worker_factory(index: int, address: tuple[str, int]) -> ClusterWorker:
        def die_mid_shard(worker: ClusterWorker, shard: int, task: int) -> None:
            if index == 0 and not victim_state["killed"] and task == 3:
                victim_state["killed"] = True
                print(f"  worker 0: killed mid-shard {shard} (task {task})")
                raise WorkerKilled()

        return ClusterWorker(address, name=f"elastic-{index}", task_hook=die_mid_shard)

    print(f"elastic scan at scale {scale}: 0 workers, pool capped at 2...\n")
    result, stats = run_cluster_scan(
        config,
        workers=0,
        autoscale=True,
        max_workers=2,
        autoscale_options={"poll_interval": 0.02, "probation_cooldown": 0.2},
        worker_factory=worker_factory,
        max_worker_strikes=1,
        heartbeat_timeout=5.0,
    )

    print(
        f"\nscan survived: {result.total_transactions} txs, "
        f"{result.detected_count} detections ({result.true_positives} true, "
        f"precision {result.precision:.1%})"
    )
    print(
        f"scaling events: {stats.workers_spawned} worker(s) spawned, "
        f"{stats.workers_drained} drained, "
        f"{stats.workers_readmitted} readmitted on probation "
        f"({stats.probation_passes} passed, {stats.probation_failures} failed)"
    )
    print(
        f"faults handled: {stats.worker_losses} worker loss(es), "
        f"{stats.workers_excluded} exclusion(s), {stats.requeues} shard requeue(s)"
    )

    batch = ScanEngine(config).run()
    identical = [d.tx_hash for d in batch.detections] == [
        d.tx_hash for d in result.detections
    ]
    print(f"byte-identical to the in-process batch engine: {identical}")
    if not identical:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
