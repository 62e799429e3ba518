"""Distributed wild scan: two workers, one dies, the result is identical.

Run::

    python examples/cluster_scan.py [scale]

Starts a cluster coordinator on a loopback port and two workers. Worker
0 is rigged to die abruptly mid-shard — its socket drops with no
goodbye, exactly like a SIGKILL'd process. The coordinator notices the
loss, requeues the orphaned shard, and the surviving worker finishes
the scan. The merged result is then compared against a plain in-process
``ScanEngine`` run: byte-identical, because the shard partition and the
merge order are functions of ``(seed, scale, shards)`` only — never of
which worker executed what.
"""

from __future__ import annotations

import sys

from repro.cluster import ClusterWorker, WorkerKilled, run_cluster_scan
from repro.engine import ScanEngine
from repro.workload.generator import WildScanConfig


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.005
    config = WildScanConfig(scale=scale, seed=7, shards=4)

    victim_state = {"killed": False}

    def worker_factory(index: int, address: tuple[str, int]) -> ClusterWorker:
        def die_mid_shard(worker: ClusterWorker, shard: int, task: int) -> None:
            # one abrupt death, three tasks into worker 0's first shard
            if not victim_state["killed"] and task == 3:
                victim_state["killed"] = True
                print(f"  worker 0: killed mid-shard {shard} (task {task})")
                raise WorkerKilled()

        return ClusterWorker(
            address,
            name=f"demo-{index}",
            task_hook=die_mid_shard if index == 0 else None,
        )

    print(f"cluster scan at scale {scale}: 2 workers, one rigged to die...\n")
    result, stats = run_cluster_scan(
        config, workers=2, worker_factory=worker_factory, heartbeat_timeout=5.0
    )

    print(
        f"\nscan survived: {result.total_transactions} txs, "
        f"{result.detected_count} detections ({result.true_positives} true, "
        f"precision {result.precision:.1%})"
    )
    print(
        f"faults handled: {stats.worker_losses} worker loss(es), "
        f"{stats.requeues} shard requeue(s), "
        f"{stats.duplicates_suppressed} duplicate(s) suppressed"
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
