"""Resident scan-service benchmark: latency, identity, coalescing.

Runs the whole service stack — in-process server, clients over real TCP
sockets — and writes ``BENCH_service.json`` at the repo root. Identity
assertions are always on (``run_service_bench`` raises if the service's
paged-out detections diverge from a standalone engine run, or if a
paged fetch differs from the unpaged one); wall-clock is recorded only.
"""

from __future__ import annotations

from pathlib import Path

from repro.engine.bench import (
    DEFAULT_SERVICE_ARTIFACT,
    run_service_bench,
    write_artifact,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

SHARDS = 4
BURST = 4


def test_bench_service_latency_and_identity():
    report = run_service_bench(
        scale=0.02, seed=7, shards=SHARDS, executors=2, burst=BURST
    )
    write_artifact(report, REPO_ROOT / DEFAULT_SERVICE_ARTIFACT)

    # run_service_bench already raised on any service-vs-standalone
    # divergence; double-check the recorded counters tell the story.
    assert report["first_run"]["detected"] > 0
    assert report["second_run"]["detected"] > 0

    burst = report["burst"]
    assert burst["runs"] == BURST
    assert len(burst["queue_wait_s"]) == BURST
    assert burst["coalesced_duplicates"] >= 1
    assert all(wait >= 0 for wait in burst["queue_wait_s"])


def test_bench_service_second_submit(benchmark):
    """Wall-clock of one submit-to-result round trip after a first run in
    the same resident process (pytest-benchmark)."""
    import tempfile

    from repro.service import ScanService, ServiceClient, ServiceServer
    from repro.workload.generator import WildScanConfig

    with tempfile.TemporaryDirectory(prefix="repro-service-bench-") as tmp:
        with ScanService(tmp, executors=1) as service:
            with ServiceServer(service) as server:
                with ServiceClient(server.address) as client:
                    # one run first, then time a different seed.
                    first = client.submit(
                        WildScanConfig(scale=0.005, seed=7, shards=2)
                    )
                    client.wait(first["run_id"], timeout=300)

                    seeds = iter(range(100, 200))

                    def run():
                        cfg = WildScanConfig(
                            scale=0.005, seed=next(seeds), shards=2
                        )
                        view = client.submit(cfg)
                        done = client.wait(view["run_id"], timeout=300)
                        assert done["state"] == "completed"
                        return done

                    benchmark.pedantic(run, rounds=1, iterations=1)
