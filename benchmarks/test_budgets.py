"""Wall-clock budgets of the scan backends.

Opt-in: ``benchmarks/`` is outside pytest's ``testpaths``, so nothing
here runs with tier-1. Run it from the repo root with::

    REPRO_BENCH_STRICT=1 PYTHONPATH=src python -m pytest benchmarks -q

Each test times one scenario through the public API and asserts one
bound. Results (identity, recall, counters) are pinned by tier-1 at
smaller scales; this file keeps only the timings. Most bounds arm with
``REPRO_BENCH_STRICT=1`` because a shared runner's clock is too noisy to
gate on; every skip says which condition it is waiting for.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import signal
import time
from pathlib import Path

import pytest

from repro.cluster import Coordinator, StandbyCoordinator, run_cluster_scan
from repro.engine.plan import build_schedule, resolve_shard_count, shard_schedule
from repro.engine.scan import ScanEngine, run_shard
from repro.engine.stream import StreamEngine
from repro.experiments import robustness
from repro.leishen.detector import LeiShen, LeiShenConfig
from repro.leishen.registry import ALL_PATTERN_KEYS, PatternSettings
from repro.runtime import RunLedger
from repro.workload.attacks import WildAttackInjector
from repro.workload.generator import WildScanConfig
from repro.workload.mutate import Mutation
from repro.workload.profiles import WildMarket
from repro.world import DeFiWorld
from tests.cluster.test_failover import (
    _dead_address,
    _journaled_shards,
    _spawn_worker,
)

STRICT = os.environ.get("REPRO_BENCH_STRICT") == "1"
strict = pytest.mark.skipif(
    not STRICT, reason="timing budget: arms with REPRO_BENCH_STRICT=1"
)

SEED = 7

#: the cluster adds worker spawn and wire overhead on top of the scan;
#: each coordinated run must still land inside this multiple of the
#: single-process batch wall time.
CLUSTER_MAX_OVERHEAD = 5.0
#: kill-to-finish budget of a failed-over scan at scale 0.01.
FAILOVER_MAX_RECOVERY_S = 60.0
#: a resume after half the shards, and a no-op resume, must each take
#: less than this fraction of the cold journaled run.
RESUME_MAX_FRACTION = 0.9
#: two full robustness sweeps; one takes well under a second, so this
#: is the flake ceiling, not a throughput claim.
ROBUSTNESS_MAX_S = 30.0
#: a 16-tx block must clear the pipeline well inside one 13 s block
#: time; block latency includes workload generation, not just detection.
BLOCK_P95_MAX_MS = 2_000.0
#: jobs=4 over jobs=1 on a machine with at least four cores.
MIN_SPEEDUP_AT_4 = 2.0
#: one LeiShen.analyze call on the MBS attack padded with 100 extra
#: rounds (412 trades); the paper's per-transaction mean is 10 ms.
PADDED_ANALYZE_MAX_MS = 100.0
#: padding 200 rounds instead of 100 may cost at most this factor: the
#: pattern searches are quadratic in the trade count, not cubic.
PADDED_DOUBLING_MAX = 4.5


def effective_cpus() -> int:
    """CPUs this process may use (affinity mask, where there is one)."""
    try:
        return len(os.sched_getaffinity(0)) or (os.cpu_count() or 1)
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - start


@strict
def test_cluster_runs_within_5x_batch():
    config = WildScanConfig(scale=0.01, seed=SEED)
    _, batch_s = timed(ScanEngine(config).run)
    for workers in (1, 2):
        _, elapsed = timed(run_cluster_scan, config, workers=workers)
        assert elapsed < CLUSTER_MAX_OVERHEAD * batch_s, (
            f"workers={workers}: {elapsed:.2f}s, over "
            f"{CLUSTER_MAX_OVERHEAD}x the {batch_s:.2f}s batch run"
        )


FAILOVER_CONFIG = WildScanConfig(scale=0.01, seed=SEED, shards=8)


def _failover_primary_main(path: str, port: int) -> None:
    """Forked child: the primary coordinator that gets SIGKILLed."""
    coordinator = Coordinator(
        FAILOVER_CONFIG, host="127.0.0.1", port=port, ledger=path,
        local_fallback=False,
    )
    coordinator.start()
    coordinator.run()


def _start_primary(path: Path, port: int):
    """A forked primary, or ``None`` where fork is unavailable."""
    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    child = multiprocessing.get_context("fork").Process(
        target=_failover_primary_main, args=(str(path), port), daemon=True
    )
    try:
        child.start()
    except OSError:  # process spawning denied
        return None
    return child


def _seed_half_journal(path: Path) -> None:
    """What a primary that died halfway leaves behind."""
    tasks = build_schedule(FAILOVER_CONFIG.scale, FAILOVER_CONFIG.seed)
    count = resolve_shard_count(FAILOVER_CONFIG.shards, len(tasks))
    parts = shard_schedule(tasks, count)
    ledger = RunLedger.create(path, FAILOVER_CONFIG, count)
    for index in range(count // 2):
        ledger.record(run_shard((FAILOVER_CONFIG, index, count, parts[index])))
    ledger.close()


@strict
def test_failover_recovers_within_60s(tmp_path):
    """SIGKILL the primary once it has journaled a shard; time from the
    kill until the standby's adopted run finishes. Without fork the
    primary never lived and left half a journal."""
    path = tmp_path / "run.ledger"
    primary = _dead_address()
    child = _start_primary(path, primary[1])
    if child is None:
        _seed_half_journal(path)
    standby = StandbyCoordinator(
        FAILOVER_CONFIG, primary=primary, ledger=path,
        probe_interval=0.05, probe_failures=3,
        coordinator_options={"local_fallback": True},
    )
    standby.start()
    fleet = [
        _spawn_worker([primary, standby.address], f"budget-{i}",
                      delay=0.005, tries=400)
        for i in range(2)
    ]
    try:
        if child is not None:
            deadline = time.monotonic() + 300.0
            while time.monotonic() < deadline and child.is_alive():
                if _journaled_shards(path) >= 1:
                    break
                time.sleep(0.01)
        killed_at = time.perf_counter()
        if child is not None:
            if child.is_alive():
                os.kill(child.pid, signal.SIGKILL)
            child.join(timeout=10.0)
        assert standby.wait_for_primary_death(timeout=120.0)
        standby.adopt_and_run(timeout=600.0)
        recovery_s = time.perf_counter() - killed_at
    finally:
        for worker, _, _ in fleet:
            worker.stop()
        for _, thread, _ in fleet:
            thread.join(timeout=10.0)
        standby.shutdown()
        if child is not None and child.is_alive():
            child.terminate()
            child.join(timeout=5.0)
    assert recovery_s < FAILOVER_MAX_RECOVERY_S, (
        f"recovery took {recovery_s:.2f}s (real kill: {child is not None})"
    )


@strict
@pytest.mark.skipif(
    effective_cpus() < 2, reason="parallel budget needs more than 1 effective CPU"
)
def test_parallel_scan_beats_sequential():
    _, sequential_s = timed(ScanEngine(WildScanConfig(scale=0.1, seed=SEED)).run)
    jobs = effective_cpus()
    _, parallel_s = timed(
        ScanEngine(WildScanConfig(scale=0.1, seed=SEED, jobs=jobs)).run
    )
    assert parallel_s < sequential_s, (
        f"jobs={jobs} took {parallel_s:.2f}s, jobs=1 {sequential_s:.2f}s"
    )


@strict
def test_resume_faster_than_cold(tmp_path):
    """Cut after 4 of 8 shards: the resumed run and a no-op resume of the
    complete journal each beat 0.9x the cold journaled run."""
    config = WildScanConfig(scale=0.01, seed=SEED, shards=8)
    cold_path = tmp_path / "cold.ledger"
    _, cold_s = timed(ScanEngine(config, ledger=cold_path).run)

    parts = shard_schedule(build_schedule(config.scale, config.seed), 8)
    cut_path = tmp_path / "cut.ledger"
    cut = RunLedger.create(cut_path, config, 8)
    for index in range(4):
        cut.record(run_shard((config, index, 8, parts[index])))
    cut.close()
    _, resumed_s = timed(ScanEngine(config, ledger=cut_path).run)
    _, noop_s = timed(ScanEngine(config, ledger=cold_path).run)

    budget = RESUME_MAX_FRACTION * cold_s
    assert resumed_s < budget, f"resumed {resumed_s:.2f}s, cold {cold_s:.2f}s"
    assert noop_s < budget, f"no-op resume {noop_s:.2f}s, cold {cold_s:.2f}s"


@strict
def test_two_robustness_sweeps_within_30s():
    _, first_s = timed(robustness.run, seed=SEED, instances=2, benign=24)
    _, second_s = timed(robustness.run, seed=SEED, instances=2, benign=24)
    assert first_s + second_s < ROBUSTNESS_MAX_S


@strict
@pytest.mark.parametrize("windowed", [False, True], ids=["stream", "windowed"])
@pytest.mark.parametrize("jobs", [1, 4])
def test_block_latency_p95(jobs, windowed):
    config = WildScanConfig(
        scale=0.01, seed=SEED, jobs=jobs, split_attacks=2 if windowed else 0
    )
    streamed = StreamEngine(config, block_size=16, windowed=windowed).run()
    p95 = streamed.latency_percentile(0.95)
    assert p95 < BLOCK_P95_MAX_MS, f"p95 block latency {p95:.1f}ms"


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4, reason="speedup budget needs os.cpu_count() >= 4"
)
def test_four_jobs_at_least_twice_as_fast():
    _, sequential_s = timed(ScanEngine(WildScanConfig(scale=0.01, seed=SEED)).run)
    _, parallel_s = timed(
        ScanEngine(WildScanConfig(scale=0.01, seed=SEED, jobs=4)).run
    )
    speedup = sequential_s / parallel_s
    assert speedup >= MIN_SPEEDUP_AT_4, f"jobs=4 speedup {speedup:.2f}x"


def padded_mbs_trace(rounds: int):
    """The robustness harness's MBS attack with ``rounds`` extra vault
    rounds, executed in a fresh world: ``(world, trace)``."""
    rng = random.Random(f"padded-mbs:{SEED}")
    world = DeFiWorld()
    injector = WildAttackInjector(WildMarket(world, rng), rng, scale=1.0)
    labeled = injector.execute(
        robustness.family_clusters()["MBS"], 0, 0, 0, None,
        mutation=Mutation("pad_rounds", f"{rounds} extra rounds", round_delta=rounds),
        subsidize=True,
    )
    return world, labeled.trace


@strict
@pytest.mark.parametrize("enabled", [None, ALL_PATTERN_KEYS], ids=["paper", "all-six"])
def test_padded_mbs_analyze_is_bounded(enabled):
    """A flash-loan transaction padded with round trips holds a detector
    for tens of milliseconds, not seconds. Best of five calls each, the
    two sizes taken in turn so that a slow spell of the host slows both."""
    settings = PatternSettings() if enabled is None else PatternSettings(enabled=enabled)
    runs = {}
    for rounds in (100, 200):
        world, trace = padded_mbs_trace(rounds)
        detector = LeiShen(world.chain, LeiShenConfig(patterns=settings))
        report = detector.analyze(trace)
        assert "MBS" in report.patterns
        if rounds == 100:
            assert len(report.trades) == 412
        runs[rounds] = (detector, trace)
    best_ms = dict.fromkeys(runs, float("inf"))
    for _ in range(5):
        for rounds, (detector, trace) in runs.items():
            _, elapsed = timed(detector.analyze, trace)
            best_ms[rounds] = min(best_ms[rounds], elapsed * 1e3)
    assert best_ms[100] < PADDED_ANALYZE_MAX_MS, f"k=100: {best_ms[100]:.1f}ms"
    growth = best_ms[200] / best_ms[100]
    assert growth <= PADDED_DOUBLING_MAX, (
        f"k=100 -> 200 cost {growth:.2f}x ({best_ms[100]:.1f} -> {best_ms[200]:.1f}ms)"
    )
