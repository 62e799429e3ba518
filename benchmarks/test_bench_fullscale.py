"""Full-scale bench harness: identity always on, speedup under STRICT.

Exercises :func:`repro.engine.bench.run_fullscale_bench` at a small scale
so the identity contracts it enforces (byte-identical detections across
jobs counts and across a profiled rerun in the same process) run on
every ``make bench``. The artifact is written to a temp path — the canonical
``BENCH_fullscale.json`` at the repo root is the scale-1.0 run
regenerated by ``make fullscale-smoke``.

The speedup and latency budgets only arm with ``REPRO_BENCH_STRICT=1``
*and* more than one effective CPU: a single-core runner cannot make the
process pool beat the sequential scan, and asserting otherwise would
just test the scheduler.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.engine.bench import effective_cpu_count, run_fullscale_bench, write_artifact

STRICT = os.environ.get("REPRO_BENCH_STRICT") == "1"
MULTI_CORE = effective_cpu_count() > 1

#: strict-mode scale: large enough that per-shard work dominates the
#: pool's submission overhead, small enough to keep `make bench` sane.
STRICT_SCALE = 0.1
#: identity-mode scale: seconds, not minutes.
SMOKE_SCALE = 0.004


def test_fullscale_identity_and_schema(tmp_path):
    profile_path = tmp_path / "profile.json"
    report = run_fullscale_bench(
        scale=SMOKE_SCALE, seed=7, profile_path=profile_path
    )
    write_artifact(report, tmp_path / "bench.json")

    # run_fullscale_bench already raised on any divergence; the recorded
    # schema must still tell the same story.
    assert report["benchmark"] == "fullscale_wildscan"
    assert report["cpu_count"] >= 1
    assert report["total_transactions"] > 0
    assert report["runs"][0]["jobs"] == 1
    assert len(report["runs"]) >= 2
    detected = {run["detected"] for run in report["runs"]}
    assert len(detected) == 1, "jobs changed the detection count"

    assert report["profiled_run"]["identical"] is True

    assert report["profile_artifact"] == str(profile_path)
    profile = json.loads(profile_path.read_text())
    assert profile["artifact"] == "stage_profile"
    assert profile["counters"]["transactions"] == report["total_transactions"]
    assert "detect" in profile["timers_ns"]


@pytest.mark.skipif(
    not (STRICT and MULTI_CORE),
    reason="speedup budget needs REPRO_BENCH_STRICT=1 and >1 effective CPU",
)
def test_fullscale_parallel_beats_sequential(tmp_path):
    report = run_fullscale_bench(
        scale=STRICT_SCALE, seed=7, profile_path=tmp_path / "profile.json"
    )
    speedup = report["speedup_best_parallel_vs_sequential"]
    assert speedup is not None and speedup > 1.0, (
        f"best parallel run did not beat sequential (speedup {speedup})"
    )
