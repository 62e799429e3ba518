"""Batch wild scan — the Sec. VI-C evaluation as a standalone experiment.

Not a paper table: ``experiments scan`` runs the sharded batch engine
directly and reports totals, wall-clock and — when journaling to a run
ledger (``--ledger``/``--resume``) — how many shards were loaded from
the journal versus freshly executed. It is the smallest surface for the
durable-run workflow::

    experiments scan --scale 0.1 --ledger run.ledger   # journal as you go
    # ... SIGKILL mid-run ...
    experiments scan --scale 0.1 --resume run.ledger   # finish the rest
"""

from __future__ import annotations

import time

from ..workload.generator import WildScanConfig

__all__ = ["run", "render"]


def _maybe_compacting(ledger, config, compact_every: int | None):
    """Wrap a path-``ledger`` in a compacting :class:`RunLedger`."""
    if compact_every is None:
        return ledger
    from ..runtime import RunLedger

    if ledger is None:
        raise ValueError("--compact-every requires --ledger/--resume")
    if isinstance(ledger, RunLedger):
        return ledger
    return RunLedger.for_config(ledger, config, compact_every=compact_every)


def run(
    scale: float = 0.1,
    seed: int = 7,
    jobs: int = 1,
    shards: int | None = None,
    ledger=None,
    compact_every: int | None = None,
    profile: bool = False,
):
    """Run the batch scan; returns ``(result, engine, elapsed_s)``.

    ``ledger`` is a path (or an open :class:`repro.runtime.RunLedger`):
    completed shards are journaled as they finish and already-journaled
    shards are skipped, so a killed run resumes where it left off.
    ``compact_every`` folds the journal into a snapshot record every N
    appended shards (``--compact-every``), keeping replay cost flat.
    ``profile`` is an execution knob only — it never changes a result
    byte; a profiled run leaves the merged stage profile on
    ``engine.profile``.
    """
    from ..engine import ScanEngine

    config = WildScanConfig(
        scale=scale, seed=seed, jobs=jobs, shards=shards, profile=profile
    )
    ledger = _maybe_compacting(ledger, config, compact_every)
    engine = ScanEngine(config, ledger=ledger)
    start = time.perf_counter()
    result = engine.run()
    return result, engine, time.perf_counter() - start


def render(
    scale: float = 0.1,
    seed: int = 7,
    jobs: int = 1,
    shards: int | None = None,
    ledger=None,
    compact_every: int | None = None,
    profile: bool = False,
    profile_out=None,
) -> str:
    result, engine, elapsed = run(
        scale=scale, seed=seed, jobs=jobs, shards=shards, ledger=ledger,
        compact_every=compact_every, profile=profile,
    )
    txs_per_s = result.total_transactions / elapsed if elapsed else 0.0
    lines = [
        f"Wild scan at scale {scale} — {result.total_transactions} txs "
        f"in {elapsed:.2f}s ({txs_per_s:,.0f} txs/s, jobs={jobs})",
        f"detections: {result.detected_count} ({result.true_positives} true, "
        f"precision {result.precision:.1%})",
    ]
    if engine.ledger is not None:
        lines.append(
            f"ledger: {engine.ledger.path} — "
            f"{engine.ledger.resumed_count} shard(s) resumed from the journal, "
            f"{engine.ledger.recorded_count} freshly executed and recorded"
        )
    if engine.profile is not None:
        from ..runtime.profile import render_profile, write_profile

        lines.append(render_profile(engine.profile))
        if profile_out is not None:
            lines.append(f"profile written to {write_profile(engine.profile, profile_out)}")
    return "\n".join(lines)
