"""Batch wild scan — the Sec. VI-C evaluation as a standalone experiment.

Not a paper table: ``experiments scan`` runs the sharded batch engine
directly and reports totals, wall-clock and — when journaling to a run
ledger (``--ledger``/``--resume``) — how many shards were loaded from
the journal versus freshly executed. It is the smallest surface for the
durable-run workflow::

    experiments scan --scale 0.1 --ledger run.ledger   # journal as you go
    # ... SIGKILL mid-run ...
    experiments scan --scale 0.1 --resume run.ledger   # finish the rest

:func:`run_report` is the tail every scan front end (``scan``,
``stream``, ``cluster``) prints its run through.
"""

from __future__ import annotations

import time

__all__ = ["render", "run_report"]


def run_report(result, details=(), *, ledger=None, profile=None, profile_path=None) -> list[str]:
    """A run's report lines: the detections line, the front end's own
    ``details``, the ledger line of a journaled run (``ledger`` is the
    open :class:`repro.runtime.RunLedger`) and the stage table of a
    profiled one, which is also written to ``profile_path`` when given."""
    lines = [
        f"detections: {result.detected_count} ({result.true_positives} true, "
        f"precision {result.precision:.1%})",
        *details,
    ]
    if ledger is not None:
        lines.append(
            f"ledger: {ledger.path} — "
            f"{ledger.resumed_count} shard(s) resumed from the journal, "
            f"{ledger.recorded_count} freshly executed and recorded"
        )
    if profile is not None:
        from ..runtime.profile import render_profile, write_profile

        lines.append(render_profile(profile))
        if profile_path is not None:
            lines.append(f"profile written to {write_profile(profile, profile_path)}")
    return lines


def render(config, *, ledger=None, profile_path=None) -> str:
    """Run the batch scan of ``config`` and report it.

    ``ledger`` is a path (or an open :class:`repro.runtime.RunLedger`):
    completed shards are journaled as they finish and already-journaled
    shards are skipped, so a killed run resumes where it left off.
    """
    from ..engine import ScanEngine

    engine = ScanEngine(config, ledger=ledger)
    start = time.perf_counter()
    result = engine.run()
    elapsed = time.perf_counter() - start
    txs_per_s = result.total_transactions / elapsed if elapsed else 0.0
    return "\n".join([
        f"Wild scan at scale {config.scale} — {result.total_transactions} txs "
        f"in {elapsed:.2f}s ({txs_per_s:,.0f} txs/s, jobs={config.jobs})",
        *run_report(
            result, ledger=engine.ledger, profile=engine.profile,
            profile_path=profile_path,
        ),
    ])
