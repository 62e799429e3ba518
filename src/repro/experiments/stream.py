"""Streaming wild scan — the live-monitor deployment mode as an experiment.

Not a paper table: this surface demonstrates the Sec. VII deployment
claim (detection keeps up with the block stream) on the reproduction's
own workload, reporting per-block latency and end-to-end throughput for
the streaming pipeline of :mod:`repro.engine.stream`.
"""

from __future__ import annotations

from ..engine.stream import DEFAULT_WINDOW_BLOCKS, StreamEngine, StreamResult
from ..workload.generator import WildScanConfig

__all__ = ["DEFAULT_WINDOW_BLOCKS", "run_with_engine", "render"]


def run_with_engine(
    scale: float = 0.1,
    seed: int = 7,
    jobs: int = 1,
    shards: int | None = None,
    queue_depth: int | None = None,
    block_size: int | None = None,
    ledger=None,
    profile: bool = False,
    windowed: bool = False,
    window_blocks: int | None = None,
    split_attacks: int = 0,
) -> tuple[StreamResult, StreamEngine]:
    """Run the streaming scan; returns the result and the engine.

    ``ledger`` (path or open RunLedger) journals shard results at end
    of stream and skips already-journaled shards on resume; the
    engine's ``ledger`` carries the resume/record counters."""
    config = WildScanConfig(
        scale=scale, seed=seed, jobs=jobs, shards=shards,
        profile=profile, split_attacks=split_attacks,
    )
    kwargs = {}
    if queue_depth is not None:
        kwargs["queue_depth"] = queue_depth
    if block_size is not None:
        kwargs["block_size"] = block_size
    if window_blocks is not None:
        kwargs["window_blocks"] = window_blocks
    engine = StreamEngine(config, ledger=ledger, windowed=windowed, **kwargs)
    return engine.run(), engine


def render(
    scale: float = 0.1,
    jobs: int = 1,
    shards: int | None = None,
    queue_depth: int | None = None,
    block_size: int | None = None,
    ledger=None,
    profile: bool = False,
    profile_out=None,
    windowed: bool = False,
    window_blocks: int | None = None,
    split_attacks: int = 0,
) -> str:
    streamed, engine = run_with_engine(
        scale=scale, jobs=jobs, shards=shards,
        queue_depth=queue_depth, block_size=block_size, ledger=ledger,
        profile=profile,
        windowed=windowed, window_blocks=window_blocks,
        split_attacks=split_attacks,
    )
    result = streamed.result
    alert_blocks = [stats for stats in streamed.blocks if stats.detections]
    lines = [
        f"Streaming scan at scale {scale} — {streamed.total_transactions} txs in "
        f"{len(streamed.blocks)} blocks ({streamed.shard_count} shards, "
        f"{streamed.jobs} workers, queue depth {streamed.queue_depth}, "
        f"{streamed.block_size} txs/block)",
        f"throughput: {streamed.txs_per_s:,.0f} txs/s "
        f"({streamed.elapsed_s:.2f}s wall); "
        f"block latency p50 {streamed.latency_percentile(0.5):.1f} ms, "
        f"p95 {streamed.latency_percentile(0.95):.1f} ms; "
        f"queue high-watermark {streamed.max_queue_depth}",
        f"detections: {result.detected_count} "
        f"({result.true_positives} true, precision {result.precision:.1%}) "
        f"across {len(alert_blocks)} alerting blocks",
    ]
    for stats in alert_blocks[:10]:
        lines.append(
            f"  block {stats.number:>9}: {stats.detections} detection(s) "
            f"in {stats.transactions} txs ({stats.latency_ms:.1f} ms)"
        )
    if len(alert_blocks) > 10:
        lines.append(f"  ... {len(alert_blocks) - 10} more alerting blocks")
    if streamed.windowed is not None:
        from ..leishen.window import windowed_recall

        lines.append(
            f"windowed: {len(streamed.windowed)} cross-transaction "
            f"detection(s) over a {streamed.window_blocks}-block window"
        )
        for detection in streamed.windowed[:10]:
            lines.append(
                f"  {detection.pattern} across {len(detection.tx_hashes)} txs "
                f"(blocks {detection.first_block}..{detection.last_block}"
                + (
                    f", split group {detection.split_group})"
                    if detection.split_group is not None
                    else ")"
                )
            )
        if split_attacks:
            recall = windowed_recall(streamed.windowed, range(split_attacks))
            lines.append(
                f"windowed recall on {split_attacks} labelled split "
                f"attack(s): {recall:.0%}"
            )
    if engine.ledger is not None:
        lines.append(
            f"ledger: {engine.ledger.path} — "
            f"{engine.ledger.resumed_count} shard(s) resumed from the journal, "
            f"{engine.ledger.recorded_count} freshly executed and recorded"
        )
    if streamed.profile is not None:
        from ..runtime.profile import render_profile, write_profile

        lines.append(render_profile(streamed.profile))
        if profile_out is not None:
            lines.append(
                f"profile written to {write_profile(streamed.profile, profile_out)}"
            )
    return "\n".join(lines)
