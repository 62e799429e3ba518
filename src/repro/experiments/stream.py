"""Streaming wild scan — the live-monitor deployment mode as an experiment.

Not a paper table: this surface demonstrates the Sec. VII deployment
claim (detection keeps up with the block stream) on the reproduction's
own workload, reporting per-block latency and end-to-end throughput for
the streaming pipeline of :mod:`repro.engine.stream`.
"""

from __future__ import annotations

from ..engine.stream import StreamEngine
from .scan import run_report

__all__ = ["render"]


def render(
    config,
    *,
    queue_depth: int,
    block_size: int,
    windowed: bool,
    window_blocks: int,
    ledger=None,
    profile_path=None,
) -> str:
    """Run the streaming scan of ``config`` and report it.

    ``ledger`` (path or open RunLedger) journals shard results at end
    of stream and skips already-journaled shards on resume."""
    engine = StreamEngine(
        config, queue_depth=queue_depth, block_size=block_size, ledger=ledger,
        windowed=windowed, window_blocks=window_blocks,
    )
    streamed = engine.run()
    alert_blocks = [stats for stats in streamed.blocks if stats.detections]
    details = [f"{len(alert_blocks)} alerting block(s)"]
    for stats in alert_blocks[:10]:
        details.append(
            f"  block {stats.number:>9}: {stats.detections} detection(s) "
            f"in {stats.transactions} txs ({stats.latency_ms:.1f} ms)"
        )
    if len(alert_blocks) > 10:
        details.append(f"  ... {len(alert_blocks) - 10} more alerting blocks")
    if streamed.windowed is not None:
        from ..leishen.window import windowed_recall

        details.append(
            f"windowed: {len(streamed.windowed)} cross-transaction "
            f"detection(s) over a {streamed.window_blocks}-block window"
        )
        for detection in streamed.windowed[:10]:
            details.append(
                f"  {detection.pattern} across {len(detection.tx_hashes)} txs "
                f"(blocks {detection.first_block}..{detection.last_block}"
                + (
                    f", split group {detection.split_group})"
                    if detection.split_group is not None
                    else ")"
                )
            )
        if config.split_attacks:
            recall = windowed_recall(streamed.windowed, range(config.split_attacks))
            details.append(
                f"windowed recall on {config.split_attacks} labelled split "
                f"attack(s): {recall:.0%}"
            )
    return "\n".join([
        f"Streaming scan at scale {config.scale} — {streamed.total_transactions} "
        f"txs in {len(streamed.blocks)} blocks ({streamed.shard_count} shards, "
        f"{streamed.jobs} workers, queue depth {streamed.queue_depth}, "
        f"{streamed.block_size} txs/block)",
        f"throughput: {streamed.txs_per_s:,.0f} txs/s "
        f"({streamed.elapsed_s:.2f}s wall); "
        f"block latency p50 {streamed.latency_percentile(0.5):.1f} ms, "
        f"p95 {streamed.latency_percentile(0.95):.1f} ms; "
        f"queue high-watermark {streamed.max_queue_depth}",
        *run_report(
            streamed.result, details, ledger=engine.ledger,
            profile=streamed.profile, profile_path=profile_path,
        ),
    ])
