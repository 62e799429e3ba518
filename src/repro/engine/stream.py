"""Streaming detection through the sharded engine.

The batch :class:`~repro.engine.scan.ScanEngine` consumes a precomputed
schedule shard by shard. This module feeds the *same* schedule through
the same per-shard machinery as a live block stream, so detection keeps
up with blocks as they arrive instead of waiting for a batch boundary:

1. a **block source** yields :class:`StreamBlock`\\ s — groups of
   ``(position, task)`` pairs stamped with simulated mainnet heights
   (:func:`~repro.workload.timeline.study_block_height`);
2. a **feeder** routes each transaction to its owning shard's worker
   (:func:`~repro.engine.plan.shard_of` — the same round-robin partition
   the batch engine uses) through a bounded queue; a full queue blocks
   the feeder, which is the backpressure bound on in-flight memory;
3. **shard workers** (``jobs`` threads, each owning one or more shard
   contexts from :func:`~repro.engine.scan.build_shard_context`) execute
   and detect transactions exactly as :func:`~repro.engine.scan.run_shard`
   does;
4. a **watermark merger** buffers out-of-order completions and emits each
   block — its detections in schedule order plus latency counters — only
   once every transaction at or before it has been processed.

Because every shard executes its batch task sequence unchanged, the
merged :class:`~repro.workload.generator.WildScanResult` is byte-identical
to ``ScanEngine.run()`` for the same ``(seed, scale, shards)``; streaming
only changes *when* results become visible, never *what* they are.

Recorded history (the live-monitor deployment mode) replays through
:func:`screen_blocks` over :meth:`~repro.chain.explorer.ChainExplorer.blocks_between`,
one detector over the chain that recorded it.
"""

from __future__ import annotations

import math
import queue
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

from ..leishen.window import (
    DEFAULT_WINDOW_BLOCKS,
    TradeObservation,
    WindowedDetection,
    WindowedMatcher,
)
from ..workload.timeline import study_block_height
from .plan import Task, shard_of
from .scan import (
    ShardResult,
    build_shard_context,
    detect_task,
    execute_task,
    finalize_shard,
    finish_shards,
    open_shards,
)

__all__ = [
    "BlockStats",
    "StreamBlock",
    "StreamEngine",
    "StreamResult",
    "ScreenedTransaction",
    "schedule_block_stream",
    "screen_blocks",
    "DEFAULT_QUEUE_DEPTH",
    "DEFAULT_BLOCK_SIZE",
    "DEFAULT_WINDOW_BLOCKS",
]

#: per-worker bound on queued transactions; the backpressure knob.
DEFAULT_QUEUE_DEPTH = 64

#: transactions per simulated block in the generated stream.
DEFAULT_BLOCK_SIZE = 32

_SENTINEL = object()


@dataclass(frozen=True, slots=True)
class StreamBlock:
    """One block of the incoming stream: a simulated mainnet height and
    the schedule entries it carries as ``(position, task)`` pairs.
    Positions must be contiguous and globally increasing across blocks —
    the watermark merger's ordering invariant."""

    number: int
    entries: tuple[tuple[int, Task], ...]


@dataclass(slots=True)
class BlockStats:
    """Per-block streaming counters emitted by the merger."""

    number: int
    transactions: int
    detections: int
    #: wall-clock from the block entering the queue to its watermark pass.
    latency_ms: float
    #: summed execute+detect time of the block's transactions.
    detect_ms: float


@dataclass(slots=True)
class StreamResult:
    """A finished streaming run: the batch-identical scan result plus the
    stream's per-block latency/throughput counters."""

    result: object  # WildScanResult
    blocks: list[BlockStats]
    elapsed_s: float
    jobs: int
    shard_count: int
    queue_depth: int
    block_size: int
    max_queue_depth: int = 0
    #: merged per-stage profile payload when the run had
    #: ``config.profile`` (observability only, never part of ``result``).
    profile: dict | None = None
    #: cross-transaction windowed detections in block-emission order
    #: (``None`` unless the engine ran with ``windowed=True``). Strictly
    #: additive: ``result`` is byte-identical with or without them.
    windowed: list | None = None
    #: the sliding-window span (emitted blocks) of a windowed run.
    window_blocks: int = 0

    @property
    def total_transactions(self) -> int:
        return self.result.total_transactions

    @property
    def txs_per_s(self) -> float:
        return self.total_transactions / self.elapsed_s if self.elapsed_s else 0.0

    def latency_percentile(self, fraction: float) -> float:
        """Block-latency percentile in milliseconds (e.g. ``0.95``).

        Standard nearest-rank: the smallest latency at or below which at
        least ``fraction`` of the blocks fall — ``ceil(fraction * n) - 1``
        as a zero-based index, so ``1.0`` is the maximum (p100), not an
        overflow, and p95 of 20 blocks is the 19th value, not the 20th.
        """
        if not self.blocks:
            return 0.0
        ordered = sorted(stats.latency_ms for stats in self.blocks)
        index = min(len(ordered) - 1, max(0, math.ceil(fraction * len(ordered)) - 1))
        return ordered[index]


def schedule_block_stream(
    tasks: Sequence[Task], block_size: int = DEFAULT_BLOCK_SIZE
) -> Iterator[StreamBlock]:
    """The canonical schedule as a block stream.

    Groups consecutive schedule positions into blocks of ``block_size``
    and stamps each with a height from the paper's study window, giving a
    generator-driven timeline that stands in for a live node's feed.
    """
    total = len(tasks)
    for start in range(0, total, block_size):
        entries = tuple(
            (position, tasks[position])
            for position in range(start, min(start + block_size, total))
        )
        yield StreamBlock(number=study_block_height(start, total), entries=entries)


# ---------------------------------------------------------------------------
# merger bookkeeping
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class _OpenBlock:
    number: int
    first_position: int
    last_position: int
    remaining: int
    fed_at: float
    completions: list = field(default_factory=list)


class StreamEngine:
    """Runs the wild scan as a stream with bounded in-flight memory.

    ``config`` is a :class:`~repro.workload.generator.WildScanConfig`;
    its ``jobs`` becomes the worker-thread count and its ``shards`` pins
    the deterministic partition exactly as in the batch engine.
    """

    def __init__(
        self,
        config,
        *,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        block_size: int = DEFAULT_BLOCK_SIZE,
        ledger=None,
        windowed: bool = False,
        window_blocks: int = DEFAULT_WINDOW_BLOCKS,
    ) -> None:
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        if window_blocks < 1:
            raise ValueError(f"window_blocks must be >= 1, got {window_blocks}")
        self.config = config
        self.queue_depth = queue_depth
        self.block_size = block_size
        #: cross-transaction windowed matching on the merger thread
        #: (:mod:`repro.leishen.window`). Purely additive: the
        #: per-transaction result stays byte-identical either way.
        self.windowed = windowed
        self.window_blocks = window_blocks
        self._ledger_spec = ledger
        #: the resolved :class:`repro.runtime.RunLedger` after ``run()``
        #: (``None`` for unjournaled runs).
        self.ledger = None
        #: the live :class:`~repro.leishen.window.WindowedMatcher` of the
        #: current/most recent windowed run (bounded-state introspection
        #: for tests and monitoring); ``None`` otherwise.
        self.window_matcher = None

    # ------------------------------------------------------------------

    def run(
        self,
        source: Iterable[StreamBlock] | None = None,
        on_block: Callable[[BlockStats, list], None] | None = None,
    ) -> StreamResult:
        """Consume the block stream; return the merged result and counters.

        ``on_block`` (called on the merger thread) observes each block the
        moment its watermark passes: ``on_block(stats, detections)`` with
        the block's detections in schedule order — the live alerting hook.

        ``source`` defaults to the canonical schedule as a block stream
        (:func:`schedule_block_stream`); a custom source carries entries
        of that same schedule, paced or regrouped by the caller.

        With a ``ledger`` (constructor argument), shards already
        journaled by a previous run are skipped entirely — their
        transactions never enter the queues — and every freshly
        finalized shard is journaled at end of stream; the merged result
        is decoded from the ledger, so a resumed run is byte-identical
        to an uninterrupted one. Shard results only exist at end of
        stream (a shard accumulates state across all its blocks), so a
        killed stream run journals nothing — resume granularity is the
        shard, recorded at stream end.

        With ``windowed=True`` (constructor argument) the merger also
        feeds each emitted block's flash-loan observations to a
        :class:`~repro.leishen.window.WindowedMatcher`; cross-transaction
        matches land in ``StreamResult.windowed`` in block-emission order.
        Windowed matching never changes the per-transaction result — the
        bytes of ``StreamResult.result`` are identical with windowing on
        or off. A ledger-resumed windowed run only observes the shards it
        actually re-executes: windowed detections are derived, not
        journaled.
        """
        cfg = self.config
        if self._ledger_spec is not None and source is not None:
            raise ValueError(
                "ledger journaling requires the canonical schedule stream; "
                "custom source runs cannot be journaled"
            )
        tasks, shard_count, ledger, done_shards = open_shards(cfg, self._ledger_spec)
        self.ledger = ledger
        if source is None:
            source = schedule_block_stream(tasks, self.block_size)
        workers = min(cfg.jobs, shard_count)

        in_queues: list[queue.Queue] = [
            queue.Queue(maxsize=self.queue_depth) for _ in range(workers)
        ]
        out_queue: queue.Queue = queue.Queue(maxsize=self.queue_depth * workers)
        shard_results: dict[int, ShardResult] = {}
        errors: list[BaseException] = []
        stats_out: list[BlockStats] = []
        max_depth = 0
        windowed = self.windowed
        matcher = None
        windowed_out: list[WindowedDetection] = []
        if windowed:
            matcher = WindowedMatcher(self.window_blocks, cfg.pattern_config)
        self.window_matcher = matcher

        def worker(worker_index: int) -> None:
            contexts: dict[int, object] = {}
            inbox = in_queues[worker_index]
            failed = False
            while True:
                item = inbox.get()
                if item is _SENTINEL:
                    break
                if failed:
                    continue  # drain so the feeder never blocks on us
                position, task = item
                shard = shard_of(position, shard_count)
                try:
                    ctx = contexts.get(shard)
                    if ctx is None:
                        ctx = build_shard_context(cfg, shard, shard_count)
                        contexts[shard] = ctx
                    started = time.perf_counter()
                    before = len(ctx.result.detections)
                    labeled = execute_task(ctx, task)
                    report = None
                    if labeled is not None:
                        report = detect_task(ctx, labeled)
                    elapsed = time.perf_counter() - started
                    fresh = tuple(ctx.result.detections[before:])
                    observation = None
                    if windowed and report is not None:
                        # every identified flash-loan transaction feeds
                        # the window — including clean ones, which is
                        # where cross-transaction sequences hide.
                        observation = TradeObservation(
                            tx_hash=labeled.trace.tx_hash,
                            position=position,
                            borrower_tags=tuple(report.borrower_tags),
                            trades=tuple(report.trades),
                            matched_patterns=frozenset(report.patterns),
                            split_group=labeled.truth.split_group,
                        )
                except BaseException as exc:  # propagate via the merger
                    failed = True
                    out_queue.put(("error", exc))
                    continue
                out_queue.put(("done", position, fresh, elapsed, observation))
            for shard, ctx in contexts.items():
                shard_results[shard] = finalize_shard(ctx)

        def emit(block: _OpenBlock) -> None:
            observations = self._emit(block, stats_out, on_block)
            if matcher is None:
                return
            # windowed matching rides the watermark pass: observations
            # arrive in block order with in-block schedule order, so the
            # windowed emission is as deterministic as the merge itself.
            windowed_out.extend(matcher.observe_block(block.number, observations))

        def merger() -> None:
            open_blocks: deque[_OpenBlock] = deque()
            while True:
                event = out_queue.get()
                kind = event[0]
                if kind == "eof":
                    break
                if kind == "error":
                    errors.append(event[1])
                    continue
                if kind == "fed":
                    _, number, first, last, count, fed_at = event
                    open_blocks.append(
                        _OpenBlock(number, first, last, count, fed_at)
                    )
                    continue
                _, position, fresh, elapsed, observation = event
                for block in open_blocks:
                    if block.first_position <= position <= block.last_position:
                        block.remaining -= 1
                        block.completions.append(
                            (position, fresh, elapsed, observation)
                        )
                        break
                while open_blocks and open_blocks[0].remaining == 0:
                    emit(open_blocks.popleft())
            # a worker failure can leave blocks permanently open; emit only
            # the complete prefix so stats stay truthful.
            while open_blocks and open_blocks[0].remaining == 0:
                emit(open_blocks.popleft())

        worker_threads = [
            threading.Thread(target=worker, args=(i,), name=f"stream-shard-{i}")
            for i in range(workers)
        ]
        merger_thread = threading.Thread(target=merger, name="stream-merger")
        started = time.perf_counter()
        for thread in (*worker_threads, merger_thread):
            thread.start()
        try:
            for block in source:
                entries = block.entries
                if done_shards:
                    # resumed shards are already journaled: their
                    # transactions never enter the pipeline.
                    entries = tuple(
                        entry
                        for entry in entries
                        if shard_of(entry[0], shard_count) not in done_shards
                    )
                if not entries:
                    continue
                first = entries[0][0]
                last = entries[-1][0]
                out_queue.put(
                    ("fed", block.number, first, last, len(entries), time.perf_counter())
                )
                for position, task in entries:
                    inbox = in_queues[shard_of(position, shard_count) % workers]
                    inbox.put((position, task))  # blocks when full: backpressure
                    depth = inbox.qsize()
                    if depth > max_depth:
                        max_depth = depth
        finally:
            for inbox in in_queues:
                inbox.put(_SENTINEL)
            for thread in worker_threads:
                thread.join()
            out_queue.put(("eof",))
            merger_thread.join()
        elapsed = time.perf_counter() - started
        if errors:
            raise errors[0]

        ordered = [shard_results[index] for index in sorted(shard_results)]
        profile = None
        if getattr(cfg, "profile", False):
            from ..runtime.profile import merge_profiles

            profile = merge_profiles([outcome.profile for outcome in ordered])
        if ledger is not None:
            for outcome in ordered:
                ledger.record(outcome)
        result = finish_shards(cfg, ledger, ordered)
        return StreamResult(
            result=result,
            blocks=stats_out,
            elapsed_s=elapsed,
            jobs=workers,
            shard_count=shard_count,
            queue_depth=self.queue_depth,
            block_size=self.block_size,
            max_queue_depth=max_depth,
            profile=profile,
            windowed=windowed_out if windowed else None,
            window_blocks=self.window_blocks if windowed else 0,
        )

    @staticmethod
    def _emit(
        block: _OpenBlock,
        stats_out: list[BlockStats],
        on_block: Callable[[BlockStats, list], None] | None,
    ) -> list:
        """Emit one watermark-complete block; returns its windowed
        observations in schedule order."""
        block.completions.sort(key=lambda completion: completion[0])
        detections = [
            detection
            for _, fresh, _, _ in block.completions
            for detection in fresh
        ]
        stats = BlockStats(
            number=block.number,
            transactions=len(block.completions),
            detections=len(detections),
            latency_ms=(time.perf_counter() - block.fed_at) * 1e3,
            detect_ms=sum(
                elapsed for _, _, elapsed, _ in block.completions
            ) * 1e3,
        )
        stats_out.append(stats)
        if on_block is not None:
            on_block(stats, detections)
        return [
            observation
            for _, _, _, observation in block.completions
            if observation is not None
        ]


# ---------------------------------------------------------------------------
# replay streaming: recorded chain history through one detector
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ScreenedTransaction:
    """One screened flash-loan transaction from a replayed block stream."""

    block_number: int
    report: object  # AttackReport
    latency_ms: float

    @property
    def is_attack(self) -> bool:
        return self.report.is_attack


def screen_blocks(
    detector, blocks: Iterable[tuple[int, Sequence]]
) -> Iterator[ScreenedTransaction]:
    """Screen recorded blocks — ``(number, traces)`` pairs, e.g. from
    :meth:`~repro.chain.explorer.ChainExplorer.blocks_between` — through a
    detector, yielding every flash-loan transaction in block order with
    its per-transaction detection latency. Non-flash-loan transactions
    are skipped, as in the paper's deployment mode."""
    for number, traces in blocks:
        for trace in traces:
            started = time.perf_counter()
            report = detector.analyze(trace)
            latency_ms = (time.perf_counter() - started) * 1e3
            if report is not None:
                yield ScreenedTransaction(number, report, latency_ms)
