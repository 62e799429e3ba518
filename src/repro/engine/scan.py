"""Sharded parallel execution of the wild scan.

``ScanEngine`` turns one :class:`~repro.workload.generator.WildScanConfig`
into a merged :class:`~repro.workload.generator.WildScanResult`:

1. build the canonical seeded schedule (:mod:`repro.engine.plan`);
2. partition it round-robin into ``shards`` shards — a function of
   ``(seed, scale, shards)`` only, never of ``jobs``;
3. execute each shard in its own freshly built ``DeFiWorld`` (its chain
   is namespaced by shard index so addresses and tx hashes cannot
   collide across shards), sequentially in-process at ``jobs=1`` or on a
   process pool at ``jobs>1``;
4. merge the shard results in shard-index order.

Every backend opens a run with :func:`open_shards` (schedule, shard
count, ledger, already-journaled shards) and closes it with
:func:`finish_shards` (merge from the journal when there is one), and
runs a shard's tasks through :func:`run_shard` or, in the streaming
engine, through the same per-task seam (:func:`execute_task` /
:func:`detect_task`).

Because each shard's world, RNG stream and task list are derived purely
from ``(seed, shard_index)``, the merged result is byte-identical for
any ``jobs`` value — parallelism is an execution detail, not part of the
result's identity. When process pools are unavailable (sandboxed
environments), the engine silently degrades to in-process execution with
identical output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from time import perf_counter_ns

from ..chain.errors import ChainError
from ..world import DeFiWorld, ETHEREUM_PROFILE
from ..workload.attacks import ADVERSARIAL_CLUSTERS, ATTACK_CLUSTERS
from ..workload.generator import Detection, PatternRow, WildScanResult
from ..workload.profiles import (
    BENIGN_PROFILES,
    profile_migration,
    profile_yield_strategy,
)
from .plan import (
    Task,
    build_full_schedule,
    shard_schedule,
    shard_seed,
)

__all__ = [
    "ScanEngine",
    "ShardContext",
    "ShardResult",
    "build_shard_context",
    "detect_task",
    "execute_task",
    "finalize_shard",
    "finish_shards",
    "merge_shard_results",
    "open_shards",
    "run_shard",
    "run_shard_batch",
]


@dataclass(slots=True)
class ShardResult:
    """One shard's share of the scan, ready to merge (picklable)."""

    shard_index: int
    total_transactions: int = 0
    detections: list = field(default_factory=list)
    #: pattern name -> (n, tp, fp)
    row_counts: dict = field(default_factory=dict)
    #: per-stage profile payload (:mod:`repro.runtime.profile`) when the
    #: shard ran with ``config.profile`` — observability only, so it is
    #: deliberately excluded from the wire schema and the run ledger and
    #: can never perturb a merged result or a resumable journal.
    profile: dict | None = None


def _shard_profile(shard_index: int, shard_count: int):
    """The chain profile for one shard's world.

    Multi-shard runs namespace the chain (and therefore every generated
    address and tx hash) by shard index; a single-shard run keeps the
    plain profile so it is indistinguishable from a classic sequential
    scan.
    """
    if shard_count == 1:
        return ETHEREUM_PROFILE
    return replace(
        ETHEREUM_PROFILE, chain_name=f"{ETHEREUM_PROFILE.chain_name}-s{shard_index}"
    )


@dataclass(slots=True)
class ShardContext:
    """One shard's live execution state: its world, detector stack and
    accumulating result. Shared by the batch path (:func:`run_shard`) and
    the streaming path (:mod:`repro.engine.stream`), so both execute a
    shard's tasks byte-identically."""

    cfg: object
    shard_index: int
    market: object
    injector: object
    detector: object
    heuristic: object
    analyzer: object
    result: ShardResult
    rows: dict
    #: optional :class:`~repro.runtime.profile.StageProfiler`; ``None``
    #: keeps the scan loop free of timing overhead.
    profiler: object = None


def build_shard_context(cfg, shard_index: int, shard_count: int) -> ShardContext:
    """Build one shard's world and detector stack from ``(cfg, shard)``.

    Everything downstream is a pure function of these inputs, which is
    what makes batch and streaming execution interchangeable.
    """
    # local imports keep worker startup lean under the spawn start method
    from ..leishen.heuristics import YieldAggregatorHeuristic
    from ..leishen.profit import ProfitAnalyzer
    from ..workload.attacks import WildAttackInjector
    from ..workload.profiles import WildMarket

    profiling = bool(getattr(cfg, "profile", False))
    started = perf_counter_ns() if profiling else 0
    rng = random.Random(shard_seed(cfg.seed, shard_index))
    world = DeFiWorld(profile=_shard_profile(shard_index, shard_count))
    world.chain.keep_history = cfg.keep_history
    market = WildMarket(world, rng)
    injector = WildAttackInjector(market, rng, cfg.scale)
    detector = world.detector(patterns=cfg.pattern_config)
    profiler = None
    if profiling:
        from ..runtime.profile import StageProfiler

        profiler = StageProfiler()
        profiler.add("build_context", perf_counter_ns() - started)
        detector.profiler = profiler
    return ShardContext(
        cfg=cfg,
        shard_index=shard_index,
        market=market,
        injector=injector,
        detector=detector,
        heuristic=YieldAggregatorHeuristic(detector.tagger),
        analyzer=ProfitAnalyzer(world.registry),
        result=ShardResult(shard_index=shard_index),
        rows={name: PatternRow(name) for name in cfg.pattern_config.enabled},
        profiler=profiler,
    )


def execute_task(ctx: ShardContext, task: Task):
    """Execute one schedule task against the shard's world.

    Returns the labeled transaction, or ``None`` when it reverted; either
    way the transaction counts toward the shard's population.
    """
    kind = task[0]
    try:
        if kind == "attack":
            _, cluster_index, attacker_id, contract_id, asset_id, month = task
            labeled = ctx.injector.execute(
                ATTACK_CLUSTERS[cluster_index], attacker_id, contract_id,
                asset_id, month,
            )
        elif kind == "adv":
            _, cluster_index, attacker_id, contract_id, asset_id, month = task
            labeled = ctx.injector.execute(
                ADVERSARIAL_CLUSTERS[cluster_index], attacker_id, contract_id,
                asset_id, month,
            )
        elif kind == "split":
            _, group, round_index, n_rounds = task
            labeled = ctx.injector.execute_split(group, round_index, n_rounds)
        elif kind == "migration":
            labeled = profile_migration(ctx.market)
        elif kind == "strategy":
            labeled = profile_yield_strategy(ctx.market, aggregator_initiated=True)
        else:  # benign
            labeled = BENIGN_PROFILES[task[1]][2](ctx.market)
    except ChainError:
        # a reverted transaction still counts toward the population;
        # LeiShen skips failed transactions, as on the real chain.
        ctx.result.total_transactions += 1
        return None
    ctx.result.total_transactions += 1
    return labeled


def detect_task(ctx: ShardContext, labeled):
    """Run detection on one executed transaction, into the shard result.

    Returns the detector's :class:`~repro.leishen.report.AttackReport`
    (``None`` when the transaction is not identified as a flash loan).
    The shard result only ever records attacks; the report return value
    is what lets the streaming engine's windowed mode observe the
    simplified trades of *every* flash-loan transaction without a second
    detector pass.
    """
    return detect_into(ctx.cfg, labeled, ctx.detector, ctx.heuristic,
                       ctx.analyzer, ctx.result.detections, ctx.rows)


def finalize_shard(ctx: ShardContext) -> ShardResult:
    """Freeze the shard's Table V counters and return its result."""
    ctx.result.row_counts = {
        name: [row.n, row.tp, row.fp] for name, row in ctx.rows.items()
    }
    prof = ctx.profiler
    if prof is not None:
        prof.count("transactions", ctx.result.total_transactions)
        prof.count("detections", len(ctx.result.detections))
        ctx.result.profile = prof.to_dict()
    return ctx.result


def run_shard(args: tuple) -> ShardResult:
    """Worker entry point: build one shard's world and scan its tasks.

    Module-level (not a method) so it pickles under every multiprocessing
    start method. The payload is ``(cfg, shard_index, shard_count,
    tasks)``. ``tasks`` may be any iterable: the cluster worker hands in
    a generator that runs its per-task hook before yielding each task.
    """
    cfg, shard_index, shard_count, tasks = args
    ctx = build_shard_context(cfg, shard_index, shard_count)
    prof = ctx.profiler
    if prof is None:
        for task in tasks:
            labeled = execute_task(ctx, task)
            if labeled is not None:
                detect_task(ctx, labeled)
    else:
        for task in tasks:
            started = perf_counter_ns()
            labeled = execute_task(ctx, task)
            prof.add("execute", perf_counter_ns() - started)
            if labeled is not None:
                started = perf_counter_ns()
                detect_task(ctx, labeled)
                prof.add("detect", perf_counter_ns() - started)
    return finalize_shard(ctx)


def run_shard_batch(payloads: list[tuple]) -> list[ShardResult]:
    """Worker entry point for chunked submission: run several shard
    payloads sequentially inside one worker process.

    Chunking amortizes per-task pool overhead (pickling, dispatch).
    Results come back in payload order; the caller owns merge ordering,
    so chunking never affects the merged result.
    """
    run = run_shard  # module-global lookup: tests may monkeypatch run_shard
    return [run(payload) for payload in payloads]


def merge_shard_results(config, outcomes: list[ShardResult]):
    """Merge shard results into one ``WildScanResult``, in shard-index order.

    The single merge implementation behind the batch engine, the streaming
    merger and the cluster coordinator: because it orders by
    ``shard_index`` before summing, the merged result is byte-identical no
    matter which process, host or completion order produced the shards.
    """
    result = WildScanResult(
        config=config,
        rows={name: PatternRow(name) for name in config.pattern_config.enabled},
    )
    for outcome in sorted(outcomes, key=lambda outcome: outcome.shard_index):
        result.total_transactions += outcome.total_transactions
        result.detections.extend(outcome.detections)
        for name, (n, tp, fp) in outcome.row_counts.items():
            row = result.rows[name]
            row.n += n
            row.tp += tp
            row.fp += fp
    return result


def detect_into(cfg, labeled, detector, heuristic, analyzer, detections, rows):
    """Run detection + paper-style manual verification on one transaction,
    appending to ``detections`` and updating the Table V ``rows``.

    Returns the analysis report (``None`` for non-flash-loan
    transactions) so callers can observe trades of identified-but-clean
    transactions — the windowed matcher's input."""
    report = detector.analyze(labeled.trace)
    if report is None:
        return None  # not identified as a flash loan transaction
    if cfg.with_heuristic:
        report = heuristic.apply(labeled.trace, report)
    if not report.is_attack:
        return report
    patterns = tuple(sorted(report.patterns))
    truth = labeled.truth
    profit_usd = borrowed_usd = 0.0
    if truth.is_attack:
        accounts = [a for a in (truth.attacker, truth.attack_contract) if a is not None]
        breakdown = analyzer.breakdown(labeled.trace, report.flash_loans, accounts)
        profit_usd, borrowed_usd = breakdown.profit_usd, breakdown.borrowed_usd
    detections.append(
        Detection(
            tx_hash=labeled.trace.tx_hash,
            patterns=patterns,
            truth=truth,
            profit_usd=profit_usd,
            borrowed_usd=borrowed_usd,
        )
    )
    for name in patterns:
        row = rows[name]
        row.n += 1
        if truth.is_attack and name in truth.patterns:
            row.tp += 1
        else:
            row.fp += 1
    return report


def open_shards(config, ledger):
    """Open one run: ``(tasks, shard_count, ledger, done)``.

    ``tasks`` is the full canonical schedule and ``shard_count`` its
    resolved partition (:func:`~repro.engine.plan.build_full_schedule`).
    ``ledger`` (``None``, a path, or an open
    :class:`repro.runtime.RunLedger`) comes back as an open ledger
    verified against this config, or ``None``; ``done`` holds the shard
    indices it has already journaled, which the caller must not run
    again.
    """
    tasks, shard_count = build_full_schedule(config)
    if ledger is None:
        return tasks, shard_count, None, frozenset()
    # lazy import: repro.runtime imports this module at load time, so the
    # import-time dependency must stay one-directional.
    from ..runtime.ledger import ensure_ledger

    ledger = ensure_ledger(ledger, config, shard_count)
    return tasks, shard_count, ledger, ledger.completed_shards()


def finish_shards(config, ledger, outcomes: list[ShardResult]):
    """The merged ``WildScanResult`` of a run opened by :func:`open_shards`.

    A journaled run merges from its journal, never from ``outcomes``: the
    journal holds every shard — resumed ones included — so a resumed run
    and an uninterrupted one decode the identical bytes. An unjournaled
    run merges ``outcomes``.
    """
    if ledger is not None:
        return ledger.merge()
    return merge_shard_results(config, outcomes)


class ScanEngine:
    """Shards the wild scan across worker processes and merges the results.

    ``ledger`` (a path or an open :class:`repro.runtime.RunLedger`)
    journals every completed shard durably: a killed run resumes by
    loading the journal and scheduling only the remaining shards, and
    the final merge is decoded *from the ledger*, so a resumed result is
    byte-identical to an uninterrupted one.
    """

    def __init__(self, config, *, ledger=None) -> None:
        self.config = config
        self._ledger_spec = ledger
        #: the resolved :class:`repro.runtime.RunLedger` after ``run()``
        #: (``None`` for unjournaled runs); exposes ``resumed_count`` /
        #: ``recorded_count`` for reporting.
        self.ledger = None
        #: merged per-stage profile payload after a ``config.profile``
        #: run (``None`` otherwise). Observability only — never part of
        #: the returned result or the ledger journal.
        self.profile = None

    # ------------------------------------------------------------------

    def run(self):
        cfg = self.config
        tasks, shard_count, ledger, done = open_shards(cfg, self._ledger_spec)
        self.ledger = ledger
        payloads = [
            (cfg, index, shard_count, part)
            for index, part in enumerate(shard_schedule(tasks, shard_count))
            if index not in done
        ]
        record = ledger.record if ledger is not None else None
        jobs = cfg.jobs  # validated >= 1 by WildScanConfig
        if jobs == 1 or len(payloads) <= 1:
            outcomes: list[ShardResult] = []
            for payload in payloads:
                outcome = run_shard(payload)
                if record is not None:
                    record(outcome)
                outcomes.append(outcome)
        else:
            outcomes = self._run_parallel(
                payloads, min(jobs, len(payloads)), on_shard=record
            )
        if getattr(cfg, "profile", False):
            from ..runtime.profile import merge_profiles

            self.profile = merge_profiles([o.profile for o in outcomes])
        return finish_shards(cfg, ledger, outcomes)

    # ------------------------------------------------------------------

    @staticmethod
    def _run_parallel(
        payloads: list[tuple], workers: int, on_shard=None
    ) -> list[ShardResult]:
        """Fan the shard payloads over a process pool, in worker-sized chunks.

        Payloads are striped into one chunk per worker
        (``payloads[i::workers]``) and each chunk is submitted as a single
        :func:`run_shard_batch` task, so a scan pays one pickle/dispatch
        round-trip per worker instead of one per shard. Striping keeps the
        chunks balanced under the round-robin shard partition. Chunking is
        pure submission mechanics: ``on_shard`` (the ledger's ``record``)
        still fires once per shard as chunk results land, and the final
        sort by shard index keeps the merge order — and therefore the
        merged result — byte-identical to per-shard submission.

        Pool breakage (restricted environments, OOM-killed workers) falls
        back to in-process execution — but only for the shards whose
        chunk did not complete; finished chunk results are kept. A genuine
        exception raised *inside* a worker is not pool breakage and
        propagates.
        """
        import multiprocessing

        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
        chunks = [payloads[i::workers] for i in range(workers)]
        chunks = [chunk for chunk in chunks if chunk]
        completed: dict[int, ShardResult] = {}  # payload index -> result
        try:
            with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
                futures: dict[int, object] = {}  # chunk index -> future
                try:
                    for chunk_index, chunk in enumerate(chunks):
                        futures[chunk_index] = pool.submit(run_shard_batch, chunk)
                except (OSError, PermissionError):
                    futures.clear()  # process spawning denied outright
                for chunk_index, future in futures.items():
                    try:
                        results = future.result()
                    except BrokenProcessPool:
                        break  # pool died; the rest re-runs in-process below
                    # chunk position offset within payloads: payload j of
                    # striped chunk i came from payloads[i + j*workers]
                    for offset, result in enumerate(results):
                        completed[chunk_index + offset * workers] = result
                        if on_shard is not None:
                            on_shard(result)
        except (OSError, PermissionError, BrokenProcessPool):
            pass  # pool setup/teardown failure; completed chunks are kept
        outcomes = []
        for index, payload in enumerate(payloads):
            if index in completed:
                outcomes.append(completed[index])
                continue
            outcome = run_shard(payload)
            if on_shard is not None:
                on_shard(outcome)
            outcomes.append(outcome)
        return sorted(outcomes, key=lambda outcome: outcome.shard_index)
