"""Deterministic wild-scan scheduling and sharding.

The paper's Sec. VI-C evaluation is embarrassingly parallel: detecting
one flash-loan transaction never depends on another transaction's
detection result. The engine exploits that by computing one *canonical
schedule* — a seeded, shuffled list of pure-data task descriptors — and
partitioning it round-robin into shards. Each shard is later executed
against its own freshly built ``DeFiWorld``, so:

- the schedule (and therefore the partition) depends only on
  ``(seed, scale)``, never on the worker count;
- ``jobs=N`` only decides how many processes *consume* the shards, which
  is what makes ``jobs=1`` and ``jobs=8`` byte-identical.

Task descriptors are plain tuples so they pickle cheaply across process
boundaries:

- ``("attack", cluster_index, attacker_id, contract_id, asset_id, month)``
- ``("migration",)``
- ``("strategy",)``
- ``("benign", profile_index)``
- ``("split", group, round_index, n_rounds)`` — one round transaction of
  a cross-transaction split attack (windowed-detection ground truth)

Split tasks live in a *tail* appended after the canonical schedule (so
``split_attacks=0`` reproduces the historical schedule byte-for-byte).
The tail is wave-interleaved in rows of exactly ``shard_count`` slots:
a group's rounds all sit at the same residue modulo the shard count, so
the round-robin partition routes every round of a group to the same
shard — the rounds must share one world (one pool whose price carries
across transactions) and arrive in consecutive stream blocks.
"""

from __future__ import annotations

import random
from itertools import accumulate

from ..workload.attacks import (
    ATTACK_CLUSTERS,
    FULL_SCALE_MIGRATIONS,
    FULL_SCALE_STRATEGIES,
    plan_attacks,
    split_spec_of,
)
from ..workload.profiles import BENIGN_PROFILES
from ..workload.timeline import TOTAL_FLASH_LOAN_TXS

__all__ = [
    "Task",
    "build_schedule",
    "build_full_schedule",
    "split_schedule_tail",
    "adversarial_schedule_tail",
    "shard_schedule",
    "shard_of",
    "resolve_shard_count",
    "shard_seed",
    "DEFAULT_SHARD_COUNT",
    "MIN_SHARDED_POPULATION",
]

#: One schedule entry (see module docstring for the four shapes).
Task = tuple

#: shard count used when ``WildScanConfig.shards`` is left unset and the
#: population is large enough to be worth splitting.
DEFAULT_SHARD_COUNT = 8

#: below this population size auto-sharding stays at one shard: tiny test
#: scans keep a single world and the per-shard setup cost stays amortized.
MIN_SHARDED_POPULATION = 512

_CLUSTER_INDEX = {id(cluster): i for i, cluster in enumerate(ATTACK_CLUSTERS)}

#: a benign task draws its profile index by weight. The cumulative
#: weights are the ones ``rng.choices(indices, weights)`` accumulates on
#: every call, so passing them draws the same index.
_BENIGN_INDICES = range(len(BENIGN_PROFILES))
_BENIGN_CUM_WEIGHTS = list(accumulate(weight for _, weight, _ in BENIGN_PROFILES))


def _benign_task(rng: random.Random) -> Task:
    return ("benign", rng.choices(_BENIGN_INDICES, cum_weights=_BENIGN_CUM_WEIGHTS)[0])


def population_size(scale: float) -> int:
    """Total wild-scan transactions at ``scale`` (1.0 = paper's 272,984)."""
    return max(50, round(TOTAL_FLASH_LOAN_TXS * scale))


def build_schedule(scale: float, seed: int) -> list[Task]:
    """The canonical seeded schedule: attacks + FP sources + benign mix.

    Counts, RNG draw order and shuffle are part of every result's
    identity; the tasks are pure-data descriptors, not closures bound
    to a live market.
    """
    rng = random.Random(seed)
    tasks: list[Task] = [
        ("attack", _CLUSTER_INDEX[id(cluster)], attacker_id, contract_id, asset_id, month)
        for cluster, attacker_id, contract_id, asset_id, month in plan_attacks(scale)
    ]
    n_migrations = max(1, round(FULL_SCALE_MIGRATIONS * scale))
    tasks.extend([("migration",)] * n_migrations)
    n_strategies = max(1, round(FULL_SCALE_STRATEGIES * scale))
    tasks.extend([("strategy",)] * n_strategies)
    total = population_size(scale)
    for _ in range(max(0, total - len(tasks))):
        tasks.append(_benign_task(rng))
    rng.shuffle(tasks)
    return tasks


def split_schedule_tail(groups: int, shards: int, seed: int) -> list[Task]:
    """The split-attack tail: ``groups`` cross-transaction attacks.

    Rows of exactly ``shards`` slots, one column per group within a
    wave; because every row spans all residues modulo ``shards``, each
    group's rounds land on one shard and are consecutive within that
    shard's task order. Slots not owned by a live group are filled with
    seeded benign tasks so the column alignment holds for any wave
    shape (fewer groups than shards, ragged round counts).
    """
    if groups <= 0:
        return []
    rng = random.Random(f"split-tail:{seed}")
    tail: list[Task] = []
    for wave_start in range(0, groups, shards):
        wave = list(range(wave_start, min(wave_start + shards, groups)))
        rows = max(split_spec_of(g).rounds for g in wave)
        for row in range(rows):
            for column in range(shards):
                if column < len(wave):
                    group = wave[column]
                    n_rounds = split_spec_of(group).rounds
                    if row < n_rounds:
                        tail.append(("split", group, row, n_rounds))
                        continue
                tail.append(_benign_task(rng))
    return tail


def adversarial_schedule_tail(count: int) -> list[Task]:
    """Deterministic tail of ``count`` adversarial attack tasks.

    Pure data: task ``i`` cycles the adversarial clusters round-robin
    with instance ids derived from ``i`` alone, so every backend
    computes the identical tail for the same config (the tasks carry no
    month — adversarial families sit outside the paper's timeline).
    """
    from ..workload.attacks import ADVERSARIAL_CLUSTERS

    tail: list[Task] = []
    for i in range(count):
        cluster_index = i % len(ADVERSARIAL_CLUSTERS)
        cluster = ADVERSARIAL_CLUSTERS[cluster_index]
        instance = i // len(ADVERSARIAL_CLUSTERS)
        tail.append((
            "adv",
            cluster_index,
            instance % cluster.n_attackers,
            instance % cluster.n_contracts,
            instance % cluster.n_assets,
            None,
        ))
    return tail


def build_full_schedule(config) -> tuple[list[Task], int]:
    """Canonical schedule *plus* the split-attack tail, and the shard count.

    The shard count is always resolved on the base schedule's length —
    never the tail's — so requesting split attacks cannot flip the
    auto-sharding decision out from under the tail's interleaving.
    Every execution path (batch, stream, cluster, ledger, service) goes
    through this one function, which is what keeps their partitions —
    and therefore their merged bytes — identical for the same config.
    """
    tasks = build_schedule(config.scale, config.seed)
    shard_count = resolve_shard_count(config.shards, len(tasks))
    groups = config.split_attacks
    if groups:
        tasks = tasks + split_schedule_tail(groups, shard_count, config.seed)
    adversarial = getattr(config, "adversarial", 0)
    if adversarial:
        tasks = tasks + adversarial_schedule_tail(adversarial)
    return tasks, shard_count


def shard_schedule(tasks: list[Task], shards: int) -> list[list[Task]]:
    """Round-robin partition preserving within-shard schedule order."""
    if shards <= 1:
        return [list(tasks)]
    return [tasks[i::shards] for i in range(shards)]


def shard_of(position: int, shards: int) -> int:
    """Owning shard of one schedule position.

    Inverse view of :func:`shard_schedule`'s round-robin partition
    (``tasks[i::shards]``): feeding positions ``0..N-1`` in order and
    routing each to ``shard_of(position, shards)`` reproduces every
    shard's task list in its exact batch order — the property the
    streaming engine's determinism contract rests on.
    """
    return position % shards


def resolve_shard_count(shards: int | None, total: int) -> int:
    """Effective shard count; NEVER a function of the worker count.

    Explicit ``shards`` wins; otherwise populations below
    ``MIN_SHARDED_POPULATION`` stay single-shard and larger ones split
    into ``DEFAULT_SHARD_COUNT``.
    """
    if shards is not None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        return min(shards, max(1, total))
    if total < MIN_SHARDED_POPULATION:
        return 1
    return DEFAULT_SHARD_COUNT


def shard_seed(seed: int, shard_index: int) -> str:
    """Execution-time RNG seed for one shard (string: stable across runs)."""
    return f"wild-scan:{seed}:{shard_index}"
