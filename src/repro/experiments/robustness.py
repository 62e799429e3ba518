"""Robustness study: per-family × per-mutation precision/recall.

FlashSyn-style attack synthesis shows that small, deterministic
perturbations of a known attack can silently defeat fixed-threshold
detectors. This experiment sweeps the mutation matrix of
:mod:`repro.workload.mutate` over one representative attack family per
registry pattern — the paper's KRP/SBS/MBS plus the adversarial
SANDWICH/MINT/DONATION families — and scores, per (family, mutation)
cell, whether the family's pattern still fires.

Measurement semantics:

- every run enables the **full** pattern registry, so a mutated KRP
  attack that morphs into something SBS-shaped is still visible in the
  per-cell ``patterns`` breakdown;
- mutated attacks are fee-subsidized (a pre-transaction cushion mint)
  so a mutation that destroys the attack's *profit* still executes —
  an evaded detection, never a reverted transaction;
- **recall** of a cell is the fraction of that cell's attack instances
  whose ground-truth family pattern matched;
- **precision** of a family is measured across the whole sweep plus a
  deterministic pool of benign flash transactions: of everything the
  family's pattern flagged, how much truly was that family.

Everything is seeded: world construction, attack instances and the
benign mix derive from ``seed`` alone, so two sweeps score identically
and the emitted table is reproducible byte-for-byte. The sweep's
contracts are pinned in ``tests/experiments/test_robustness.py``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..chain.errors import ChainError
from ..leishen.detector import LeiShen, LeiShenConfig
from ..leishen.registry import ALL_PATTERN_KEYS, PatternSettings
from ..workload.attacks import (
    ADVERSARIAL_CLUSTERS,
    ATTACK_CLUSTERS,
    AttackCluster,
    WildAttackInjector,
)
from ..workload.mutate import MUTATIONS, Mutation
from ..workload.profiles import BENIGN_PROFILES, WildMarket
from ..world import DeFiWorld

__all__ = [
    "CellResult",
    "RobustnessResult",
    "family_clusters",
    "run",
    "render",
]

#: attack instances per (family, mutation) cell.
DEFAULT_INSTANCES = 2
#: benign flash transactions in the shared precision pool.
DEFAULT_BENIGN = 24


def family_clusters() -> dict[str, AttackCluster]:
    """One representative attack cluster per scored family.

    Paper families use the first single-pattern cluster of the matching
    shape from the historical catalog; adversarial families use their
    dedicated clusters. Insertion order is the report's row order.
    """
    families: dict[str, AttackCluster] = {}
    for key, shape in (("KRP", "krp"), ("SBS", "sbs"), ("MBS", "mbs")):
        for cluster in ATTACK_CLUSTERS:
            if cluster.shape == shape and cluster.truth_patterns == (key,):
                families[key] = cluster
                break
    for cluster in ADVERSARIAL_CLUSTERS:
        families[cluster.family] = cluster
    return families


@dataclass(slots=True)
class CellResult:
    """One (family, mutation) cell of the sweep."""

    family: str
    mutation: str
    instances: int = 0
    #: instances whose ground-truth family pattern matched.
    hits: int = 0
    #: every pattern that fired on this cell's traces, with counts —
    #: shows what a mutated attack morphs *into*, not just what it evades.
    patterns: dict[str, int] = field(default_factory=dict)
    #: instances that reverted despite the fee subsidy (should be 0).
    reverted: int = 0

    @property
    def recall(self) -> float:
        return self.hits / self.instances if self.instances else 0.0


@dataclass(slots=True)
class RobustnessResult:
    seed: int
    instances: int
    cells: list[CellResult] = field(default_factory=list)
    #: family -> [true positives, false positives] over the shared pool
    #: (sweep traces + benign transactions).
    precision_counts: dict[str, list[int]] = field(default_factory=dict)
    benign_total: int = 0
    benign_flagged: dict[str, int] = field(default_factory=dict)

    def cell(self, family: str, mutation: str) -> CellResult:
        for cell in self.cells:
            if cell.family == family and cell.mutation == mutation:
                return cell
        raise KeyError(f"no cell ({family!r}, {mutation!r})")

    def precision(self, family: str) -> float:
        tp, fp = self.precision_counts.get(family, [0, 0])
        return tp / (tp + fp) if tp + fp else 0.0

    def families(self) -> list[str]:
        ordered: list[str] = []
        for cell in self.cells:
            if cell.family not in ordered:
                ordered.append(cell.family)
        return ordered


def _mutation_asset_id(mutation_index: int, instance: int, instances: int) -> int:
    """A fresh mini market per (mutation, instance): mutated runs must not
    trade against pools a previous mutation already moved."""
    return mutation_index * instances + instance


def run(
    seed: int = 7,
    instances: int = DEFAULT_INSTANCES,
    benign: int = DEFAULT_BENIGN,
    mutations: tuple[Mutation, ...] = MUTATIONS,
) -> RobustnessResult:
    """Execute the full sweep and return the scored matrix."""
    result = RobustnessResult(seed=seed, instances=instances)
    settings = PatternSettings(enabled=ALL_PATTERN_KEYS)
    families = family_clusters()
    result.precision_counts = {key: [0, 0] for key in families}
    result.benign_flagged = {key: 0 for key in families}
    for family, cluster in families.items():
        # One world per family: mutated instances of one family share
        # venues (via distinct asset ids) but families never interact.
        rng = random.Random(f"robustness:{seed}:{family}")
        world = DeFiWorld()
        market = WildMarket(world, rng)
        injector = WildAttackInjector(market, rng, scale=1.0)
        detector = LeiShen(world.chain, LeiShenConfig(patterns=settings))
        for mutation_index, mutation in enumerate(mutations):
            cell = CellResult(family=family, mutation=mutation.key)
            result.cells.append(cell)
            for instance in range(instances):
                cell.instances += 1
                asset_id = _mutation_asset_id(mutation_index, instance, instances)
                try:
                    labeled = injector.execute(
                        cluster, instance, instance, asset_id, None,
                        mutation=mutation, subsidize=True,
                    )
                except ChainError:
                    cell.reverted += 1
                    continue
                report = detector.analyze(labeled.trace)
                matched = report.patterns if report is not None else set()
                for key in matched:
                    cell.patterns[key] = cell.patterns.get(key, 0) + 1
                if family in matched:
                    cell.hits += 1
                for key in families:
                    if key not in matched:
                        continue
                    counts = result.precision_counts[key]
                    if key == family:
                        counts[0] += 1
                    else:
                        counts[1] += 1
        # benign pool: deterministic slice of the benign profile mix,
        # detected with the same full-registry settings.
        for i in range(benign):
            result.benign_total += 1
            _, _, runner = BENIGN_PROFILES[i % len(BENIGN_PROFILES)]
            try:
                labeled = runner(market)
            except ChainError:
                continue
            report = detector.analyze(labeled.trace)
            matched = report.patterns if report is not None else set()
            for key in families:
                if key in matched:
                    result.benign_flagged[key] += 1
                    result.precision_counts[key][1] += 1
    return result


def render(
    result: RobustnessResult | None = None,
    seed: int = 7,
    instances: int = DEFAULT_INSTANCES,
) -> str:
    """The per-family × per-mutation recall table, plus precision."""
    result = result if result is not None else run(seed=seed, instances=instances)
    families = result.families()
    mutation_keys = []
    for cell in result.cells:
        if cell.mutation not in mutation_keys:
            mutation_keys.append(cell.mutation)
    width = max(len(key) for key in mutation_keys) + 2
    lines = [
        f"Robustness sweep — per-family recall under attack mutation "
        f"(seed {result.seed}, {result.instances} instances/cell)",
        f"{'mutation':<{width}}" + "".join(f"{f:>10}" for f in families),
    ]
    for key in mutation_keys:
        row = f"{key:<{width}}"
        for family in families:
            cell = result.cell(family, key)
            note = "!" if cell.reverted else ""
            row += f"{cell.recall:>9.0%}{note or ' '}"
        lines.append(row)
    lines.append(
        f"{'precision':<{width}}"
        + "".join(f"{result.precision(f):>9.0%} " for f in families)
    )
    lines.append(
        f"benign pool: {result.benign_total} txs, flagged: "
        + (", ".join(
            f"{key}={count}" for key, count in result.benign_flagged.items() if count
        ) or "none")
    )
    evaded = [
        f"{cell.family}/{cell.mutation}"
        for cell in result.cells
        if cell.mutation != "baseline" and cell.recall == 0.0
    ]
    lines.append("evading cells: " + (", ".join(evaded) or "none"))
    return "\n".join(lines)
