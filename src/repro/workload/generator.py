"""The wild scan's config and result types.

The scan reproduces the paper's Sec. VI-C/VI-D evaluation end to end: a
seeded population of flash-loan transactions (benign profiles +
calibrated attacks + the two false-positive sources) is executed on the
substrate, every transaction runs through LeiShen, and detections are
verified against ground truth the way the paper's manual inspection
verified them. ``repro.engine.ScanEngine(config).run()`` runs it and
returns a :class:`WildScanResult`.

``scale`` controls population size: 1.0 means the paper's full 272,984
transactions (minutes of runtime); the default 0.02 keeps benches fast
while preserving every ratio. ``jobs`` fans the scan out over worker
processes without changing any result byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..leishen.registry import PatternSettings
from .attacks import FULL_SCALE_MIGRATIONS, FULL_SCALE_STRATEGIES  # noqa: F401 (re-export)
from .profiles import GroundTruth

__all__ = ["WildScanConfig", "PatternRow", "Detection", "WildScanResult"]


@dataclass(frozen=True, slots=True)
class WildScanConfig:
    scale: float = 0.02
    seed: int = 7
    #: apply the Sec. VI-C yield-aggregator heuristic to MBS detections.
    with_heuristic: bool = False
    #: drop per-trace history to bound memory on full-scale runs.
    keep_history: bool = False
    #: pattern selection + thresholds: the enabled pattern set and any
    #: threshold overrides (ablation sweeps relax the paper defaults).
    #: Identity-relevant: it rides the config wire and the digest, where
    #: the paper defaults encode as ``null``.
    pattern_config: PatternSettings = PatternSettings()
    #: worker processes consuming the shards. Purely an execution knob:
    #: the result is byte-identical for any value (the schedule partition
    #: is a function of seed/scale/shards only, never of jobs).
    jobs: int = 1
    #: shard count for the scan engine. ``None`` resolves automatically
    #: (1 shard for tiny populations, 8 beyond ~512 transactions); set
    #: explicitly to pin the partition (and therefore the exact result)
    #: across scales.
    shards: int | None = None
    #: collect per-stage timers/counters into shard profiles
    #: (:mod:`repro.runtime.profile`). Execution knob only; profiles are
    #: observability output, never part of the result.
    profile: bool = False
    #: number of cross-transaction split-attack groups appended to the
    #: schedule (windowed-detection ground truth). Identity-relevant:
    #: it changes the canonical schedule, so it rides the config wire
    #: and the digest. ``0`` keeps the schedule exactly as before.
    split_attacks: int = 0
    #: number of adversarial-family attacks (sandwich / infinite-mint /
    #: donation clusters) appended to the schedule. Identity-relevant:
    #: it changes the canonical schedule, so it rides the config wire
    #: and the digest. ``0`` keeps the schedule exactly as before. The
    #: paper-default pattern set will not detect these — enable the
    #: matching plugins via ``pattern_config=PatternSettings(...)``.
    adversarial: int = 0

    def __post_init__(self) -> None:
        # Programmatic callers get the same errors the CLI raises instead
        # of a silent clamp inside the engine.
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.shards is not None and self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.split_attacks < 0:
            raise ValueError(
                f"split_attacks must be >= 0, got {self.split_attacks}"
            )
        if self.adversarial < 0:
            raise ValueError(
                f"adversarial must be >= 0, got {self.adversarial}"
            )


@dataclass(slots=True)
class PatternRow:
    """One Table V row."""

    pattern: str
    n: int = 0
    tp: int = 0
    fp: int = 0

    @property
    def precision(self) -> float:
        return self.tp / self.n if self.n else 0.0


@dataclass(slots=True)
class Detection:
    """One detected transaction with its verification outcome."""

    tx_hash: str
    patterns: tuple[str, ...]
    truth: GroundTruth
    profit_usd: float = 0.0
    borrowed_usd: float = 0.0

    @property
    def is_true_attack(self) -> bool:
        return self.truth.is_attack


@dataclass(slots=True)
class WildScanResult:
    config: WildScanConfig
    total_transactions: int = 0
    detections: list[Detection] = field(default_factory=list)
    rows: dict[str, PatternRow] = field(default_factory=dict)

    @property
    def detected_count(self) -> int:
        return len(self.detections)

    @property
    def true_positives(self) -> int:
        return sum(1 for d in self.detections if d.is_true_attack)

    @property
    def precision(self) -> float:
        return self.true_positives / self.detected_count if self.detections else 0.0

    def unknown_attacks(self) -> list[Detection]:
        return [d for d in self.detections if d.is_true_attack and not d.truth.known]

    def table5(self) -> list[PatternRow]:
        return [self.rows[p] for p in ("KRP", "SBS", "MBS") if p in self.rows]

    def table6(self) -> list[tuple[str, int, int, int, int]]:
        """Top attacked apps among unknown attacks:
        (app, attacks, attackers, contracts, assets)."""
        by_app: dict[str, list[Detection]] = {}
        for det in self.unknown_attacks():
            by_app.setdefault(det.truth.attacked_app or "?", []).append(det)
        rows = []
        for app, dets in by_app.items():
            rows.append(
                (
                    app,
                    len(dets),
                    len({d.truth.attacker for d in dets}),
                    len({d.truth.attack_contract for d in dets}),
                    len({d.truth.asset for d in dets}),
                )
            )
        rows.sort(key=lambda r: -r[1])
        return rows

    def table7(self) -> dict[str, float]:
        from ..leishen.profit import ProfitBreakdown, profit_statistics

        breakdowns = [
            ProfitBreakdown(d.tx_hash, d.profit_usd, d.borrowed_usd)
            for d in self.detections
            if d.is_true_attack
        ]
        return profit_statistics(breakdowns)

    def fig8_months(self) -> dict[int, int]:
        """Detected unknown attacks per month (month 0 = Jan 2020)."""
        months: dict[int, int] = {}
        for det in self.unknown_attacks():
            if det.truth.month is not None:
                months[det.truth.month] = months.get(det.truth.month, 0) + 1
        return dict(sorted(months.items()))

