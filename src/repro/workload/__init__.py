"""Wild-scan workload: population generator, attacks, timelines."""

from .attacks import ATTACK_CLUSTERS, AttackCluster, FULL_SCALE_ATTACKS, WildAttackInjector
from .generator import (
    Detection,
    PatternRow,
    WildScanConfig,
    WildScanResult,
)
from .profiles import BENIGN_PROFILES, GroundTruth, LabeledTrace, WildMarket
from .timeline import (
    PROVIDER_TOTALS,
    TOTAL_FLASH_LOAN_TXS,
    UNKNOWN_ATTACK_TOTAL,
    WeekPoint,
    month_label,
    monthly_attack_weights,
    weekly_flash_loan_series,
)

__all__ = [
    "ATTACK_CLUSTERS",
    "AttackCluster",
    "BENIGN_PROFILES",
    "Detection",
    "FULL_SCALE_ATTACKS",
    "GroundTruth",
    "LabeledTrace",
    "PROVIDER_TOTALS",
    "PatternRow",
    "TOTAL_FLASH_LOAN_TXS",
    "UNKNOWN_ATTACK_TOTAL",
    "WeekPoint",
    "WildAttackInjector",
    "WildMarket",
    "WildScanConfig",
    "WildScanResult",
    "month_label",
    "monthly_attack_weights",
    "weekly_flash_loan_series",
]
