"""LeiShen: the paper's flpAttack detector."""

from .detector import LeiShen, LeiShenConfig
from .export import report_to_dict, report_to_json, scan_result_to_dict
from .heuristics import DEFAULT_AGGREGATOR_APPS, YieldAggregatorHeuristic
from .identify import FlashLoan, FlashLoanIdentifier, PROVIDERS
from .labels import LabelDatabase, app_name_of_label
from .patterns import AttackPattern, PatternConfig, PatternMatch, PatternMatcher
from .profit import ProfitAnalyzer, ProfitBreakdown, profit_statistics
from .registry import (
    ALL_PATTERN_KEYS,
    PAPER_PATTERN_KEYS,
    REGISTRY_VERSION,
    Pattern,
    PatternRegistry,
    PatternSettings,
    default_registry,
    enabled_pattern_keys,
)
from .report import AttackReport, pair_volatilities, price_volatility
from .simplify import AppTransfer, SimplifierConfig, TransferSimplifier
from .tagging import AccountTagger, BLACKHOLE_TAG, Tag, TaggedTransfer
from .trades import Trade, TradeIdentifier, TradeKind

__all__ = [
    "AccountTagger",
    "AppTransfer",
    "ALL_PATTERN_KEYS",
    "AttackPattern",
    "AttackReport",
    "BLACKHOLE_TAG",
    "DEFAULT_AGGREGATOR_APPS",
    "FlashLoan",
    "FlashLoanIdentifier",
    "LabelDatabase",
    "LeiShen",
    "LeiShenConfig",
    "PAPER_PATTERN_KEYS",
    "PROVIDERS",
    "Pattern",
    "PatternRegistry",
    "PatternSettings",
    "PatternConfig",
    "PatternMatch",
    "PatternMatcher",
    "REGISTRY_VERSION",
    "ProfitAnalyzer",
    "ProfitBreakdown",
    "SimplifierConfig",
    "Tag",
    "TaggedTransfer",
    "Trade",
    "TradeIdentifier",
    "TradeKind",
    "TransferSimplifier",
    "YieldAggregatorHeuristic",
    "app_name_of_label",
    "default_registry",
    "enabled_pattern_keys",
    "pair_volatilities",
    "report_to_dict",
    "report_to_json",
    "scan_result_to_dict",
    "price_volatility",
    "profit_statistics",
]
