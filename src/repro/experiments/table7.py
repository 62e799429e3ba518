"""Table VII — attack profit analysis on detected flpAttacks."""

from __future__ import annotations

from ..workload.generator import WildScanResult

__all__ = ["render", "PAPER_STATS"]

#: the paper's Table VII values (yield rate as a fraction; profit in USD).
PAPER_STATS = {
    "min_profit_usd": 23.0,
    "max_profit_usd": 6_102_198.0,
    "mean_profit_usd": 3_509.0,
    "top10_profit_usd": 257_078.0,
    "top20_profit_usd": 135_522.0,
    "total_profit_usd": 21_800_000.0,
}


def render(result: WildScanResult) -> str:
    stats = result.table7()
    lines = [
        "Table VII — attack profit analysis (measured vs paper)",
        f"{'metric':<22}{'measured':>16}{'paper':>16}",
    ]
    for key in ("mean_profit_usd", "min_profit_usd", "max_profit_usd",
                "top10_profit_usd", "top20_profit_usd", "total_profit_usd"):
        measured = stats.get(key, 0.0)
        paper = PAPER_STATS[key]
        lines.append(f"{key:<22}{measured:>16,.0f}{paper:>16,.0f}")
    lines.append(
        f"yield rate: mean {stats.get('mean_yield_rate', 0):.2%}, "
        f"max {stats.get('max_yield_rate', 0):.2%}"
    )
    lines.append(
        "note: the paper's mean (3,509) is inconsistent with its own max/total; "
        "we report the measured heavy-tailed distribution."
    )
    return "\n".join(lines)
