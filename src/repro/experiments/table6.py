"""Table VI — the most attacked applications among unknown attacks."""

from __future__ import annotations

from ..workload.generator import WildScanResult

__all__ = ["render", "PAPER_ROWS"]

PAPER_ROWS = (
    ("Balancer", 31, 5, 14, 13),
    ("Uniswap", 16, 6, 8, 5),
    ("Yearn", 11, 1, 1, 1),
)


def render(result: WildScanResult) -> str:
    lines = [
        "Table VI — top attacked applications (unknown attacks)",
        f"{'App':<18}{'Attacks':>8}{'Attackers':>10}{'Contracts':>10}{'Assets':>8}",
    ]
    for app, attacks, attackers, contracts, assets in result.table6()[:5]:
        lines.append(f"{app:<18}{attacks:>8}{attackers:>10}{contracts:>10}{assets:>8}")
    lines.append("paper (full scale):")
    for app, attacks, attackers, contracts, assets in PAPER_ROWS:
        lines.append(f"{app:<18}{attacks:>8}{attackers:>10}{contracts:>10}{assets:>8}")
    return "\n".join(lines)
