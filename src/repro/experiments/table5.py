"""Table V — wild-scan detection results per pattern (+ heuristic variant)."""

from __future__ import annotations

from ..workload.generator import WildScanResult

__all__ = ["render", "PAPER_ROWS"]

#: the paper's Table V for reference in rendering.
PAPER_ROWS = {"KRP": (21, 21, 0), "SBS": (79, 68, 11), "MBS": (107, 60, 47)}


def render(result: WildScanResult) -> str:
    cfg = result.config
    lines = [
        f"Table V — wild scan at scale {cfg.scale} "
        f"({result.total_transactions} flash loan txs; paper: 272,984)",
        f"{'Pattern':<9}{'N':>5}{'TP':>5}{'FP':>5}{'P':>9}    paper N/TP/FP/P",
    ]
    for row in result.table5():
        paper_n, paper_tp, paper_fp = PAPER_ROWS[row.pattern]
        paper_p = paper_tp / paper_n
        lines.append(
            f"{row.pattern:<9}{row.n:>5}{row.tp:>5}{row.fp:>5}{row.precision:>8.1%}"
            f"    {paper_n}/{paper_tp}/{paper_fp}/{paper_p:.1%}"
        )
    lines.append(
        f"overall: detected {result.detected_count}, true {result.true_positives}, "
        f"precision {result.precision:.1%} (paper: 180 / 142 / 78.9%)"
    )
    return "\n".join(lines)
