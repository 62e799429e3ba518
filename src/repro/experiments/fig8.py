"""Fig. 8 — monthly flpAttacks in Ethereum (detected unknown attacks)."""

from __future__ import annotations

from ..workload.generator import WildScanResult
from ..workload.timeline import month_label, monthly_attack_weights

__all__ = ["render"]


def render(result: WildScanResult) -> str:
    months = result.fig8_months()
    calibration = monthly_attack_weights()
    lines = [
        "Fig. 8 — monthly unknown flpAttacks (measured | calibrated full scale)",
    ]
    for month, full in enumerate(calibration):
        measured = months.get(month, 0)
        if full == 0 and measured == 0:
            continue
        bar = "#" * measured + "." * max(0, full - measured)
        lines.append(f"{month_label(month):<10}{measured:>3} | {full:>3}  {bar}")
    avg_2020 = sum(calibration[5:12]) / 7
    avg_2021 = sum(calibration[12:24]) / 12
    lines.append(
        f"calibrated averages: {avg_2020:.1f}/mo in 2020, {avg_2021:.1f}/mo in 2021 "
        "(paper: 6.5 and 4.3)"
    )
    return "\n".join(lines)
