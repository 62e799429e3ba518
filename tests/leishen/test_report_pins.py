"""Every ``AttackReport`` of a generated population, pinned by digest.

The other identity pins cover detections: verdicts, patterns and
Table V rows. The windowed matcher also consumes the trades, borrower
tags and profit flows of *clean* flash-loan reports, so this module
digests every field of every report a population yields, with all six
registry plugins enabled and both schedule tails (adversarial families
and split attacks) on.

Plugins walk tokens in first-seen trade order, so the order of a
report's matches does not follow ``PYTHONHASHSEED``
(``tests/leishen/test_registry.py::TestMatchOrder`` pins that). The
digest still sorts each report's encoded matches, and the pin is still
checked in two interpreters with different hash seeds.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from repro.engine.plan import build_full_schedule, shard_schedule
from repro.engine.scan import build_shard_context, execute_task
from repro.leishen.registry import ALL_PATTERN_KEYS, PatternSettings
from repro.workload.generator import WildScanConfig

ROOT = Path(__file__).resolve().parents[2]

#: sha256 over the encoded reports of :func:`pinned_config`, computed
#: before the detector's hot-path rewrite.
REPORT_DIGEST = "bfaeaa9645ffbf2e43c818362665c0251af1664bf1cbc0c3fea6d31d0cf8c8e1"


def pinned_config() -> WildScanConfig:
    return WildScanConfig(
        scale=0.005,
        seed=7,
        pattern_config=PatternSettings.make(enabled=ALL_PATTERN_KEYS),
        adversarial=6,
        split_attacks=2,
    )


def _trade(trade) -> list:
    return [
        trade.seq, trade.kind.value, trade.buyer, trade.seller,
        trade.amount_sell, str(trade.token_sell),
        trade.amount_buy, str(trade.token_buy),
        [[str(token), amount] for token, amount in trade.extra_legs],
    ]


def _match(match) -> str:
    return json.dumps([
        match.pattern, str(match.target_token),
        [_trade(t) for t in match.trades],
        [[key, value] for key, value in match.details],
    ])


def encode_report(report) -> list:
    """Every field of one report, with its matches in canonical order."""
    return [
        report.tx_hash,
        [
            [loan.provider, str(loan.provider_account), str(loan.borrower),
             str(loan.token), loan.amount]
            for loan in report.flash_loans
        ],
        str(report.borrower),
        report.borrower_tag,
        [_trade(t) for t in report.trades],
        sorted(_match(m) for m in report.matches),
        [str(b) for b in report.borrowers],
        list(report.borrower_tags),
        [[str(token), delta] for token, delta in report.profit_flows.items()],
        report.profit_usd,
    ]


def report_digest(config: WildScanConfig) -> str:
    """Execute the population shard by shard, analyse each transaction
    right after it runs (as a scan does), and digest every report."""
    tasks, shard_count = build_full_schedule(config)
    records: list = []
    for index, part in enumerate(shard_schedule(tasks, shard_count)):
        ctx = build_shard_context(config, index, shard_count)
        for position, task in enumerate(part):
            labeled = execute_task(ctx, task)
            if labeled is None:
                continue
            report = ctx.detector.analyze(labeled.trace)
            if report is not None:
                records.append([index, position, encode_report(report)])
    payload = json.dumps([len(tasks), records], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


_SCRIPT = (
    "from tests.leishen.test_report_pins import pinned_config, report_digest\n"
    "print(report_digest(pinned_config()))\n"
)


def test_every_report_pinned_under_two_hash_seeds():
    path = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT), os.environ.get("PYTHONPATH", "")]
    )
    for seed in ("0", "1"):
        run = subprocess.run(
            [sys.executable, "-c", _SCRIPT],
            cwd=ROOT,
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == REPORT_DIGEST, f"PYTHONHASHSEED={seed}"
