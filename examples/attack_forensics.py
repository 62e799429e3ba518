"""Forensic walk-through of the bZx-1 attack (paper Fig. 3 and Fig. 6).

Run::

    python examples/attack_forensics.py

Reconstructs the paper's Fig. 6: the raw account-level transfer history,
the tagged transfers, the application-level transfers after the three
simplification rules (watch the Kyber relay collapse and the WETH legs
disappear), the identified trades, and the matched SBS pattern — ending
with the attacker's profit valued in USD.
"""

from __future__ import annotations

from repro.leishen import FlashLoanIdentifier, ProfitAnalyzer
from repro.study.scenarios import SCENARIO_BUILDERS


def main() -> None:
    outcome = SCENARIO_BUILDERS["bzx1"]()
    world = outcome.world
    registry = world.registry
    trace = outcome.trace
    detector = world.detector()

    print("=" * 72)
    print("bZx-1 attack, 2020-02-15 — the first flash loan price manipulation")
    print("=" * 72)

    print("\n[1] account-level asset transfers (modified-Geth view):")
    for t in trace.transfers:
        print(
            f"  T{t.seq:<4} {t.sender.short} -> {t.receiver.short} "
            f"{t.amount / 10**18 if registry.get(t.token) is None or registry.get(t.token).decimals == 18 else t.amount / 10**8:>14,.2f} "
            f"{registry.symbol_of(t.token)}"
        )

    print("\n[2] tagged transfers (creation-tree account tagging):")
    tags = detector.tagger.tags()
    for t in trace.transfers:
        print(f"  T{t.seq:<4} {str(tags[t.sender])[:18]:<20} -> {str(tags[t.receiver])[:18]:<20} "
              f"{registry.symbol_of(t.token)}")

    print("\n[3] application-level transfers (after the three rules):")
    app_transfers = detector.simplifier.simplify(trace.transfers, tags)
    for t in app_transfers:
        print(f"  T{t.seq:<4} {str(t.sender)[:18]:<20} -> {str(t.receiver)[:18]:<20} "
              f"{registry.symbol_of(t.token)}")
    removed = len(trace.transfers) - len(app_transfers)
    print(f"  ({removed} transfers removed/merged — WETH legs and the Kyber relay)")

    print("\n[4] identified trades:")
    trades = detector.trade_identifier.identify(app_transfers)
    for i, trade in enumerate(trades, 1):
        rate = trade.sell_rate
        print(
            f"  trade{i}: {trade.buyer} {trade.kind.value} with {trade.seller} — "
            f"sells {registry.symbol_of(trade.token_sell)}, buys "
            f"{registry.symbol_of(trade.token_buy)} @ {rate:.6g}"
        )

    print("\n[5] pattern matching:")
    report = detector.analyze(trace)
    for match in report.matches:
        print(f"  {match.pattern} on {registry.symbol_of(match.target_token)}")
        for key, value in match.details:
            print(f"    {key}: {value}")

    print("\n[6] profit analysis:")
    analyzer = ProfitAnalyzer(registry)
    loans = FlashLoanIdentifier().identify(trace)
    accounts = [outcome.attacker, *outcome.attack_contracts]
    breakdown = analyzer.breakdown(trace, loans, accounts)
    print(f"  borrowed: ${breakdown.borrowed_usd:,.0f}")
    print(f"  profit:   ${breakdown.profit_usd:,.0f}")
    print(f"  yield:    {breakdown.yield_rate:.2%}")


if __name__ == "__main__":
    main()
