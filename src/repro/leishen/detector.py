"""The LeiShen detection pipeline (paper Fig. 5).

``LeiShen.analyze(trace)`` runs the full three-step pipeline on one
transaction:

1. *transfer history extraction* — the substrate already records ordered
   account-level transfers (Sec. V-A);
2. *application-level asset transfer construction* — account tagging plus
   the three simplification rules (Sec. V-B), in one lifting pass;
3. *attack pattern identification* — trade action identification and
   KRP/SBS/MBS matching anchored on the flash-loan borrower (Sec. V-C).

Transactions that are not flash loan transactions yield ``None``; flash
loan transactions yield an :class:`~repro.leishen.report.AttackReport`
whose ``is_attack`` reflects whether any pattern matched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import TYPE_CHECKING

from ..chain.trace import TransactionTrace
from ..chain.types import Address, ZERO_ADDRESS
from .identify import FlashLoanIdentifier
from .labels import LabelDatabase
from .patterns import PatternMatcher
from .registry import PatternSettings
from .report import AttackReport
from .simplify import AppTransfer, SimplifierConfig, TransferSimplifier
from .tagging import AccountTagger
from .trades import TradeIdentifier

if TYPE_CHECKING:  # pragma: no cover
    from ..chain.chain import Chain

__all__ = ["LeiShen", "LeiShenConfig"]


@dataclass(slots=True)
class LeiShenConfig:
    """End-to-end detector configuration."""

    simplifier: SimplifierConfig = field(default_factory=SimplifierConfig)
    #: pattern selection + thresholds (the default is the paper's three
    #: patterns at their calibrated thresholds).
    patterns: PatternSettings = PatternSettings()
    #: ablation switch: skip tagging/simplification and run patterns on
    #: raw account-level transfers (DESIGN.md ablation 1); nothing is
    #: tagged, borrowers included.
    use_app_level_transfers: bool = True


class LeiShen:
    """The detector. One instance per chain; reusable across transactions."""

    def __init__(
        self,
        chain: "Chain",
        config: LeiShenConfig | None = None,
        labels: LabelDatabase | None = None,
    ) -> None:
        self.chain = chain
        self.config = config or LeiShenConfig()
        self.identifier = FlashLoanIdentifier()
        self.tagger = AccountTagger(chain, labels)
        self.simplifier = TransferSimplifier(self.config.simplifier)
        self.trade_identifier = TradeIdentifier()
        self.matcher = PatternMatcher(self.config.patterns)
        #: optional :class:`~repro.runtime.profile.StageProfiler`;
        #: ``None`` keeps the pipeline free of timing overhead.
        self.profiler = None

    # ------------------------------------------------------------------

    def analyze(self, trace: TransactionTrace) -> AttackReport | None:
        """Run the pipeline; ``None`` when ``trace`` is not a flash loan tx."""
        if not trace.success:
            return None
        prof = self.profiler
        now = perf_counter_ns if prof is not None else None
        if prof is None:
            flash_loans = self.identifier.identify(trace)
        else:
            started = now()
            flash_loans = self.identifier.identify(trace)
            prof.add("identify", now() - started)
        if not flash_loans:
            return None
        # Seven of the 22 studied flpAttacks borrow from more than one
        # provider, and the borrowing contracts need not coincide — anchor
        # pattern matching on every distinct borrower, not just the first.
        if len(flash_loans) == 1:
            borrowers = (flash_loans[0].borrower,)
        else:
            borrowers = tuple(dict.fromkeys(loan.borrower for loan in flash_loans))
        if prof is not None:
            started = now()
        if self.config.use_app_level_transfers:
            tags = self.tagger.tags()
            app_transfers = self.simplifier.simplify(trace.transfers, tags)
            borrower_tags = tuple(map(tags.__getitem__, borrowers))
        else:
            # Ablation: account-level "tags" are the raw addresses.
            app_transfers = [
                AppTransfer(
                    seq=t.seq,
                    sender=str(t.sender),
                    receiver=str(t.receiver) if t.receiver != ZERO_ADDRESS else "BlackHole",
                    amount=t.amount,
                    token=t.token,
                )
                for t in trace.transfers
            ]
            borrower_tags = tuple(map(str, borrowers))
        if prof is not None:
            prof.add("simplify", now() - started)
            started = now()
        trades = self.trade_identifier.identify(app_transfers)
        if prof is not None:
            prof.add("trades", now() - started)
            started = now()
        # once per distinct tag (borrowers can share a creation-root
        # tag); an untaggable borrower's None tag matches nothing
        if len(borrower_tags) == 1:
            tag = borrower_tags[0]
            matches = [] if tag is None else self.matcher.match(trades, tag)
        else:
            matches = []
            for tag in dict.fromkeys(borrower_tags):
                if tag is not None:
                    matches.extend(self.matcher.match(trades, tag))
        if prof is not None:
            prof.add("match", now() - started)
        # positional, in field order: half the cost of a keyword call
        return AttackReport(
            trace.tx_hash, flash_loans, borrowers[0], borrower_tags[0], trades,
            matches, borrowers, borrower_tags, None, trace,
        )

    def detect(self, trace: TransactionTrace) -> bool:
        """Convenience: is this transaction a detected flpAttack?"""
        report = self.analyze(trace)
        return report is not None and report.is_attack

    # -- evaluation hygiene ------------------------------------------------

    def remove_attacker_labels(self, addresses: list[Address]) -> None:
        """Strip labels added to attacker accounts after publication
        (paper Sec. VI-B removes attacker tags before detection)."""
        self.tagger.labels.remove_all(addresses)
        self.tagger.invalidate()
