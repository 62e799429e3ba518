"""Asset transfer simplification (paper Sec. V-B-2).

Converts tagged account-level transfers into *application-level* transfers
with three rules, applied in the paper's order:

1. **Remove intra-app transfers** — ``tag_sender == tag_receiver`` shows
   asset flow inside one application and carries no trade information.
2. **Remove WETH related transfers** — WETH and ETH are unified into one
   asset, after which transfers into/out of the Wrapped Ether contract
   are 1:1 no-ops and can be dropped.
3. **Merge inter-app transfers** — two consecutive transfers of (nearly)
   the same amount of the same token through an intermediary tag are
   collapsed into one direct transfer, revealing the real counterparties
   behind aggregator hops. The amount tolerance (default 0.1%) absorbs
   the intermediary's service fee.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..chain.types import Address, ETHER
from .tagging import Tag, TaggedTransfer

__all__ = ["AppTransfer", "SimplifierConfig", "TransferSimplifier"]


@dataclass(slots=True)
class AppTransfer:
    """An application-level transfer ``appT = (sender, receiver, amount, token)``.

    A value, never mutated after construction; not frozen (see
    :class:`~repro.chain.trace.TransferRecord`).
    """

    seq: int
    sender: Tag
    receiver: Tag
    amount: int
    token: Address


@dataclass(frozen=True, slots=True)
class SimplifierConfig:
    """Tuning knobs for the simplification rules."""

    #: application tag of the Wrapped Ether contract.
    weth_tag: str = "Wrapped Ether"
    #: token addresses to unify with native ETH (the WETH token).
    weth_tokens: frozenset[Address] = frozenset()
    #: max relative amount difference for the inter-app merge rule.
    merge_tolerance: float = 0.001
    #: individually togglable rules (ablation benches flip these).
    remove_intra_app: bool = True
    remove_weth: bool = True
    merge_inter_app: bool = True


class TransferSimplifier:
    """Applies the three rules and yields application-level transfers."""

    def __init__(self, config: SimplifierConfig | None = None) -> None:
        self.config = config or SimplifierConfig()

    def simplify(self, tagged: Sequence[TaggedTransfer]) -> list[AppTransfer]:
        # Rules 1 and 2 are per-item filters applied in order, so they are
        # fused into the lifting pass: one output list instead of three
        # intermediate ones (this path runs once per scanned transaction).
        cfg = self.config
        remove_intra = cfg.remove_intra_app
        remove_weth = cfg.remove_weth
        weth_tag = cfg.weth_tag
        weth_tokens = cfg.weth_tokens
        transfers: list[AppTransfer] = []
        append = transfers.append
        for t in tagged:
            sender = t.tag_sender
            receiver = t.tag_receiver
            if remove_intra and sender is not None and sender == receiver:
                continue
            if remove_weth:
                if sender == weth_tag or receiver == weth_tag:
                    continue
                token = ETHER if t.token in weth_tokens else t.token
            else:
                token = t.token
            append(AppTransfer(t.seq, sender, receiver, t.amount, token))
        if cfg.merge_inter_app:
            transfers = self._merge_inter_app(transfers)
        return transfers

    # -- rule 3 -----------------------------------------------------------

    def _merge_inter_app(self, transfers: list[AppTransfer]) -> list[AppTransfer]:
        """Collapse A->I->B chains; iterates to a fixpoint so longer relay
        chains (A->I1->I2->B) also merge.

        Each pass pairs neighbours left to right, and a merged pair is not
        re-examined until the next pass, so the pass order decides which
        hops merge: a one-sweep stack would collapse chains a pass keeps.
        A pass that merges nothing returns its input unchanged.
        """
        tolerance = self.config.merge_tolerance
        remove_intra = self.config.remove_intra_app
        while True:
            merged: list[AppTransfer] | None = None
            copied = 0  # transfers[:copied] are already in ``merged``
            last = len(transfers) - 1
            i = 0
            while i < last:
                first = transfers[i]
                second = transfers[i + 1]
                via = first.receiver
                if (
                    via is not None
                    and via == second.sender
                    and first.token == second.token
                    and via != first.sender  # an intermediary hop only
                    and via != second.receiver
                ):
                    a = first.amount
                    b = second.amount
                    big = a if a > b else b
                    if big != 0 and abs(a - b) / big <= tolerance:
                        if merged is None:
                            merged = transfers[:i]
                        else:
                            merged += transfers[copied:i]
                        merged.append(
                            AppTransfer(first.seq, first.sender, second.receiver, b, first.token)
                        )
                        i += 2
                        copied = i
                        continue
                i += 1
            if merged is None:
                return transfers
            merged += transfers[copied:]
            transfers = merged
            if remove_intra:
                # A merge can surface a new intra-app transfer
                # (A -> I -> A); keep the stream clean between passes.
                transfers = [
                    t
                    for t in transfers
                    if t.sender is None or t.receiver is None or t.sender != t.receiver
                ]
