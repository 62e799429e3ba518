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
from typing import Iterable, Sequence

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

    # -- rule 1 -----------------------------------------------------------

    @staticmethod
    def _remove_intra_app(transfers: Iterable[AppTransfer]) -> list[AppTransfer]:
        return [
            t
            for t in transfers
            if t.sender is None or t.receiver is None or t.sender != t.receiver
        ]

    # -- rule 3 -----------------------------------------------------------

    def _merge_inter_app(self, transfers: list[AppTransfer]) -> list[AppTransfer]:
        """Collapse A->I->B chains; iterates to a fixpoint so longer relay
        chains (A->I1->I2->B) also merge."""
        tolerance = self.config.merge_tolerance
        changed = True
        while changed:
            changed = False
            merged: list[AppTransfer] = []
            i = 0
            while i < len(transfers):
                current = transfers[i]
                if i + 1 < len(transfers):
                    nxt = transfers[i + 1]
                    if self._mergeable(current, nxt, tolerance):
                        merged.append(
                            AppTransfer(
                                seq=current.seq,
                                sender=current.sender,
                                receiver=nxt.receiver,
                                amount=nxt.amount,
                                token=current.token,
                            )
                        )
                        i += 2
                        changed = True
                        continue
                merged.append(current)
                i += 1
            transfers = merged
            if self.config.remove_intra_app and changed:
                # A merge can surface a new intra-app transfer
                # (A -> I -> A); keep the stream clean between passes.
                transfers = self._remove_intra_app(transfers)
        return transfers

    @staticmethod
    def _mergeable(first: AppTransfer, second: AppTransfer, tolerance: float) -> bool:
        if first.token != second.token:
            return False
        if first.receiver is None or first.receiver != second.sender:
            return False
        if first.receiver in (first.sender, second.receiver):
            return False  # not an intermediary hop
        big = max(first.amount, second.amount)
        if big == 0:
            return False
        return abs(first.amount - second.amount) / big <= tolerance
