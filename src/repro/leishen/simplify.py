"""Asset transfer simplification (paper Sec. V-B-2).

Lifts account-level transfers to *application-level* transfers: each
endpoint is replaced by its tag (:mod:`repro.leishen.tagging`), and three
rules apply in the paper's order:

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

Tagging, rules 1-2 and the first left-to-right pass of rule 3 run in one
loop over the transfers; later merge passes run only when the first one
merged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from ..chain.trace import TransferRecord
from ..chain.types import Address, ETHER
from .tagging import Tag

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

    def simplify(
        self, transfers: Iterable[TransferRecord], tags: Mapping[Address, Tag]
    ) -> list[AppTransfer]:
        """Lift ``transfers`` to application-level transfers in one pass.

        ``tags`` maps each endpoint address to its tag
        (:meth:`~repro.leishen.tagging.AccountTagger.tags`). The loop
        applies rules 1 and 2 to each transfer and runs rule 3's first
        pass on the kept ones as they come: ``prev``, the last kept
        transfer, merges with the next one into a direct transfer, and a
        merged transfer waits for the next pass, as in
        :meth:`_merge_inter_app`. A merged ``A -> I -> A`` round trip is
        intra-app and is dropped at once when rule 1 is on.
        """
        cfg = self.config
        remove_intra = cfg.remove_intra_app
        remove_weth = cfg.remove_weth
        merge = cfg.merge_inter_app
        weth_tag = cfg.weth_tag
        weth_tokens = cfg.weth_tokens
        tolerance = cfg.merge_tolerance
        lifted: list[AppTransfer] = []
        append = lifted.append
        prev: AppTransfer | None = None
        merged = False
        for t in transfers:
            sender = tags[t.sender]
            receiver = tags[t.receiver]
            if remove_intra and sender is not None and sender == receiver:
                continue
            token = t.token
            if remove_weth:
                if sender == weth_tag or receiver == weth_tag:
                    continue
                if token in weth_tokens:
                    token = ETHER
            amount = t.amount
            if prev is not None:
                via = prev.receiver
                if (
                    via is not None
                    and via == sender
                    and prev.token == token
                    and via != prev.sender  # an intermediary hop only
                    and via != receiver
                ):
                    a = prev.amount
                    big = a if a > amount else amount
                    if big != 0 and abs(a - amount) / big <= tolerance:
                        merged = True
                        origin = prev.sender
                        if remove_intra and origin is not None and origin == receiver:
                            lifted.pop()
                        else:
                            lifted[-1] = AppTransfer(prev.seq, origin, receiver, amount, token)
                        prev = None
                        continue
            current = AppTransfer(t.seq, sender, receiver, amount, token)
            append(current)
            if merge:
                prev = current
        if merged:
            return self._merge_inter_app(lifted)
        return lifted

    # -- rule 3 -----------------------------------------------------------

    def _merge_inter_app(self, transfers: list[AppTransfer]) -> list[AppTransfer]:
        """Collapse A->I->B chains; iterates to a fixpoint so longer relay
        chains (A->I1->I2->B) also merge. :meth:`simplify` runs the first
        pass itself and calls this for the rest.

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
