"""Cross-transaction windowed pattern matching.

LeiShen (paper Sec. IV) is per-transaction by construction: the
:class:`~repro.leishen.patterns.PatternMatcher` only ever sees the
simplified trades of one flash-loan transaction, so an attacker who
splits MBS rounds — or a KRP buy series — across consecutive
transactions is invisible even though every action is on-chain. This
module closes that gap the way DeFiRanger and the Frontrunner-Jones
displacement detector do: accumulate trades over a sliding block window
and re-run the unchanged pattern matcher over the windowed sequence.

:class:`WindowedMatcher` is fed by the streaming engine's watermark
merger (:class:`~repro.engine.stream.StreamEngine` with
``windowed=True``), one emitted block at a time, with one
:class:`TradeObservation` per identified flash-loan transaction. It is
strictly additive observability:

- per-transaction detection state is never touched, so the
  per-transaction ``WildScanResult`` is byte-identical with windowing
  on or off;
- a windowed match whose pattern was already reported per-transaction
  by *every* contributing transaction is suppressed (the window adds
  nothing a per-transaction alert didn't already say);
- state is bounded: only the last ``window_blocks`` *emitted* blocks of
  observations are retained, and dedup keys are evicted with their
  blocks.

The window is counted in distinct emitted stream blocks rather than raw
height deltas: the synthetic study timeline spreads a small population
over 5.2M mainnet heights, so consecutive stream blocks are tens of
thousands of heights apart. For contiguous replayed history the two
notions coincide.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..chain.types import Address
from .patterns import PatternMatcher
from .registry import PatternSettings
from .tagging import Tag
from .trades import Trade

__all__ = [
    "TradeObservation",
    "WindowedDetection",
    "WindowedMatcher",
    "windowed_recall",
    "DEFAULT_WINDOW_BLOCKS",
]

#: default sliding-window span, in emitted stream blocks.
DEFAULT_WINDOW_BLOCKS = 8


@dataclass(frozen=True, slots=True)
class TradeObservation:
    """One identified flash-loan transaction's contribution to the window.

    Built by the streaming workers from the detector's
    :class:`~repro.leishen.report.AttackReport` — including reports that
    matched nothing per-transaction, which is exactly where the windowed
    matcher earns its keep.
    """

    tx_hash: str
    #: global schedule position (the merger's ordering key).
    position: int
    borrower_tags: tuple[Tag, ...]
    trades: tuple[Trade, ...]
    #: pattern names this transaction already matched on its own
    #: (``{"KRP", ...}``) — the same-transaction dedup input.
    matched_patterns: frozenset[str]
    #: split-attack group id from the ground truth, when known (windowed
    #: recall scoring); ``None`` for wild traffic.
    split_group: int | None = None


@dataclass(frozen=True, slots=True)
class WindowedDetection:
    """One pattern match assembled across transactions in the window."""

    pattern: str  # "KRP" | "SBS" | "MBS"
    target_token: Address
    borrower_tag: Tag
    #: contributing transactions in schedule order (every transaction
    #: that supplied at least one trade of the match).
    tx_hashes: tuple[str, ...]
    #: block span of the contributing transactions.
    first_block: int
    last_block: int
    #: the split-attack group when every labelled contributor agrees.
    split_group: int | None = None
    details: tuple[tuple[str, float | int | str], ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        """JSON-safe form for service payloads."""
        return {
            "pattern": self.pattern,
            "target_token": str(self.target_token),
            "borrower_tag": str(self.borrower_tag),
            "tx_hashes": list(self.tx_hashes),
            "first_block": self.first_block,
            "last_block": self.last_block,
            "split_group": self.split_group,
        }


@dataclass(slots=True)
class _WindowBlock:
    number: int
    observations: list[TradeObservation]


class WindowedMatcher:
    """Sliding-window cross-transaction matcher over emitted blocks.

    Single-threaded by design: the streaming engine calls
    :meth:`observe_block` from its merger thread only, in block order,
    which is what makes windowed emission deterministic for any worker
    count.
    """

    def __init__(
        self,
        window_blocks: int = DEFAULT_WINDOW_BLOCKS,
        pattern_config: PatternSettings = PatternSettings(),
    ) -> None:
        if window_blocks < 1:
            raise ValueError(f"window_blocks must be >= 1, got {window_blocks}")
        self.window_blocks = window_blocks
        self._matcher = PatternMatcher(pattern_config)
        self._blocks: deque[_WindowBlock] = deque()
        #: borrower tag -> ``(block number, observation)`` of every
        #: retained observation that carries the tag, in window order
        self._by_tag: dict[Tag, deque[tuple[int, TradeObservation]]] = {}
        #: dedup: match identity -> last contributing block number.
        self._seen: dict[tuple, int] = {}

    # -- bounded-state introspection ------------------------------------

    @property
    def block_count(self) -> int:
        """Blocks currently retained (``<= window_blocks`` always)."""
        return len(self._blocks)

    @property
    def observation_count(self) -> int:
        """Observations currently retained across the window."""
        return sum(len(block.observations) for block in self._blocks)

    # -- the one entry point --------------------------------------------

    def observe_block(
        self, number: int, observations: Iterable[TradeObservation]
    ) -> list[WindowedDetection]:
        """Slide the window to ``number`` and return the *new* windowed
        detections its observations complete.

        Every emitted block advances (and prunes) the window, even when
        it carried no flash-loan transaction — the window is a span of
        emitted blocks, not of observations.
        """
        fresh = list(observations)
        self._blocks.append(_WindowBlock(number, fresh))
        by_tag = self._by_tag
        for obs in fresh:
            for tag in dict.fromkeys(obs.borrower_tags):
                by_tag.setdefault(tag, deque()).append((number, obs))
        while len(self._blocks) > self.window_blocks:
            # the evicted block's entries lead each of its tags' queues
            for obs in self._blocks.popleft().observations:
                for tag in dict.fromkeys(obs.borrower_tags):
                    entries = by_tag[tag]
                    entries.popleft()
                    if not entries:
                        del by_tag[tag]
        oldest = self._blocks[0].number
        if self._seen:
            self._seen = {
                key: block
                for key, block in self._seen.items()
                if block >= oldest
            }
        if not fresh:
            return []
        # only tags with new trades can produce new matches
        affected = {tag for obs in fresh for tag in obs.borrower_tags}
        detections: list[WindowedDetection] = []
        for tag in sorted(affected, key=str):
            detections.extend(self._match_tag(tag))
        return detections

    # -- internals -------------------------------------------------------

    def _windowed_sequence(
        self, tag: Tag
    ) -> tuple[list[Trade], list[TradeObservation], list[int]]:
        """The tag's trades across the window, re-sequenced 0..n-1, plus
        per-trade provenance (observation and block number)."""
        trades: list[Trade] = []
        sources: list[TradeObservation] = []
        blocks: list[int] = []
        for number, obs in self._by_tag[tag]:
            for t in obs.trades:
                trades.append(Trade(
                    len(trades), t.kind, t.buyer, t.seller, t.amount_sell,
                    t.token_sell, t.amount_buy, t.token_buy, t.extra_legs,
                ))
                sources.append(obs)
                blocks.append(number)
        return trades, sources, blocks

    def _match_tag(self, tag: Tag) -> list[WindowedDetection]:
        trades, sources, blocks = self._windowed_sequence(tag)
        if not trades:
            return []
        detections: list[WindowedDetection] = []
        for match in self._matcher.match(trades, tag):
            pattern = str(match.pattern)
            contributing: list[TradeObservation] = []
            seen_tx: set[str] = set()
            span: list[int] = []
            for trade in match.trades:
                obs = sources[trade.seq]
                span.append(blocks[trade.seq])
                if obs.tx_hash not in seen_tx:
                    seen_tx.add(obs.tx_hash)
                    contributing.append(obs)
            contributing.sort(key=lambda obs: obs.position)
            # same-transaction dedup: when every contributor already
            # matched this pattern on its own, the per-transaction
            # alerts cover it and the windowed match is redundant.
            if all(pattern in obs.matched_patterns for obs in contributing):
                continue
            tx_hashes = tuple(obs.tx_hash for obs in contributing)
            key = (pattern, match.target_token, tag, tx_hashes)
            if key in self._seen:
                continue  # already emitted while its trades stay in-window
            self._seen[key] = max(span)
            groups = {
                obs.split_group
                for obs in contributing
                if obs.split_group is not None
            }
            detections.append(
                WindowedDetection(
                    pattern=pattern,
                    target_token=match.target_token,
                    borrower_tag=tag,
                    tx_hashes=tx_hashes,
                    first_block=min(span),
                    last_block=max(span),
                    split_group=groups.pop() if len(groups) == 1 else None,
                    details=match.details,
                )
            )
        return detections


def windowed_recall(
    detections: Sequence[WindowedDetection], truth_groups: Sequence[int]
) -> float:
    """Fraction of labelled split-attack groups a windowed run detected."""
    if not truth_groups:
        return 0.0
    hit = {d.split_group for d in detections if d.split_group is not None}
    return len(hit & set(truth_groups)) / len(set(truth_groups))
