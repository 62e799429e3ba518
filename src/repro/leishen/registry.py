"""Pluggable attack-pattern registry.

The paper's three behaviour patterns (KRP/SBS/MBS) were originally
private methods on :class:`~repro.leishen.patterns.PatternMatcher`.
They live here now as standalone plugin classes behind a small
:class:`Pattern` protocol, so new families (sandwich/frontrunning,
infinite-mint, donation-style share inflation) plug in beside them
without touching the matcher, the windowed merger, or the baselines.

Identity model
--------------

A pattern is identified everywhere by its registry ``key`` (a short
upper-case string: ``"KRP"``, ``"SBS"``, ``"MBS"``, ``"SANDWICH"``,
``"MINT"``, ``"DONATION"``). Detections, windowed observations, wire
payloads, and ground-truth labels all carry these keys; the
:class:`~repro.leishen.patterns.AttackPattern` enum is a thin
``StrEnum`` alias over the paper keys kept for ergonomic comparisons.

Configuration is one type, :class:`PatternSettings`: a frozen,
hashable value carrying the *enabled* key tuple (match order!) and
per-pattern parameter overrides. It is canonical when built, so every
spelling of one selection compares equal, and ``config_digest`` gives
one scan one digest.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING, Mapping, Protocol, Sequence, runtime_checkable

from ..chain.types import Address
from .tagging import Tag
from .trades import Trade, TradeKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (patterns imports us)
    from .patterns import PatternMatch

__all__ = [
    "ALL_PATTERN_KEYS",
    "PAPER_PATTERN_KEYS",
    "REGISTRY_VERSION",
    "Pattern",
    "PatternPlugin",
    "PatternRegistry",
    "PatternSettings",
    "default_registry",
]

#: Bumped whenever a plugin's matching semantics change. The wire stamps
#: it on every non-default pattern config and refuses any other value.
REGISTRY_VERSION = 1

#: The paper's three patterns, in the match order the pre-registry
#: matcher used (KRP, then SBS, then MBS) — the default enabled set.
PAPER_PATTERN_KEYS: tuple[str, ...] = ("KRP", "SBS", "MBS")

#: Every pattern the default registry ships.
ALL_PATTERN_KEYS: tuple[str, ...] = PAPER_PATTERN_KEYS + ("SANDWICH", "MINT", "DONATION")


@dataclass(frozen=True, slots=True)
class PatternSettings:
    """Pattern configuration: enabled keys + per-key parameter overrides.

    Frozen and built from nested tuples so it hashes and equality-
    compares structurally — it participates in ``config_digest`` (the
    run identity), so two runs with different enabled sets or
    thresholds are different runs. Canonical when built:

    - ``enabled`` holds registry keys only, each once, in the given
      order (the match order and the Table V row order);
    - ``params`` (a mapping, or this stored tuple form) names registry
      keys and each plugin's ``defaults``. Values are numbers: an
      int-valued default takes ints only, a float-valued one any finite
      number, stored as a float. Values equal to their default, groups
      of disabled keys and empty groups are dropped; the rest is sorted.

    Any other input raises ``ValueError`` naming the field.
    """

    #: Pattern keys to run, in match order.
    enabled: tuple[str, ...] = PAPER_PATTERN_KEYS
    #: ``((pattern_key, ((param, value), ...)), ...)`` sorted by key.
    params: tuple[tuple[str, tuple[tuple[str, float | int], ...]], ...] = ()

    def __post_init__(self) -> None:
        registry = default_registry()
        enabled = self.enabled
        if not isinstance(enabled, (tuple, list)):
            raise ValueError(
                f"pattern settings: enabled must be a list of pattern keys, "
                f"got {type(enabled).__name__}"
            )
        for key in enabled:
            _check_key("enabled", key, registry)
        if len(set(enabled)) != len(enabled):
            raise ValueError(f"pattern settings: enabled repeats a key: {list(enabled)}")
        groups = []
        for key, group in _items(self.params, "params"):
            _check_key("params", key, registry)
            defaults = registry.get(key).defaults
            values = []
            for name, value in _items(group, f"params.{key}"):
                value = _param(f"params.{key}", defaults, name, value)
                if value != defaults[name]:
                    values.append((name, value))
            if key in enabled and values:
                groups.append((key, tuple(sorted(values))))
        object.__setattr__(self, "enabled", tuple(enabled))
        object.__setattr__(self, "params", tuple(sorted(groups)))

    @classmethod
    def make(
        cls,
        enabled: Sequence[str] = PAPER_PATTERN_KEYS,
        params: Mapping[str, Mapping[str, float | int]] | None = None,
    ) -> "PatternSettings":
        """Build settings from friendly list/dict inputs."""
        return cls(enabled, params or ())

    def params_for(self, key: str) -> dict[str, float | int]:
        for pattern_key, values in self.params:
            if pattern_key == key:
                return dict(values)
        return {}


def _items(value, field: str) -> list[tuple[str, object]]:
    """The ``(name, value)`` pairs of a mapping, or of the stored tuple
    form when its names are distinct strings."""
    if isinstance(value, Mapping):
        return list(value.items())
    if isinstance(value, tuple) and all(
        isinstance(item, tuple) and len(item) == 2 and isinstance(item[0], str)
        for item in value
    ):
        if len({name for name, _ in value}) == len(value):
            return list(value)
    raise ValueError(
        f"pattern settings: {field} must be a mapping with one entry per name, "
        f"got {type(value).__name__}"
    )


def _check_key(field: str, key, registry: "PatternRegistry") -> None:
    if not isinstance(key, str) or key not in registry.keys():
        raise ValueError(
            f"pattern settings: {field} names unknown pattern key {key!r}; "
            f"registered: {list(registry.keys())}"
        )


def _param(field: str, defaults: Mapping, name, value) -> float | int:
    """One parameter value in canonical form (see :class:`PatternSettings`)."""
    if name not in defaults:
        raise ValueError(
            f"pattern settings: {field} has no parameter {name!r}; known: {sorted(defaults)}"
        )
    field = f"{field}.{name}"
    if isinstance(defaults[name], int):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"pattern settings: {field} takes an int, got {value!r}")
        return int(value)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"pattern settings: {field} takes a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"pattern settings: {field} must be finite, got {value!r}")
    # + 0.0 turns -0.0 into 0.0: equal settings must encode to equal bytes
    return value + 0.0


@runtime_checkable
class Pattern(Protocol):
    """One pluggable behaviour pattern.

    ``config`` resolves the plugin's parameters from a
    :class:`PatternSettings`; the matcher calls it once, when it is
    built. ``match`` receives the transaction's trades *already sorted
    by seq*, the flash-loan borrower tag and that resolved mapping, and
    returns zero or more :class:`~repro.leishen.patterns.PatternMatch`
    whose ``pattern`` field is this plugin's ``key``. One mapping serves
    every call, so ``match`` only reads it.
    """

    key: str
    defaults: Mapping[str, float | int]

    def config(self, settings: PatternSettings) -> Mapping[str, float | int]:
        ...

    def match(
        self,
        trades: Sequence[Trade],
        borrower: Tag,
        params: Mapping[str, float | int],
    ) -> "list[PatternMatch]":
        ...


class PatternPlugin:
    """Base class wiring parameter lookup for concrete plugins."""

    key: str = ""
    defaults: Mapping[str, float | int] = {}

    def config(self, settings: PatternSettings) -> dict[str, float | int]:
        """This plugin's ``defaults`` overlaid with the settings' overrides."""
        return {**self.defaults, **settings.params_for(self.key)}


def _match(pattern: str, token: Address, trades, details) -> "PatternMatch":
    from .patterns import PatternMatch

    return PatternMatch(
        pattern=pattern, target_token=token, trades=tuple(trades), details=tuple(details)
    )


def _group_by(trades: Sequence[Trade], key) -> dict:
    """``trades``, in seq order, grouped by ``key``: value -> (seqs, trades)."""
    groups: dict = {}
    for trade in trades:
        groups.setdefault(key(trade), []).append(trade)
    return {value: ([t.seq for t in group], group) for value, group in groups.items()}


def _fits(trades: Sequence[Trade], rate) -> bool:
    """Whether every trade's ``rate`` fits a float."""
    try:
        for trade in trades:
            rate(trade)
    except OverflowError:
        return False
    return True


def _rate_groups(buys: Sequence[Trade], key) -> "dict[object, _RateGroup]":
    """Buys grouped by ``key``, for SBS's and SANDWICH's middle trade t2:
    the first buy between t1 and t3 whose sell rate passes a test that
    only gets easier as the rate grows. Built inside one ``match`` call,
    once a (t1, t3) pair passes the amount test, and dropped with it."""
    return {
        value: _RateGroup(seqs, group) for value, (seqs, group) in _group_by(buys, key).items()
    }


def _all_fit(groups: "dict[object, _RateGroup]") -> bool:
    """Whether every grouped buy's sell rate fits a float."""
    return not any(group.overflows for group in groups.values())


class _RateGroup:
    """One key's buys in seq order, with their sell rates."""

    __slots__ = ("seqs", "trades", "rates", "overflows", "errors", "_suffix_max")

    def __init__(self, seqs: list[int], trades: list[Trade]) -> None:
        self.seqs = seqs
        self.trades = trades
        self.rates: list[float] = []
        #: positions whose sell rate overflows a float, with their errors
        self.overflows: list[int] = []
        self.errors: list[OverflowError] = []
        for position, trade in enumerate(trades):
            try:
                rate = trade.sell_rate
            except OverflowError as exc:
                rate = -math.inf
                self.overflows.append(position)
                self.errors.append(exc)
            self.rates.append(rate)
        self._suffix_max: list[float] | None = None

    def suffix_max(self, position: int) -> float:
        """The maximum rate from ``position`` on (``-inf`` past the end)."""
        if self._suffix_max is None:
            suffix = self._suffix_max = [*self.rates, -math.inf]
            for i in range(len(self.rates) - 1, -1, -1):
                if suffix[i + 1] > suffix[i]:
                    suffix[i] = suffix[i + 1]
        return self._suffix_max[position]


class _Window:
    """One t1's t2 candidates: the group's buys with seq > ``after``,
    at positions ``lo`` on.

    t3 only moves right, so the candidates before it only grow, and the
    window keeps the maximum rate of those it has seen. When that
    maximum fails the test every candidate does, because the test only
    gets easier as the rate grows; so the window looks for the first
    passing candidate only once it knows there is one.
    """

    __slots__ = ("group", "lo", "seen", "best", "overflow")

    def __init__(self, group: _RateGroup | None, after: int) -> None:
        if group is None:
            group = _RateGroup([], [])  # no buy under t1's key
        self.group = group
        self.lo = self.seen = bisect_right(group.seqs, after)
        #: index into ``group.overflows`` of the first one from ``lo`` on
        self.overflow = bisect_left(group.overflows, self.lo)
        self.best = -math.inf

    def may_pass(self, passes) -> bool:
        """Whether any candidate's rate passes: their maximum's does."""
        return passes(self.group.suffix_max(self.lo))

    def end(self, before: int) -> int | None:
        """The end of the candidates with seq < ``before``; ``None`` when
        there are none."""
        hi = bisect_left(self.group.seqs, before, self.lo)
        return hi if hi > self.lo else None

    def first(self, hi: int, passes) -> tuple[Trade, float] | None:
        """``(trade, rate)`` of the first candidate before ``hi`` whose rate
        passes, or ``None``; ``passes=None`` means no rate passes. ``hi``
        must not fall from one call to the next.

        A scan of the candidates computes each one's rate until one
        passes, so a rate that overflows before the match raises; so it
        does here.
        """
        group = self.group
        overflows = group.overflows
        stop = hi
        if self.overflow < len(overflows) and overflows[self.overflow] < hi:
            stop = overflows[self.overflow]
        rates = group.rates
        best = self.best
        for position in range(self.seen, stop):
            if rates[position] > best:
                best = rates[position]
        self.best = best
        self.seen = stop
        if passes is not None and passes(best):
            for position in range(self.lo, stop):
                if passes(rates[position]):
                    return group.trades[position], rates[position]
        if stop < hi:
            raise group.errors[self.overflow]
        return None


# -- KRP — Keep Raising Price -------------------------------------------------


class _Series:
    """One seller's buys of a token so far, for KRP: the running state of
    the "rising" test, updated one buy at a time."""

    __slots__ = ("order", "buys", "first", "last", "rising", "overflows", "queued")

    def __init__(self, order: int) -> None:
        #: first-seen position of the seller among the token's buys.
        self.order = order
        self.buys: list[Trade] = []
        self.first = self.last = 0.0
        #: no dip so far: every rate at least the one before it.
        self.rising = True
        #: some buy's sell rate does not fit a float.
        self.overflows = False
        #: on the candidate heap.
        self.queued = False

    def add(self, buy: Trade) -> None:
        self.buys.append(buy)
        if self.overflows:
            return
        try:
            rate = buy.sell_rate
        except OverflowError:
            self.overflows = True
            return
        if len(self.buys) == 1:
            self.first = rate
        elif rate < self.last:
            self.rising = False
        self.last = rate

    def decides(self, min_buys: int) -> bool:
        """Whether a sell now ends the search on this series: it rises
        overall with no dip, or computing its rates raises."""
        return len(self.buys) >= min_buys and (
            self.overflows or (self.rising and self.first < self.last)
        )


class KeepRaisingPrice(PatternPlugin):
    """>= ``min_buys`` buys from one seller at rising prices, then a sell."""

    key = "KRP"
    defaults = {"min_buys": 5}

    def match(self, trades, borrower, params):
        """For each token the borrower buys (first-seen order), the first
        sell after which one seller's buys, before it in seq, number
        ``min_buys`` and rise. Condition (b) is a rise across the whole
        series, not merely endpoint to endpoint: a mid-series dip means
        the price was not being kept raised, and an endpoint test alone
        admits ordinary oscillating sequences. Plateaus are tolerated
        (oracle-rate buys repeat a price), but the series must strictly
        rise overall.

        ``trades`` come sorted by seq (as :class:`PatternMatcher` hands
        them), so one walk per token keeps every seller's series, and a
        heap of the series that would decide a sell, by the seller's
        first-seen position, names the series a sell matches with.
        """
        min_buys = params["min_buys"]
        own = [t for t in trades if t.buyer == borrower]
        # a dict, not a set: tokens in first-seen trade order. A set's
        # order follows PYTHONHASHSEED, and the order of matches with it.
        per_token: dict[Address, list[Trade]] = {t.token_buy: [] for t in own}
        for t in own:
            per_token[t.token_buy].append(t)
            if t.token_sell != t.token_buy and t.token_sell in per_token:
                per_token[t.token_sell].append(t)
        matches: "list[PatternMatch]" = []
        for token, token_trades in per_token.items():
            match = self._first_match(token, token_trades, min_buys)
            if match is not None:
                matches.append(match)
        return matches

    def _first_match(self, token, token_trades, min_buys) -> "PatternMatch | None":
        series: dict[Tag, _Series] = {}
        heap: list[tuple[int, _Series]] = []
        # buys tied in seq with a sell are not before it: a run of equal
        # seqs joins the series only once the next seq begins
        run: list[Trade] = []
        run_seq = None
        for trade in token_trades:
            if trade.seq != run_seq:
                for buy in run:
                    seller = buy.seller
                    current = series.get(seller)
                    if current is None:
                        current = series[seller] = _Series(len(series))
                    current.add(buy)
                    if not current.queued and current.decides(min_buys):
                        current.queued = True
                        heapq.heappush(heap, (current.order, current))
                run = []
                run_seq = trade.seq
            if trade.token_sell == token:
                # a series leaves the heap for good once a dip stops it
                # deciding, unless an overflowing buy puts it back
                while heap and not heap[0][1].decides(min_buys):
                    heapq.heappop(heap)[1].queued = False
                if heap:
                    found = heap[0][1]
                    if found.overflows:
                        [buy.sell_rate for buy in found.buys]  # raises, as the loop did
                    first, last = found.buys[0], found.buys[-1]
                    return _match(
                        self.key,
                        token,
                        (*found.buys, trade),
                        (
                            ("n_buys", len(found.buys)),
                            ("first_rate", first.sell_rate),
                            ("last_rate", last.sell_rate),
                            ("seller", str(first.seller)),
                        ),
                    )
            if trade.token_buy == token:
                run.append(trade)
        return None


# -- SBS — Symmetrical Buying and Selling -------------------------------------


class SymmetricBuySell(PatternPlugin):
    """Buy, let any app raise the price >= ``min_volatility``, sell the same amount."""

    key = "SBS"
    defaults = {"min_volatility": 0.28, "amount_tolerance": 0.001}

    def match(self, trades, borrower, params):
        matches: "list[PatternMatch]" = []
        for token in {t.token_buy: None for t in trades if t.buyer == borrower}:
            own_sells = [t for t in trades if t.buyer == borrower and t.token_sell == token]
            if not own_sells:
                continue  # no round trip
            own_buys = [t for t in trades if t.buyer == borrower and t.token_buy == token]
            any_buys = [t for t in trades if t.token_buy == token]
            found = self._find_triple(
                token, own_buys, own_sells, any_buys,
                tol=params["amount_tolerance"], min_volatility=params["min_volatility"],
            )
            if found is not None:
                matches.append(found)
        return matches

    def _find_triple(self, token, own_buys, own_sells, any_buys, *, tol, min_volatility):
        """The first (t1, t3, t2) in loop order: own buy t1, then own sell
        t3 of the same amount in the same quote, then the first buy t2
        between them in that quote that passes ``p1 < p3 < p2`` and the
        volatility bound. Both t2 tests only get easier as ``p2`` grows,
        so t2 is found through the maximum rate between t1 and t3, and a
        t1 with no buy after it that passes the volatility bound is
        skipped when no rate can overflow."""
        sells = _group_by(own_sells, attrgetter("token_buy"))
        groups = exact = None
        for t1 in own_buys:
            same_quote = sells.get(t1.token_sell)
            if same_quote is None:
                continue  # different quote currency; rates not comparable
            seqs, quote_sells = same_quote
            bought = t1.amount_buy
            p1 = window = None  # made at the first pair that needs them
            for t3 in quote_sells[bisect_right(seqs, t1.seq):]:
                sold = t3.amount_sell
                big = bought if bought >= sold else sold
                if big == 0 or abs(bought - sold) / big > tol:
                    continue
                if window is None:
                    if groups is None:
                        groups = _rate_groups(any_buys, attrgetter("token_sell"))
                        exact = _all_fit(groups) and _fits(own_sells, attrgetter("buy_rate"))
                    window = _Window(groups.get(t1.token_sell), t1.seq)
                    if exact:
                        # with every rate a float nothing raises, so t1 is
                        # done once no buy after it passes the volatility bound
                        p1 = t1.sell_rate
                        if not (p1 > 0 and window.may_pass(
                            lambda p2: not (p2 - p1) / p1 < min_volatility
                        )):
                            break
                hi = window.end(t3.seq)
                if hi is None:
                    continue  # no t2 candidate, so no rate is computed
                if p1 is None:
                    p1 = t1.sell_rate
                p3 = t3.amount_buy / t3.amount_sell if t3.amount_sell else float("inf")
                passes = None  # no p2 passes, though each is still computed
                if p1 < p3 and p1 > 0:

                    def passes(p2):
                        return p3 < p2 and not (p2 - p1) / p1 < min_volatility

                found = window.first(hi, passes)
                if found is None:
                    continue
                t2, p2 = found
                return _match(
                    self.key,
                    token,
                    (t1, t2, t3),
                    (
                        ("buy_rate", p1),
                        ("raise_rate", p2),
                        ("sell_rate", p3),
                        ("volatility", (p2 - p1) / p1),
                    ),
                )
        return None


# -- MBS — Multi-Round Buying and Selling -------------------------------------


class MultiRoundBuySell(PatternPlugin):
    """>= ``min_rounds`` profitable buy-then-sell rounds against one seller."""

    key = "MBS"
    defaults = {"min_rounds": 3}

    def match(self, trades, borrower, params):
        matches: "list[PatternMatch]" = []
        pairs = {
            (t.token_buy, t.seller): None
            for t in trades
            if t.buyer == borrower and t.seller is not None
        }
        for token, seller in pairs:
            relevant = [
                t
                for t in trades
                if t.buyer == borrower
                and t.seller == seller
                and (t.token_buy == token or t.token_sell == token)
            ]
            rounds = self._count_profitable_rounds(relevant, token)
            if len(rounds) >= params["min_rounds"]:
                flat = tuple(trade for pair in rounds for trade in pair)
                matches.append(
                    _match(
                        self.key,
                        token,
                        flat,
                        (
                            ("n_rounds", len(rounds)),
                            ("seller", str(seller)),
                        ),
                    )
                )
        return matches

    @staticmethod
    def _count_profitable_rounds(
        trades: list[Trade], token: Address
    ) -> list[tuple[Trade, Trade]]:
        """Pair alternating buy/sell trades into profitable rounds."""
        rounds: list[tuple[Trade, Trade]] = []
        pending_buy: Trade | None = None
        for trade in trades:
            if trade.token_buy == token:
                pending_buy = trade
            elif trade.token_sell == token and pending_buy is not None:
                buy, sell = pending_buy, trade
                same_quote = buy.token_sell == sell.token_buy
                profitable = buy.sell_rate < sell.buy_rate
                if same_quote and profitable:
                    rounds.append((buy, sell))
                pending_buy = None
        return rounds


# -- SANDWICH — frontrun / backrun around a victim buy ------------------------


class SandwichFrontrun(PatternPlugin):
    """Borrower buys, a *different* account buys at or above the borrower's
    price on the same venue, and the borrower exits symmetrically at a
    profit — the classic frontrun/backrun sandwich.

    Distinguished from SBS by the victim trade: SBS requires the
    middle trade to raise the price *above* the borrower's exit
    (``p1 < p3 < p2``); a sandwich exits *after* the victim pushed the
    price, so the exit rate exceeds the victim's (``p3 >= p2``), and the
    middle trade must come from a non-borrower account.
    """

    key = "SANDWICH"
    defaults = {"amount_tolerance": 0.01}

    def match(self, trades, borrower, params):
        tol = params["amount_tolerance"]
        matches: "list[PatternMatch]" = []
        for token in {t.token_buy: None for t in trades if t.buyer == borrower}:
            own_sells = [t for t in trades if t.buyer == borrower and t.token_sell == token]
            if not own_sells:
                continue  # no round trip
            own_buys = [t for t in trades if t.buyer == borrower and t.token_buy == token]
            victim_buys = [
                t for t in trades if t.token_buy == token and t.buyer != borrower
            ]
            found = self._find_sandwich(token, own_buys, own_sells, victim_buys, tol)
            if found is not None:
                matches.append(found)
        return matches

    def _find_sandwich(self, token, own_buys, own_sells, victim_buys, tol):
        """The first (t1, t3, t2) in loop order; t2 is the first victim
        buy between them on the frontrun's venue and quote that paid at
        least the frontrun's rate, found through the maximum victim rate
        between t1 and t3. A t1 that no later victim paid as much as is
        skipped when no rate can overflow."""
        sells = _group_by(own_sells, attrgetter("seller", "token_buy"))
        groups = exact = None
        for t1 in own_buys:
            same_venue = sells.get((t1.seller, t1.token_sell))
            if same_venue is None:
                # frontrun and backrun hit the same venue, in one quote
                continue
            seqs, venue_sells = same_venue
            bought = t1.amount_buy
            front_rate = window = None  # made at the first pair that needs them
            for t3 in venue_sells[bisect_right(seqs, t1.seq):]:
                sold = t3.amount_sell
                big = bought if bought >= sold else sold
                if big == 0 or abs(bought - sold) / big > tol:
                    continue
                if window is None:
                    if groups is None:
                        groups = _rate_groups(victim_buys, attrgetter("seller", "token_sell"))
                        exact = _all_fit(groups) and _fits(own_sells, attrgetter("buy_rate"))
                    window = _Window(groups.get((t1.seller, t1.token_sell)), t1.seq)
                    if exact:
                        # with every victim and exit rate a float, the loop
                        # could raise only at t1's rate, which it computes
                        # at this pair too; so t1 is done once no victim
                        # after it paid that rate
                        front_rate = t1.sell_rate
                        if not window.may_pass(lambda rate: not rate < front_rate):
                            break
                exit_rate = t3.buy_rate
                if front_rate is None:
                    front_rate = t1.sell_rate
                if exit_rate <= front_rate:
                    continue  # exit not profitable; no sandwich payoff
                hi = window.end(t3.seq)
                if hi is None:
                    continue
                # a victim that paid less than the frontrun is no squeeze
                found = window.first(hi, lambda rate: not rate < front_rate)
                if found is None:
                    continue
                t2, victim_rate = found
                return _match(
                    self.key,
                    token,
                    (t1, t2, t3),
                    (
                        ("front_rate", front_rate),
                        ("victim_rate", victim_rate),
                        ("exit_rate", exit_rate),
                    ),
                )
        return None


# -- MINT — infinite mint / unbacked supply dump ------------------------------


class InfiniteMint(PatternPlugin):
    """Borrower dumps a token it never (meaningfully) acquired in-trade.

    An unprotected-mint exploit conjures supply out of thin air, so the
    attacker's trade flow shows >= ``min_dumps`` sells of the token
    with bought-back volume at most ``max_buyback`` of the sold volume.
    Profitable flows on real attacks (KRP/SBS quote legs) buy back at
    least what they sold, so they stay well clear of the ratio.
    """

    key = "MINT"
    defaults = {"min_dumps": 2, "max_buyback": 0.5}

    def match(self, trades, borrower, params):
        min_dumps = params["min_dumps"]
        max_buyback = params["max_buyback"]
        matches: "list[PatternMatch]" = []
        for token in {t.token_sell: None for t in trades if t.buyer == borrower}:
            sells = [t for t in trades if t.buyer == borrower and t.token_sell == token]
            if len(sells) < min_dumps:
                continue
            buys = [t for t in trades if t.buyer == borrower and t.token_buy == token]
            total_sold = sum(t.amount_sell for t in sells)
            total_bought = sum(t.amount_buy for t in buys)
            if total_sold <= 0 or total_bought > total_sold * max_buyback:
                continue
            matches.append(
                _match(
                    self.key,
                    token,
                    tuple(sells),
                    (
                        ("n_dumps", len(sells)),
                        ("buyback_ratio", total_bought / total_sold),
                    ),
                )
            )
        return matches


# -- DONATION — single-round share-price inflation ----------------------------


class _Removals:
    """DONATION's removals of one (share token, underlying, venue): in
    seq order, and their positions sorted by share amount.

    DONATION's round-trip test ``|a - b| / max(a, b) <= tol`` falls as
    the removed share amount ``b`` nears the minted ``a`` and grows past
    it, and the division is correctly rounded, so for a positive ``a``
    the removals that pass are one run of the sorted amounts, found by
    bisection. Token amounts are never negative.
    """

    __slots__ = ("seqs", "trades", "order", "amounts")

    def __init__(self, trades: list[Trade]) -> None:
        self.trades = trades
        self.seqs = [t.seq for t in trades]
        self.order = sorted(range(len(trades)), key=lambda i: trades[i].amount_sell)
        self.amounts = [trades[i].amount_sell for i in self.order]

    def round_trips(self, deposit: Trade, tol: float) -> list[Trade]:
        """The removals after ``deposit`` (in seq) whose share amount
        passes the round-trip test against the shares it minted, in seq
        order."""
        a = deposit.amount_buy

        def fails(b: int) -> bool:
            big = a if a > b else b
            return big == 0 or abs(a - b) / big > tol

        after = bisect_right(self.seqs, deposit.seq)
        if a <= 0:
            return [t for t in self.trades[after:] if not fails(t.amount_sell)]
        amounts = self.amounts
        mid = bisect_left(amounts, a)
        lo = bisect_left(amounts, True, 0, mid, key=lambda b: not fails(b))
        hi = bisect_left(amounts, True, mid, len(amounts), key=fails)
        return [self.trades[i] for i in sorted(self.order[lo:hi]) if i >= after]


#: a removal's (share token, underlying, venue), which a deposit's
#: (token_buy, token_sell, seller) must equal.
_ROUND_KEY = attrgetter("token_sell", "token_buy", "seller")


class DonationInflation(PatternPlugin):
    """One mint/remove round of a share token at an outsized gain.

    The single-round analogue of MBS: manipulate a vault's pricing
    source, deposit while shares are cheap, withdraw the *same* share
    amount for >= ``min_gain`` more underlying than deposited. MBS
    needs three such rounds; donation-style attacks take the whole
    profit in one, which the round-count threshold never sees. Honest
    LP cycles and yield strategies round-trip at near-zero gain.
    """

    key = "DONATION"
    defaults = {"amount_tolerance": 0.001, "min_gain": 0.25}

    def match(self, trades, borrower, params):
        tol = params["amount_tolerance"]
        min_gain = params["min_gain"]
        matches: "list[PatternMatch]" = []
        deposits = [
            t
            for t in trades
            if t.buyer == borrower and t.kind is TradeKind.MINT_LIQUIDITY
        ]
        removals: dict[tuple, list[Trade]] = {}
        for t in trades:
            if t.buyer == borrower and t.kind is TradeKind.REMOVE_LIQUIDITY:
                removals.setdefault(_ROUND_KEY(t), []).append(t)
        by_key = {key: _Removals(group) for key, group in removals.items()}
        seen: set[Address] = set()
        for t1 in deposits:
            if t1.token_buy in seen or t1.amount_sell <= 0:
                continue
            group = by_key.get((t1.token_buy, t1.token_sell, t1.seller))
            if group is None:
                continue
            # the same share and underlying, on the same venue, with
            # share amounts that round-trip
            for t2 in group.round_trips(t1, tol):
                gain = (t2.amount_buy - t1.amount_sell) / t1.amount_sell
                if gain < min_gain:
                    continue
                seen.add(t1.token_buy)
                matches.append(
                    _match(
                        self.key,
                        t1.token_buy,
                        (t1, t2),
                        (
                            ("gain", gain),
                            ("deposit", float(t1.amount_sell)),
                        ),
                    )
                )
                break
        return matches


# -- registry -----------------------------------------------------------------


class PatternRegistry:
    """Ordered, keyed collection of pattern plugins."""

    def __init__(self, patterns: Sequence[Pattern]):
        self._patterns: dict[str, Pattern] = {}
        for pattern in patterns:
            if pattern.key in self._patterns:
                raise ValueError(f"duplicate pattern key {pattern.key!r}")
            self._patterns[pattern.key] = pattern

    def keys(self) -> tuple[str, ...]:
        return tuple(self._patterns)

    def get(self, key: str) -> Pattern:
        try:
            return self._patterns[key]
        except KeyError:
            raise KeyError(
                f"unknown pattern key {key!r}; registered: {sorted(self._patterns)}"
            ) from None

    def select(self, enabled: Sequence[str]) -> tuple[Pattern, ...]:
        """Plugins for the enabled keys, *in enabled order* (= match order)."""
        return tuple(self.get(key) for key in enabled)


_DEFAULT_REGISTRY = PatternRegistry(
    [
        KeepRaisingPrice(),
        SymmetricBuySell(),
        MultiRoundBuySell(),
        SandwichFrontrun(),
        InfiniteMint(),
        DonationInflation(),
    ]
)


def default_registry() -> PatternRegistry:
    return _DEFAULT_REGISTRY
