"""Fuzzed simplify/identify outputs pinned to the removed numpy lifting.

``simplify`` and ``identify`` once had a numpy "lifted" path beside the
per-row object path, and these seeded batches (huge int amounts,
boundary tolerances, BlackHole/WETH/None tags) proved the two equal.
The numpy path is gone; each case now checks the one remaining path
against a digest of the output the vector path gave on that batch, so
deleting it provably changed no result.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro.chain import Address, ETHER
from repro.leishen import (
    AppTransfer,
    BLACKHOLE_TAG,
    SimplifierConfig,
    TradeIdentifier,
    TransferSimplifier,
)
from tests.tagged import TaggedTransfer, simplify_tagged

#: the vector path's row threshold; batch sizes scale with it, so it
#: stays at 32 to regenerate exactly the batches the digests pin.
ROWS = 32

WETH_TOKEN = Address("0x" + "ee" * 20)
TOKENS = (ETHER, WETH_TOKEN, *(Address("0x" + f"{i:02x}" * 20) for i in (1, 2, 3)))
TAGS = (None, "A", "B", "Kyber", "Uniswap", "Wrapped Ether", BLACKHOLE_TAG)
ACCT = Address("0x" + "99" * 20)

# (input rows, output rows, digest) per seed, as the vector path produced them.
SIMPLIFY_PINS = [
    (49, 30, "cd0a5c26bc726d59"), (17, 13, "75e6b2f3bbb03e0f"),
    (7, 4, "c71adf0b396ada77"), (30, 19, "e745625d8c6d2161"),
    (30, 20, "394056d3a3993627"), (79, 53, "32bdefd4c2f39d17"),
    (73, 35, "d5bae96bc20e0f20"), (41, 30, "6861b97358d496cf"),
    (29, 13, "9baa40badf9ff0f8"), (59, 37, "33d037e60dec3130"),
    (73, 46, "0dc74f23a2ac103f"), (57, 34, "68d526091ae7b09e"),
    (60, 33, "305f455763522b44"), (33, 18, "6ed6ebd9ca32820a"),
    (13, 9, "1d36305ca042a3f8"), (26, 23, "bfffae72e95b9e78"),
    (46, 32, "67a5f40b2c2d8709"), (66, 45, "2dea681e0f481803"),
    (23, 10, "e5213d2fd9f57e1e"), (86, 62, "5d5d994753c34665"),
    (92, 58, "ea7ee8798335ee77"), (21, 11, "14684a8305f7ed10"),
    (17, 12, "6484279cf7fbbe3f"), (37, 23, "f911d5c9f2ae71c5"),
    (91, 49, "d6a96e1ba6e2ebb7"),
]
IDENTIFY_PINS = [
    (57, 0, "4f53cda18c2baa0c"), (75, 4, "ed1ed287001408c3"),
    (93, 1, "52ab5ac4ac679659"), (14, 1, "7c6f9077a7068edf"),
    (67, 4, "4921ffd635d1ce7b"), (57, 1, "c7cfc32e0165eabc"),
    (71, 1, "f639ffb2e036f5a8"), (25, 0, "4f53cda18c2baa0c"),
    (18, 4, "cca363dea17fb4a0"), (34, 3, "2f85b899963ad41c"),
    (17, 0, "4f53cda18c2baa0c"), (66, 1, "9ed59a27aba9b9e0"),
    (12, 0, "4f53cda18c2baa0c"), (54, 4, "ba0923d67b265059"),
    (40, 2, "dcc55022aa2bd5b7"), (93, 3, "2a1a3f0152b54468"),
    (94, 3, "ed7e9433d8500911"), (25, 0, "4f53cda18c2baa0c"),
    (68, 3, "aa6156934362eee8"), (19, 0, "4f53cda18c2baa0c"),
    (79, 3, "794c93dc8d416df0"), (51, 2, "f62b164cfa6846d6"),
    (68, 2, "35e89f0935f80252"), (49, 1, "dba59695d08ed894"),
    (60, 2, "b48da1d2535f5a65"),
]
PIPELINE_PINS = [
    (44, 1, "6fb44144d3a07ca9"), (22, 0, "4f53cda18c2baa0c"),
    (16, 0, "4f53cda18c2baa0c"), (39, 2, "5e57cbb89c9f0406"),
    (35, 1, "19429d9efb311563"), (50, 2, "b85e376d8e36da92"),
    (49, 1, "e07c845c4a665968"), (46, 3, "39b0354db17193a3"),
    (20, 1, "e987ae13015adf00"), (33, 2, "971d65fa2be52944"),
]


def random_tagged(rng: random.Random, n: int) -> list[TaggedTransfer]:
    rows = []
    for seq in range(n):
        # amounts span int64-overflowing token units and tiny dust, with
        # occasional near-duplicates of the previous amount to land in
        # (and just outside) the merge tolerance / fee-burn ratio.
        if rows and rng.random() < 0.3:
            base = rows[-1].amount
            amount = max(1, base + rng.choice((0, 1, -1, base // 1000, base // 4)))
        else:
            amount = rng.choice((1, 7, 10**3, 10**18, 3 * 10**26))
        rows.append(
            TaggedTransfer(
                seq=seq,
                tag_sender=rng.choice(TAGS),
                tag_receiver=rng.choice(TAGS),
                amount=amount,
                token=rng.choice(TOKENS),
                sender=ACCT,
                receiver=ACCT,
            )
        )
    return rows


def to_app(rows: list[TaggedTransfer]) -> list[AppTransfer]:
    return [
        AppTransfer(
            seq=row.seq, sender=row.tag_sender, receiver=row.tag_receiver,
            amount=row.amount, token=row.token,
        )
        for row in rows
    ]


def make_simplifier() -> TransferSimplifier:
    return TransferSimplifier(SimplifierConfig(weth_tokens=frozenset({WETH_TOKEN})))


def digest(out: list) -> str:
    """Stable hash of a list of :class:`AppTransfer` or trade records."""

    def row(x):
        if isinstance(x, AppTransfer):
            return [x.seq, x.sender, x.receiver, x.amount, str(x.token)]
        return [
            x.seq, x.kind.value, x.buyer, x.seller, x.amount_sell, str(x.token_sell),
            x.amount_buy, str(x.token_buy), [[str(t), a] for t, a in x.extra_legs],
        ]

    text = json.dumps([row(x) for x in out], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class TestSimplifyEquality:
    @pytest.mark.parametrize("seed", range(25))
    def test_vector_matches_object_path(self, seed):
        rng = random.Random(seed)
        rows = random_tagged(rng, rng.randrange(0, 3 * ROWS))
        out = simplify_tagged(make_simplifier(), rows)
        assert (len(rows), len(out), digest(out)) == SIMPLIFY_PINS[seed]


class TestIdentifyEquality:
    @pytest.mark.parametrize("seed", range(25))
    def test_vector_matches_object_path(self, seed):
        rng = random.Random(2000 + seed)
        transfers = to_app(random_tagged(rng, rng.randrange(0, 3 * ROWS)))
        out = TradeIdentifier().identify(transfers)
        assert (len(transfers), len(out), digest(out)) == IDENTIFY_PINS[seed]

    @pytest.mark.parametrize("seed", range(10))
    def test_full_pipeline_equality(self, seed):
        # simplify -> identify, end to end.
        rng = random.Random(3000 + seed)
        rows = random_tagged(rng, rng.randrange(4, 2 * ROWS))
        out = TradeIdentifier().identify(simplify_tagged(make_simplifier(), rows))
        assert (len(rows), len(out), digest(out)) == PIPELINE_PINS[seed]
