"""Transfers stated by their tags, for tests of the lifting pass.

``TransferSimplifier.simplify`` takes account-level transfer records and
a mapping from address to tag. A test that states its input as tagged
rows (a sender tag and a receiver tag per transfer) feeds them through
:func:`simplify_tagged`, which gives every distinct tag one made-up
address and passes the records with the map back to the tags.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chain import Address
from repro.chain.trace import TransferRecord
from repro.leishen import Tag, TransferSimplifier
from repro.leishen.simplify import AppTransfer


@dataclass(slots=True)
class TaggedTransfer:
    """An account-level transfer with the tags of its endpoints."""

    seq: int
    tag_sender: Tag
    tag_receiver: Tag
    amount: int
    token: Address
    sender: Address
    receiver: Address


def as_records(rows: list[TaggedTransfer]) -> tuple[list[TransferRecord], dict[Address, Tag]]:
    """``rows`` as transfer records whose endpoints are one address per
    distinct tag, and the map from those addresses to the tags."""
    addresses: dict[Tag, Address] = {}
    tags: dict[Address, Tag] = {}

    def address_of(tag: Tag) -> Address:
        if tag not in addresses:
            address = Address(f"0x{len(addresses) + 1:040x}")
            addresses[tag] = address
            tags[address] = tag
        return addresses[tag]

    records = [
        TransferRecord(
            row.seq, address_of(row.tag_sender), address_of(row.tag_receiver),
            row.amount, row.token,
        )
        for row in rows
    ]
    return records, tags


def simplify_tagged(simplifier: TransferSimplifier, rows: list[TaggedTransfer]) -> list[AppTransfer]:
    """Lift tagged ``rows`` with ``simplifier``'s one pass."""
    return simplifier.simplify(*as_records(rows))
