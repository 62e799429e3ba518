"""Etherscan-style account label database.

The paper seeds account tagging with 52,500 labelled accounts of 119 DeFi
applications scraped from Etherscan's label cloud. Labels look like
``"Uniswap: Factory Contract"`` — the application name is the part before
the colon. This module normalizes raw labels to application names and
supports the paper's evaluation hygiene step of *removing attacker tags*
before detection (Sec. VI-B).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping

from ..chain.types import Address

if TYPE_CHECKING:  # pragma: no cover
    from ..chain.chain import Chain

__all__ = ["LabelDatabase", "app_name_of_label"]


def app_name_of_label(label: str) -> str:
    """Extract the application name from an Etherscan-style label.

    ``"Uniswap: Factory Contract"`` -> ``"Uniswap"``; a label without a
    role suffix is already an application name.
    """
    return label.split(":", 1)[0].strip()


class LabelDatabase:
    """Address -> application-name map with provenance-preserving edits."""

    def __init__(self, labels: Mapping[Address, str] | None = None) -> None:
        self._apps: dict[Address, str] = {}
        self._raw: dict[Address, str] = {}
        if labels:
            for address, label in labels.items():
                self.add(address, label)

    @classmethod
    def from_chain(cls, chain: "Chain") -> "LabelDatabase":
        """Build the database from the chain's deployment-time labels."""
        return cls(chain.labels)

    def add(self, address: Address, label: str) -> None:
        self._raw[address] = label
        self._apps[address] = app_name_of_label(label)

    def remove(self, address: Address) -> None:
        """Forget an account's label (used to strip attacker tags)."""
        self._raw.pop(address, None)
        self._apps.pop(address, None)

    def remove_all(self, addresses: Iterable[Address]) -> None:
        for address in addresses:
            self.remove(address)

    def app_of(self, address: Address) -> str | None:
        return self._apps.get(address)

    def raw_label_of(self, address: Address) -> str | None:
        return self._raw.get(address)

    def addresses_of_app(self, app: str) -> list[Address]:
        return [address for address, name in self._apps.items() if name == app]

    def app_names(self) -> set[str]:
        return set(self._apps.values())

    def __contains__(self, address: Address) -> bool:
        return address in self._apps

    def __len__(self) -> int:
        return len(self._apps)
