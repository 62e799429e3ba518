"""FlashSyn-style mutation engine for scripted attacks.

Small perturbations of known attacks silently defeat fixed-threshold
detectors: scale the amounts, drop a round below the pattern's count
threshold, weaken the price push below the volatility bound, exit
asymmetrically outside the symmetry tolerance, swap the flash-loan
provider, interleave a benign counter-trade. This module defines those
perturbations as pure data (:class:`Mutation`) that the attack bodies
in :mod:`repro.workload.attacks` interpret; the robustness harness
(:mod:`repro.experiments.robustness`) sweeps the matrix and scores
per-family precision/recall.

Everything here is deterministic: a mutation is a frozen value, the
sweep order is the declaration order of :data:`MUTATIONS`, and any
randomness (e.g. which benign trade interleaves) derives from the run
seed inside the harness, never from global state.

``expect_evades`` documents the families each mutation class
demonstrably pushes below the matching pattern's thresholds, and
``tests/experiments/test_robustness.py`` asserts it. Cells not listed
are measured and reported but not pinned (they sit near threshold
boundaries by design).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Mutation", "BASELINE", "MUTATIONS", "mutation_by_key"]


@dataclass(frozen=True, slots=True)
class Mutation:
    """One deterministic perturbation of a scripted attack body.

    The fields are interpreted by each attack shape:

    - ``amount_scale`` multiplies the principal trade amounts;
    - ``round_delta`` adds/removes repetitions (buy legs for KRP,
      vault rounds for MBS, dump tranches for MINT) — negative values
      also drop the one-shot "raise" action of SBS / SANDWICH /
      DONATION (the pump, the victim call, the donation swap);
    - ``pump_scale`` multiplies only the price-raising action (SBS
      pump, sandwich victim buy, donation manipulation swap);
    - ``exit_fraction`` sells/withdraws only this fraction of the
      acquired position (breaking amount symmetry);
    - ``provider`` overrides the flash-loan provider draw;
    - ``interleave`` inserts a benign-looking counter-trade mid-attack.
    """

    key: str
    description: str
    amount_scale: float = 1.0
    round_delta: int = 0
    pump_scale: float = 1.0
    exit_fraction: float = 1.0
    provider: str | None = None
    interleave: bool = False
    #: families whose primary pattern this mutation provably evades
    #: (asserted at recall == 0 by ``tests/experiments/test_robustness.py``).
    expect_evades: tuple[str, ...] = ()


BASELINE = Mutation("baseline", "unmutated scripted attack")

#: The sweep matrix, in report order.
MUTATIONS: tuple[Mutation, ...] = (
    BASELINE,
    Mutation(
        "scale_amounts",
        "triple every principal amount (control: thresholds are "
        "count/ratio based, so detection must survive)",
        amount_scale=3.0,
    ),
    Mutation(
        "add_round",
        "one extra repetition (control: thresholds are minima)",
        round_delta=1,
    ),
    Mutation(
        "drop_rounds",
        "two fewer repetitions / drop the raising action: KRP falls to "
        "4 buys (< 5), MBS to 1 round (< 3), SBS loses its pump, "
        "SANDWICH its victim, MINT a dump tranche, DONATION its swap",
        round_delta=-2,
        expect_evades=("KRP", "SBS", "MBS", "SANDWICH", "MINT", "DONATION"),
    ),
    Mutation(
        "weak_pump",
        "price-raising action at 10% size: SBS volatility falls below "
        "the 28% bound, DONATION gain below the inflation bound",
        pump_scale=0.1,
        expect_evades=("SBS", "DONATION"),
    ),
    Mutation(
        "asymmetric_exit",
        "exit only 90% of the position: breaks the amount symmetry "
        "SBS/SANDWICH/DONATION require",
        exit_fraction=0.9,
        expect_evades=("SBS", "SANDWICH", "DONATION"),
    ),
    Mutation(
        "dip_interleave",
        "benign counter-trade mid-attack: breaks KRP's consecutive "
        "price rise; round-pairing patterns must survive",
        interleave=True,
        expect_evades=("KRP",),
    ),
    Mutation(
        "provider_swap",
        "borrow from AAVE instead of the drawn provider (control: "
        "patterns match trades, not providers — must survive "
        "for every family)",
        provider="AAVE",
    ),
)

_BY_KEY = {m.key: m for m in MUTATIONS}


def mutation_by_key(key: str) -> Mutation:
    try:
        return _BY_KEY[key]
    except KeyError:
        raise KeyError(
            f"unknown mutation {key!r}; known: {sorted(_BY_KEY)}"
        ) from None
