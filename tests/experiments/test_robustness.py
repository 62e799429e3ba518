"""The FlashSyn-style robustness sweep's contracts.

Every family's unmutated attack and its control mutations are caught,
every documented evasion evades, nothing reverts, nothing benign is
flagged, and the whole sweep is deterministic. These are contracts of
the detector, not timings; the sweep takes well under a second.
"""

from __future__ import annotations

import pytest

from repro.experiments import robustness
from repro.workload.mutate import MUTATIONS

FAMILIES = ["KRP", "SBS", "MBS", "SANDWICH", "MINT", "DONATION"]
#: mutations that must not move any family below its thresholds.
CONTROLS = ("baseline", "scale_amounts", "add_round", "provider_swap")


@pytest.fixture(scope="module")
def sweeps():
    return (
        robustness.run(seed=7, instances=2, benign=24),
        robustness.run(seed=7, instances=2, benign=24),
    )


def test_two_sweeps_are_identical(sweeps):
    first, second = sweeps
    assert first == second
    assert robustness.render(first) == robustness.render(second)


def test_every_family_is_scored(sweeps):
    result, _ = sweeps
    assert result.families() == FAMILIES
    assert {cell.mutation for cell in result.cells} == {m.key for m in MUTATIONS}


@pytest.mark.parametrize("control", CONTROLS)
def test_controls_keep_full_recall(sweeps, control):
    result, _ = sweeps
    for family in FAMILIES:
        cell = result.cell(family, control)
        assert cell.recall == 1.0, f"{family}/{control}: {cell}"


def test_documented_evasions_evade(sweeps):
    result, _ = sweeps
    for mutation in MUTATIONS:
        for family in mutation.expect_evades:
            cell = result.cell(family, mutation.key)
            assert cell.recall == 0.0, f"{family}/{mutation.key}: {cell}"


def test_no_cell_reverted(sweeps):
    result, _ = sweeps
    reverted = {
        f"{cell.family}/{cell.mutation}": cell.reverted
        for cell in result.cells
        if cell.reverted
    }
    assert not reverted, f"cells reverted despite the fee subsidy: {reverted}"


def test_paper_patterns_each_have_an_evading_cell(sweeps):
    result, _ = sweeps
    evading = {
        cell.family
        for cell in result.cells
        if cell.mutation != "baseline" and cell.recall == 0.0
    }
    assert {"KRP", "SBS", "MBS"} <= evading


def test_precision_is_perfect_and_no_benign_tx_flagged(sweeps):
    result, _ = sweeps
    assert result.benign_total > 0
    for family in FAMILIES:
        assert result.precision(family) == 1.0, result.precision_counts
    assert not any(result.benign_flagged.values()), result.benign_flagged
