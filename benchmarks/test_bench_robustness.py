"""Adversarial-robustness benchmark: mutation sweep recall contracts.

Runs the per-family × per-mutation sweep twice via
``run_robustness_bench`` (which itself raises on any determinism,
baseline-recall, documented-evasion or revert violation), writes the
report to a temporary directory (``make robustness-smoke`` regenerates
the canonical ``BENCH_robustness.json``), and re-checks the recorded
numbers tell the same story. The recall/precision assertions
are always on — they are contracts, not timings — and only the
wall-clock budget waits for ``REPRO_BENCH_STRICT=1``, like the other
benches, so shared CI runners record timings without flaking.
"""

from __future__ import annotations

import os

from repro.engine.bench import (
    DEFAULT_ROBUSTNESS_ARTIFACT,
    run_robustness_bench,
    write_artifact,
)
from repro.workload.mutate import MUTATIONS

STRICT = os.environ.get("REPRO_BENCH_STRICT") == "1"

#: budget for the whole double sweep (two full sweeps, six families,
#: eight mutations, two instances per cell, plus the benign pools) —
#: a sweep takes well under a second on a laptop; 30 s is the flake
#: ceiling, not a throughput claim.
STRICT_DOUBLE_SWEEP_S = 30.0


def test_bench_robustness_recall_matrix(tmp_path):
    report = run_robustness_bench(seed=7, instances=2, benign=24)
    write_artifact(report, tmp_path / DEFAULT_ROBUSTNESS_ARTIFACT)

    # run_robustness_bench already raised on any contract violation;
    # re-check the recorded matrix says the same thing.
    families = report["families"]
    assert families == ["KRP", "SBS", "MBS", "SANDWICH", "MINT", "DONATION"]

    # unmutated attacks: every family's own pattern fires on every
    # instance — the always-on acceptance contract.
    for family in families:
        cell = report["cells"][f"{family}/baseline"]
        assert cell["recall"] == 1.0, f"{family}/baseline: {cell}"
        assert cell["reverted"] == 0

    # every documented evasion cell evaded; nothing reverted anywhere.
    for mutation in MUTATIONS:
        for family in mutation.expect_evades:
            cell = report["cells"][f"{family}/{mutation.key}"]
            assert cell["recall"] == 0.0, f"{family}/{mutation.key}: {cell}"
    assert all(cell["reverted"] == 0 for cell in report["cells"].values())

    # each of the paper's patterns has at least one evading mutation —
    # the matrix demonstrates a real attack surface, not a vacuous one.
    evading = report["evading_cells"]
    for family in ("KRP", "SBS", "MBS"):
        assert any(key.startswith(f"{family}/") for key in evading), (
            f"no documented evasion for {family}: {evading}"
        )

    # precision: nothing benign (or cross-family) flagged in this sweep.
    assert report["benign_total"] > 0
    for family in families:
        assert report["precision"][family] == 1.0, report["precision"]
    assert not any(report["benign_flagged"].values()), report["benign_flagged"]

    if not STRICT:
        return  # timings recorded; budget enforced only under REPRO_BENCH_STRICT=1
    total = report["elapsed_s"] + report["repeat_elapsed_s"]
    assert total < STRICT_DOUBLE_SWEEP_S, (
        f"double sweep took {total}s, budget {STRICT_DOUBLE_SWEEP_S}s"
    )
