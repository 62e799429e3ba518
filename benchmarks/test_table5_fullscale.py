"""Table V at full scale: the paper's wild-scan contract.

Opt-in, like everything in ``benchmarks/``; two scale-1.0 scans take a
few minutes on 2 CPUs::

    PYTHONPATH=src python -m pytest benchmarks/test_table5_fullscale.py -q

Seed 7 over 272,984 transactions reproduces the paper's Table V: 180
detected, 142 true, 78.9% precision. A profiled sequential scan and an
unprofiled parallel scan must agree byte for byte.
"""

from __future__ import annotations

import pytest

from repro.engine.scan import ScanEngine
from repro.workload.generator import WildScanConfig
from tests.fingerprint import fingerprint

#: pattern -> (detected, true, false), as printed in Table V.
TABLE5_ROWS = {"KRP": (21, 21, 0), "SBS": (79, 68, 11), "MBS": (107, 60, 47)}


@pytest.fixture(scope="module")
def profiled_sequential():
    engine = ScanEngine(WildScanConfig(scale=1.0, seed=7, jobs=1, profile=True))
    return engine.run(), engine.profile


@pytest.fixture(scope="module")
def parallel():
    return ScanEngine(WildScanConfig(scale=1.0, seed=7, jobs=2)).run()


def test_table5_rows(profiled_sequential):
    result, profile = profiled_sequential
    assert result.total_transactions == 272_984
    assert profile["counters"]["transactions"] == 272_984
    rows = {name: (r.n, r.tp, r.fp) for name, r in result.rows.items()}
    assert rows == TABLE5_ROWS
    assert result.detected_count == 180
    assert result.true_positives == 142
    assert f"{result.precision:.1%}" == "78.9%"


def test_jobs_and_profiling_change_no_byte(profiled_sequential, parallel):
    result, _ = profiled_sequential
    assert fingerprint(parallel) == fingerprint(result)
