"""Run the wild scan and print every Sec. VI table.

Run::

    python examples/wild_scan.py [scale] [jobs]

``scale`` defaults to 0.05 (about 13,600 transactions, a few seconds);
``1.0`` regenerates the paper's full 272,984-transaction population.
``jobs`` fans the scan out over worker processes (results are
byte-identical for any value).
"""

from __future__ import annotations

import sys
import time

from repro.experiments import fig8, table5, table6, table7
from repro.engine import ScanEngine
from repro.workload import WildScanConfig


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.05
    jobs = int(sys.argv[2]) if len(sys.argv) > 2 else 1
    print(f"generating and scanning a scale-{scale} flash loan population "
          f"(jobs={jobs})...")
    start = time.perf_counter()
    result = ScanEngine(WildScanConfig(scale=scale, seed=7, jobs=jobs)).run()
    elapsed = time.perf_counter() - start
    print(f"scanned {result.total_transactions:,} transactions in {elapsed:.1f}s\n")

    print(table5.render(result))
    print()
    print(table6.render(result))
    print()
    print(table7.render(result))
    print()
    print(fig8.render(result))

    print("\nwith the yield-aggregator heuristic (paper Sec. VI-C):")
    heuristic_result = ScanEngine(
        WildScanConfig(scale=scale, seed=7, with_heuristic=True, jobs=jobs)
    ).run()
    mbs = heuristic_result.rows["MBS"]
    print(f"  MBS: N={mbs.n} TP={mbs.tp} FP={mbs.fp} precision={mbs.precision:.1%} "
          "(paper: 56.1% -> 80%)")


if __name__ == "__main__":
    main()
