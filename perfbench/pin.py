"""Regenerate ``pins.json``: the digests shipped seeds must reproduce.

Usage, from the root of a checkout::

    python3 perfbench/pin.py 1 2 3

For each seed it records the digest of one ``scan`` workload scan and of
the ``detect`` workload's first analysis pass. Run it only when a change
is meant to alter detection results; otherwise a digest that moves is
the wrong output the pins exist to catch.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from types import SimpleNamespace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
sys.path.insert(0, os.path.join(ROOT, "src"))

from perfbench import workloads  # noqa: E402


def main(argv=None) -> int:
    seeds = [int(seed) for seed in (argv if argv is not None else sys.argv[1:])]
    path = os.path.join(ROOT, "perfbench", "pins.json")
    with open(path) as handle:
        pins = json.load(handle)
    from repro.engine import ScanEngine
    from repro.workload.generator import WildScanConfig

    for seed in seeds:
        config = WildScanConfig(scale=workloads.SCAN_SCALE, seed=seed,
                                shards=workloads.SHARDS, jobs=workloads.JOBS)
        scan = workloads.result_digest(ScanEngine(config).run())
        with tempfile.TemporaryDirectory() as work_dir:
            args = SimpleNamespace(seed=seed, seconds=0, work_dir=work_dir,
                                   setup_only=False)
            detect = workloads.Detect(args, None)
            detect.setup()
            detect.run(None)
        pins.setdefault("scan", {})[str(seed)] = scan
        pins.setdefault("detect", {})[str(seed)] = detect.extra["digest"]
        print(f"seed {seed}: scan {scan[:16]} detect {detect.extra['digest'][:16]}",
              flush=True)
    for table in pins.values():
        ordered = dict(sorted(table.items(), key=lambda item: int(item[0])))
        table.clear()
        table.update(ordered)
    with open(path, "w") as handle:
        json.dump(pins, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
