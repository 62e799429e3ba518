"""The scan runtime imports nothing outside the standard library.

A small sharded scan runs in a fresh interpreter, which then reports
every top-level module the scan imported. A subprocess is needed because
pytest plugins may import numpy (or anything else) into the test
process themselves.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SCRIPT = """
import json, sys
before = set(sys.modules)
from repro.engine import ScanEngine
from repro.workload.generator import WildScanConfig
ScanEngine(WildScanConfig(scale=0.002, seed=7, jobs=1, shards=2)).run()
print(json.dumps({
    "numpy": "numpy" in sys.modules,
    "imported": sorted({name.split(".")[0] for name in set(sys.modules) - before}),
}))
"""


def test_scan_imports_only_the_standard_library():
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert not report["numpy"], "the scan imported numpy"
    third_party = [
        name for name in report["imported"]
        if name != "repro" and name not in sys.stdlib_module_names
    ]
    assert third_party == []
