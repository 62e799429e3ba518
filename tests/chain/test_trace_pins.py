"""Every trace record and every shard's final state of a population,
pinned by digest.

The report and detection pins see only what the detector reads, so a
shifted sequence number, a changed call depth or a state write that no
pattern reads would pass them. This module digests what the substrate
itself produced for every transaction of a generated population, both
schedule tails on:

- every transfer, call, log and creation record, with its seq;
- the transaction's hash, ``success``, ``revert_reason`` and ground truth
  (a transaction that raised out of ``transact`` is pinned as ``None``);
- each shard world's final journal contents, creation graph and labels.

The journal is digested as a mapping (its entries sorted), and the pin is
checked in two interpreters with different hash seeds.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from repro.engine.plan import build_full_schedule, shard_schedule
from repro.engine.scan import build_shard_context, execute_task
from repro.workload.generator import WildScanConfig

ROOT = Path(__file__).resolve().parents[2]

#: sha256 over :func:`trace_digest` of :func:`pinned_config`, computed
#: before message calls dispatched through a per-class entry-point table.
TRACE_DIGEST = "b044db20b9fcc244fc5b4f32d41e5389baa2af8841db8ed8d3dd370ad8a3cd99"


def pinned_config() -> WildScanConfig:
    return WildScanConfig(scale=0.005, seed=7, adversarial=6, split_attacks=2)


def encode_trace(trace) -> list:
    """Every record of one transaction trace, in its own stream order."""
    return [
        trace.tx_hash, trace.sender, trace.to, trace.function,
        trace.block_number, trace.timestamp, trace.success, trace.revert_reason,
        [[t.seq, t.sender, t.receiver, t.amount, t.token] for t in trace.transfers],
        [[c.seq, c.caller, c.callee, c.function, c.depth, c.value] for c in trace.calls],
        [
            [log.seq, log.emitter, log.event, [[k, repr(v)] for k, v in log.params]]
            for log in trace.logs
        ],
        [[c.seq, c.creator, c.created] for c in trace.creations],
    ]


def encode_world(chain) -> list:
    """A shard world's final state: journal, creation graph and labels."""
    return [
        sorted([repr(owner), repr(slot), repr(value)] for owner, slot, value in chain.state.entries()),
        [[c.seq, c.creator, c.created] for c in chain.creations],
        sorted([address, type(contract).__name__] for address, contract in chain.contracts.items()),
        sorted(chain.labels.items()),
    ]


def trace_digest(config: WildScanConfig) -> str:
    """Execute the population shard by shard, as a scan does, and digest
    every transaction and each shard's final world."""
    tasks, shard_count = build_full_schedule(config)
    rows: list = []
    for index, part in enumerate(shard_schedule(tasks, shard_count)):
        ctx = build_shard_context(config, index, shard_count)
        for position, task in enumerate(part):
            labeled = execute_task(ctx, task)
            if labeled is None:
                rows.append([index, position, None])
            else:
                rows.append([index, position, encode_trace(labeled.trace), repr(labeled.truth)])
        rows.append([index, "world", encode_world(ctx.market.world.chain)])
    payload = json.dumps([len(tasks), rows])
    return hashlib.sha256(payload.encode()).hexdigest()


_SCRIPT = (
    "from tests.chain.test_trace_pins import pinned_config, trace_digest\n"
    "print(trace_digest(pinned_config()))\n"
)


def test_every_trace_and_world_pinned_under_two_hash_seeds():
    path = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT), os.environ.get("PYTHONPATH", "")]
    )
    for seed in ("0", "1"):
        run = subprocess.run(
            [sys.executable, "-c", _SCRIPT],
            cwd=ROOT,
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == TRACE_DIGEST, f"PYTHONHASHSEED={seed}"
