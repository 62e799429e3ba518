"""Durable run registry: one manifest + one ledger per submitted scan.

The scan service namespaces every run under its data directory::

    <data_dir>/runs/<run_id>/run.json        # manifest (this module)
    <data_dir>/runs/<run_id>/ledger.jsonl    # repro.runtime.RunLedger

The **run id is the config digest**: ``run-<sha256(config_to_wire)[:16]>``.
Two submissions of the same (seed, scale, shards, thresholds, ...) name
the same run by construction, which is what lets the service coalesce
duplicates onto the in-flight or completed run instead of scanning
twice — and what makes restart adoption unambiguous: a directory on disk
*is* the run, whatever process wrote it.

Manifests are plain JSON written atomically (tmp + ``os.replace``), so a
kill mid-transition leaves the previous manifest, never a torn one. The
ledger — not the manifest — is the source of truth for completion: a
manifest that says ``running`` next to a complete ledger simply means
the service died between the last shard landing and the state flip, and
adoption reclassifies it from the ledger bytes.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..engine.wire import Field, check_fields, config_digest, config_to_wire

__all__ = [
    "MANIFEST_VERSION",
    "RUN_STATES",
    "RunRecord",
    "RunRegistry",
    "run_id_for",
]

#: manifest schema version; readers reject anything newer. v2 dropped
#: v1's ``backend`` field: every backend wrote the same ledger bytes, so
#: a v1 manifest loads with the field ignored.
MANIFEST_VERSION = 2

#: every state a run moves through::
#:
#:     queued ──▶ running ──▶ completed
#:       ▲           │
#:       │           └──▶ failed ──(resubmit)──▶ queued
#:     resuming  (restart adoption of an incomplete ledger)
RUN_STATES = ("queued", "resuming", "running", "completed", "failed")

#: states in which a duplicate submission coalesces instead of enqueueing.
COALESCE_STATES = ("queued", "resuming", "running", "completed")

_COUNT = Field("int", lambda value: value >= 0, "negative")
_TIME = Field("number or null")
#: the v2 manifest's field table; v1 adds ``backend``, ignored on load.
_MANIFEST = {
    "manifest_version": Field("int"),
    "run_id": Field("string"),
    "config": Field("object"),
    "config_digest": Field("string"),
    "state": Field("string", lambda value: value in RUN_STATES, "an unknown state"),
    "jobs": Field("int", lambda value: value >= 1, "below 1"),
    "shard_count": Field("int or null", lambda value: value >= 1, "below 1"),
    "submitted_at": Field("number"),
    "started_at": _TIME,
    "finished_at": _TIME,
    "error": Field("string or null"),
    "adopted": Field("bool"),
    "warm_hits": _COUNT,
    "warm_misses": _COUNT,
    "shards_resumed": _COUNT,
    "shards_recorded": _COUNT,
    "summary": Field("object or null"),
}
_MANIFEST_V1 = {**_MANIFEST, "backend": Field("string")}


def run_id_for(config) -> str:
    """Derive the deterministic run id from a scan config's identity."""
    return f"run-{config_digest(config)[:16]}"


@dataclass(slots=True)
class RunRecord:
    """One run's manifest: identity, lifecycle, and completion summary."""

    run_id: str
    #: the scan config in wire form (:func:`repro.engine.wire.config_to_wire`).
    config: dict
    config_digest: str
    state: str = "queued"
    #: local execution parallelism (identity-irrelevant, like
    #: ``WildScanConfig.jobs``).
    jobs: int = 1
    #: resolved at execution time (``None`` until the run first starts).
    shard_count: int | None = None
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    error: str | None = None
    #: the run re-entered the queue from a restart's ledger adoption.
    adopted: bool = False
    #: always 0: the service no longer keeps warm shard worlds. Kept so
    #: manifests written with them still load (``from_dict`` rejects
    #: missing fields) and readers of the run view still find the keys.
    warm_hits: int = 0
    warm_misses: int = 0
    #: shards loaded from the journal vs. freshly executed.
    shards_resumed: int = 0
    shards_recorded: int = 0
    #: completion summary: totals and Table-V rows, servable without
    #: decoding the ledger (``None`` until completed).
    summary: dict | None = None

    def to_dict(self) -> dict:
        return {
            "manifest_version": MANIFEST_VERSION,
            "run_id": self.run_id,
            "config": self.config,
            "config_digest": self.config_digest,
            "state": self.state,
            "jobs": self.jobs,
            "shard_count": self.shard_count,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
            "adopted": self.adopted,
            "warm_hits": self.warm_hits,
            "warm_misses": self.warm_misses,
            "shards_resumed": self.shards_resumed,
            "shards_recorded": self.shards_recorded,
            "summary": self.summary,
        }

    @classmethod
    def from_dict(cls, payload) -> "RunRecord":
        """Decode a manifest; ``ValueError`` unless it has its version's
        exact fields, each of its declared type and range."""
        if not isinstance(payload, dict):
            raise ValueError("run manifest is not a JSON object")
        version = payload.get("manifest_version")
        if version not in (1, MANIFEST_VERSION):
            raise ValueError(
                f"run manifest version mismatch — file says {version!r}, "
                f"this build speaks v1 and v{MANIFEST_VERSION}"
            )
        check_fields(
            payload, _MANIFEST_V1 if version == 1 else _MANIFEST, "run manifest"
        )
        return cls(**{
            key: value for key, value in payload.items()
            if key not in ("manifest_version", "backend")
        })


class RunRegistry:
    """Filesystem layout + manifest persistence for the scan service.

    Pure mechanism: directory naming, atomic manifest writes, and
    load-all for restart adoption. Policy — state machines, queues,
    dedup — lives in :class:`repro.service.service.ScanService`, which
    serializes access; the registry itself holds no lock.
    """

    def __init__(self, data_dir) -> None:
        self.data_dir = Path(data_dir)
        self.runs_dir = self.data_dir / "runs"
        self.runs_dir.mkdir(parents=True, exist_ok=True)

    # -- layout ----------------------------------------------------------

    def run_dir(self, run_id: str) -> Path:
        return self.runs_dir / run_id

    def manifest_path(self, run_id: str) -> Path:
        return self.run_dir(run_id) / "run.json"

    def ledger_path(self, run_id: str) -> Path:
        return self.run_dir(run_id) / "ledger.jsonl"

    # -- persistence -----------------------------------------------------

    def create(self, config, *, jobs: int = 1) -> RunRecord:
        """Materialize a fresh run record (and its directory) for ``config``."""
        wire = config_to_wire(config)
        digest = config_digest(config)
        record = RunRecord(
            run_id=run_id_for(config),
            config=wire,
            config_digest=digest,
            jobs=jobs,
        )
        self.save(record)
        return record

    def save(self, record: RunRecord) -> None:
        """Write the manifest atomically (tmp + rename)."""
        directory = self.run_dir(record.run_id)
        directory.mkdir(parents=True, exist_ok=True)
        path = self.manifest_path(record.run_id)
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(record.to_dict(), handle, sort_keys=True)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)

    def load(self, run_id: str) -> RunRecord:
        path = self.manifest_path(run_id)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise KeyError(f"no run manifest at {path}") from None
        return RunRecord.from_dict(payload)

    def load_all(self) -> dict[str, RunRecord]:
        """Every persisted run, by id (restart adoption's raw material).

        Directories without a readable manifest are skipped, not fatal:
        a kill between ``mkdir`` and the first manifest write leaves an
        empty shell that the next submission of the same config reuses.
        """
        records: dict[str, RunRecord] = {}
        for directory in sorted(self.runs_dir.iterdir()):
            if not directory.is_dir():
                continue
            try:
                record = self.load(directory.name)
            except (KeyError, ValueError, json.JSONDecodeError):
                continue
            if record.run_id == directory.name:
                records[record.run_id] = record
        return records
