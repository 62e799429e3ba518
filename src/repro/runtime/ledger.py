"""The run ledger: an append-only journal of shard outcomes.

One ledger file describes one scan. The first line is a versioned header
binding the file to a scan identity — ``(seed, scale, shard_count,
config_digest)`` plus the full wire-encoded config — and every later
line journals one finished shard as its lossless wire payload
(:mod:`repro.engine.wire`)::

    {"kind": "header", "ledger_version": 2, "wire_version": 1,
     "seed": 7, "scale": 0.01, "shard_count": 8,
     "config_digest": "ab12...", "config": {...}}
    {"kind": "shard", "shard": 3, "payload": {...}}
    {"kind": "shard", "shard": 0, "payload": {...}}

Long runs journal one record per shard, so replay cost at open grows
with shard count. :meth:`RunLedger.compact` folds the contiguous
journaled *prefix* of shards into a single ``{"kind": "snapshot"}``
record — the prefix's merged totals, detections and pattern rows, summed
exactly as :func:`~repro.engine.scan.merge_shard_results` would sum them
— and rotates the file, so open/replay cost is O(tail), not O(shards)::

    {"kind": "header", ...}
    {"kind": "snapshot", "shards": 5, "generation": 1, "merged": {...}}
    {"kind": "shard", "shard": 6, "payload": {...}}

Because the merge is a left fold in shard order, merging the snapshot
first and the tail shards after is byte-identical to merging every shard
individually: compaction never changes a result bit.

Durability guarantees — what survives a kill at each point:

- **mid-append** — records are flushed and fsync'd one by one; a kill
  mid-append leaves at worst one torn trailing line, which
  :meth:`RunLedger.open` tolerates and truncates away (records are split
  on ``b"\\n"`` alone, so a torn tail carrying a stray carriage return —
  or a ledger copied through a CRLF filesystem — still truncates on the
  true record boundary). A torn partial record followed by trailing
  blank lines classifies the same way: torn tail, never interior
  corruption.
- **right after create** — :meth:`create` fsyncs the file *and its
  parent directory*, closing the classic new-file durability gap where
  a crash loses the directory entry while the run believes it is
  journaled.
- **mid-compaction** — :meth:`compact` writes the compacted journal to
  ``<path>.<generation>``, fsyncs it, atomically renames it over
  ``path`` and fsyncs the directory. A kill between write and rename
  leaves the old file; between rename and directory fsync, the old or
  the new file — both parse, never neither. Stale ``<path>.N`` leftovers
  are cleared on the next open.
- **anything else** — a corrupt interior line, a header from an
  unsupported ledger version, a payload with the wrong wire schema
  version, two divergent records for the same shard, or a config whose
  digest does not match — raises :class:`LedgerError` instead of
  producing a wrong merge.

The merge lives behind the ledger: :meth:`RunLedger.merge` decodes the
snapshot (if any) plus every journaled payload and feeds them to
:func:`~repro.engine.scan.merge_shard_results` in shard order, so a
resumed run's result is byte-identical to an uninterrupted one — the
codec round-trip is lossless and the merge never sees *where* a shard
ran, *when* it was journaled, or whether its prefix was compacted.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from ..engine.scan import ShardResult, merge_shard_results
from ..engine.wire import (
    WIRE_VERSION,
    config_digest,
    config_from_wire,
    config_to_wire,
    detection_from_wire,
    shard_result_from_wire,
    shard_result_to_wire,
)

__all__ = ["LEDGER_VERSION", "LedgerError", "RunLedger", "ensure_ledger"]

#: ledger file format version; the header pins it and readers reject
#: anything newer (the journal outlives the process that wrote it).
#: v2: snapshot-compaction records (``{"kind": "snapshot"}``) + rotation.
LEDGER_VERSION = 2

#: versions this build can still read: v1 files are a strict subset of
#: v2 (no snapshot records ever appear in them).
_COMPAT_LEDGER_VERSIONS = frozenset({1, LEDGER_VERSION})


class LedgerError(ValueError):
    """The ledger cannot be used: version/config mismatch or corruption."""


class RunLedger:
    """Durable journal of one scan's shard outcomes.

    Construct through :meth:`create`, :meth:`open` or
    :meth:`resume_or_create`; engines normalize path-or-ledger arguments
    through :func:`ensure_ledger`. Thread-safe appends are the caller's
    responsibility (the coordinator records under its lock; the batch
    and stream engines record from a single thread). ``compact_every``
    auto-compacts after that many freshly journaled shards.
    """

    def __init__(
        self,
        path: Path,
        config,
        shard_count: int,
        *,
        payloads: dict[int, dict] | None = None,
        snapshot: dict | None = None,
        header_line: str | None = None,
        fresh: bool,
        compact_every: int | None = None,
    ) -> None:
        if compact_every is not None and compact_every < 1:
            raise ValueError(f"compact_every must be >= 1, got {compact_every}")
        self.path = path
        self.config = config
        self.shard_count = shard_count
        self.config_digest = config_digest(config)
        #: shard index -> wire payload, as journaled (compacted prefix
        #: shards live in :attr:`_snapshot` instead, never here).
        self._payloads: dict[int, dict] = payloads or {}
        #: folded prefix: ``{"shards": k, "generation": g, "merged": {...}}``
        #: meaning shards ``0..k-1`` are compacted into one merged payload.
        self._snapshot: dict | None = snapshot
        self._header_line = header_line or json.dumps(
            self._header_dict(config, shard_count), sort_keys=True
        )
        #: shards already in the file when it was opened (what a resume skips).
        self.resumed_count = 0 if fresh else self.completed_count
        #: shards appended by this process.
        self.recorded_count = 0
        #: idempotent re-records that were already journaled.
        self.duplicates_ignored = 0
        #: successful :meth:`compact` rotations performed by this process.
        self.compactions = 0
        self.compact_every = compact_every
        self._since_compaction = 0
        self._handle = None

    # -- constructors ----------------------------------------------------

    @classmethod
    def create(
        cls, path, config, shard_count: int, *, compact_every: int | None = None
    ) -> "RunLedger":
        """Start a fresh ledger at ``path`` (fails if the file exists)."""
        if shard_count < 1:
            raise ValueError(f"shard_count must be >= 1, got {shard_count}")
        path = Path(path)
        header_line = json.dumps(cls._header_dict(config, shard_count), sort_keys=True)
        with open(path, "x", encoding="utf-8") as handle:
            handle.write(header_line + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        # the new-file durability gap: without fsyncing the directory a
        # crash here can lose the whole file while the run believes its
        # shards are journaled.
        cls._fsync_dir(path.parent)
        return cls(
            path, config, shard_count,
            header_line=header_line, fresh=True, compact_every=compact_every,
        )

    @staticmethod
    def _header_dict(config, shard_count: int) -> dict:
        return {
            "kind": "header",
            "ledger_version": LEDGER_VERSION,
            "wire_version": WIRE_VERSION,
            "seed": config.seed,
            "scale": config.scale,
            "shard_count": shard_count,
            "config_digest": config_digest(config),
            "config": config_to_wire(config),
        }

    @classmethod
    def open(
        cls,
        path,
        config=None,
        shard_count: int | None = None,
        *,
        compact_every: int | None = None,
    ) -> "RunLedger":
        """Load an existing ledger, verifying it belongs to this scan.

        ``config``/``shard_count``, when given, must match the header —
        a ``config_digest`` or shard-count mismatch raises
        :class:`LedgerError` (resuming someone else's journal would merge
        shards from a different scan). The ledger's digest is re-derived
        from its decoded header config, not read from the header, so a
        ledger written under an older spelling of the same scan resumes;
        a config that does not decode raises :class:`LedgerError`. A torn
        trailing line (the mark of a kill mid-append) is tolerated *and
        truncated away*, so records appended by the resumed run land on a
        clean line boundary instead of turning the tear into interior
        corruption at the next open.
        """
        path = Path(path)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            raise LedgerError(f"no ledger at {path}") from None
        if not data:
            raise LedgerError(f"{path}: empty file, not a ledger")
        # Split records on b"\n" alone — str.splitlines() also splits on
        # \r, \x1c,   and friends, which both misclassifies a torn
        # tail bearing a stray carriage return and miscounts the intact
        # byte length when truncating it.
        lines = data.split(b"\n")
        offsets: list[int] = []
        position = 0
        for line in lines:
            offsets.append(position)
            position += len(line) + 1
        header_line = cls._decode_record_line(path, lines[0], 1)
        if header_line is None:
            raise LedgerError(f"{path}: undecodable header line")
        header = cls._parse_header(path, header_line)
        try:
            ledger_config = config_from_wire(header["config"])
        except ValueError as exc:
            raise LedgerError(f"{path}: header config does not decode: {exc}") from None
        ledger_digest = config_digest(ledger_config)
        if config is not None and config_digest(config) != ledger_digest:
            raise LedgerError(
                f"{path}: config digest mismatch — the ledger was written for "
                f"(seed={header['seed']}, scale={header['scale']}, "
                f"shard_count={header['shard_count']}, "
                f"config_digest={ledger_digest}), the caller is "
                f"resuming (seed={config.seed}, scale={config.scale}, "
                f"shard_count={shard_count if shard_count is not None else 'auto'}, "
                f"config_digest={config_digest(config)}); refusing to resume a "
                f"different scan"
            )
        if shard_count is not None and shard_count != header["shard_count"]:
            raise LedgerError(
                f"{path}: shard count mismatch — the ledger was written for "
                f"(seed={header['seed']}, scale={header['scale']}, "
                f"shard_count={header['shard_count']}, "
                f"config_digest={header['config_digest']}), the caller "
                f"expects shard_count={shard_count}"
            )
        payloads, snapshot, torn_at = cls._parse_records(
            path, lines, offsets, header["shard_count"]
        )
        if torn_at is not None:
            cls._truncate_at(path, torn_at)
        cls._clear_stale_rotations(path)
        return cls(
            path, ledger_config, header["shard_count"],
            payloads=payloads, snapshot=snapshot, header_line=header_line,
            fresh=False, compact_every=compact_every,
        )

    @classmethod
    def resume_or_create(
        cls, path, config, shard_count: int, *, compact_every: int | None = None
    ) -> "RunLedger":
        """Open ``path`` when it exists (verified), else start it fresh."""
        if Path(path).exists():
            return cls.open(
                path, config=config, shard_count=shard_count,
                compact_every=compact_every,
            )
        return cls.create(path, config, shard_count, compact_every=compact_every)

    @classmethod
    def for_config(cls, path, config, *, compact_every: int | None = None) -> "RunLedger":
        """Resume-or-create with the shard count resolved from ``config``
        exactly as the engines resolve it (CLI/example convenience)."""
        from ..engine.plan import build_full_schedule

        _, shard_count = build_full_schedule(config)
        return cls.resume_or_create(
            path, config, shard_count,
            compact_every=compact_every,
        )

    # -- header / record parsing ----------------------------------------

    @staticmethod
    def _decode_record_line(path: Path, raw: bytes, number: int) -> str | None:
        """Decode one record line to text; ``None`` marks undecodable bytes."""
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError:
            return None

    @staticmethod
    def _parse_header(path: Path, line: str) -> dict:
        try:
            header = json.loads(line)
        except json.JSONDecodeError as exc:
            raise LedgerError(f"{path}: undecodable header line: {exc}") from None
        if not isinstance(header, dict) or header.get("kind") != "header":
            raise LedgerError(f"{path}: first line is not a ledger header")
        version = header.get("ledger_version")
        if version not in _COMPAT_LEDGER_VERSIONS:
            raise LedgerError(
                f"{path}: ledger format version mismatch — file says "
                f"{version!r}, this build speaks v{LEDGER_VERSION}"
            )
        if header.get("wire_version") != WIRE_VERSION:
            raise LedgerError(
                f"{path}: wire schema version mismatch — file says "
                f"{header.get('wire_version')!r}, this build speaks "
                f"v{WIRE_VERSION}"
            )
        for field in ("seed", "scale", "shard_count", "config_digest", "config"):
            if field not in header:
                raise LedgerError(f"{path}: header is missing {field!r}")
        return header

    @classmethod
    def _parse_records(
        cls, path: Path, lines: list[bytes], offsets: list[int], shard_count: int
    ) -> tuple[dict, dict | None, int | None]:
        """Parse record lines; returns ``(payloads, snapshot, torn_at)``.

        ``torn_at`` is the byte offset of a torn trailing record (to
        truncate), ``None`` when the tail is clean. A decode failure is
        torn when nothing but blank lines follows it — the final segment
        of a file killed mid-append, *or* a partial record whose trailing
        newline came from an earlier flush.
        """
        payloads: dict[int, dict] = {}
        snapshot: dict | None = None
        torn_at: int | None = None
        for number in range(1, len(lines)):
            raw = lines[number]
            if not raw.strip():
                continue
            text = cls._decode_record_line(path, raw, number + 1)
            record = None
            if text is not None:
                try:
                    record = json.loads(text)
                except json.JSONDecodeError:
                    record = None
            if record is None:
                if all(not rest.strip() for rest in lines[number + 1:]):
                    torn_at = offsets[number]  # torn tail: the kill's signature
                    break
                raise LedgerError(
                    f"{path}: corrupt interior record at line {number + 1}"
                )
            if not isinstance(record, dict):
                raise LedgerError(
                    f"{path}: line {number + 1} is not a ledger record"
                )
            kind = record.get("kind")
            if kind == "snapshot":
                if snapshot is not None or payloads:
                    raise LedgerError(
                        f"{path}: line {number + 1}: a snapshot record must be "
                        f"the first record (compaction writes exactly one)"
                    )
                snapshot = cls._validate_snapshot(path, record, number + 1, shard_count)
                continue
            if kind != "shard":
                raise LedgerError(
                    f"{path}: line {number + 1} is not a shard record"
                )
            shard = record.get("shard")
            payload = record.get("payload")
            if not isinstance(shard, int) or not 0 <= shard < shard_count:
                raise LedgerError(
                    f"{path}: line {number + 1} names shard {shard!r}, "
                    f"outside 0..{shard_count - 1}"
                )
            if not isinstance(payload, dict) or payload.get("v") != WIRE_VERSION:
                raise LedgerError(
                    f"{path}: shard {shard} payload has wire version "
                    f"{payload.get('v') if isinstance(payload, dict) else None!r}, "
                    f"this build speaks v{WIRE_VERSION}"
                )
            if snapshot is not None and shard < snapshot["shards"]:
                continue  # already folded into the snapshot: first wins
            if shard in payloads:
                if payloads[shard] != payload:
                    raise LedgerError(
                        f"{path}: divergent duplicate records for shard {shard}"
                    )
                continue  # identical duplicate: first wins
            payloads[shard] = payload
        return payloads, snapshot, torn_at

    @staticmethod
    def _validate_snapshot(
        path: Path, record: dict, line_number: int, shard_count: int
    ) -> dict:
        shards = record.get("shards")
        generation = record.get("generation")
        merged = record.get("merged")
        if not isinstance(shards, int) or not 1 <= shards <= shard_count:
            raise LedgerError(
                f"{path}: line {line_number}: snapshot covers {shards!r} "
                f"shard(s), outside 1..{shard_count}"
            )
        if not isinstance(generation, int) or generation < 1:
            raise LedgerError(
                f"{path}: line {line_number}: snapshot generation "
                f"{generation!r} is not a positive integer"
            )
        if (
            not isinstance(merged, dict)
            or merged.get("v") != WIRE_VERSION
            or not all(
                field in merged
                for field in ("total_transactions", "detections", "row_counts")
            )
        ):
            raise LedgerError(
                f"{path}: line {line_number}: snapshot merged payload is "
                f"malformed or has the wrong wire version (this build speaks "
                f"v{WIRE_VERSION})"
            )
        return {"shards": shards, "generation": generation, "merged": merged}

    @staticmethod
    def _truncate_at(path: Path, offset: int) -> None:
        """Cut a torn tail at its byte offset so appends resume on a
        clean line boundary."""
        with open(path, "r+b") as handle:
            handle.truncate(offset)
            handle.flush()
            os.fsync(handle.fileno())

    @staticmethod
    def _fsync_dir(directory: Path) -> None:
        """fsync a directory entry (new file / rename durability)."""
        flags = os.O_RDONLY | getattr(os, "O_DIRECTORY", 0)
        try:
            fd = os.open(directory, flags)
        except OSError:
            return  # platforms without directory fds (e.g. Windows)
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)

    @staticmethod
    def _clear_stale_rotations(path: Path) -> None:
        """Remove ``<path>.N`` leftovers from a compaction that crashed
        between write and rename (the rotation never took effect)."""
        for sibling in path.parent.glob(path.name + ".*"):
            if sibling.suffix[1:].isdigit():
                try:
                    sibling.unlink()
                except OSError:
                    pass

    # -- journaling ------------------------------------------------------

    def record(self, result: ShardResult) -> bool:
        """Journal one finished shard; False if it was already journaled."""
        return self.record_payload(
            result.shard_index, shard_result_to_wire(result)
        )

    def record_payload(self, shard: int, payload: dict) -> bool:
        """Journal one shard's wire payload durably (idempotent).

        A shard already journaled with the same payload — or folded into
        the compacted snapshot prefix, where the individual payload is no
        longer held for comparison — is skipped (``False``; counted in
        ``duplicates_ignored``): the late-result path after a resume. A
        *different* payload for a still-held shard raises
        :class:`LedgerError`: the determinism contract says that cannot
        happen, so it marks corruption, not a race.
        """
        if not 0 <= shard < self.shard_count:
            raise LedgerError(
                f"shard {shard} outside 0..{self.shard_count - 1}"
            )
        if not isinstance(payload, dict) or payload.get("v") != WIRE_VERSION:
            raise LedgerError(
                f"shard {shard}: refusing to journal a payload with wire "
                f"version {payload.get('v') if isinstance(payload, dict) else None!r}"
            )
        if self._snapshot is not None and shard < self._snapshot["shards"]:
            self.duplicates_ignored += 1
            return False
        existing = self._payloads.get(shard)
        if existing is not None:
            if existing != payload:
                raise LedgerError(
                    f"shard {shard}: divergent result for an already-journaled "
                    f"shard — same scan identity must produce identical shards"
                )
            self.duplicates_ignored += 1
            return False
        if self._handle is None:
            self._handle = open(self.path, "a", encoding="utf-8")
        self._handle.write(
            json.dumps({"kind": "shard", "shard": shard, "payload": payload})
            + "\n"
        )
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._payloads[shard] = payload
        self.recorded_count += 1
        self._since_compaction += 1
        if (
            self.compact_every is not None
            and self._since_compaction >= self.compact_every
        ):
            self.compact()
        return True

    # -- compaction ------------------------------------------------------

    @property
    def snapshot_shards(self) -> int:
        """Shards folded into the snapshot prefix (0 when uncompacted)."""
        return 0 if self._snapshot is None else self._snapshot["shards"]

    @property
    def generation(self) -> int:
        """Compaction rotations this file has been through."""
        return 0 if self._snapshot is None else self._snapshot["generation"]

    def compact(self) -> bool:
        """Fold the contiguous journaled prefix into one snapshot record.

        The rotation is crash-safe: the compacted journal is written to
        ``<path>.<generation>``, fsync'd, atomically renamed over
        ``path``, and the directory entry fsync'd. A kill between write
        and rename leaves the old file at ``path``; between rename and
        directory fsync, the old or the new file — both parse, never
        neither. Returns ``False`` when the contiguous prefix cannot be
        extended (nothing new to fold).
        """
        base = self.snapshot_shards
        extent = base
        while extent < self.shard_count and extent in self._payloads:
            extent += 1
        if extent == base:
            return False
        merged = self._fold(
            None if self._snapshot is None else self._snapshot["merged"],
            [self._payloads[shard] for shard in range(base, extent)],
        )
        snapshot = {
            "shards": extent,
            "generation": self.generation + 1,
            "merged": merged,
        }
        tail = {
            shard: payload
            for shard, payload in self._payloads.items()
            if shard >= extent
        }
        # the append handle points at the soon-to-be-replaced inode;
        # close it so the next append reopens the rotated file.
        self.close()
        rotated = self.path.with_name(f"{self.path.name}.{snapshot['generation']}")
        with open(rotated, "w", encoding="utf-8") as handle:
            handle.write(self._header_line + "\n")
            handle.write(json.dumps({"kind": "snapshot", **snapshot}) + "\n")
            for shard in sorted(tail):
                handle.write(
                    json.dumps(
                        {"kind": "shard", "shard": shard, "payload": tail[shard]}
                    )
                    + "\n"
                )
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(rotated, self.path)
        self._fsync_dir(self.path.parent)
        self._snapshot = snapshot
        self._payloads = tail
        self.compactions += 1
        self._since_compaction = 0
        return True

    @staticmethod
    def _fold(base: dict | None, payloads: list[dict]) -> dict:
        """Sum wire payloads in shard order, exactly as the merge would."""
        merged = {
            "v": WIRE_VERSION,
            "total_transactions": 0,
            "detections": [],
            "row_counts": {},
        }
        if base is not None:
            merged["total_transactions"] = base["total_transactions"]
            merged["detections"] = list(base["detections"])
            merged["row_counts"] = {
                name: list(counts) for name, counts in base["row_counts"].items()
            }
        for payload in payloads:
            merged["total_transactions"] += payload["total_transactions"]
            merged["detections"].extend(payload["detections"])
            for name, counts in payload["row_counts"].items():
                row = merged["row_counts"].setdefault(name, [0, 0, 0])
                row[0] += counts[0]
                row[1] += counts[1]
                row[2] += counts[2]
        return merged

    def _snapshot_result(self) -> ShardResult:
        """The folded prefix as one pseudo shard result.

        ``shard_index=-1`` sorts before every real shard, so
        :func:`~repro.engine.scan.merge_shard_results` folds the prefix
        first — the exact order the individual shards would have merged.
        """
        merged = self._snapshot["merged"]
        return ShardResult(
            shard_index=-1,
            total_transactions=merged["total_transactions"],
            detections=[detection_from_wire(d) for d in merged["detections"]],
            row_counts={
                name: list(counts) for name, counts in merged["row_counts"].items()
            },
        )

    # -- resume / merge --------------------------------------------------

    @property
    def completed_payloads(self) -> dict[int, dict]:
        """Individually journaled shard payloads (shard index -> wire
        dict), read-only use. Shards folded into the snapshot prefix are
        *not* here — use :meth:`completed_shards` for the done-set."""
        return self._payloads

    def completed_shards(self) -> frozenset[int]:
        """Every journaled shard index: snapshot prefix plus tail records."""
        done = set(self._payloads)
        done.update(range(self.snapshot_shards))
        return frozenset(done)

    @property
    def completed_count(self) -> int:
        # prefix and tail are disjoint by construction (record_payload
        # never re-adds a compacted shard; open drops prefix duplicates).
        return self.snapshot_shards + len(self._payloads)

    def remaining(self) -> list[int]:
        """Shard indices still missing from the journal, ascending."""
        done = self.completed_shards()
        return [
            shard for shard in range(self.shard_count)
            if shard not in done
        ]

    @property
    def is_complete(self) -> bool:
        return self.completed_count == self.shard_count

    def merge(self):
        """Decode the snapshot (if any) plus every journaled shard and
        merge, in shard order.

        This is the single merge path for ledger-backed runs: batch,
        stream and cluster all journal first and merge from the journal,
        which is what makes an interrupted-and-resumed run — compacted or
        not — byte-identical to an uninterrupted one.
        """
        missing = self.remaining()
        if missing:
            raise LedgerError(
                f"cannot merge an incomplete ledger: shard(s) {missing} "
                f"not journaled"
            )
        outcomes = []
        if self._snapshot is not None:
            outcomes.append(self._snapshot_result())
        outcomes.extend(
            shard_result_from_wire(self._payloads[shard])
            for shard in sorted(self._payloads)
        )
        return merge_shard_results(self.config, outcomes)

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            finally:
                self._handle = None

    def __enter__(self) -> "RunLedger":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def ensure_ledger(
    ledger, config, shard_count: int, *, compact_every: int | None = None
) -> RunLedger | None:
    """Normalize an engine's ``ledger`` argument.

    ``None`` passes through; a path resumes-or-creates; an existing
    :class:`RunLedger` is verified against this scan's ``config_digest``
    and shard count (mismatch raises :class:`LedgerError`) and keeps its
    own ``compact_every`` setting.
    """
    if ledger is None:
        return None
    if isinstance(ledger, RunLedger):
        if ledger.config_digest != config_digest(config):
            raise LedgerError(
                f"{ledger.path}: ledger was opened for a different config "
                f"(digest mismatch) — the ledger holds "
                f"(seed={ledger.config.seed}, scale={ledger.config.scale}, "
                f"shard_count={ledger.shard_count}, "
                f"config_digest={ledger.config_digest}), this run is "
                f"(seed={config.seed}, scale={config.scale}, "
                f"shard_count={shard_count}, "
                f"config_digest={config_digest(config)})"
            )
        if ledger.shard_count != shard_count:
            raise LedgerError(
                f"{ledger.path}: ledger has shard_count={ledger.shard_count}, "
                f"this run resolves {shard_count} "
                f"(both at seed={config.seed}, scale={config.scale}, "
                f"config_digest={config_digest(config)})"
            )
        return ledger
    return RunLedger.resume_or_create(
        ledger, config, shard_count, compact_every=compact_every
    )
