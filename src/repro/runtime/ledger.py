"""The run ledger: an append-only journal of shard outcomes.

One ledger file describes one scan. The first line is a versioned header
binding the file to a scan identity — ``(seed, scale, shard_count,
config_digest)`` plus the full wire-encoded config — and every later
line journals one finished shard as its lossless wire payload
(:mod:`repro.engine.wire`)::

    {"kind": "header", "ledger_version": 2, "wire_version": 2,
     "seed": 7, "scale": 0.01, "shard_count": 8,
     "config_digest": "ab12...", "config": {...}}
    {"kind": "shard", "shard": 3, "payload": {...}}
    {"kind": "shard", "shard": 0, "payload": {...}}

Earlier builds could fold the contiguous journaled prefix of shards into
one ``{"kind": "snapshot", "shards": k, "generation": g, "merged":
{...}}`` record right after the header. This build never writes one,
but still reads it: its ``merged`` payload decodes through the shard
result codec as one result for shards ``0..k-1``, which the merge folds
first — byte-identical to merging those shards one by one.

Every line is decoded where it enters, at :meth:`RunLedger.open`: the
header, each record's envelope and its payload are checked against
their field tables (:func:`~repro.engine.wire.check_fields`), a record's
``shard`` must equal its payload's ``shard_index``, and its rows may
name only patterns the header config enables. The ledger then holds
checked :class:`~repro.engine.scan.ShardResult`\\ s, never raw dicts.

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
- **anything else** — a corrupt interior line, a header from an
  unsupported ledger version, a record or payload that does not decode,
  two divergent records for the same shard, or a config whose digest
  does not match — raises :class:`LedgerError` at open, naming the
  line, instead of producing a wrong merge.

The merge lives behind the ledger: :meth:`RunLedger.merge` feeds the
decoded form of every journaled record to
:func:`~repro.engine.scan.merge_shard_results`, which merges in shard
order, so a resumed run's result is byte-identical to an uninterrupted
one — the codec round-trip is lossless and the merge never sees *where*
a shard ran or *when* it was journaled.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from ..engine.scan import ShardResult, merge_shard_results
from ..engine.wire import (
    WIRE_VERSION,
    WIRE_VERSION_FIELD,
    Field,
    check_fields,
    config_digest,
    config_from_wire,
    config_to_wire,
    shard_result_from_wire,
    shard_result_to_wire,
)

__all__ = ["LEDGER_VERSION", "LedgerError", "RunLedger", "ensure_ledger"]

#: ledger file format version; the header pins it and readers reject
#: anything newer (the journal outlives the process that wrote it).
#: v2: snapshot records, which earlier builds wrote and this one reads.
LEDGER_VERSION = 2

#: versions this build can still read: v1 files are a strict subset of
#: v2 (no snapshot records ever appear in them).
_COMPAT_LEDGER_VERSIONS = frozenset({1, LEDGER_VERSION})

_HEADER = {
    "kind": Field("string"),
    "ledger_version": Field(
        "int", lambda value: value in _COMPAT_LEDGER_VERSIONS,
        f"not a ledger format version this build reads "
        f"({sorted(_COMPAT_LEDGER_VERSIONS)})",
    ),
    "wire_version": WIRE_VERSION_FIELD,
    "seed": Field("int"),
    "scale": Field("number"),
    "shard_count": Field("int", lambda value: value >= 1, "below 1"),
    "config_digest": Field("string"),
    "config": Field("object"),
}


def _record_tables(shard_count: int) -> tuple[dict, dict]:
    """The shard-record and snapshot-record tables of a ledger with
    ``shard_count`` shards."""
    shard = Field(
        "int", lambda value: 0 <= value < shard_count, f"outside 0..{shard_count - 1}"
    )
    shards = Field(
        "int", lambda value: 1 <= value <= shard_count, f"outside 1..{shard_count}"
    )
    return (
        {"kind": Field("string"), "shard": shard, "payload": Field("object")},
        {
            "kind": Field("string"),
            "shards": shards,
            "generation": Field("int", lambda value: value >= 1, "below 1"),
            "merged": Field("object"),
        },
    )


def _load_json(raw: bytes):
    """The JSON value of one line, or ``None`` when it does not parse."""
    try:
        return json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError):
        return None


class LedgerError(ValueError):
    """The ledger cannot be used: version/config mismatch or corruption."""


def _check_identity(
    path, held_config, held_digest: str, held_shards: int, config, shard_count
) -> None:
    """Raise :class:`LedgerError` unless ``config`` and ``shard_count``
    (``None`` skips either check) name the scan a ledger holds — resuming
    someone else's journal would merge shards from a different scan."""
    held = (
        f"(seed={held_config.seed}, scale={held_config.scale}, "
        f"shard_count={held_shards}, config_digest={held_digest})"
    )
    if config is not None and config_digest(config) != held_digest:
        raise LedgerError(
            f"{path}: config digest mismatch — the ledger holds a different "
            f"config {held}, the caller is running (seed={config.seed}, "
            f"scale={config.scale}, shard_count="
            f"{shard_count if shard_count is not None else 'auto'}, "
            f"config_digest={config_digest(config)}); refusing to resume a "
            f"different scan"
        )
    if shard_count is not None and shard_count != held_shards:
        raise LedgerError(
            f"{path}: shard count mismatch — the ledger holds {held}, the "
            f"caller expects shard_count={shard_count}"
        )


class RunLedger:
    """Durable journal of one scan's shard outcomes.

    Construct through :meth:`create`, :meth:`open` or
    :meth:`resume_or_create`; engines normalize path-or-ledger arguments
    through :func:`ensure_ledger`. Thread-safe appends are the caller's
    responsibility (the coordinator records under its lock; the batch
    and stream engines record from a single thread).
    """

    def __init__(
        self,
        path: Path,
        config,
        shard_count: int,
        *,
        results: dict[int, ShardResult] | None = None,
        folded: int = 0,
        fresh: bool,
    ) -> None:
        self.path = path
        self.config = config
        self.shard_count = shard_count
        self.config_digest = config_digest(config)
        #: shard index -> the decoded form of its journaled record. A
        #: snapshot record holds shards ``0..folded-1`` as one result,
        #: filed under shard 0.
        self._results: dict[int, ShardResult] = results or {}
        self._folded = folded
        #: shards already in the file when it was opened (what a resume skips).
        self.resumed_count = 0 if fresh else self.completed_count
        #: shards appended by this process.
        self.recorded_count = 0
        #: idempotent re-records that were already journaled.
        self.duplicates_ignored = 0
        self._handle = None

    # -- constructors ----------------------------------------------------

    @classmethod
    def create(cls, path, config, shard_count: int) -> "RunLedger":
        """Start a fresh ledger at ``path`` (fails if the file exists)."""
        if shard_count < 1:
            raise ValueError(f"shard_count must be >= 1, got {shard_count}")
        path = Path(path)
        header = {
            "kind": "header",
            "ledger_version": LEDGER_VERSION,
            "wire_version": WIRE_VERSION,
            "seed": config.seed,
            "scale": config.scale,
            "shard_count": shard_count,
            "config_digest": config_digest(config),
            "config": config_to_wire(config),
        }
        with open(path, "x", encoding="utf-8") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        # the new-file durability gap: without fsyncing the directory a
        # crash here can lose the whole file while the run believes its
        # shards are journaled.
        cls._fsync_dir(path.parent)
        return cls(path, config, shard_count, fresh=True)

    @classmethod
    def open(cls, path, config=None, shard_count: int | None = None) -> "RunLedger":
        """Load an existing ledger, verifying it belongs to this scan.

        ``config``/``shard_count``, when given, must match the header —
        a ``config_digest`` or shard-count mismatch raises
        :class:`LedgerError`. The ledger's digest is re-derived from its
        decoded header config, not read from the header, so a ledger
        written under an older spelling of the same scan resumes. Every
        record is decoded here; one that does not decode raises
        :class:`LedgerError` naming its line. A torn trailing line (the
        mark of a kill mid-append) is tolerated *and truncated away*, so
        records appended by the resumed run land on a clean line
        boundary instead of turning the tear into interior corruption at
        the next open.
        """
        path = Path(path)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            raise LedgerError(f"no ledger at {path}") from None
        if not data:
            raise LedgerError(f"{path}: empty file, not a ledger")
        # Split records on b"\n" alone — str.splitlines() also splits on
        # \r, \x1c,   and friends, which both misclassifies a torn
        # tail bearing a stray carriage return and miscounts the intact
        # byte length when truncating it.
        lines = data.split(b"\n")
        header = _load_json(lines[0])
        if header is None:
            raise LedgerError(f"{path}: undecodable header line")
        if not isinstance(header, dict) or header.get("kind") != "header":
            raise LedgerError(f"{path}: first line is not a ledger header")
        try:
            check_fields(header, _HEADER, "ledger header")
        except ValueError as exc:
            raise LedgerError(f"{path}: line 1: {exc}") from None
        try:
            ledger_config = config_from_wire(header["config"])
        except ValueError as exc:
            raise LedgerError(f"{path}: header config does not decode: {exc}") from None
        held_shards = header["shard_count"]
        _check_identity(
            path, ledger_config, config_digest(ledger_config), held_shards,
            config, shard_count,
        )
        results, folded, torn_at = cls._read_records(
            path, lines, held_shards, ledger_config.pattern_config.enabled
        )
        if torn_at is not None:
            cls._truncate_at(path, torn_at)
        return cls(
            path, ledger_config, held_shards,
            results=results, folded=folded, fresh=False,
        )

    @classmethod
    def resume_or_create(cls, path, config, shard_count: int) -> "RunLedger":
        """Open ``path`` when it exists (verified), else start it fresh."""
        if Path(path).exists():
            return cls.open(path, config=config, shard_count=shard_count)
        return cls.create(path, config, shard_count)

    # -- record parsing --------------------------------------------------

    @staticmethod
    def _read_records(
        path: Path, lines: list[bytes], shard_count: int, enabled
    ) -> tuple[dict[int, ShardResult], int, int | None]:
        """Decode the record lines; returns ``(results, folded, torn_at)``.

        ``torn_at`` is the byte offset of a torn trailing record (to
        truncate), ``None`` when the tail is clean. A line that does not
        parse is torn when nothing but blank lines follows it — the final
        segment of a file killed mid-append, *or* a partial record whose
        trailing newline came from an earlier flush.
        """
        shard_table, snapshot_table = _record_tables(shard_count)
        results: dict[int, ShardResult] = {}
        folded = 0
        position = len(lines[0]) + 1
        for index in range(1, len(lines)):
            raw = lines[index]
            offset, position = position, position + len(raw) + 1
            if not raw.strip():
                continue
            number = index + 1
            record = _load_json(raw)
            if record is None:
                if all(not rest.strip() for rest in lines[index + 1:]):
                    return results, folded, offset  # torn tail: the kill's signature
                raise LedgerError(f"{path}: corrupt interior record at line {number}")
            if not isinstance(record, dict):
                raise LedgerError(f"{path}: line {number} is not a ledger record")
            kind = record.get("kind")
            if kind not in ("shard", "snapshot"):
                raise LedgerError(f"{path}: line {number} is not a shard record")
            if kind == "snapshot" and (folded or results):
                raise LedgerError(
                    f"{path}: line {number}: a snapshot record must be the "
                    f"first record (earlier builds wrote exactly one)"
                )
            try:
                if kind == "snapshot":
                    check_fields(record, snapshot_table, "snapshot record")
                    results[0] = shard_result_from_wire(
                        {"shard_index": 0, **record["merged"]}, shard=0, enabled=enabled
                    )
                    folded = record["shards"]
                    continue
                check_fields(record, shard_table, "shard record")
                shard = record["shard"]
                result = shard_result_from_wire(
                    record["payload"], shard=shard, enabled=enabled
                )
            except ValueError as exc:
                raise LedgerError(f"{path}: line {number}: {exc}") from None
            if shard < folded:
                continue  # already folded into the snapshot: first wins
            if shard in results:
                if results[shard] != result:
                    raise LedgerError(
                        f"{path}: divergent duplicate records for shard {shard}"
                    )
                continue  # identical duplicate: first wins
            results[shard] = result
        return results, folded, None

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
        """fsync a directory entry (new file durability)."""
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

    # -- journaling ------------------------------------------------------

    def record(self, result: ShardResult) -> bool:
        """Journal one finished shard durably (idempotent).

        The ledger keeps what a reader of the written bytes decodes, so
        :meth:`merge` merges exactly that and a ``profile`` sidecar never
        tells two records apart. A shard already journaled with the same
        result — or folded into a snapshot record — is skipped
        (``False``; counted in ``duplicates_ignored``): the late-result
        path after a resume. A *different* result for a journaled shard
        raises :class:`LedgerError`: the determinism contract says that
        cannot happen, so it marks corruption, not a race.
        """
        shard = result.shard_index
        if not 0 <= shard < self.shard_count:
            raise LedgerError(f"shard {shard} outside 0..{self.shard_count - 1}")
        if shard < self._folded:
            self.duplicates_ignored += 1
            return False
        payload = shard_result_to_wire(result)
        try:
            decoded = shard_result_from_wire(
                payload, shard=shard, enabled=self.config.pattern_config.enabled
            )
        except ValueError as exc:
            raise LedgerError(
                f"shard {shard}: refusing to journal a result that does not "
                f"decode: {exc}"
            ) from None
        existing = self._results.get(shard)
        if existing is not None:
            if existing != decoded:
                raise LedgerError(
                    f"shard {shard}: divergent result for an already-journaled "
                    f"shard — same scan identity must produce identical shards"
                )
            self.duplicates_ignored += 1
            return False
        if self._handle is None:
            self._handle = open(self.path, "a", encoding="utf-8")
        self._handle.write(
            json.dumps({"kind": "shard", "shard": shard, "payload": payload}) + "\n"
        )
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._results[shard] = decoded
        self.recorded_count += 1
        return True

    # -- resume / merge --------------------------------------------------

    def completed_shards(self) -> frozenset[int]:
        """Every journaled shard index, snapshot prefix included."""
        return frozenset(self._results).union(range(self._folded))

    @property
    def completed_count(self) -> int:
        return len(self.completed_shards())

    def remaining(self) -> list[int]:
        """Shard indices still missing from the journal, ascending."""
        done = self.completed_shards()
        return [shard for shard in range(self.shard_count) if shard not in done]

    @property
    def is_complete(self) -> bool:
        return self.completed_count == self.shard_count

    def merge(self):
        """Merge every journaled shard, in shard order.

        This is the single merge path for ledger-backed runs: batch,
        stream and cluster all journal first and merge from the journal,
        which is what makes an interrupted-and-resumed run byte-identical
        to an uninterrupted one.
        """
        missing = self.remaining()
        if missing:
            raise LedgerError(
                f"cannot merge an incomplete ledger: shard(s) {missing} "
                f"not journaled"
            )
        return merge_shard_results(self.config, list(self._results.values()))

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


def ensure_ledger(ledger, config, shard_count: int) -> RunLedger | None:
    """Normalize an engine's ``ledger`` argument.

    ``None`` passes through; a path resumes-or-creates; an existing
    :class:`RunLedger` is verified against this scan's ``config_digest``
    and shard count (mismatch raises :class:`LedgerError`).
    """
    if ledger is None:
        return None
    if isinstance(ledger, RunLedger):
        _check_identity(
            ledger.path, ledger.config, ledger.config_digest, ledger.shard_count,
            config, shard_count,
        )
        return ledger
    return RunLedger.resume_or_create(ledger, config, shard_count)
