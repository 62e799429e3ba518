"""The run ledger: durability format, strictness, resume bookkeeping.

The file-level contract: a header binds the journal to one scan identity,
every record is one shard's lossless wire payload, a torn trailing line
(the signature of a kill mid-append) is tolerated, and every other
malformation refuses loudly instead of risking a wrong merge.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.engine.scan import ScanEngine, run_shard
from repro.engine.plan import build_schedule, resolve_shard_count, shard_schedule
from repro.engine.wire import (
    WIRE_VERSION,
    config_digest,
    config_from_wire,
    config_to_wire,
    shard_result_to_wire,
)
from repro.runtime import LEDGER_VERSION, LedgerError, RunLedger, ensure_ledger
from repro.workload.generator import WildScanConfig
from tests.fingerprint import fingerprint

SCALE = 0.005
SEED = 7


@pytest.fixture()
def config():
    return WildScanConfig(scale=SCALE, seed=SEED, shards=4)


@pytest.fixture(scope="module")
def outcomes():
    cfg = WildScanConfig(scale=SCALE, seed=SEED, shards=4)
    tasks = build_schedule(cfg.scale, cfg.seed)
    count = resolve_shard_count(cfg.shards, len(tasks))
    parts = shard_schedule(tasks, count)
    return [run_shard((cfg, i, count, part)) for i, part in enumerate(parts)]


class TestCreateOpen:
    def test_create_writes_versioned_header(self, tmp_path, config):
        path = tmp_path / "run.ledger"
        RunLedger.create(path, config, 4)
        header = json.loads(path.read_text().splitlines()[0])
        assert header["kind"] == "header"
        assert header["ledger_version"] == LEDGER_VERSION
        assert header["wire_version"] == WIRE_VERSION
        assert header["seed"] == SEED
        assert header["scale"] == SCALE
        assert header["shard_count"] == 4
        assert header["config_digest"] == config_digest(config)

    def test_create_refuses_existing_file(self, tmp_path, config):
        path = tmp_path / "run.ledger"
        RunLedger.create(path, config, 4)
        with pytest.raises(FileExistsError):
            RunLedger.create(path, config, 4)

    def test_open_round_trips_records(self, tmp_path, config, outcomes):
        path = tmp_path / "run.ledger"
        ledger = RunLedger.create(path, config, 4)
        for outcome in outcomes[:2]:
            assert ledger.record(outcome) is True
        reopened = RunLedger.open(path, config=config, shard_count=4)
        assert sorted(reopened.completed_payloads) == [0, 1]
        assert reopened.resumed_count == 2
        assert reopened.remaining() == [2, 3]
        assert not reopened.is_complete

    def test_open_missing_file(self, tmp_path, config):
        with pytest.raises(LedgerError, match="no ledger"):
            RunLedger.open(tmp_path / "absent.ledger", config=config)

    def test_open_rejects_config_digest_mismatch(self, tmp_path, config):
        path = tmp_path / "run.ledger"
        RunLedger.create(path, config, 4)
        other = WildScanConfig(scale=SCALE, seed=SEED + 1, shards=4)
        with pytest.raises(LedgerError, match="config digest mismatch") as info:
            RunLedger.open(path, config=other, shard_count=4)
        # the error is self-describing: both the header's identity and
        # the caller's land in the message, so the operator can see
        # *which* scan the journal belongs to without opening it.
        message = str(info.value)
        assert f"seed={config.seed}" in message
        assert f"seed={other.seed}" in message
        assert f"scale={config.scale}" in message
        from repro.engine.wire import config_digest

        assert config_digest(config) in message
        assert config_digest(other) in message

    def test_open_rejects_registry_mismatch(self, tmp_path, config):
        """A different enabled-pattern set is a different scan: resuming
        its ledger must fail as loudly as a seed mismatch, with both
        identity tuples in the message."""
        from repro.leishen.registry import ALL_PATTERN_KEYS, PatternSettings

        path = tmp_path / "run.ledger"
        RunLedger.create(path, config, 4)
        widened = WildScanConfig(
            scale=SCALE, seed=SEED, shards=4,
            pattern_config=PatternSettings(enabled=ALL_PATTERN_KEYS),
        )
        with pytest.raises(LedgerError, match="config digest mismatch") as info:
            RunLedger.open(path, config=widened, shard_count=4)
        message = str(info.value)
        assert config_digest(config) in message
        assert config_digest(widened) in message

    def test_open_rejects_shard_count_mismatch(self, tmp_path, config):
        path = tmp_path / "run.ledger"
        RunLedger.create(path, config, 4)
        with pytest.raises(LedgerError, match="shard count mismatch") as info:
            RunLedger.open(path, config=config, shard_count=8)
        message = str(info.value)
        assert "shard_count=4" in message  # what the ledger holds
        assert "shard_count=8" in message  # what the caller expected
        assert f"seed={config.seed}" in message

    def test_open_rejects_wrong_ledger_version(self, tmp_path, config):
        path = tmp_path / "run.ledger"
        RunLedger.create(path, config, 4)
        header = json.loads(path.read_text().splitlines()[0])
        header["ledger_version"] = LEDGER_VERSION + 1
        path.write_text(json.dumps(header) + "\n")
        with pytest.raises(LedgerError, match="ledger format version"):
            RunLedger.open(path, config=config)

    def test_open_rejects_wrong_wire_version(self, tmp_path, config):
        path = tmp_path / "run.ledger"
        RunLedger.create(path, config, 4)
        header = json.loads(path.read_text().splitlines()[0])
        header["wire_version"] = WIRE_VERSION + 1
        path.write_text(json.dumps(header) + "\n")
        with pytest.raises(LedgerError, match="wire schema version"):
            RunLedger.open(path, config=config)

    def test_open_rejects_non_header_first_line(self, tmp_path, config):
        path = tmp_path / "run.ledger"
        path.write_text('{"kind": "shard", "shard": 0}\n')
        with pytest.raises(LedgerError, match="not a ledger header"):
            RunLedger.open(path, config=config)


#: the flat pattern config older builds wrote, at the paper's thresholds
FLAT = {"krp_min_buys": 5, "sbs_min_volatility": 0.28,
        "sbs_amount_tolerance": 0.001, "mbs_min_rounds": 3}


def write_legacy_header(path, config, shard_count: int, **flat) -> dict:
    """Write a header exactly as older builds did for ``config`` with a
    flat pattern config: that config and its digest under that build."""
    wire = {**config_to_wire(config), "pattern_config": {**FLAT, **flat}}
    blob = json.dumps(wire, sort_keys=True, separators=(",", ":")).encode()
    header = {
        "kind": "header", "ledger_version": LEDGER_VERSION,
        "wire_version": WIRE_VERSION, "seed": config.seed, "scale": config.scale,
        "shard_count": shard_count, "config_digest": hashlib.sha256(blob).hexdigest(),
        "config": wire,
    }
    path.write_text(json.dumps(header, sort_keys=True) + "\n")
    return header


class TestOldIdentities:
    """A ledger's identity is re-derived from its decoded config: an old
    spelling of the same scan resumes, a different scan is refused."""

    def test_legacy_header_resumes_byte_identically(self, tmp_path, config, outcomes):
        path = tmp_path / "run.ledger"
        header = write_legacy_header(path, config, 4)
        # what the previous build digested for this config
        assert header["config_digest"] == (
            "a2e244729ccf6330be745a75b78323d29be508fbe468ab46db5e27bb909a5949"
        )
        with RunLedger.open(path) as ledger:
            for outcome in outcomes[:2]:
                ledger.record(outcome)
        with RunLedger.open(path, config=config, shard_count=4) as ledger:
            assert ledger.config_digest == config_digest(config)
            resumed = ScanEngine(config, ledger=ledger).run()
            assert (ledger.resumed_count, ledger.recorded_count) == (2, 2)
        assert fingerprint(resumed) == fingerprint(ScanEngine(config).run())

    def test_legacy_header_of_another_scan_is_refused(self, tmp_path, config):
        path = tmp_path / "run.ledger"
        header = write_legacy_header(path, config, 4, krp_min_buys=6)
        with pytest.raises(LedgerError, match="config digest mismatch") as info:
            RunLedger.open(path, config=config, shard_count=4)
        message = str(info.value)
        assert config_digest(config) in message
        assert config_digest(config_from_wire(header["config"])) in message

    def test_undecodable_header_config_is_a_ledger_error(self, tmp_path, config):
        path = tmp_path / "run.ledger"
        RunLedger.create(path, config, 4)
        header = json.loads(path.read_text())
        header["config"]["pattern_config"] = {"enabled": 5, "params": {}, "registry": 1}
        path.write_text(json.dumps(header) + "\n")
        with pytest.raises(LedgerError, match="header config does not decode") as info:
            RunLedger.open(path)
        assert str(path) in str(info.value) and "enabled" in str(info.value)


class TestDurabilityAndCorruption:
    def test_torn_trailing_line_tolerated(self, tmp_path, config, outcomes):
        path = tmp_path / "run.ledger"
        ledger = RunLedger.create(path, config, 4)
        for outcome in outcomes[:2]:
            ledger.record(outcome)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "shard", "shard": 2, "payl')  # kill signature
        reopened = RunLedger.open(path, config=config, shard_count=4)
        assert sorted(reopened.completed_payloads) == [0, 1]

    def test_torn_tail_truncated_so_appends_stay_parseable(
        self, tmp_path, config, outcomes
    ):
        """Opening a torn ledger must cut the partial line; otherwise the
        resumed run's appends land *after* it and the tear — tolerable at
        the tail — becomes interior corruption at the next open."""
        path = tmp_path / "run.ledger"
        ledger = RunLedger.create(path, config, 4)
        ledger.record(outcomes[0])
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "shard", "shard": 2, "payl')  # kill signature
        resumed = RunLedger.open(path, config=config, shard_count=4)
        assert path.read_text().endswith("\n")  # tail is a clean boundary again
        for outcome in outcomes[1:]:
            resumed.record(outcome)
        resumed.close()
        replay = RunLedger.open(path, config=config, shard_count=4)
        assert sorted(replay.completed_payloads) == [0, 1, 2, 3]
        assert replay.is_complete

    def test_corrupt_interior_record_raises(self, tmp_path, config, outcomes):
        path = tmp_path / "run.ledger"
        ledger = RunLedger.create(path, config, 4)
        ledger.record(outcomes[0])
        lines = path.read_text().splitlines()
        lines.insert(1, '{"kind": "shard", bro')  # interior, not trailing
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(LedgerError, match="corrupt interior record"):
            RunLedger.open(path, config=config)

    def test_out_of_range_shard_raises(self, tmp_path, config, outcomes):
        path = tmp_path / "run.ledger"
        ledger = RunLedger.create(path, config, 4)
        payload = shard_result_to_wire(outcomes[0])
        with open(path, "a", encoding="utf-8") as handle:
            record = {"kind": "shard", "shard": 9, "payload": payload}
            handle.write(json.dumps(record) + "\n")
        with pytest.raises(LedgerError, match="outside 0..3"):
            RunLedger.open(path, config=config)

    def test_wrong_payload_wire_version_raises(self, tmp_path, config, outcomes):
        path = tmp_path / "run.ledger"
        RunLedger.create(path, config, 4)
        payload = dict(shard_result_to_wire(outcomes[0]), v=WIRE_VERSION + 1)
        with open(path, "a", encoding="utf-8") as handle:
            record = {"kind": "shard", "shard": 0, "payload": payload}
            handle.write(json.dumps(record) + "\n")
        with pytest.raises(LedgerError, match="wire version"):
            RunLedger.open(path, config=config)

    def test_identical_duplicate_records_first_wins(self, tmp_path, config, outcomes):
        path = tmp_path / "run.ledger"
        ledger = RunLedger.create(path, config, 4)
        ledger.record(outcomes[0])
        line = path.read_text().splitlines()[1]
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")  # replayed append after a crash
        reopened = RunLedger.open(path, config=config, shard_count=4)
        assert sorted(reopened.completed_payloads) == [0]

    def test_divergent_duplicate_records_raise(self, tmp_path, config, outcomes):
        path = tmp_path / "run.ledger"
        ledger = RunLedger.create(path, config, 4)
        ledger.record(outcomes[0])
        payload = dict(shard_result_to_wire(outcomes[0]))
        payload["total_transactions"] += 1
        with open(path, "a", encoding="utf-8") as handle:
            record = {"kind": "shard", "shard": 0, "payload": payload}
            handle.write(json.dumps(record) + "\n")
        with pytest.raises(LedgerError, match="divergent duplicate"):
            RunLedger.open(path, config=config)


class TestTornTailByteAccounting:
    """Regressions for the two torn-tail classification/truncation bugs:
    parsing must split records on ``b"\\n"`` alone (never ``\\r`` and
    friends), and a torn partial record followed by trailing blank lines
    is a torn *tail*, not interior corruption."""

    def test_carriage_return_bearing_torn_tail(self, tmp_path, config, outcomes):
        """A torn tail with a stray ``\\r`` used to be split into extra
        'lines' by ``str.splitlines()``, truncating mid-record and turning
        a tolerable tear into interior corruption at the next open."""
        path = tmp_path / "run.ledger"
        ledger = RunLedger.create(path, config, 4)
        for outcome in outcomes[:2]:
            ledger.record(outcome)
        ledger.close()
        with open(path, "ab") as handle:
            handle.write(b'{"kind": "shard", "shard": 2, "pay\rl')
        resumed = RunLedger.open(path, config=config, shard_count=4)
        assert sorted(resumed.completed_payloads) == [0, 1]
        assert path.read_bytes().endswith(b"}\n")  # whole tear cut away
        for outcome in outcomes[2:]:
            resumed.record(outcome)
        resumed.close()
        replay = RunLedger.open(path, config=config, shard_count=4)
        assert replay.is_complete

    def test_crlf_converted_ledger_still_parses(self, tmp_path, config, outcomes):
        """A ledger copied through a CRLF filesystem: ``\\r`` before the
        newline is JSON whitespace, so every record still decodes."""
        path = tmp_path / "run.ledger"
        ledger = RunLedger.create(path, config, 4)
        for outcome in outcomes:
            ledger.record(outcome)
        ledger.close()
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        replay = RunLedger.open(path, config=config, shard_count=4)
        assert replay.is_complete

    def test_torn_tail_followed_by_blank_line_tolerated(
        self, tmp_path, config, outcomes
    ):
        """The tear landed after the partial record's bytes but an earlier
        flush already wrote ``\\n``: the partial line is followed by a
        trailing blank line. That is still a torn tail — it used to raise
        ``LedgerError`` because only the literal last line was checked."""
        path = tmp_path / "run.ledger"
        ledger = RunLedger.create(path, config, 4)
        ledger.record(outcomes[0])
        ledger.close()
        with open(path, "ab") as handle:
            handle.write(b'{"kind": "shard", "shard": 2, "payl\n\n')
        resumed = RunLedger.open(path, config=config, shard_count=4)
        assert sorted(resumed.completed_payloads) == [0]
        for outcome in outcomes[1:]:
            resumed.record(outcome)
        resumed.close()
        assert RunLedger.open(path, config=config, shard_count=4).is_complete

    def test_partial_record_before_valid_record_still_raises(
        self, tmp_path, config, outcomes
    ):
        """The other ordering stays loud: a partial record with a *real*
        record after it cannot be a tear — records append one at a time —
        so it is interior corruption."""
        path = tmp_path / "run.ledger"
        ledger = RunLedger.create(path, config, 4)
        ledger.record(outcomes[0])
        ledger.close()
        valid = path.read_text().splitlines()[1]
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "shard", "shard": 2, "payl\n')
            handle.write(valid + "\n")
        with pytest.raises(LedgerError, match="corrupt interior record"):
            RunLedger.open(path, config=config)

    def test_undecodable_utf8_tail_tolerated(self, tmp_path, config, outcomes):
        """A tear can land mid-codepoint; invalid UTF-8 on the tail line
        classifies exactly like invalid JSON."""
        path = tmp_path / "run.ledger"
        ledger = RunLedger.create(path, config, 4)
        ledger.record(outcomes[0])
        ledger.close()
        with open(path, "ab") as handle:
            handle.write(b'{"kind": "shard", "shard": 2, "p\xff\xfe')
        resumed = RunLedger.open(path, config=config, shard_count=4)
        assert sorted(resumed.completed_payloads) == [0]


class TestDirectoryFsync:
    def test_create_fsyncs_parent_directory(self, tmp_path, config, monkeypatch):
        """The new-file durability gap: creating the journal must fsync
        the directory entry, not just the file."""
        synced = []
        monkeypatch.setattr(
            RunLedger, "_fsync_dir", staticmethod(lambda d: synced.append(d))
        )
        path = tmp_path / "run.ledger"
        RunLedger.create(path, config, 4)
        assert synced == [path.parent]

    def test_compaction_rename_fsyncs_parent_directory(
        self, tmp_path, config, outcomes, monkeypatch
    ):
        path = tmp_path / "run.ledger"
        ledger = RunLedger.create(path, config, 4)
        ledger.record(outcomes[0])
        synced = []
        monkeypatch.setattr(
            RunLedger, "_fsync_dir", staticmethod(lambda d: synced.append(d))
        )
        assert ledger.compact() is True
        assert synced == [path.parent]


class TestCompaction:
    def test_compact_folds_prefix_and_rotates(self, tmp_path, config, outcomes):
        path = tmp_path / "run.ledger"
        ledger = RunLedger.create(path, config, 4)
        for outcome in outcomes[:2]:
            ledger.record(outcome)
        assert ledger.compact() is True
        assert ledger.snapshot_shards == 2
        assert ledger.generation == 1
        assert ledger.compactions == 1
        lines = path.read_text().splitlines()
        assert json.loads(lines[0])["kind"] == "header"
        snapshot = json.loads(lines[1])
        assert snapshot["kind"] == "snapshot"
        assert snapshot["shards"] == 2
        assert snapshot["generation"] == 1
        assert len(lines) == 2  # no tail yet: two shards became one record
        assert not list(tmp_path.glob("run.ledger.*"))  # rotation renamed

    def test_compact_with_no_contiguous_prefix_is_noop(
        self, tmp_path, config, outcomes
    ):
        path = tmp_path / "run.ledger"
        ledger = RunLedger.create(path, config, 4)
        ledger.record(outcomes[1])  # shard 1: shard 0 still missing
        before = path.read_bytes()
        assert ledger.compact() is False
        assert path.read_bytes() == before

    def test_compacted_ledger_reopens_with_prefix_accounted(
        self, tmp_path, config, outcomes
    ):
        path = tmp_path / "run.ledger"
        ledger = RunLedger.create(path, config, 4)
        for outcome in outcomes[:3]:
            ledger.record(outcome)
        ledger.compact()
        ledger.close()
        resumed = RunLedger.open(path, config=config, shard_count=4)
        assert resumed.snapshot_shards == 3
        assert resumed.completed_shards() == frozenset({0, 1, 2})
        assert resumed.completed_payloads == {}  # prefix holds no payloads
        assert resumed.resumed_count == 3
        assert resumed.remaining() == [3]
        assert not resumed.is_complete
        resumed.record(outcomes[3])
        assert resumed.is_complete

    def test_compacted_merge_byte_identical_to_uncompacted(
        self, tmp_path, config, outcomes
    ):
        plain = RunLedger.create(tmp_path / "plain.ledger", config, 4)
        compacted = RunLedger.create(tmp_path / "compacted.ledger", config, 4)
        for outcome in outcomes:
            plain.record(outcome)
            compacted.record(outcome)
            compacted.compact()  # fold after every record: worst case
        assert compacted.generation == 4
        assert fingerprint(compacted.merge()) == fingerprint(plain.merge())
        # and the identity survives a reopen of the rotated file
        compacted.close()
        replay = RunLedger.open(
            tmp_path / "compacted.ledger", config=config, shard_count=4
        )
        assert fingerprint(replay.merge()) == fingerprint(plain.merge())

    def test_compact_extends_existing_snapshot(self, tmp_path, config, outcomes):
        path = tmp_path / "run.ledger"
        ledger = RunLedger.create(path, config, 4)
        ledger.record(outcomes[0])
        ledger.compact()
        # out-of-order completion: 2 journals while 1 is outstanding
        ledger.record(outcomes[2])
        assert ledger.compact() is False  # prefix can't extend past the gap
        ledger.record(outcomes[1])
        assert ledger.compact() is True
        assert ledger.snapshot_shards == 3
        assert ledger.generation == 2
        ledger.record(outcomes[3])
        from repro.engine.scan import merge_shard_results

        assert fingerprint(ledger.merge()) == fingerprint(
            merge_shard_results(config, outcomes)
        )

    def test_record_into_compacted_prefix_is_duplicate(
        self, tmp_path, config, outcomes
    ):
        """A late result for a compacted shard (a dead primary's worker
        finishing after adoption) is suppressed as a duplicate — the
        individual payload is gone, the determinism contract stands in."""
        path = tmp_path / "run.ledger"
        ledger = RunLedger.create(path, config, 4)
        ledger.record(outcomes[0])
        ledger.compact()
        assert ledger.record(outcomes[0]) is False
        assert ledger.duplicates_ignored == 1

    def test_compact_every_auto_compacts(self, tmp_path, config, outcomes):
        path = tmp_path / "run.ledger"
        ledger = RunLedger.create(path, config, 4, compact_every=2)
        for outcome in outcomes:
            ledger.record(outcome)
        assert ledger.compactions == 2
        assert ledger.snapshot_shards == 4
        assert ledger.is_complete
        from repro.engine.scan import merge_shard_results

        assert fingerprint(ledger.merge()) == fingerprint(
            merge_shard_results(config, outcomes)
        )

    def test_compact_every_validated(self, tmp_path, config):
        with pytest.raises(ValueError, match="compact_every"):
            RunLedger.create(tmp_path / "run.ledger", config, 4, compact_every=0)

    def test_appends_after_compaction_land_in_rotated_file(
        self, tmp_path, config, outcomes
    ):
        """compact() must rotate the append handle too: a record written
        through a stale handle would land in the unlinked old inode and
        silently vanish."""
        path = tmp_path / "run.ledger"
        ledger = RunLedger.create(path, config, 4)
        ledger.record(outcomes[0])  # opens the append handle
        ledger.compact()
        ledger.record(outcomes[1])
        ledger.close()
        replay = RunLedger.open(path, config=config, shard_count=4)
        assert replay.completed_shards() == frozenset({0, 1})


class TestCompactionCrashWindows:
    def test_crash_between_write_and_rename_keeps_old_file(
        self, tmp_path, config, outcomes, monkeypatch
    ):
        """Killed after writing ``<path>.N`` but before the rename: the
        rotation never took effect, the old journal is intact, and the
        leftover is cleared on the next open."""
        import os as os_module

        path = tmp_path / "run.ledger"
        ledger = RunLedger.create(path, config, 4)
        for outcome in outcomes[:2]:
            ledger.record(outcome)
        before = path.read_bytes()

        def crash(src, dst):
            raise KeyboardInterrupt("kill between write and rename")

        monkeypatch.setattr(os_module, "replace", crash)
        with pytest.raises(KeyboardInterrupt):
            ledger.compact()
        monkeypatch.undo()
        assert path.read_bytes() == before  # old file: every record intact
        assert (tmp_path / "run.ledger.1").exists()  # orphaned rotation
        resumed = RunLedger.open(path, config=config, shard_count=4)
        assert resumed.completed_shards() == frozenset({0, 1})
        assert resumed.snapshot_shards == 0
        assert not (tmp_path / "run.ledger.1").exists()  # swept on open

    def test_crash_between_rename_and_dir_fsync_keeps_new_file(
        self, tmp_path, config, outcomes, monkeypatch
    ):
        """Killed after the rename but before the directory fsync: the
        new (compacted) file is what parses — never neither."""
        path = tmp_path / "run.ledger"
        ledger = RunLedger.create(path, config, 4)
        for outcome in outcomes[:2]:
            ledger.record(outcome)

        def crash(directory):
            raise KeyboardInterrupt("kill between rename and dir fsync")

        monkeypatch.setattr(RunLedger, "_fsync_dir", staticmethod(crash))
        with pytest.raises(KeyboardInterrupt):
            ledger.compact()
        monkeypatch.undo()
        resumed = RunLedger.open(path, config=config, shard_count=4)
        assert resumed.snapshot_shards == 2
        assert resumed.completed_shards() == frozenset({0, 1})
        for outcome in outcomes[2:]:
            resumed.record(outcome)
        from repro.engine.scan import merge_shard_results

        assert fingerprint(resumed.merge()) == fingerprint(
            merge_shard_results(config, outcomes)
        )

    def test_snapshot_after_shard_records_raises(self, tmp_path, config, outcomes):
        path = tmp_path / "run.ledger"
        ledger = RunLedger.create(path, config, 4)
        ledger.record(outcomes[0])
        ledger.compact()
        ledger.record(outcomes[1])  # a tail record after the snapshot
        ledger.close()
        lines = path.read_text().splitlines()
        doctored = [lines[0], lines[2], lines[1]]  # snapshot after a shard
        path.write_text("\n".join(doctored) + "\n")
        with pytest.raises(LedgerError, match="snapshot record must be the first"):
            RunLedger.open(path, config=config)

    def test_malformed_snapshot_raises(self, tmp_path, config, outcomes):
        path = tmp_path / "run.ledger"
        ledger = RunLedger.create(path, config, 4)
        ledger.record(outcomes[0])
        ledger.compact()
        ledger.close()
        lines = path.read_text().splitlines()
        snapshot = json.loads(lines[1])
        snapshot["generation"] = 0
        path.write_text("\n".join([lines[0], json.dumps(snapshot)]) + "\n")
        with pytest.raises(LedgerError, match="generation"):
            RunLedger.open(path, config=config)


class TestRecording:
    def test_record_is_idempotent(self, tmp_path, config, outcomes):
        ledger = RunLedger.create(tmp_path / "run.ledger", config, 4)
        assert ledger.record(outcomes[0]) is True
        assert ledger.record(outcomes[0]) is False
        assert ledger.recorded_count == 1
        assert ledger.duplicates_ignored == 1

    def test_record_divergent_payload_raises(self, tmp_path, config, outcomes):
        ledger = RunLedger.create(tmp_path / "run.ledger", config, 4)
        ledger.record(outcomes[0])
        payload = dict(shard_result_to_wire(outcomes[0]))
        payload["total_transactions"] += 1
        with pytest.raises(LedgerError, match="divergent result"):
            ledger.record_payload(0, payload)

    def test_record_out_of_range_shard_raises(self, tmp_path, config, outcomes):
        ledger = RunLedger.create(tmp_path / "run.ledger", config, 4)
        with pytest.raises(LedgerError, match="outside"):
            ledger.record_payload(4, shard_result_to_wire(outcomes[0]))

    def test_merge_requires_completeness(self, tmp_path, config, outcomes):
        ledger = RunLedger.create(tmp_path / "run.ledger", config, 4)
        ledger.record(outcomes[0])
        with pytest.raises(LedgerError, match="incomplete"):
            ledger.merge()

    def test_merge_matches_direct_merge(self, tmp_path, config, outcomes):
        from repro.engine.scan import merge_shard_results

        ledger = RunLedger.create(tmp_path / "run.ledger", config, 4)
        for outcome in outcomes:
            ledger.record(outcome)
        merged = ledger.merge()
        direct = merge_shard_results(config, outcomes)
        assert merged.total_transactions == direct.total_transactions
        assert [d.tx_hash for d in merged.detections] == [
            d.tx_hash for d in direct.detections
        ]
        assert {
            name: (row.n, row.tp, row.fp) for name, row in merged.rows.items()
        } == {name: (row.n, row.tp, row.fp) for name, row in direct.rows.items()}


class TestEnsureLedger:
    def test_none_passthrough(self, config):
        assert ensure_ledger(None, config, 4) is None

    def test_path_resumes_or_creates(self, tmp_path, config, outcomes):
        path = tmp_path / "run.ledger"
        first = ensure_ledger(path, config, 4)
        first.record(outcomes[0])
        second = ensure_ledger(path, config, 4)
        assert second.resumed_count == 1

    def test_instance_verified_against_config(self, tmp_path, config):
        ledger = RunLedger.create(tmp_path / "run.ledger", config, 4)
        other = WildScanConfig(scale=SCALE, seed=SEED + 1, shards=4)
        with pytest.raises(LedgerError, match="different config"):
            ensure_ledger(ledger, other, 4)
        with pytest.raises(LedgerError, match="shard_count"):
            ensure_ledger(ledger, config, 8)
        assert ensure_ledger(ledger, config, 4) is ledger


class TestEngineIntegration:
    def test_resumed_scan_matches_uninterrupted(self, tmp_path, config, outcomes):
        """Resume from a half-written journal; the merged result must be
        byte-identical to an uninterrupted ledger-free run."""
        cold = ScanEngine(config).run()
        path = tmp_path / "run.ledger"
        partial = RunLedger.create(path, config, 4)
        for outcome in outcomes[:2]:
            partial.record(outcome)
        partial.close()

        engine = ScanEngine(config, ledger=path)
        resumed = engine.run()
        assert engine.ledger.resumed_count == 2
        assert engine.ledger.recorded_count == 2
        assert resumed.total_transactions == cold.total_transactions
        assert [d.tx_hash for d in resumed.detections] == [
            d.tx_hash for d in cold.detections
        ]

    def test_resuming_complete_ledger_schedules_zero_shards(
        self, tmp_path, config, outcomes
    ):
        path = tmp_path / "run.ledger"
        ledger = RunLedger.create(path, config, 4)
        for outcome in outcomes:
            ledger.record(outcome)
        ledger.close()
        engine = ScanEngine(config, ledger=path)
        result = engine.run()
        assert engine.ledger.resumed_count == 4
        assert engine.ledger.recorded_count == 0  # nothing scheduled
        assert result.total_transactions == sum(
            outcome.total_transactions for outcome in outcomes
        )
