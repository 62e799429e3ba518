"""The run ledger: durability format, strictness, resume bookkeeping.

The file-level contract: a header binds the journal to one scan identity,
every record is one shard's lossless wire payload, a torn trailing line
(the signature of a kill mid-append) is tolerated, and every other
malformation refuses loudly at open instead of risking a wrong merge.
Ledgers holding the snapshot record earlier builds' compaction wrote
still open, resume and merge byte-identically.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

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
#: a v2 ledger written by the last build that compacted: the scan of the
#: ``config`` fixture, compacted after shards 0 and 1, then shard 2.
COMPACTED_V2 = Path(__file__).parent / "data" / "compacted-v2.ledger"
#: sha256 of the ledger file a cold ``ScanEngine`` run of the ``config``
#: fixture writes: the journal's bytes, not just its config digest.
PINNED_JOURNAL_SHA256 = (
    "4801293179c58fe5cb797a28ddb20d817edbab800707f1573c353f9a00af94dd"
)


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


def write_compacted(path, config, outcomes, folded: int, tail=()) -> None:
    """Write a ledger as earlier builds' compaction left it: the header,
    one snapshot record folding ``outcomes[:folded]`` in shard order, then
    one shard record per outcome in ``tail``."""
    ledger = RunLedger.create(path, config, 4)
    ledger.close()
    merged = {"v": WIRE_VERSION, "total_transactions": 0, "detections": [],
              "row_counts": {}}
    for outcome in outcomes[:folded]:
        payload = shard_result_to_wire(outcome)
        merged["total_transactions"] += payload["total_transactions"]
        merged["detections"].extend(payload["detections"])
        for name, counts in payload["row_counts"].items():
            row = merged["row_counts"].setdefault(name, [0, 0, 0])
            for column in range(3):
                row[column] += counts[column]
    lines = [json.dumps({"kind": "snapshot", "shards": folded, "generation": 1,
                         "merged": merged})]
    lines += [
        json.dumps({"kind": "shard", "shard": outcome.shard_index,
                    "payload": shard_result_to_wire(outcome)})
        for outcome in tail
    ]
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def append_record(path, shard: int, payload) -> None:
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps({"kind": "shard", "shard": shard, "payload": payload}) + "\n")


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
        assert sorted(reopened.completed_shards()) == [0, 1]
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
        assert sorted(reopened.completed_shards()) == [0, 1]

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
        assert sorted(replay.completed_shards()) == [0, 1, 2, 3]
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
        assert sorted(reopened.completed_shards()) == [0]

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
        assert sorted(resumed.completed_shards()) == [0, 1]
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
        assert sorted(resumed.completed_shards()) == [0]
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
        assert sorted(resumed.completed_shards()) == [0]


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


class TestCompaction:
    """Ledgers that earlier builds compacted: a snapshot record folds the
    journaled prefix. This build never writes one, but reads it."""

    def test_compacted_ledger_reopens_with_prefix_accounted(
        self, tmp_path, config, outcomes
    ):
        path = tmp_path / "run.ledger"
        write_compacted(path, config, outcomes, folded=3)
        resumed = RunLedger.open(path, config=config, shard_count=4)
        assert resumed.completed_shards() == frozenset({0, 1, 2})
        assert resumed.resumed_count == 3
        assert resumed.remaining() == [3]
        assert not resumed.is_complete
        resumed.record(outcomes[3])
        assert resumed.is_complete

    def test_compacted_merge_byte_identical_to_uncompacted(
        self, tmp_path, config, outcomes
    ):
        plain = RunLedger.create(tmp_path / "plain.ledger", config, 4)
        for outcome in outcomes:
            plain.record(outcome)
        for folded in range(1, 5):
            path = tmp_path / f"compacted-{folded}.ledger"
            write_compacted(path, config, outcomes, folded, tail=outcomes[folded:])
            replay = RunLedger.open(path, config=config, shard_count=4)
            assert fingerprint(replay.merge()) == fingerprint(plain.merge())

    def test_record_into_compacted_prefix_is_duplicate(
        self, tmp_path, config, outcomes
    ):
        """A late result for a compacted shard (a dead primary's worker
        finishing after adoption) is suppressed as a duplicate — the
        individual payload is gone, the determinism contract stands in."""
        path = tmp_path / "run.ledger"
        write_compacted(path, config, outcomes, folded=1)
        ledger = RunLedger.open(path, config=config, shard_count=4)
        before = path.read_bytes()
        assert ledger.record(outcomes[0]) is False
        assert ledger.duplicates_ignored == 1
        assert path.read_bytes() == before

    def test_appends_after_compaction_land_in_rotated_file(
        self, tmp_path, config, outcomes
    ):
        """Records a resumed run appends to a compacted file land after
        its snapshot and tail, and the next open reads all of them."""
        path = tmp_path / "run.ledger"
        write_compacted(path, config, outcomes, folded=1, tail=outcomes[2:3])
        with RunLedger.open(path, config=config, shard_count=4) as ledger:
            ledger.record(outcomes[1])
        replay = RunLedger.open(path, config=config, shard_count=4)
        assert replay.completed_shards() == frozenset({0, 1, 2})


class TestCompactionCrashWindows:
    """A snapshot record is checked like any other line at open."""

    def test_snapshot_after_shard_records_raises(self, tmp_path, config, outcomes):
        path = tmp_path / "run.ledger"
        write_compacted(path, config, outcomes, folded=1, tail=outcomes[1:2])
        lines = path.read_text().splitlines()
        doctored = [lines[0], lines[2], lines[1]]  # snapshot after a shard
        path.write_text("\n".join(doctored) + "\n")
        with pytest.raises(LedgerError, match="snapshot record must be the first"):
            RunLedger.open(path, config=config)

    def test_malformed_snapshot_raises(self, tmp_path, config, outcomes):
        path = tmp_path / "run.ledger"
        write_compacted(path, config, outcomes, folded=1)
        lines = path.read_text().splitlines()
        snapshot = json.loads(lines[1])
        snapshot["generation"] = 0
        path.write_text("\n".join([lines[0], json.dumps(snapshot)]) + "\n")
        with pytest.raises(LedgerError, match="line 2: .*generation"):
            RunLedger.open(path, config=config)
        snapshot["generation"] = 1
        snapshot["merged"]["detections"] = 3
        path.write_text("\n".join([lines[0], json.dumps(snapshot)]) + "\n")
        with pytest.raises(LedgerError, match="line 2: .*detections"):
            RunLedger.open(path, config=config)


class TestJournalBytes:
    def test_pinned_scan_journal_bytes(self, tmp_path, config):
        path = tmp_path / "run.ledger"
        ScanEngine(config, ledger=path).run()
        assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_JOURNAL_SHA256

    def test_compacted_v2_ledger_resumes_to_cold_fingerprint(self, tmp_path, config):
        """The file the last compacting build wrote: it opens with shards
        0-2 done, resumes shard 3 and merges to the cold run's bytes."""
        path = tmp_path / "run.ledger"
        path.write_bytes(COMPACTED_V2.read_bytes())
        engine = ScanEngine(config, ledger=path)
        resumed = engine.run()
        assert (engine.ledger.resumed_count, engine.ledger.recorded_count) == (3, 1)
        assert fingerprint(resumed) == fingerprint(ScanEngine(config).run())
        replay = RunLedger.open(path, config=config, shard_count=4)
        assert fingerprint(replay.merge()) == fingerprint(resumed)


class TestDecodeAtOpen:
    """Every record is decoded at open: a payload that would have failed
    the merge later is a :class:`LedgerError` naming its line now."""

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("detections", 3, "detections must be a list"),
            ("row_counts", [], "row_counts must be an object"),
            ("shard_index", 5, "shard_index=5 is not shard 0"),
            ("shard_index", "zero", "shard_index must be an int"),
            ("total_transactions", None, "total_transactions must be an int"),
            ("row_counts", {"FOO": [1, 0, 1]}, "not a map of pattern key"),
            ("row_counts", {"SANDWICH": [1, 0, 1]}, "does not enable"),
            ("row_counts", {"KRP": [1, True, 1]}, "not a map of pattern key"),
        ],
    )
    def test_undecodable_payload_fails_open(
        self, tmp_path, config, outcomes, field, value, message
    ):
        path = tmp_path / "run.ledger"
        RunLedger.create(path, config, 4).close()
        append_record(path, 0, {**shard_result_to_wire(outcomes[0]), field: value})
        with pytest.raises(LedgerError, match=f"line 2: .*{message}"):
            RunLedger.open(path, config=config)

    def test_undecodable_detection_fails_open(self, tmp_path, config, outcomes):
        path = tmp_path / "run.ledger"
        RunLedger.create(path, config, 4).close()
        payload = shard_result_to_wire(outcomes[0])
        assert payload["detections"], "the fixture shard detects something"
        payload["detections"][0]["truth"]["attacker"] = "0xnot-an-address"
        append_record(path, 0, payload)
        with pytest.raises(LedgerError, match="line 2: ground truth: attacker"):
            RunLedger.open(path, config=config)

    def test_profile_sidecar_is_not_a_divergent_duplicate(
        self, tmp_path, config, outcomes
    ):
        ledger = RunLedger.create(tmp_path / "run.ledger", config, 4)
        assert ledger.record(replace(outcomes[0], profile={"timers_ns": {"a": 1}}))
        assert not ledger.record(replace(outcomes[0], profile={"timers_ns": {"a": 2}}))
        assert ledger.duplicates_ignored == 1


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
        divergent = replace(
            outcomes[0], total_transactions=outcomes[0].total_transactions + 1
        )
        with pytest.raises(LedgerError, match="divergent result"):
            ledger.record(divergent)

    def test_record_out_of_range_shard_raises(self, tmp_path, config, outcomes):
        ledger = RunLedger.create(tmp_path / "run.ledger", config, 4)
        with pytest.raises(LedgerError, match="outside"):
            ledger.record(replace(outcomes[0], shard_index=4))

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
