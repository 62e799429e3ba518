"""Run manifests: digest-derived ids, atomic persistence, strict decode."""

from __future__ import annotations

import json

import pytest

from repro.engine.wire import config_digest
from repro.service.registry import (
    MANIFEST_VERSION,
    RunRecord,
    RunRegistry,
    run_id_for,
)
from repro.workload.generator import WildScanConfig


def test_run_id_is_config_digest_prefix():
    config = WildScanConfig(scale=0.01, seed=7, shards=2)
    assert run_id_for(config) == f"run-{config_digest(config)[:16]}"
    # execution knobs never change the identity...
    assert run_id_for(WildScanConfig(scale=0.01, seed=7, shards=2, jobs=8)) == (
        run_id_for(config)
    )
    # ...but the scan parameters do.
    assert run_id_for(WildScanConfig(scale=0.01, seed=8, shards=2)) != (
        run_id_for(config)
    )


def test_create_save_load_roundtrip(tmp_path):
    registry = RunRegistry(tmp_path)
    config = WildScanConfig(scale=0.01, seed=7, shards=2)
    record = registry.create(config, jobs=3)
    loaded = registry.load(record.run_id)
    assert loaded == record
    record.state = "running"
    record.shard_count = 2
    registry.save(record)
    assert registry.load(record.run_id).state == "running"


def test_load_unknown_run_raises(tmp_path):
    with pytest.raises(KeyError, match="no run manifest"):
        RunRegistry(tmp_path).load("run-missing")


def test_manifest_rejects_version_and_field_drift(tmp_path):
    registry = RunRegistry(tmp_path)
    record = registry.create(WildScanConfig(scale=0.01, seed=7, shards=2))
    payload = json.loads(registry.manifest_path(record.run_id).read_text())

    newer = dict(payload, manifest_version=MANIFEST_VERSION + 1)
    with pytest.raises(ValueError, match="version mismatch"):
        RunRecord.from_dict(newer)

    with pytest.raises(ValueError, match="unknown field"):
        RunRecord.from_dict(dict(payload, surprise=True))

    trimmed = dict(payload)
    del trimmed["warm_hits"]
    with pytest.raises(ValueError, match="missing field"):
        RunRecord.from_dict(trimmed)

    with pytest.raises(ValueError, match="unknown state"):
        RunRecord.from_dict(dict(payload, state="paused"))


def test_load_all_skips_unreadable_manifests(tmp_path):
    registry = RunRegistry(tmp_path)
    good = registry.create(WildScanConfig(scale=0.01, seed=7, shards=2))
    # a kill between mkdir and the first manifest write leaves a shell...
    (registry.runs_dir / "run-empty-shell").mkdir()
    # ...and torn bytes must not take the whole registry down.
    torn = registry.runs_dir / "run-torn"
    torn.mkdir()
    (torn / "run.json").write_text("{not json")
    records = registry.load_all()
    assert set(records) == {good.run_id}


def test_save_is_atomic_no_tmp_left_behind(tmp_path):
    registry = RunRegistry(tmp_path)
    record = registry.create(WildScanConfig(scale=0.01, seed=7, shards=2))
    registry.save(record)
    leftovers = [
        p for p in registry.run_dir(record.run_id).iterdir()
        if p.name.endswith(".tmp")
    ]
    assert not leftovers


def test_mistyped_manifest_is_refused(tmp_path):
    """A manifest whose ``submitted_at`` is a string used to load and
    break every later ``runs()`` sort; it is refused, and skipped."""
    from repro.service import ScanService

    registry = RunRegistry(tmp_path)
    kept = registry.create(WildScanConfig(scale=0.01, seed=7, shards=2))
    broken = registry.create(WildScanConfig(scale=0.01, seed=8, shards=2))
    path = registry.manifest_path(broken.run_id)
    payload = json.loads(path.read_text())
    with pytest.raises(ValueError, match="submitted_at must be a number"):
        RunRecord.from_dict({**payload, "submitted_at": "x"})
    path.write_text(json.dumps({**payload, "submitted_at": "x"}))
    assert list(registry.load_all()) == [kept.run_id]
    with ScanService(tmp_path) as service:
        assert [view["run_id"] for view in service.runs()] == [kept.run_id]
