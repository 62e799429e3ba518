"""Field tables: every wire value is checked for its JSON type and range
where it enters, and never converted.

Each case here once decoded and failed later — a ``TypeError`` in the
merge or the executor, or a second digest for one scan. Now the decoder
raises ``ValueError`` naming the field.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.engine.scan import ShardResult
from repro.engine.wire import (
    config_digest,
    config_from_wire,
    config_to_wire,
    detection_from_wire,
    detection_to_wire,
    shard_result_from_wire,
    shard_result_to_wire,
)
from repro.workload.generator import Detection, WildScanConfig
from repro.workload.profiles import GroundTruth

CONFIG = config_to_wire(WildScanConfig(scale=0.01, seed=7, shards=4))
DETECTION = detection_to_wire(
    Detection(
        tx_hash="0x1",
        patterns=("KRP",),
        truth=GroundTruth(
            is_attack=True, profile="krp", attacker="0x" + "ab" * 20,
            month=3, patterns=("KRP",), family="KRP",
        ),
        profit_usd=10.0,
        borrowed_usd=5,
    )
)
SHARD = shard_result_to_wire(
    ShardResult(shard_index=1, total_transactions=9, row_counts={"KRP": [1, 1, 0]})
)


@pytest.mark.parametrize(
    "field, value",
    [
        ("scale", "big"), ("scale", 0), ("scale", -1.0), ("scale", float("nan")),
        ("scale", float("inf")), ("scale", True), ("scale", None),
        ("seed", [1]), ("seed", 1.5), ("seed", True), ("seed", "7"),
        ("shards", 0), ("shards", 1.5), ("shards", True),
        ("split_attacks", True), ("split_attacks", -1), ("split_attacks", 1.0),
        ("adversarial", -1), ("adversarial", True), ("adversarial", None),
        ("with_heuristic", "yes"), ("with_heuristic", 1), ("keep_history", None),
    ],
)
def test_config_field_types_and_ranges(field, value):
    with pytest.raises(ValueError, match=f"scan config: {field}"):
        config_from_wire({**CONFIG, field: value})


def test_one_scan_one_digest():
    """``split_attacks: true`` built the schedule of ``1`` under another
    digest, and ``with_heuristic: "yes"`` the heuristic run under
    another; both are refused now, and the spellings that decode keep
    their own bytes: an int ``scale`` stays an int."""
    for field, value in (("split_attacks", True), ("with_heuristic", "yes")):
        with pytest.raises(ValueError):
            config_from_wire({**CONFIG, field: value})
    payload = {**CONFIG, "scale": 1}
    config = config_from_wire(payload)
    assert type(config.scale) is int
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    assert config_digest(config) == hashlib.sha256(blob).hexdigest()


def test_valid_payloads_round_trip():
    assert detection_to_wire(detection_from_wire(DETECTION)) == DETECTION
    assert shard_result_to_wire(shard_result_from_wire(SHARD)) == SHARD
    assert config_to_wire(config_from_wire(CONFIG)) == CONFIG


@pytest.mark.parametrize(
    "field, value",
    [
        ("is_attack", 1), ("profile", None), ("attacker", "0xnope"),
        ("attacker", 5), ("attack_contract", "0x" + "g" * 40), ("month", "x"),
        ("month", 1.0), ("patterns", "KRP"), ("patterns", [1]), ("known", None),
        ("split_group", True), ("family", None), ("asset", 3),
    ],
)
def test_truth_field_types(field, value):
    payload = {**DETECTION, "truth": {**DETECTION["truth"], field: value}}
    with pytest.raises(ValueError, match=f"ground truth: {field}"):
        detection_from_wire(payload)


@pytest.mark.parametrize(
    "field, value",
    [
        ("tx_hash", 5), ("patterns", [None]), ("truth", []), ("profit_usd", "1"),
        ("borrowed_usd", True),
    ],
)
def test_detection_field_types(field, value):
    with pytest.raises(ValueError, match=f"detection: {field}"):
        detection_from_wire({**DETECTION, field: value})


@pytest.mark.parametrize(
    "field, value",
    [
        ("shard_index", "zero"), ("shard_index", -1), ("total_transactions", None),
        ("detections", 3), ("detections", {}), ("row_counts", []),
        ("row_counts", {"FOO": [1, 0, 1]}), ("row_counts", {"KRP": [1, 0]}),
        ("row_counts", {"KRP": [1, -1, 0]}), ("row_counts", {"KRP": [1, 0, 1.0]}),
    ],
)
def test_shard_result_field_types(field, value):
    with pytest.raises(ValueError, match=f"shard result: {field}"):
        shard_result_from_wire({**SHARD, field: value})


def test_shard_result_bound_to_a_run():
    assert shard_result_from_wire(SHARD, shard=1, enabled=("KRP",)).shard_index == 1
    with pytest.raises(ValueError, match="not shard 2"):
        shard_result_from_wire(SHARD, shard=2)
    with pytest.raises(ValueError, match=r"\['KRP'\] this run does not enable"):
        shard_result_from_wire(SHARD, enabled=("SBS", "MBS"))
