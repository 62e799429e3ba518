"""Property tests: every decoder fails with its boundary's error, fast.

Arbitrary JSON goes into every field of a valid config, shard result,
detection, ground truth, run manifest, service request and cluster
frame, and arbitrary bytes go into ledger lines after a valid header and
into ``recv_message``. Each decoder returns a value or raises its
boundary's typed error — ``ValueError`` from the codecs and manifests,
:class:`LedgerError` from the ledger, :class:`ProtocolError` (or
:class:`ConnectionClosed` for a short frame) on the cluster wire — within
the deadline, and every request drawn through the service's dispatcher
gets a response.
"""

from __future__ import annotations

import json
import socket
import struct
import tempfile
import threading
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.coordinator import Coordinator
from repro.cluster.protocol import (
    HELLO,
    WELCOME,
    ConnectionClosed,
    ProtocolError,
    assign_frame,
    check_frame,
    recv_message,
)
from repro.engine import wire
from repro.engine.scan import ShardResult
from repro.engine.wire import (
    config_from_wire,
    config_to_wire,
    detection_from_wire,
    detection_to_wire,
    shard_result_from_wire,
    shard_result_to_wire,
)
from repro.leishen.registry import ALL_PATTERN_KEYS, PatternSettings
from repro.runtime import LedgerError, RunLedger
from repro.service import ScanService, ServiceServer
from repro.service.registry import RunRecord
from repro.workload.generator import Detection, WildScanConfig
from repro.workload.profiles import GroundTruth

#: bounded time per decoded input, generous for a loaded host
BOUNDED = settings(max_examples=150, deadline=timedelta(seconds=5))

json_value = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)

CONFIG = WildScanConfig(
    scale=0.005, seed=7, shards=2, adversarial=1,
    pattern_config=PatternSettings.make(ALL_PATTERN_KEYS, {"KRP": {"min_buys": 6}}),
)
TRUTH = GroundTruth(
    is_attack=True, profile="krp", attacker="0x" + "ab" * 20, month=3,
    patterns=("KRP",), family="KRP", split_group=2,
)
DETECTION = detection_to_wire(
    Detection(tx_hash="0x1", patterns=("KRP",), truth=TRUTH, profit_usd=1.5)
)
SHARD = {
    **shard_result_to_wire(
        ShardResult(shard_index=1, total_transactions=9, row_counts={"KRP": [1, 1, 0]})
    ),
    "detections": [DETECTION],
}


def nudged(base: dict):
    """``base`` with one field set to arbitrary JSON, dropped, or an
    unknown field added."""
    return st.tuples(
        st.sampled_from([*base, "drop", "add"]), json_value, st.sampled_from(sorted(base))
    ).map(lambda drawn: _nudge(base, *drawn))


def _nudge(base: dict, field: str, value, victim: str) -> dict:
    payload = dict(base)
    if field == "drop":
        del payload[victim]
    elif field == "add":
        payload["surprise"] = value
    else:
        payload[field] = value
    return payload


def payloads(base: dict):
    return st.one_of(st.just(base), nudged(base), json_value)


def returns_or_raises(decode, payload, errors) -> None:
    try:
        decode(payload)
    except errors:
        pass


class TestWireDecoders:
    @given(payloads(config_to_wire(CONFIG)))
    @BOUNDED
    def test_config(self, payload):
        returns_or_raises(config_from_wire, payload, ValueError)

    @given(payloads(SHARD))
    @BOUNDED
    def test_shard_result(self, payload):
        returns_or_raises(shard_result_from_wire, payload, ValueError)

    @given(payloads(DETECTION))
    @BOUNDED
    def test_detection(self, payload):
        returns_or_raises(detection_from_wire, payload, ValueError)

    @given(payloads(DETECTION["truth"]))
    @BOUNDED
    def test_truth(self, payload):
        returns_or_raises(wire._truth_from_wire, payload, ValueError)


@pytest.fixture(scope="module")
def manifest():
    with tempfile.TemporaryDirectory() as tmp:
        from repro.service.registry import RunRegistry

        return RunRegistry(tmp).create(CONFIG, jobs=2).to_dict()


@given(data=st.data())
@BOUNDED
def test_manifest(manifest, data):
    returns_or_raises(RunRecord.from_dict, data.draw(payloads(manifest)), ValueError)


@pytest.fixture(scope="module")
def coordinator():
    coordinator = Coordinator(CONFIG)
    yield coordinator
    coordinator.shutdown()


FRAMES = {
    "hello": {"type": "hello", "protocol": 5, "worker": "w"},
    "result": {"type": "result", "shard": 1, "payload": SHARD,
               "profile": {"timers_ns": {"detect": 5}, "counters": {}}},
    "shard-error": {"type": "shard-error", "shard": 0, "error": "boom"},
    "welcome": {"type": "welcome", "protocol": 5, "config": config_to_wire(CONFIG),
                "shard_count": 2, "heartbeat_interval": 0.5,
                "failover": [["127.0.0.1", 9733]]},
    "assign": {"type": "assign", "seed": 7, "scale": 0.005, "shard": 1,
               "shard_count": 2, "profile": True},
}


def decode_welcome(frame):
    welcome = check_frame(frame, WELCOME)
    try:
        config_from_wire(welcome["config"])
    except ValueError as exc:
        raise ProtocolError(str(exc)) from None


class TestClusterFrames:
    @given(data=st.data(), kind=st.sampled_from(sorted(FRAMES)))
    @BOUNDED
    def test_frame(self, coordinator, data, kind):
        frame = data.draw(st.one_of(
            nudged(FRAMES[kind]),
            st.dictionaries(st.text(max_size=8), json_value, max_size=5).map(
                lambda fields: {**fields, "type": kind}
            ),
        ))
        decode = {
            "hello": lambda frame: check_frame(frame, HELLO),
            "result": coordinator._decode_result,
            "shard-error": lambda frame: check_frame(
                frame, coordinator._frames["shard-error"]
            ),
            "welcome": decode_welcome,
            "assign": lambda frame: check_frame(frame, assign_frame(CONFIG, 2)),
        }[kind]
        returns_or_raises(decode, frame, ProtocolError)

    @given(st.one_of(
        st.binary(max_size=64),
        st.binary(max_size=64).map(lambda body: struct.pack("!I", len(body)) + body),
        json_value.map(
            lambda value: json.dumps(value).encode()
        ).map(lambda body: struct.pack("!I", len(body)) + body),
    ))
    @BOUNDED
    def test_recv_message(self, data):
        left, right = socket.socketpair()
        try:
            left.sendall(data)
            left.close()
            try:
                assert isinstance(recv_message(right), dict)
            except (ProtocolError, ConnectionClosed):
                pass
        finally:
            right.close()


@pytest.fixture(scope="module")
def ledger_parts():
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.ledger"
        RunLedger.create(path, CONFIG, 2).close()
        header = path.read_bytes()
        record = json.dumps({"kind": "shard", "shard": 1, "payload": SHARD})
        yield Path(tmp), header, record.encode()


record_line = st.one_of(
    st.binary(max_size=80),
    nudged(SHARD).map(
        lambda payload: json.dumps({"kind": "shard", "shard": 1, "payload": payload}).encode()
    ),
    nudged({"kind": "shard", "shard": 1, "payload": SHARD}).map(
        lambda record: json.dumps(record).encode()
    ),
    nudged({"kind": "snapshot", "shards": 1, "generation": 1,
            "merged": {key: value for key, value in SHARD.items() if key != "shard_index"}}
           ).map(lambda record: json.dumps(record).encode()),
)


@given(data=st.data())
@BOUNDED
def test_ledger_lines(ledger_parts, data):
    directory, header, record = ledger_parts
    lines = data.draw(st.lists(st.one_of(st.just(record), record_line), max_size=4))
    path = directory / "drawn.ledger"
    path.write_bytes(header + b"\n".join(lines))
    try:
        RunLedger.open(path).close()
    except LedgerError:
        pass


@pytest.fixture(scope="module")
def service():
    with tempfile.TemporaryDirectory() as tmp:
        with ScanService(tmp, executors=1) as service:
            service._execute = lambda record: None  # admitted runs run nothing
            run_id = service.submit(CONFIG)[0]["run_id"]
            service.wait(run_id, timeout=30)
            yield ServiceServer(service), run_id


def parks(timeout) -> bool:
    """Whether the server would accept ``timeout`` and wait longer than
    a test should."""
    return (
        isinstance(timeout, (int, float)) and not isinstance(timeout, bool)
        and 0.05 < timeout <= threading.TIMEOUT_MAX
    )


#: a ``timeout`` that cannot park a request for long: small, or refused
timeout_value = st.floats(0, 0.05) | json_value.filter(lambda value: not parks(value))


def unparked(request):
    if isinstance(request, dict) and parks(request.get("timeout")):
        return {**request, "timeout": 0.0}
    return request


def requests(run_id: str):
    bases = [
        {"type": "ping"},
        {"type": "submit", "config": config_to_wire(CONFIG), "jobs": 1},
        {"type": "status", "run_id": run_id},
        {"type": "wait", "run_id": run_id, "timeout": 0.01},
        {"type": "runs"},
        {"type": "results", "run_id": run_id, "offset": 0, "limit": 5},
        {"type": "stats"},
    ]
    return st.one_of(
        st.one_of(*(nudged(base) for base in bases)).map(unparked),
        nudged(config_to_wire(CONFIG)).map(
            lambda config: {"type": "submit", "config": config}
        ),
        st.builds(lambda timeout: {"type": "wait", "run_id": run_id, "timeout": timeout},
                  timeout_value),
        json_value,
    ).map(lambda request: {"protocol_version": 1, **request}
          if isinstance(request, dict) else request)


@given(data=st.data())
@BOUNDED
def test_every_request_gets_a_response(service, data):
    server, run_id = service
    request = data.draw(requests(run_id))
    response = server._dispatch(request)
    assert isinstance(response, dict) and isinstance(response["ok"], bool)


@given(st.builds(lambda timeout: {"type": "drain", "timeout": timeout}, timeout_value)
       | nudged({"type": "drain", "timeout": 0.01}).map(unparked))
@BOUNDED
def test_every_drain_gets_a_response(service, request):
    server, _ = service
    response = server._dispatch(request)
    assert isinstance(response, dict) and isinstance(response["ok"], bool)
