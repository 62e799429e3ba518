"""The framed-JSON TCP front: end-to-end runs, error kinds, bad frames."""

from __future__ import annotations

import json
import socket
import struct
import threading

import pytest

from repro.cluster.protocol import recv_message, send_message
from repro.engine.scan import ScanEngine
from repro.engine.wire import config_to_wire, detection_to_wire
from repro.runtime import LedgerError
from repro.service import (
    AdmissionError,
    ScanService,
    ServiceClient,
    ServiceServer,
    UnknownRunError,
)
from repro.service.server import SERVICE_PROTOCOL_VERSION
from repro.workload.generator import WildScanConfig

CONFIG = WildScanConfig(scale=0.01, seed=7, shards=2)


@pytest.fixture()
def served(tmp_path):
    with ScanService(tmp_path, executors=2) as service:
        with ServiceServer(service) as server:
            yield service, server


def test_tcp_end_to_end_identity(served):
    service, server = served
    reference = [detection_to_wire(d) for d in ScanEngine(CONFIG).run().detections]
    with ServiceClient(server.address) as client:
        assert client.ping()
        run = client.submit(CONFIG)
        assert not run["coalesced"]
        done = client.wait(run["run_id"], timeout=120)
        assert done["state"] == "completed"
        assert [
            detection_to_wire(d)
            for d in client.fetch_detections(run["run_id"], page_size=2)
        ] == reference
        assert client.results(run["run_id"])["detections"] == reference
        assert client.runs()[0]["run_id"] == run["run_id"]
        assert client.stats()["counters"]["completed"] == 1


def test_concurrent_clients_share_one_run(served):
    _, server = served
    views: list[dict] = []
    lock = threading.Lock()
    barrier = threading.Barrier(4)

    def one_client() -> None:
        with ServiceClient(server.address) as client:
            barrier.wait()
            run = client.submit(CONFIG)
            done = client.wait(run["run_id"], timeout=120)
            with lock:
                views.append({**done, "coalesced": run["coalesced"]})

    threads = [threading.Thread(target=one_client) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(views) == 4
    assert len({view["run_id"] for view in views}) == 1
    assert sum(view["coalesced"] for view in views) == 3
    assert all(view["state"] == "completed" for view in views)


def test_error_kinds_map_to_client_exceptions(served):
    service, server = served
    with ServiceClient(server.address) as client:
        with pytest.raises(UnknownRunError):
            client.status("run-nope")
        service.drain(timeout=30)
        with pytest.raises(AdmissionError):
            client.submit(CONFIG)


@pytest.mark.parametrize("client_kind", ["no-client", "idle-client", "parked-wait"])
def test_stop_returns_promptly(tmp_path, client_kind):
    """``stop()`` wakes the accept loop, a handler parked on an idle
    client and one parked in a blocking ``wait`` on a run that never
    finishes, instead of waiting out their join timeouts."""
    import time

    gate = threading.Event()
    with ScanService(tmp_path) as service:
        service._execute = lambda record: gate.wait(60)  # the run never finishes
        server = ServiceServer(service)
        server.start()
        client = ServiceClient(server.address) if client_kind != "no-client" else None
        try:
            if client_kind == "idle-client":
                assert client.ping()  # its handler now blocks on the next read
            if client_kind == "parked-wait":
                run_id = client.submit(CONFIG)["run_id"]
                send_message(
                    client._sock,
                    {"type": "wait", "protocol_version": SERVICE_PROTOCOL_VERSION,
                     "run_id": run_id},
                )
                time.sleep(0.3)  # the handler is now inside the blocking wait
            started = time.monotonic()
            server.stop()
            assert time.monotonic() - started < 1.0
            if client_kind == "parked-wait":
                response = recv_message(client._sock)
                assert (response["ok"], response["kind"]) == (False, "stopping")
                assert service.status(run_id)["state"] == "running"
        finally:
            gate.set()
            if client is not None:
                client.close()


def test_blocking_wait_request(served):
    """The server-side ``wait``: a finished run's view, or the timeout
    kind while it is still going."""
    service, server = served
    gate = threading.Event()
    service._execute = lambda record: gate.wait(60)
    with ServiceClient(server.address) as client:
        run_id = client.submit(CONFIG)["run_id"]
        with pytest.raises(TimeoutError, match="after 0.5s"):
            client.request("wait", run_id=run_id, timeout=0.5)
        gate.set()
        view = client.request("wait", run_id=run_id, timeout=30)["run"]
        assert view["state"] == "completed"


def test_finished_connections_are_pruned(served):
    """A resident server keeps no entry for a client that has gone."""
    import time

    _, server = served
    for _ in range(50):
        with ServiceClient(server.address) as client:
            assert client.ping()
    deadline = time.monotonic() + 10
    while any(thread.is_alive() for thread, _ in server._conns):
        assert time.monotonic() < deadline
        time.sleep(0.01)
    with ServiceClient(server.address) as client:
        assert client.ping()  # accepting this client prunes the 50 others
        assert [thread.is_alive() for thread, _ in server._conns] == [True]


def test_undecodable_ledger_fails_the_run(tmp_path):
    """A completed run whose journal stops decoding is the server's fault,
    not the request's: ``results`` answers under the ``ledger`` kind, which
    the client raises as ``LedgerError``, and the run turns ``failed``,
    also for the next process."""
    with ScanService(tmp_path) as first:
        run_id = first.submit(CONFIG)[0]["run_id"]
        first.wait(run_id, timeout=120)
    ledger_path = first.registry.ledger_path(run_id)
    lines = ledger_path.read_text().splitlines()
    record = json.loads(lines[1])
    record["payload"]["detections"] = 3
    ledger_path.write_text("\n".join([lines[0], json.dumps(record), *lines[2:]]) + "\n")

    # a restart adopts the run as completed without opening its ledger
    with ScanService(tmp_path) as service, ServiceServer(service) as server:
        with ServiceClient(server.address) as client:
            assert client.status(run_id)["state"] == "completed"
            with pytest.raises(LedgerError, match="shard result: detections"):
                client.results(run_id)
            view = client.status(run_id)
    assert view["state"] == "failed"
    assert "shard result: detections" in view["error"]
    assert view["finished_at"] is not None
    with ScanService(tmp_path) as restarted:
        assert restarted.status(run_id)["state"] == "failed"


def test_protocol_version_mismatch_is_refused(served):
    _, server = served
    with socket.create_connection(server.address, timeout=10) as sock:
        send_message(sock, {"type": "ping", "protocol_version": 99})
        response = recv_message(sock)
        assert response["ok"] is False
        assert response["kind"] == "bad-request"
        assert "version mismatch" in response["error"]


def test_unknown_request_type_and_missing_fields(served):
    _, server = served
    with socket.create_connection(server.address, timeout=10) as sock:
        send_message(
            sock,
            {"type": "frobnicate", "protocol_version": SERVICE_PROTOCOL_VERSION},
        )
        assert recv_message(sock)["kind"] == "bad-request"
        send_message(
            sock,
            {"type": "status", "protocol_version": SERVICE_PROTOCOL_VERSION},
        )
        response = recv_message(sock)
        assert response["ok"] is False
        assert "run_id" in response["error"]
        send_message(
            sock,
            {"type": "submit", "protocol_version": SERVICE_PROTOCOL_VERSION},
        )
        assert "config" in recv_message(sock)["error"]


@pytest.mark.parametrize(
    "pattern_config",
    [
        {"enabled": 5, "params": {}, "registry": 1},
        {"enabled": ["NOPE"], "params": {}, "registry": 1},
        {"enabled": ["KRP"], "params": {"KRP": {"min_buys": "five"}}, "registry": 1},
        {"krp_min_buys": "five", "sbs_min_volatility": 0.28,
         "sbs_amount_tolerance": 0.001, "mbs_min_rounds": 3},
    ],
    ids=["enabled-int", "unknown-key", "param-string", "flat-string"],
)
def test_malformed_pattern_config_is_a_bad_request(served, tmp_path, pattern_config):
    """A submit whose pattern config does not decode is answered with
    ``bad-request``; the connection keeps serving and no run is created."""
    _, server = served
    config = {**config_to_wire(CONFIG), "pattern_config": pattern_config}
    with socket.create_connection(server.address, timeout=10) as sock:
        send_message(
            sock,
            {"type": "submit", "protocol_version": SERVICE_PROTOCOL_VERSION,
             "config": config},
        )
        response = recv_message(sock)
        assert (response["ok"], response["kind"]) == (False, "bad-request")
        assert "pattern" in response["error"]
        send_message(sock, {"type": "ping", "protocol_version": SERVICE_PROTOCOL_VERSION})
        assert recv_message(sock)["ok"] is True
    assert list((tmp_path / "runs").iterdir()) == []


def test_malformed_frame_answers_then_hangs_up(served):
    _, server = served
    with socket.create_connection(server.address, timeout=10) as sock:
        payload = b"this is not json"
        sock.sendall(struct.pack(">I", len(payload)) + payload)
        response = recv_message(sock)
        assert response["ok"] is False and response["kind"] == "bad-request"
        # the server hangs up after an unframeable request.
        assert sock.recv(1) == b""


def test_abrupt_client_disconnect_leaves_server_serving(served):
    _, server = served
    sock = socket.create_connection(server.address, timeout=10)
    sock.close()  # no request at all
    half = socket.create_connection(server.address, timeout=10)
    half.sendall(struct.pack(">I", 64))  # length prefix, then vanish
    half.close()
    with ServiceClient(server.address) as client:
        assert client.ping()


def test_server_results_page_fields_over_wire(served):
    _, server = served
    with ServiceClient(server.address) as client:
        run = client.submit(CONFIG)
        client.wait(run["run_id"], timeout=120)
        page = client.results(run["run_id"], offset=1, limit=2)
        assert page["offset"] == 1
        assert page["count"] == len(page["detections"])
        assert set(page) == {
            "run_id", "total_detections", "offset", "count",
            "next_offset", "summary", "detections",
        }


class _FakeResultsServer:
    """A minimal framed-JSON server whose ``results`` pages are canned.

    Stands in for a buggy or protocol-skewed real server: the client's
    paging loop must terminate loudly on a page that fails to advance,
    not spin on it forever.
    """

    def __init__(self, page_for_offset):
        self._page_for_offset = page_for_offset
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(1)
        self.address = self._listener.getsockname()[:2]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        conn, _ = self._listener.accept()
        with conn:
            while True:
                try:
                    request = recv_message(conn)
                except (ConnectionError, OSError, EOFError):
                    return
                if request is None:
                    return
                page = self._page_for_offset(request.get("offset", 0))
                send_message(
                    conn, {"ok": True, "type": "results", **page}
                )

    def close(self):
        self._listener.close()


@pytest.mark.parametrize("next_offset", [0, -1, "3"])
def test_fetch_detections_raises_on_non_advancing_page(next_offset):
    from repro.service import PaginationError

    fake = _FakeResultsServer(
        lambda offset: {"detections": [], "next_offset": next_offset}
    )
    try:
        with ServiceClient(fake.address) as client:
            with pytest.raises(PaginationError):
                client.fetch_detections("run-x", page_size=4)
    finally:
        fake.close()


def test_fetch_detections_raises_when_offset_stalls_mid_stream():
    """The first page advances, then the server gets stuck — the loop
    must detect the stall at the second page, not loop on it."""
    from repro.service import PaginationError

    calls = []

    def page(offset):
        calls.append(offset)
        return {"detections": [], "next_offset": 4 if offset == 0 else offset}

    fake = _FakeResultsServer(page)
    try:
        with ServiceClient(fake.address) as client:
            with pytest.raises(PaginationError):
                client.fetch_detections("run-x", page_size=4)
    finally:
        fake.close()
    assert calls == [0, 4]


def test_fetch_detections_terminates_on_none(served):
    """Against the real server the paging loop still ends on
    ``next_offset: None`` and :class:`PaginationError` stays un-raised."""
    from repro.engine.wire import detection_from_wire

    service, server = served
    with ServiceClient(server.address) as client:
        run = client.submit(CONFIG)
        client.wait(run["run_id"], timeout=120)
        assert client.fetch_detections(run["run_id"]) == [
            detection_from_wire(d)
            for d in client.results(run["run_id"])["detections"]
        ]


WIRE = config_to_wire(CONFIG)


@pytest.mark.parametrize(
    "fields",
    [
        {"type": "results", "run_id": "run-x", "limit": {}},
        {"type": "results", "run_id": "run-x", "offset": -1},
        {"type": "submit", "config": WIRE, "jobs": [1]},
        {"type": "submit", "config": WIRE, "jobs": 1.7},
        {"type": "submit", "config": WIRE, "jobs": 0},
        {"type": "wait", "run_id": "run-x", "timeout": []},
        {"type": "wait", "run_id": "run-x", "timeout": float("nan")},
        {"type": "drain", "timeout": float("inf")},
        {"type": "status", "run_id": ""},
        {"type": "status", "run_id": "run-x", "surprise": 1},
        {"type": "submit", "config": {**WIRE, "scale": "big"}},
        {"type": "submit", "config": {**WIRE, "split_attacks": True}},
        {"type": "submit", "config": {**WIRE, "with_heuristic": "yes"}},
        {"type": ["ping"]},
    ],
    ids=[
        "limit-object", "offset-negative", "jobs-list", "jobs-float", "jobs-zero",
        "timeout-list", "timeout-nan", "drain-inf", "run-id-empty", "unknown-key",
        "scale-string", "split-attacks-bool", "heuristic-string", "type-list",
    ],
)
def test_malformed_request_is_a_bad_request(served, tmp_path, fields):
    """A well-framed request that fails its field table — or whose config
    does not decode — is answered with ``bad-request``; the connection
    keeps serving and no run is created."""
    _, server = served
    with socket.create_connection(server.address, timeout=10) as sock:
        send_message(sock, {"protocol_version": SERVICE_PROTOCOL_VERSION, **fields})
        response = recv_message(sock)
        assert (response["ok"], response["kind"]) == (False, "bad-request")
        send_message(sock, {"type": "ping", "protocol_version": SERVICE_PROTOCOL_VERSION})
        assert recv_message(sock)["ok"] is True
    assert list((tmp_path / "runs").iterdir()) == []
