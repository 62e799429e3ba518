"""The framed-JSON TCP front: end-to-end runs, error kinds, bad frames."""

from __future__ import annotations

import socket
import struct
import threading

import pytest

from repro.cluster.protocol import recv_message, send_message
from repro.engine.scan import ScanEngine
from repro.engine.wire import detection_to_wire
from repro.service import (
    AdmissionError,
    ScanService,
    ServiceClient,
    ServiceError,
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
        with pytest.raises(ServiceError, match="backend"):
            client.submit(CONFIG, backend="quantum")
        service.drain(timeout=30)
        with pytest.raises(AdmissionError):
            client.submit(CONFIG)


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
