"""CLI front of the scan service: serve / submit / status / results."""

from __future__ import annotations

import re
import socket
import threading
import time

import pytest

from repro.experiments import service as service_cli
from repro.experiments.runner import main
from repro.service import ServiceClient


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@pytest.fixture()
def serving(tmp_path):
    """A real ``serve`` loop on a background thread, torn down cleanly."""
    port = _free_port()
    stop = threading.Event()
    thread = threading.Thread(
        target=service_cli.render_serve,
        args=(str(tmp_path / "data"), "127.0.0.1", port),
        kwargs={"executors": 2, "stop_event": stop},
        daemon=True,
    )
    thread.start()
    address = f"127.0.0.1:{port}"
    deadline = time.monotonic() + 15
    while True:
        try:
            with ServiceClient(("127.0.0.1", port), timeout=2) as client:
                if client.ping():
                    break
        except OSError:
            if time.monotonic() >= deadline:
                raise RuntimeError("serve thread never came up")
            time.sleep(0.05)
    try:
        yield address
    finally:
        stop.set()
        thread.join(30)


def test_cli_submit_status_results_roundtrip(serving, capsys):
    address = serving
    assert main([
        "submit", "--address", address,
        "--scale", "0.01", "--shards", "2", "--wait",
    ]) == 0
    out = capsys.readouterr().out
    assert "completed" in out
    match = re.search(r"run-[0-9a-f]{16}", out)
    assert match, out
    run_id = match.group(0)
    assert f"results --run-id {run_id}" in out

    # a second submit of the same scan coalesces instead of re-queuing.
    assert main([
        "submit", "--address", address,
        "--scale", "0.01", "--shards", "2", "--wait",
    ]) == 0
    assert "coalesced onto an existing run" in capsys.readouterr().out

    assert main(["status", "--address", address]) == 0
    out = capsys.readouterr().out
    assert run_id in out
    assert "totals: 1 submitted, 1 coalesced, 1 completed" in out

    assert main(["status", "--address", address, "--run-id", run_id]) == 0
    assert "completed" in capsys.readouterr().out

    assert main([
        "results", "--address", address, "--run-id", run_id, "--limit", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert f"{run_id}: 2 of" in out
    assert "0x" in out and "profit=$" in out
    assert "next --offset 2" in out


def test_cli_results_requires_run_id(capsys):
    with pytest.raises(SystemExit):
        main(["results", "--address", "127.0.0.1:1"])
    assert "requires --run-id" in capsys.readouterr().err


def test_cli_rejects_bad_address(capsys):
    with pytest.raises(SystemExit):
        main(["status", "--address", "no-port-here"])
    assert "--address" in capsys.readouterr().err


def test_cli_validates_service_bounds(capsys):
    with pytest.raises(SystemExit):
        main(["serve", "--executors", "0"])
    assert "--executors" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["results", "--run-id", "run-x", "--offset", "-1"])
    assert "--offset" in capsys.readouterr().err


def test_parse_address():
    assert service_cli.parse_address("127.0.0.1:9744") == ("127.0.0.1", 9744)
    with pytest.raises(ValueError):
        service_cli.parse_address("9744")
    with pytest.raises(ValueError):
        service_cli.parse_address("host:")
