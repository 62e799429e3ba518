"""Client for the scan service's framed-JSON TCP protocol.

:class:`ServiceClient` is the only thing other processes need: it holds
one connection (reconnecting per call would also work — the protocol is
stateless — but reuse keeps submit-then-poll cheap), frames requests
with the cluster wire codecs, and raises the same exception taxonomy
the in-process service raises, so callers can be written against
:class:`~repro.service.service.ScanService` and pointed at either.

Configs go over the wire via
:func:`~repro.engine.wire.config_to_wire`; detections come back in wire
form and are decoded to :class:`~repro.workload.generator.Detection`
by :meth:`ServiceClient.fetch_detections`.
"""

from __future__ import annotations

import socket
import time

from ..cluster.protocol import recv_message, send_message
from ..engine.wire import config_to_wire, detection_from_wire
from ..runtime.ledger import LedgerError
from .server import SERVICE_PROTOCOL_VERSION, ServerStopping
from .service import AdmissionError, ServiceError, UnknownRunError

__all__ = ["PaginationError", "ServiceClient"]


class PaginationError(ServiceError):
    """A paged response failed to make progress.

    Raised client-side when a ``results`` page reports a ``next_offset``
    at or before the offset just fetched: following it would re-fetch
    the same page forever. A buggy or protocol-skewed server triggers
    this once, loudly, instead of spinning the client.
    """

_ERROR_KINDS = {
    "admission": AdmissionError,
    "ledger": LedgerError,
    "unknown-run": UnknownRunError,
    "stopping": ServerStopping,
    "timeout": TimeoutError,
}


class ServiceClient:
    """Speak to a :class:`~repro.service.server.ServiceServer`.

    Usable as a context manager; not thread-safe (one connection, serial
    request/response — give each thread its own client).
    """

    def __init__(self, address: tuple[str, int], *, timeout: float = 30.0):
        host, port = address
        self._sock = socket.create_connection((host, int(port)), timeout=timeout)

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    # -- plumbing --------------------------------------------------------

    def request(self, kind: str, **fields) -> dict:
        """One framed round-trip; raises the service's exception for
        ``ok: false`` responses."""
        message = {
            "type": kind,
            "protocol_version": SERVICE_PROTOCOL_VERSION,
            **fields,
        }
        send_message(self._sock, message)
        response = recv_message(self._sock)
        if not response.get("ok"):
            error = response.get("error", "service request failed")
            raise _ERROR_KINDS.get(response.get("kind"), ServiceError)(error)
        return response

    # -- API -------------------------------------------------------------

    def ping(self) -> bool:
        return bool(self.request("ping").get("ok"))

    def submit(self, config, *, jobs: int = 1) -> dict:
        """Submit a scan config; returns the run view (with
        ``coalesced`` folded in so callers see dedup happen)."""
        wire = config if isinstance(config, dict) else config_to_wire(config)
        response = self.request("submit", config=wire, jobs=jobs)
        run = response["run"]
        run["coalesced"] = response["coalesced"]
        return run

    def status(self, run_id: str) -> dict:
        return self.request("status", run_id=run_id)["run"]

    def runs(self) -> list[dict]:
        return self.request("runs")["runs"]

    def stats(self) -> dict:
        return self.request("stats")["stats"]

    def drain(self, timeout: float | None = None) -> bool:
        return bool(self.request("drain", timeout=timeout)["drained"])

    def wait(self, run_id: str, timeout: float | None = None, poll: float = 0.1) -> dict:
        """Poll ``status`` until the run is terminal; returns the view.

        Client-side polling (rather than the server's blocking ``wait``)
        keeps the connection responsive to short socket timeouts and
        mirrors what a remote dashboard would do.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            view = self.status(run_id)
            if view["state"] in ("completed", "failed"):
                return view
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"run {run_id} still {view['state']} after {timeout}s"
                )
            time.sleep(poll)

    def results(self, run_id: str, offset: int = 0, limit: int | None = None) -> dict:
        """One page of a completed run's detections (wire form)."""
        fields: dict = {"run_id": run_id, "offset": offset}
        if limit is not None:
            fields["limit"] = limit
        response = self.request("results", **fields)
        response.pop("ok", None)
        response.pop("type", None)
        return response

    def fetch_detections(self, run_id: str, page_size: int = 256) -> list:
        """Every detection of a completed run, decoded, via paging.

        Raises :class:`PaginationError` if a page's ``next_offset``
        fails to advance past the offset it was fetched at — the loop
        must terminate even against a buggy or older server.
        """
        detections = []
        offset = 0
        while True:
            page = self.results(run_id, offset=offset, limit=page_size)
            detections.extend(
                detection_from_wire(d) for d in page["detections"]
            )
            next_offset = page["next_offset"]
            if next_offset is None:
                return detections
            if not isinstance(next_offset, int) or next_offset <= offset:
                raise PaginationError(
                    f"run {run_id}: results page at offset {offset} "
                    f"reported non-advancing next_offset {next_offset!r}"
                )
            offset = next_offset
