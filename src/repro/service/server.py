"""TCP front for the scan service: length-prefixed JSON over loopback.

One :class:`ServiceServer` wraps a running
:class:`~repro.service.service.ScanService` and serves it to any number
of clients over the same framed-JSON protocol the cluster tier speaks
(:mod:`repro.cluster.protocol`: 4-byte big-endian length prefix, JSON
body). A connection handler thread per client keeps slow readers from
blocking each other; all real state lives in the (thread-safe) service.

Requests are ``{"type": ..., "protocol_version": 1, ...}``; responses
are ``{"type": "response", "ok": true, ...}`` or ``{"type": "response",
"ok": false, "error": ..., "kind": ...}`` where ``kind`` names the error
class (``admission``, ``unknown-run``, ``bad-request``; ``ledger`` when
a completed run's journal no longer decodes, which fails the run) so
clients can react without parsing prose. (The frame codec requires
every payload to be a *typed* object, hence the constant ``type`` on
responses.)

Request types::

    ping     -> {ok}
    submit   {config, jobs?}                  -> {ok, run, coalesced}
    status   {run_id}                         -> {ok, run}
    wait     {run_id, timeout?}               -> {ok, run}
    runs     {}                               -> {ok, runs: [...]}
    results  {run_id, offset?, limit?}        -> {ok, ...paged payload}
    stats    {}                               -> {ok, stats}
    drain    {timeout?}                       -> {ok, drained}

Each request type has one field table (:data:`REQUESTS`), checked before
the request runs: a key the type does not name, a missing ``run_id`` or
``config``, or a value of the wrong JSON type or outside its range (a
``jobs`` below 1, a negative ``offset``, a ``limit`` below 1, a
``timeout`` that is not a non-negative number of seconds) is answered
with ``bad-request``, and so is a submitted config that does not decode.
A ``wait`` still parked when the server stops is answered with the
``stopping`` kind.

Connections are serial per client (request, response, repeat), exactly
like the worker protocol — no pipelining, no partial responses. Every
well-framed request gets a response, and the connection stays open.
"""

from __future__ import annotations

import socket
import threading
import time

from ..cluster.protocol import ConnectionClosed, ProtocolError, recv_message, send_message
from ..engine.wire import Field, check_fields
from ..runtime.ledger import LedgerError
from .service import AdmissionError, ScanService, ServiceError, UnknownRunError

__all__ = ["REQUESTS", "SERVICE_PROTOCOL_VERSION", "ServerStopping", "ServiceServer"]

#: framed-request schema version; bumped on incompatible change.
SERVICE_PROTOCOL_VERSION = 1

_RUN_ID = Field("string", bool, "empty")
#: a timeout the service can wait on: ``null`` waits without one.
_TIMEOUT = Field(
    "number or null", lambda value: 0 <= value <= threading.TIMEOUT_MAX,
    "not a number of seconds from 0 to threading.TIMEOUT_MAX", optional=True,
)
_ENVELOPE = {"type": Field("string"), "protocol_version": Field("int", optional=True)}

#: request type -> its field table (the envelope's ``type`` and
#: ``protocol_version`` included).
REQUESTS = {
    kind: {**_ENVELOPE, **fields}
    for kind, fields in {
        "ping": {},
        "submit": {
            "config": Field("object"),
            "jobs": Field("int", lambda value: value >= 1, "below 1", optional=True),
        },
        "status": {"run_id": _RUN_ID},
        "wait": {"run_id": _RUN_ID, "timeout": _TIMEOUT},
        "runs": {},
        "results": {
            "run_id": _RUN_ID,
            "offset": Field("int", lambda value: value >= 0, "negative", optional=True),
            "limit": Field(
                "int or null", lambda value: value >= 1, "below 1", optional=True
            ),
        },
        "stats": {},
        "drain": {"timeout": _TIMEOUT},
    }.items()
}

#: how often the accept loop and a parked ``wait`` look for stop().
_POLL_S = 0.2


class ServerStopping(ServiceError):
    """The server stopped while the request waited; the run goes on."""


class ServiceServer:
    """Serve a :class:`ScanService` on a TCP address.

    ``host``/``port`` default to an ephemeral loopback port (the bound
    address is ``self.address`` after :meth:`start`). The server owns
    only transport state; stopping it leaves the service running.
    """

    def __init__(self, service: ScanService, host: str = "127.0.0.1", port: int = 0):
        self.service = service
        self._host = host
        self._port = port
        self._sock: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        #: one ``(handler thread, connection)`` per accepted client.
        self._conns: list[tuple[threading.Thread, socket.socket]] = []
        self._stopping = threading.Event()
        self.address: tuple[str, int] | None = None

    # -- lifecycle -------------------------------------------------------

    def __enter__(self) -> "ServiceServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def start(self) -> None:
        if self._sock is not None:
            return
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self._host, self._port))
        sock.listen(32)
        # closing the listener does not wake a blocked accept(), so the
        # accept loop wakes this often to see stop().
        sock.settimeout(_POLL_S)
        self._sock = sock
        self.address = sock.getsockname()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="scan-service-accept", daemon=True
        )
        self._accept_thread.start()

    def stop(self) -> None:
        """Stop accepting and close the listener; in-flight handlers
        finish their current request and exit on the next read."""
        self._stopping.set()
        if self._accept_thread is not None:
            self._accept_thread.join(5.0)
            self._accept_thread = None
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None
        for _, conn in self._conns:
            # end the read side only: a handler blocked on an idle client
            # sees EOF, one mid-request still sends its response.
            try:
                conn.shutdown(socket.SHUT_RD)
            except OSError:  # already closed by its handler
                pass
        for thread, _ in self._conns:
            thread.join(5.0)
        self._conns = [entry for entry in self._conns if entry[0].is_alive()]

    # -- transport -------------------------------------------------------

    def _accept_loop(self) -> None:
        sock = self._sock
        while not self._stopping.is_set():
            try:
                conn, _addr = sock.accept()
            except socket.timeout:
                continue
            except OSError:  # listener closed under us: clean stop
                return
            conn.settimeout(None)
            thread = threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name="scan-service-conn",
                daemon=True,
            )
            # drop the entries of handlers whose client has gone, and
            # list the new one before it can answer its first request.
            self._conns = [entry for entry in self._conns if entry[0].is_alive()]
            self._conns.append((thread, conn))
            thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        with conn:
            while not self._stopping.is_set():
                try:
                    request = recv_message(conn)
                except (ConnectionClosed, ConnectionError, OSError):
                    return
                except ProtocolError as exc:
                    # unframeable input: answer once, then hang up — the
                    # stream offset is unrecoverable.
                    try:
                        send_message(
                            conn,
                            {
                                "type": "response",
                                "ok": False,
                                "error": str(exc),
                                "kind": "bad-request",
                            },
                        )
                    except OSError:
                        pass
                    return
                response = {"type": "response", **self._dispatch(request)}
                try:
                    send_message(conn, response)
                except (ConnectionError, OSError):
                    return

    # -- request handling ------------------------------------------------

    def _dispatch(self, request) -> dict:
        """The response to one request: every request gets one."""
        try:
            return self._handle(request)
        except AdmissionError as exc:
            return {"ok": False, "error": str(exc), "kind": "admission"}
        except UnknownRunError as exc:
            return {"ok": False, "error": str(exc), "kind": "unknown-run"}
        except ServerStopping as exc:
            return {"ok": False, "error": str(exc), "kind": "stopping"}
        except LedgerError as exc:  # the server's fault, not the request's
            return {"ok": False, "error": str(exc), "kind": "ledger"}
        except (ServiceError, ValueError) as exc:
            return {"ok": False, "error": str(exc), "kind": "bad-request"}
        except TimeoutError as exc:
            return {"ok": False, "error": str(exc), "kind": "timeout"}

    def _handle(self, request) -> dict:
        if not isinstance(request, dict):
            raise ServiceError("request is not a JSON object")
        version = request.get("protocol_version", SERVICE_PROTOCOL_VERSION)
        if version != SERVICE_PROTOCOL_VERSION:
            raise ServiceError(
                f"service protocol version mismatch — client speaks {version!r}, "
                f"server speaks v{SERVICE_PROTOCOL_VERSION}"
            )
        kind = request.get("type")
        if not isinstance(kind, str) or kind not in REQUESTS:
            raise ServiceError(f"unknown request type {kind!r}")
        check_fields(request, REQUESTS[kind], f"{kind} request")
        if kind == "ping":
            return {"ok": True, "protocol_version": SERVICE_PROTOCOL_VERSION}
        if kind == "submit":
            view, coalesced = self.service.submit(
                request["config"], jobs=request.get("jobs", 1)
            )
            return {"ok": True, "run": view, "coalesced": coalesced}
        if kind == "status":
            return {"ok": True, "run": self.service.status(request["run_id"])}
        if kind == "wait":
            view = self._wait(request["run_id"], request.get("timeout"))
            return {"ok": True, "run": view}
        if kind == "runs":
            return {"ok": True, "runs": self.service.runs()}
        if kind == "results":
            payload = self.service.results(
                request["run_id"],
                offset=request.get("offset", 0),
                limit=request.get("limit"),
            )
            return {"ok": True, **payload}
        if kind == "stats":
            return {"ok": True, "stats": self.service.stats()}
        drained = self.service.drain(request.get("timeout"))
        return {"ok": True, "drained": drained}

    def _wait(self, run_id: str, timeout: float | None) -> dict:
        """``ScanService.wait`` in slices of at most ``_POLL_S``, so a
        parked request sees :meth:`stop` instead of holding its join."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self._stopping.is_set():
            remaining = _POLL_S if deadline is None else deadline - time.monotonic()
            try:
                return self.service.wait(run_id, timeout=min(remaining, _POLL_S))
            except TimeoutError:
                if deadline is not None and remaining <= _POLL_S:
                    state = self.service.status(run_id)["state"]
                    raise TimeoutError(f"run {run_id} still {state} after {timeout}s") from None
        raise ServerStopping(f"server stopped while waiting for run {run_id}")
