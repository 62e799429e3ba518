"""The cluster worker: rebuilds shards from descriptors, streams results.

A worker owns no scheduling state. It connects to a coordinator, learns
the scan config from the ``welcome`` message, and then loops
``ready`` → ``assign`` → execute → ``result`` until drained. The
``welcome`` and every ``assign`` are decoded where they arrive
(:mod:`repro.cluster.protocol`); an ``assign`` descriptor ``(seed,
scale, shard_index, shard_count)`` must name the welcomed scan. On its
first assignment the worker rebuilds the canonical schedule locally
with the engines' own :func:`~repro.engine.plan.build_full_schedule`
(pure data, so shipping the descriptor is cheaper than shipping the
task list) and runs each shard through the engines' own
:func:`~repro.engine.scan.run_shard` — the same schedule and the same
shard loop are what make a cluster run byte-identical to a local one.

A background thread heartbeats every ``heartbeat_interval`` (negotiated
in the welcome) including mid-shard, so the coordinator can tell a slow
worker from a dead one. Liveness runs both ways: every read after the
welcome is bounded by a recv timeout of a few heartbeat intervals
(the coordinator park-pings a parked worker every interval), so a
coordinator host that dies without ever sending FIN strands the worker
for seconds, not forever — it exits with ``summary.disconnected``.

With ``reconnect=True`` the worker outlives single sessions: after a
drain or disconnect it reconnects with exponential backoff, which is
what lets a drained (elastic scale-down) or excluded worker return and
be re-admitted on probation by :mod:`repro.cluster.autoscale`. The loop
ends on :meth:`ClusterWorker.stop`, on ``reconnect_tries`` consecutive
fruitless sessions, or on a kill.

The connect target is a *list* of coordinator addresses (protocol v5):
the worker connects to the first that answers, stays sticky on it while
sessions succeed, and rotates to the next — a hot-standby coordinator —
when a connect fails or a session ends in a disconnect. The ``welcome``
may carry further ``failover`` addresses, which are merged into the
list, so a fleet launched with only the primary's address still fails
over to a standby the primary knew about. A worker holding more than
one address fails over even without ``reconnect``: losing its
coordinator mid-session moves it to the next address (same backoff and
``reconnect_tries`` bound) until a drain, or until every address refuses
(a standby binds its address up front, so a refusing standby is gone).

Shard failures are reported as ``shard-error`` and the worker keeps
serving; an abrupt death can be simulated through ``task_hook`` raising
:class:`WorkerKilled` (the fault-injection tests' kill switch — the
socket drops mid-shard with no goodbye, exactly like a SIGKILL'd
process).
"""

from __future__ import annotations

import dataclasses
import os
import socket
import threading
from dataclasses import dataclass
from typing import Callable

from ..engine.plan import build_full_schedule, shard_schedule
from ..engine.scan import run_shard
from ..engine.wire import config_from_wire, shard_result_to_wire
from .protocol import (
    PROTOCOL_VERSION,
    WELCOME,
    ConnectionClosed,
    ProtocolError,
    assign_frame,
    check_frame,
    recv_message,
    send_message,
)

__all__ = ["ClusterWorker", "WorkerKilled", "WorkerSummary"]


class WorkerKilled(BaseException):
    """Raised by a ``task_hook`` to simulate a worker dying mid-shard.

    Derives from ``BaseException`` so ordinary ``except Exception``
    error reporting cannot turn a simulated kill into a polite
    ``shard-error`` message — the socket just drops.
    """


@dataclass(slots=True)
class WorkerSummary:
    """What one worker did before disconnecting."""

    name: str
    shards_completed: int = 0
    shard_errors: int = 0
    tasks_executed: int = 0
    killed: bool = False
    #: set when the coordinator vanished instead of draining us.
    disconnected: bool = False
    #: welcomed sessions served (> 1 only with ``reconnect=True``).
    sessions: int = 0
    #: backoff-then-retry cycles the reconnect loop went through.
    reconnects: int = 0
    #: times the worker moved to a different coordinator address.
    failovers: int = 0


class ClusterWorker:
    """One worker process/thread serving a coordinator.

    ``task_hook(worker, shard_index, task_number)`` — when given — runs
    before every task and may raise (``WorkerKilled`` for an abrupt
    death, anything else for a reported shard error); tests use it for
    fault injection, e.g. stalling heartbeats via ``heartbeats_enabled``.

    ``recv_timeout`` bounds every read after the welcome; it defaults to
    six negotiated heartbeat intervals (the coordinator park-pings every
    interval while a worker waits for work), so a silently-dead
    coordinator host cannot block the worker forever.
    """

    def __init__(
        self,
        address,
        *,
        name: str | None = None,
        connect_timeout: float = 10.0,
        recv_timeout: float | None = None,
        reconnect: bool = False,
        reconnect_backoff: float = 0.25,
        reconnect_max_delay: float = 4.0,
        reconnect_tries: int = 8,
        task_hook: Callable[["ClusterWorker", int, int], None] | None = None,
    ) -> None:
        if recv_timeout is not None and recv_timeout <= 0:
            raise ValueError(f"recv_timeout must be > 0, got {recv_timeout}")
        if reconnect_backoff <= 0:
            raise ValueError(
                f"reconnect_backoff must be > 0, got {reconnect_backoff}"
            )
        if reconnect_tries < 0:
            raise ValueError(f"reconnect_tries must be >= 0, got {reconnect_tries}")
        #: ordered connect list: primary first, then standbys. The first
        #: address that answers becomes sticky until it fails.
        self.addresses = self._normalize_addresses(address)
        self._cursor = 0
        self.name = name or f"worker-{socket.gethostname()}-{os.getpid()}"
        self.connect_timeout = connect_timeout
        self.recv_timeout = recv_timeout
        self.reconnect = reconnect
        self.reconnect_backoff = reconnect_backoff
        self.reconnect_max_delay = max(reconnect_backoff, reconnect_max_delay)
        self.reconnect_tries = reconnect_tries
        self.task_hook = task_hook
        #: flipped by fault-injection hooks to simulate a stalled worker.
        self.heartbeats_enabled = True
        self._sock: socket.socket | None = None
        self._send_lock = threading.Lock()
        self._halt = threading.Event()

    @property
    def address(self) -> tuple[str, int]:
        """The coordinator address the worker currently prefers."""
        return self.addresses[self._cursor]

    @staticmethod
    def _normalize_addresses(address) -> list[tuple[str, int]]:
        """Accept one ``(host, port)`` pair or a sequence of them."""
        if (
            isinstance(address, (tuple, list))
            and len(address) == 2
            and isinstance(address[0], str)
        ):
            candidates = [address]
        else:
            candidates = list(address)
        addresses: list[tuple[str, int]] = []
        for host, port in candidates:
            pair = (str(host), int(port))
            if pair not in addresses:
                addresses.append(pair)
        if not addresses:
            raise ValueError("worker needs at least one coordinator address")
        return addresses

    def _learn_addresses(self, pairs) -> None:
        """Merge ``failover`` addresses from a welcome into the list."""
        for host, port in pairs:
            if (host, port) not in self.addresses:
                self.addresses.append((host, port))

    # ------------------------------------------------------------------

    def stop(self) -> None:
        """Ask the worker to exit: ends the reconnect loop and unblocks
        any read in flight by tearing down the current socket."""
        self._halt.set()
        sock = self._sock
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def run(self) -> WorkerSummary:
        """Serve the coordinator until drained (or dead); return a summary.

        Without ``reconnect``, one session: connection-establishment
        errors propagate, and a mid-session disconnect sets
        ``summary.disconnected`` — unless the worker holds more than one
        address: a coordinator lost mid-session then fails over to the
        next address, with the same backoff and ``reconnect_tries``
        bound as a reconnecting worker, until a session ends in a drain
        or every address refuses to connect. With ``reconnect``,
        sessions repeat with exponential backoff until :meth:`stop`, a
        kill, or ``reconnect_tries`` consecutive sessions without any
        work.
        """
        summary = WorkerSummary(name=self.name)
        delay = self.reconnect_backoff
        fruitless = 0
        failing_over = False
        while True:
            progress_before = (
                summary.shards_completed
                + summary.shard_errors
                + summary.tasks_executed
            )
            try:
                sock = self._connect(summary)
            except OSError:
                if not self.reconnect:
                    if failing_over:
                        break  # every address refuses: no coordinator is left
                    raise
                summary.disconnected = True
            else:
                try:
                    self._serve_session(sock, summary)
                except WorkerKilled:
                    summary.killed = True
                    break
                except (ConnectionClosed, OSError):
                    summary.disconnected = True
                    # a dead coordinator rarely sends FIN before dying —
                    # prefer the next address (the standby) right away
                    # instead of re-courting the corpse.
                    if len(self.addresses) > 1:
                        self._cursor = (self._cursor + 1) % len(self.addresses)
                        summary.failovers += 1
            failing_over = summary.disconnected and len(self.addresses) > 1
            if not (self.reconnect or failing_over) or self._halt.is_set():
                break
            progressed = (
                summary.shards_completed
                + summary.shard_errors
                + summary.tasks_executed
            ) > progress_before
            if progressed:
                fruitless = 0
                delay = self.reconnect_backoff
            else:
                fruitless += 1
                if fruitless > self.reconnect_tries:
                    break
            if self._halt.wait(delay):
                break
            delay = min(delay * 2, self.reconnect_max_delay)
            summary.reconnects += 1
        return summary

    # ------------------------------------------------------------------

    def _connect(self, summary: WorkerSummary) -> socket.socket:
        """Connect to the first answering address, starting at the
        sticky cursor and rotating through the rest; raises the last
        ``OSError`` when every address refuses."""
        last_error: OSError | None = None
        for offset in range(len(self.addresses)):
            index = (self._cursor + offset) % len(self.addresses)
            try:
                sock = socket.create_connection(
                    self.addresses[index], timeout=self.connect_timeout
                )
            except OSError as exc:
                last_error = exc
                continue
            if index != self._cursor:
                self._cursor = index
                summary.failovers += 1
            return sock
        assert last_error is not None
        raise last_error

    def _serve_session(self, sock: socket.socket, summary: WorkerSummary) -> None:
        """One connect → hello → serve-until-drained session."""
        summary.disconnected = False
        heartbeat_stop = threading.Event()
        heartbeat_thread: threading.Thread | None = None
        # the handshake runs under the connect timeout: a coordinator
        # that accepts but never answers must not park us forever.
        sock.settimeout(self.connect_timeout)
        self._sock = sock
        try:
            self._send({"type": "hello", "worker": self.name,
                        "protocol": PROTOCOL_VERSION})
            welcome = check_frame(recv_message(sock), WELCOME)
            try:
                config = config_from_wire(welcome["config"])
            except ValueError as exc:
                raise ProtocolError(f"welcome frame: {exc}") from None
            summary.sessions += 1
            self._learn_addresses(welcome.get("failover", []))
            shard_count = welcome["shard_count"]
            assign = assign_frame(config, shard_count)
            interval = welcome.get("heartbeat_interval", 1.0)
            # liveness bound: the coordinator park-pings every interval
            # while we wait for work, so several silent intervals mean
            # its host is gone (no FIN ever came) — stop waiting.
            sock.settimeout(self.recv_timeout or max(1.0, 6.0 * interval))
            heartbeat_thread = threading.Thread(
                target=self._heartbeat_loop,
                args=(interval, heartbeat_stop),
                name=f"{self.name}-heartbeat",
                daemon=True,
            )
            heartbeat_thread.start()

            parts = None  # the partition, built on the first assignment
            while True:
                self._send({"type": "ready"})
                while True:
                    message = recv_message(sock)
                    if message["type"] != "heartbeat":  # skip park pings
                        break
                kind = message["type"]
                if kind == "drain":
                    try:
                        self._send({"type": "bye"})
                    except OSError:
                        pass  # coordinator may already have hung up
                    break
                if kind != "assign":
                    raise ProtocolError(f"unexpected message type {kind!r}")
                assignment = check_frame(message, assign)
                if parts is None:
                    tasks, _ = build_full_schedule(config)
                    parts = shard_schedule(tasks, shard_count)
                self._execute_assignment(
                    assignment, config, shard_count, parts, summary
                )
        finally:
            heartbeat_stop.set()
            try:
                sock.close()
            except OSError:
                pass
            self._sock = None
            if heartbeat_thread is not None:
                heartbeat_thread.join(timeout=5.0)

    def _execute_assignment(
        self,
        assignment: dict,
        config,
        shard_count: int,
        parts: list[list],
        summary: WorkerSummary,
    ) -> None:
        shard = assignment["shard"]
        if assignment.get("profile") and not config.profile:
            # the profile flag rides the assignment, not the config wire
            # (it is an execution knob, excluded from the config digest).
            config = dataclasses.replace(config, profile=True)

        def hooked(tasks):
            # runs the hook before each task and counts it once run_shard
            # comes back for the next one.
            for number, task in enumerate(tasks):
                if self.task_hook is not None:
                    self.task_hook(self, shard, number)
                yield task
                summary.tasks_executed += 1

        try:
            result = run_shard((config, shard, shard_count, hooked(parts[shard])))
        except (WorkerKilled, ConnectionClosed, OSError):
            raise
        except Exception as exc:
            summary.shard_errors += 1
            self._send({"type": "shard-error", "shard": shard, "error": repr(exc)})
            return
        reply = {
            "type": "result", "shard": shard, "payload": shard_result_to_wire(result)
        }
        if result.profile is not None:
            # observability sidecar: rides the result frame but stays out
            # of the wire payload (and therefore the coordinator journal).
            reply["profile"] = result.profile
        self._send(reply)
        summary.shards_completed += 1

    def _send(self, message: dict) -> None:
        sock = self._sock
        if sock is None:
            raise ConnectionClosed("worker socket already closed")
        with self._send_lock:
            send_message(sock, message)

    def _heartbeat_loop(self, interval: float, stop: threading.Event) -> None:
        while not stop.wait(interval):
            if not self.heartbeats_enabled:
                continue
            try:
                self._send({"type": "heartbeat"})
            except (ConnectionClosed, OSError):
                return
