"""Hot-standby coordinator: adopt a dead primary's ledger mid-scan.

A :class:`StandbyCoordinator` is the failover half of a journaled
cluster run. It binds its serve socket *up front* — so its address can
sit in every worker's multi-address connect list (and in the primary's
``failover`` welcome broadcast) from the moment the fleet launches —
but does not coordinate anything while the primary is alive:

- **follower phase** — a background loop accepts and immediately closes
  any worker connection (the worker's reconnect loop backs off and
  retries, landing back on the primary while it lives), while a probe
  thread watches the primary's serve socket: ``probe_failures``
  consecutive refused/timed-out connects spaced ``probe_interval``
  apart declare the primary dead. Crucially, the standby does *not*
  open the ledger file while following — the primary owns the journal,
  and two writers (or a follower truncating a tail the primary is
  mid-append on) would corrupt it.
- **adoption** — :meth:`adopt` stops the follower loop and builds a
  regular :class:`~repro.cluster.coordinator.Coordinator` around the
  already-bound socket and the primary's ledger path. Opening the
  ledger replays every shard the primary journaled before dying
  (tolerating the torn tail of a mid-append kill), seeds
  ``stats.resumed_shards``, and queues only ``ledger.remaining()`` —
  the adopted run re-executes nothing. Workers that were pointed at
  both addresses reconnect through their backoff loop and the scan
  finishes with a merged result byte-identical to an uninterrupted run
  (the ledger merge makes that a structural property, not a hope).

The division of labor is deliberately minimal: all fault handling —
requeue, duplicate suppression (late results from the dead primary's
workers), strikes, fallback — is the ordinary ``Coordinator`` machinery.
The standby only answers "when is it my turn, with which socket, and
from which journal".
"""

from __future__ import annotations

import socket
import threading
import time

from .coordinator import Coordinator

__all__ = ["StandbyCoordinator", "StandbyError"]

#: seconds between liveness probes of the primary's serve socket.
DEFAULT_PROBE_INTERVAL = 0.25
#: connect timeout for one probe.
DEFAULT_PROBE_TIMEOUT = 1.0
#: consecutive failed probes before the primary is declared dead.
DEFAULT_PROBE_FAILURES = 3


class StandbyError(RuntimeError):
    """The standby cannot do what was asked in its current phase."""


class StandbyCoordinator:
    """Follow a primary coordinator; adopt its ledger when it dies.

    Usage::

        standby = StandbyCoordinator(
            config, primary=primary_addr, ledger="run.ledger")
        standby.start()                       # follow + probe
        workers connect to [primary_addr, standby.address]
        if standby.wait_for_primary_death(timeout=...):
            result = standby.adopt_and_run()  # finish the scan

    ``coordinator_options`` are forwarded to the adopted
    :class:`Coordinator` (heartbeat tuning, ``local_fallback``, ...);
    ``ledger`` may be a path (opened only at adoption) or an already-open
    :class:`~repro.runtime.ledger.RunLedger`.
    """

    def __init__(
        self,
        config,
        *,
        primary: tuple[str, int],
        ledger,
        host: str = "127.0.0.1",
        port: int = 0,
        probe_interval: float = DEFAULT_PROBE_INTERVAL,
        probe_timeout: float = DEFAULT_PROBE_TIMEOUT,
        probe_failures: int = DEFAULT_PROBE_FAILURES,
        coordinator_options: dict | None = None,
    ) -> None:
        if probe_interval <= 0:
            raise ValueError(f"probe_interval must be > 0, got {probe_interval}")
        if probe_timeout <= 0:
            raise ValueError(f"probe_timeout must be > 0, got {probe_timeout}")
        if probe_failures < 1:
            raise ValueError(f"probe_failures must be >= 1, got {probe_failures}")
        if ledger is None:
            raise ValueError(
                "a standby needs the run ledger — without the journal there "
                "is nothing to adopt"
            )
        self.config = config
        self.primary = (str(primary[0]), int(primary[1]))
        self.ledger = ledger
        self.probe_interval = probe_interval
        self.probe_timeout = probe_timeout
        self.probe_failures = probe_failures
        self.coordinator_options = dict(coordinator_options or {})

        self._server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._server.bind((host, port))
        self._server.listen(16)
        self._server.settimeout(0.2)
        #: bound before the fleet launches, so workers can carry it in
        #: their connect list while the primary is still the one serving.
        self.address: tuple[str, int] = self._server.getsockname()[:2]

        self._halt = threading.Event()
        self._primary_dead = threading.Event()
        self._threads: list[threading.Thread] = []
        self._started = False
        self._coordinator: Coordinator | None = None
        #: probes attempted while following (observability).
        self.probe_count = 0
        #: ``time.monotonic()`` timestamps bracketing the follower phase.
        self.started_at: float | None = None
        self.death_detected_at: float | None = None

    # -- lifecycle -------------------------------------------------------

    def __enter__(self) -> "StandbyCoordinator":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def start(self) -> None:
        """Begin following: refuse workers politely, probe the primary."""
        if self._started:
            return
        if self._coordinator is not None:
            raise StandbyError("standby has already adopted")
        self._started = True
        self.started_at = time.monotonic()
        for target, name in (
            (self._follow_loop, "standby-follow"),
            (self._probe_loop, "standby-probe"),
        ):
            thread = threading.Thread(target=target, name=name, daemon=True)
            thread.start()
            self._threads.append(thread)

    def shutdown(self) -> None:
        """Stop following. Closes the socket only if it was never handed
        to an adopted coordinator (which then owns its lifecycle)."""
        self._halt.set()
        for thread in self._threads:
            thread.join(timeout=5.0)
        self._threads.clear()
        if self._coordinator is None:
            try:
                self._server.close()
            except OSError:
                pass

    # -- follower phase --------------------------------------------------

    def wait_for_primary_death(self, timeout: float | None = None) -> bool:
        """Block until the probe declares the primary dead (or timeout)."""
        return self._primary_dead.wait(timeout)

    def _follow_loop(self) -> None:
        # Accept-and-close: a connecting worker sees the connection drop
        # before the welcome, books a fruitless session, and retries with
        # backoff — by which time either the primary answered or this
        # standby has adopted and serves it for real.
        while not self._halt.is_set():
            try:
                conn, _ = self._server.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            try:
                conn.close()
            except OSError:
                pass

    def _probe_loop(self) -> None:
        failures = 0
        while not self._halt.is_set():
            self.probe_count += 1
            try:
                probe = socket.create_connection(
                    self.primary, timeout=self.probe_timeout
                )
            except OSError:
                failures += 1
                if failures >= self.probe_failures:
                    self.death_detected_at = time.monotonic()
                    self._primary_dead.set()
                    return
            else:
                try:
                    probe.close()
                except OSError:
                    pass
                failures = 0
            if self._halt.wait(self.probe_interval):
                return

    # -- adoption --------------------------------------------------------

    def adopt(self) -> Coordinator:
        """Take over: stop following, open the journal, start serving.

        Returns a started :class:`Coordinator` bound to the standby's
        already-advertised socket, seeded from the ledger (the dead
        primary's journaled shards are resumed, a torn tail from a kill
        mid-append is truncated away) with only ``ledger.remaining()``
        shards queued. The caller drives ``run()``/``shutdown()`` —
        or uses :meth:`adopt_and_run`.
        """
        if not self._started:
            raise StandbyError("standby was never started")
        if self._coordinator is not None:
            raise StandbyError("standby has already adopted")
        # stop the follower/probe threads, keep the socket.
        self._halt.set()
        for thread in self._threads:
            thread.join(timeout=5.0)
        self._threads.clear()
        coordinator = Coordinator(
            self.config,
            server_socket=self._server,
            ledger=self.ledger,
            **self.coordinator_options,
        )
        self._coordinator = coordinator
        coordinator.start()
        return coordinator

    def adopt_and_run(
        self,
        *,
        timeout: float | None = None,
        autoscale: bool = False,
        min_workers: int = 0,
        max_workers: int = 4,
        autoscale_options: dict | None = None,
    ):
        """Adopt and drive the scan to its merged result.

        With ``autoscale`` the adopted coordinator also gets its own
        :class:`~repro.cluster.autoscale.ElasticPool` — the fully
        self-healing shape: even if every external worker died with the
        primary, the standby respawns capacity and finishes.
        """
        coordinator = self.adopt()
        pool = None
        try:
            if autoscale:
                from .autoscale import ElasticPool

                pool = ElasticPool(
                    coordinator,
                    min_workers=min_workers,
                    max_workers=max_workers,
                    **(autoscale_options or {}),
                )
                pool.start()
            return coordinator.run(timeout=timeout)
        finally:
            if pool is not None:
                pool.stop()
            coordinator.shutdown()

    @property
    def coordinator(self) -> Coordinator | None:
        """The adopted coordinator (``None`` while still following)."""
        return self._coordinator

    @property
    def stats(self):
        if self._coordinator is None:
            raise StandbyError("no stats before adoption")
        return self._coordinator.stats
