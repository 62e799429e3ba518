"""One benchmark workload in a fresh interpreter.

``run.py`` starts this program once per cold set-up sample
(``--setup-only``) and once per measured process. It writes one JSON
result to ``--result``: the set-up time (from the parent's spawn to the
first timed operation), the workload's measurements, operation and
failure counts, and — with ``--trace`` — the per-layer metrics read
from the tracer's spans. The latency samples go to ``latencies.bin`` in
``--work-dir``, for the parent.

The workloads (sizes below; each why is also in ``BENCHMARK.json``):

- ``scan``: one-shot ``ScanEngine`` scans, 8 shards on 2 pool workers;
- ``detect``: ``LeiShen.analyze`` over traces executed during set-up;
- ``stream``: a windowed ``StreamEngine`` fed by a paced open-loop
  source;
- ``service``: a ``serve`` process driven by one client through small
  scans with distinct seeds.

Untraced runs measure for ``--seconds``. Traced runs (and their
untraced twin, for the overhead) do a fixed amount of work instead, so
per-layer totals compare across program versions.

Every process but ``scan``'s reads the host's speed with
``perfbench/host.py`` right after set-up and at idle points of its timed
phase, and reports the readings beside its raw times; ``run.py`` scales
the times by them.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import os
import resource
import signal
import subprocess
import sys
import threading
import time
from array import array
from contextlib import nullcontext

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.host import SLICE_S, HostMeter  # noqa: E402
from perfbench.stats import due_times, median  # noqa: E402

#: the paper's wild-scan population at scale 1.0; the benchmark's own
#: copy, so the population-size invariant does not trust the program.
PAPER_POPULATION = 272_984

SHARDS = 8
JOBS = 2

#: scan: ~13.6k transactions, about 3 s per scan on 2 vCPUs — several
#: scans per run, so the per-scan median is not one host stall.
SCAN_SCALE = 0.05
#: detect: the population executed during set-up (~1.5 s), then analysed
#: in passes for the timed phase.
DETECT_SCALE = 0.02
#: stream: blocks several transactions wide (1-tx blocks starve the
#: 8-block window of split rounds), offered at a fixed rate near a sixth
#: of the 2-thread engine's capacity, so a host stall of a few seconds
#: does not snowball into a backlog; the population lasts ``--seconds``.
STREAM_BLOCK = 32
STREAM_TX_PER_S = 500
STREAM_SPLIT_GROUPS = 8
#: a host reading goes in a gap only when the next block is due later.
STREAM_READ_GAP_S = 3 * SLICE_S
WARM_TIMEOUT_S = 60.0
#: service: small scans so per-run fixed costs dominate; every run shares
#: one 4-shard layout (warm-cache hits after the first) but its own seed.
SERVICE_POPULATION = 410
SERVICE_SHARDS = 4
SERVICE_PAGE = 8
#: the outcome of a detect call that raised.
RAISED = "raised"
#: fixed work of traced runs and their untraced twin.
TRACED_SCANS = 2
TRACED_PASSES = 2
TRACED_RUNS = 60
#: host readings right after set-up, which scale its time.
SETUP_READINGS = 5
#: detect: a host reading after each such stretch of calls.
DETECT_READ_EVERY_S = 0.25


def population(scale: float) -> int:
    return max(50, round(PAPER_POPULATION * scale))


def vm_hwm_kb(pid: int | str = "self") -> int:
    """Peak resident set of a live process, from ``/proc``."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def self_peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class ChildPeaks:
    """Polls the peak RSS of this process's children while they live.

    ``VmHWM`` only grows, so the last reading before a pool worker exits
    is within one poll of its peak."""

    def __init__(self, interval: float = 0.02) -> None:
        self.interval = interval
        self.peaks: dict[int, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="rss-poll", daemon=True)
        self._thread.start()

    def _children(self) -> list[int]:
        pids = []
        try:
            tasks = os.listdir("/proc/self/task")
        except OSError:
            return pids
        for tid in tasks:
            try:
                with open(f"/proc/self/task/{tid}/children") as handle:
                    pids.extend(int(pid) for pid in handle.read().split())
            except OSError:
                continue
        return pids

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            for pid in self._children():
                peak = vm_hwm_kb(pid)
                if peak:
                    self.peaks[pid] = max(peak, self.peaks.get(pid, 0))

    def take(self) -> float:
        """Summed child peaks (MB) since the last ``take``."""
        total = sum(self.peaks.values())
        self.peaks = {}
        return total / 1024.0

    def close(self) -> None:
        self._stop.set()
        self._thread.join()


# ---------------------------------------------------------------------------
# result digests and invariants
# ---------------------------------------------------------------------------


def result_digest(result) -> str:
    """Digest of a ``WildScanResult``'s per-transaction outcome."""
    payload = [
        result.total_transactions,
        sorted((name, row.n, row.tp, row.fp) for name, row in result.rows.items()),
        [(d.tx_hash, list(d.patterns), bool(d.truth.is_attack)) for d in result.detections],
    ]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def row_errors(rows: dict) -> list[str]:
    return [
        f"Table V row {name}: tp {tp} + fp {fp} != n {n}"
        for name, (n, tp, fp) in rows.items()
        if tp + fp != n
    ]


def load_pins() -> dict:
    with open(os.path.join(ROOT, "perfbench", "pins.json")) as handle:
        return json.load(handle)


def check_pin(workload: str, seed: int, digest: str) -> tuple[bool | None, list[str]]:
    """``(pinned, errors)``: a shipped seed must reproduce its digest."""
    pin = load_pins().get(workload, {}).get(str(seed))
    if pin is None:
        return None, []
    if pin != digest:
        return True, [f"{workload} seed {seed}: digest {digest[:16]} != pinned {pin[:16]}"]
    return True, []


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    """Set-up, timed phase and output checks of one workload."""

    name = ""
    #: the thread that runs the workload's operations, whose wall time
    #: the traced run accounts for.
    op_thread = "MainThread"
    #: run on one CPU. For workloads whose threads or processes hand work
    #: to each other and never compute in parallel: spread over two
    #: vCPUs, each handoff wakes an idle vCPU, which on a busy host waits
    #: for the hypervisor, so latency followed host load two to three
    #: times over; on one CPU they lose no capacity. A single-threaded
    #: workload is pinned too, so its host readings are of the CPU it
    #: runs on.
    one_cpu = False
    #: whether the process reads the host's speed to scale its times.
    reads_host = True

    def __init__(self, args, tracer) -> None:
        self.args = args
        self.seed = args.seed
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.extra: dict = {}
        self.layers: dict = {}
        self.meter = HostMeter()

    def span(self, name: str):
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(message)

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, seconds: float | None) -> dict:
        """The timed phase; ``seconds=None`` does the fixed traced work."""
        raise NotImplementedError

    def check(self) -> None:
        """Output checks too costly for the timed phase (run untraced)."""

    def close(self) -> None:
        """Release processes and files; called even after a failure."""


class Scan(Workload):
    """A research user's time to a Table V result: one ``ScanEngine``
    scan per operation, through the process pool and in-memory merge.
    The lazy import of the lifting kernels stays in each scan's pool
    workers, as a one-shot scan pays it.

    It takes no host readings, so its times are not scaled: readings of
    both CPUs between scans, or in the pool workers before each shard,
    tracked the scans' speed at a slope of 0.2-0.4 (correlation up to
    0.9 across ten runs), so scaling by them overcorrected and added
    spread instead of removing it."""

    name = "scan"
    reads_host = False

    def setup(self) -> None:
        from repro.engine import ScanEngine
        from repro.workload.generator import WildScanConfig

        self.engine = ScanEngine
        self.config = WildScanConfig(
            scale=SCAN_SCALE, seed=self.seed, shards=SHARDS, jobs=JOBS
        )
        self.peaks = ChildPeaks()

    def run(self, seconds):
        latencies, rates, digests, peaks = [], [], set(), [0.0]
        digest = pinned = None
        started = time.perf_counter()
        expected = population(SCAN_SCALE)
        while True:
            self.peaks.take()
            self.attempted += 1
            try:
                with self.span("bench.scan"):
                    began = time.perf_counter()
                    result = self.engine(self.config).run()
                    elapsed = time.perf_counter() - began
            except Exception as exc:  # the program raised: a failed scan
                self.fail(f"scan {self.attempted}: {type(exc).__name__}: {exc}")
            else:
                peaks.append(self.peaks.take())
                latencies.append(elapsed * 1e3)
                rates.append(result.total_transactions / elapsed)
                errors = row_errors(
                    {name: (r.n, r.tp, r.fp) for name, r in result.rows.items()}
                )
                if result.total_transactions != expected:
                    errors.append(
                        f"population {result.total_transactions} != {expected}"
                    )
                digest = result_digest(result)
                digests.add(digest)
                if len(digests) > 1:
                    errors.append("scans of one config disagree")
                pinned, pin_errors = check_pin("scan", self.seed, digest)
                errors += pin_errors
                if errors:
                    self.fail("; ".join(errors))
            if seconds is None:
                if self.attempted >= TRACED_SCANS:
                    break
            elif time.perf_counter() - started >= seconds:
                break
        self.extra.update(digest=digest, pinned=pinned)
        return {
            "timed_s": time.perf_counter() - started,
            "tx_per_s": median(rates) if rates else 0.0,
            "latencies_ms": latencies,
            "peak_rss_mb": self_peak_mb() + max(peaks),
        }

    def close(self) -> None:
        peaks = getattr(self, "peaks", None)
        if peaks is not None:
            peaks.close()


class Detect(Workload):
    """The paper's Sec. VI-A per-transaction detection cost: set-up
    executes the population across its 8 shard worlds and keeps every
    trace; the timed phase calls each shard's ``LeiShen.analyze`` in
    schedule order, one call at a time. Set-up analyses one trace per
    shard so lazy imports land in set-up, as in a resident detector."""

    name = "detect"
    one_cpu = True  # single-threaded

    def setup(self) -> None:
        from repro.engine.plan import build_full_schedule, shard_schedule
        from repro.engine.scan import build_shard_context, execute_task
        from repro.workload.generator import WildScanConfig

        config = WildScanConfig(scale=DETECT_SCALE, seed=self.seed, shards=SHARDS)
        tasks, shard_count = build_full_schedule(config)
        parts = shard_schedule(tasks, shard_count)
        executed = []
        for index, part in enumerate(parts):
            ctx = build_shard_context(config, index, shard_count)
            executed.append([(ctx.detector, execute_task(ctx, task)) for task in part])
        # schedule order: position p ran as task p // shards of shard p % shards
        self.items = []
        for position in range(len(tasks)):
            detector, labeled = executed[position % shard_count][position // shard_count]
            if labeled is not None:
                self.items.append((detector, labeled))
        self.population = len(tasks)
        if self.population != population(DETECT_SCALE):
            self.fail(f"population {self.population} != {population(DETECT_SCALE)}")
        for shard in executed:
            for detector, labeled in shard:
                if labeled is not None:
                    detector.analyze(labeled.trace)
                    break

    def run(self, seconds):
        from time import perf_counter_ns

        items = self.items
        first: list = []
        # 8 bytes a sample, so the samples barely move peak_rss_mb when a
        # faster host fits more calls into the run
        latencies = array("d")
        stamps = array("d")  # when each call began, for its host factor
        calls = passes = 0
        meter = self.meter
        meter.read()
        reading_s = meter.busy_s
        started = time.perf_counter()
        deadline = None if seconds is None else perf_counter_ns() + int(seconds * 1e9)
        read_every = int(DETECT_READ_EVERY_S * 1e9)
        next_read = perf_counter_ns() + read_every
        stop = False
        while not stop:
            for index, (detector, labeled) in enumerate(items):
                if next_read <= perf_counter_ns():
                    meter.read()
                    next_read = perf_counter_ns() + read_every
                began = perf_counter_ns()
                try:
                    report = detector.analyze(labeled.trace)
                except Exception as exc:  # the program raised: a failed call
                    ended = perf_counter_ns()
                    outcome = RAISED
                    self.fail(f"pass {passes}: {labeled.trace.tx_hash}: "
                              f"{type(exc).__name__}: {exc}")
                else:
                    ended = perf_counter_ns()
                    latencies.append((ended - began) / 1e6)
                    stamps.append(began / 1e9)
                    outcome = None
                    if report is not None:
                        outcome = (report.is_attack, tuple(sorted(report.patterns)))
                if passes == 0:
                    first.append(outcome)
                elif outcome != first[index]:
                    self.fail(f"pass {passes}: {labeled.trace.tx_hash} changed verdict")
                calls += 1
                # the first pass always completes: its verdicts are checked
                if passes and deadline is not None and ended >= deadline:
                    stop = True
                    break
            else:
                passes += 1
                if seconds is None:
                    stop = passes >= TRACED_PASSES
                else:
                    stop = perf_counter_ns() >= deadline
        timed = time.perf_counter() - started - (meter.busy_s - reading_s)
        meter.read()
        self.attempted += calls
        rows: dict[str, list[int]] = {}
        detected = []
        errors = []
        for (_, labeled), outcome in zip(items, first):
            if outcome is RAISED:
                continue  # counted when it raised
            if outcome is None:
                # the population is flash-loan transactions only
                errors.append(f"{labeled.trace.tx_hash} not identified as a flash loan")
                continue
            if not outcome[0]:
                continue
            detected.append((labeled.trace.tx_hash, list(outcome[1]),
                             bool(labeled.truth.is_attack)))
            for name in outcome[1]:
                row = rows.setdefault(name, [0, 0, 0])
                row[0] += 1
                true = labeled.truth.is_attack and name in labeled.truth.patterns
                row[1 if true else 2] += 1
        errors += row_errors(rows)
        digest = hashlib.sha256(
            json.dumps([self.population, detected]).encode()
        ).hexdigest()
        pinned, pin_errors = check_pin("detect", self.seed, digest)
        errors += pin_errors
        if errors:
            self.fail("; ".join(errors))
        self.extra.update(digest=digest, pinned=pinned, passes=passes,
                          detections=len(detected))
        return {
            "timed_s": timed,
            "tx_per_s": len(latencies) / timed,
            "latencies_ms": latencies,
            "stamps": stamps,
            "peak_rss_mb": self_peak_mb(),
        }


class Stream(Workload):
    """The live-monitor deployment: ``StreamEngine(windowed=True,
    jobs=2)`` fed by an open-loop source that yields each block at its
    due time whatever the engine's progress. Latency runs from the due
    time to the end of the block's emission, its window pass included,
    so a stall also delays the blocks queued behind it. The first block
    builds every shard world and triggers the lazy imports; it is
    set-up, not timed."""

    name = "stream"
    op_thread = "stream-feeder"
    one_cpu = True  # GIL-bound threads

    def setup(self) -> None:
        from repro.engine import StreamEngine, schedule_block_stream
        from repro.engine.plan import build_full_schedule
        from repro.workload.generator import WildScanConfig

        seconds = self.args.seconds
        scale = STREAM_TX_PER_S * seconds / PAPER_POPULATION
        self.config = WildScanConfig(
            scale=scale, seed=self.seed, shards=SHARDS, jobs=JOBS,
            split_attacks=STREAM_SPLIT_GROUPS,
        )
        # the source's own copy of the schedule the engine builds again;
        # untraced, so engine.schedule_s counts the engine's build only
        tasks, _ = inspect.unwrap(build_full_schedule)(self.config)
        self.blocks = list(schedule_block_stream(tasks, STREAM_BLOCK))
        self.rate = STREAM_TX_PER_S / STREAM_BLOCK
        self.engine = StreamEngine(self.config, windowed=True)
        self.warm = threading.Event()
        self.stats: list = []
        self.emitted: list[float] = []
        # set while every block sent so far has been emitted
        self.idle = threading.Event()
        self.sent = 0
        self.late: list[float] = []
        self.due: list[float] = []
        self.setup_only = self.args.setup_only
        self.result = None
        self.error = None

        def on_block(stats, detections) -> None:
            self.stats.append(stats)

        def source():
            # the merger runs a block's window pass after on_block, so
            # the emission is stamped when observe_block returns
            matcher = self.engine.window_matcher
            observe = matcher.observe_block

            def observed(number, observations):
                detections = observe(number, observations)
                self.emitted.append(time.perf_counter())
                if len(self.emitted) == self.sent:
                    self.idle.set()
                self.warm.set()
                return detections

            def send(block):
                self.idle.clear()
                self.sent += 1
                return block

            matcher.observe_block = observed
            blocks = iter(self.blocks)
            yield send(next(blocks))
            if not self.warm.wait(WARM_TIMEOUT_S):
                raise RuntimeError("the first block was never emitted")
            self.ready_at = time.monotonic()
            self.ready.set()
            if self.setup_only:
                return
            self.go.wait()
            rest = list(blocks)
            self.meter.read()
            self.due = due_times(time.perf_counter(), self.rate, len(rest))
            for index, (due, block) in enumerate(zip(self.due, rest)):
                # in every other gap, a host reading once every block
                # sent has been emitted, if the next is not due for a
                # while: the engine is idle meanwhile
                if index % 2 and self.idle.wait(
                    due - STREAM_READ_GAP_S - time.perf_counter()
                ) and due - time.perf_counter() > STREAM_READ_GAP_S:
                    self.meter.read()
                pause = due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                self.late.append(time.perf_counter() - due)
                yield send(block)

        def drive() -> None:
            try:
                with self.span("bench.stream"):
                    self.result = self.engine.run(source=source(), on_block=on_block)
            except BaseException as exc:  # reported by setup() or run()
                self.error = exc
                self.ready.set()

        self.ready = threading.Event()
        self.go = threading.Event()
        # the engine's feeder runs on this thread: the paced source is
        # the only work on it, as in a monitor reading a node's feed.
        self.thread = threading.Thread(target=drive, name="stream-feeder")
        self.thread.start()
        self.ready.wait()
        if self.error is not None:
            raise self.error

    def run(self, seconds):
        started = time.perf_counter()
        cpu_started = time.process_time()
        self.go.set()
        self.thread.join()
        cpu = time.process_time() - cpu_started - self.meter.busy_s
        timed = list(zip(self.emitted[1:], self.stats[1:]))
        end = timed[-1][0] if timed else time.perf_counter()
        latencies = [(emitted - due) * 1e3 for due, (emitted, _) in zip(self.due, timed)]
        self.attempted += len(self.due)
        if self.error is not None and not isinstance(self.error, Exception):
            raise self.error  # interrupted, not a program failure
        missing = len(self.due) - len(latencies)
        if self.error is not None or missing:
            cause = "" if self.error is None else f"{type(self.error).__name__}: {self.error}; "
            self.fail(f"stream: {cause}{len(latencies)} of {len(self.due)} blocks emitted",
                      max(1, missing))
        stream = self.result
        if stream is not None:
            # BlockStats.detect_ms sums per-transaction wall times on both
            # worker threads, which overlap under the GIL, so this wait can
            # read below zero; it is kept as defined to track queueing.
            waits = [
                latency - stats.detect_ms
                for latency, (_, stats) in zip(latencies, timed)
            ]
            self.layers.update({
                "stream.queue_wait_ms_p50": median(waits),
                "stream.max_queue_depth": stream.max_queue_depth,
                "stream.generator_late_ms_max": max(self.late) * 1e3,
            })
            self.extra.update(windowed=len(stream.windowed or []),
                              digest=result_digest(stream.result))
        # the program's work per block, apart from the CPU share the host
        # gave it: latency / this is the share's slowdown
        self.extra.update(blocks=len(latencies),
                          cpu_ms_per_block=cpu * 1e3 / max(1, len(latencies)),
                          generator_late_ms_max=max(self.late, default=0.0) * 1e3)
        transactions = sum(stats.transactions for _, stats in timed)
        return {
            "timed_s": end - started,
            "tx_per_s": transactions / (end - started),
            # the source's pace, not a speed of the program: not scaled
            "paced": True,
            "latencies_ms": latencies,
            "stamps": self.due[:len(latencies)],
            "peak_rss_mb": self_peak_mb(),
        }

    def check(self) -> None:
        from repro.engine import ScanEngine
        from repro.leishen.window import windowed_recall

        stream = self.result
        if stream is None:
            return  # the failed run is already counted
        errors = []
        reference = ScanEngine(self.config).run()
        if result_digest(stream.result) != result_digest(reference):
            errors.append("stream result differs from ScanEngine.run()")
        recall = windowed_recall(stream.windowed or [], range(STREAM_SPLIT_GROUPS))
        if recall != 1.0:
            errors.append(f"windowed recall {recall} != 1.0")
        if errors:
            self.fail("; ".join(errors))
        self.extra["recall"] = recall

    def close(self) -> None:
        thread = getattr(self, "thread", None)
        if thread is not None:
            self.go.set()
            thread.join()


class Service(Workload):
    """The resident service: a ``serve`` process started through the CLI
    and one client connection running small scans back to back — submit,
    the protocol's blocking ``wait``, then paged results. Distinct seeds
    keep every run a real scan; one shard layout lets the warm cache
    serve every run after the first."""

    name = "service"
    one_cpu = True  # the client waits while the server works

    def setup(self) -> None:
        self.data_dir = os.path.join(self.args.work_dir, "service-data")
        command = [sys.executable, os.path.join(ROOT, "perfbench", "serve.py")]
        if self.tracer is not None:
            command += ["--trace-dir", self.tracer.out_dir]
        command += ["--", "--data-dir", self.data_dir, "--address", "127.0.0.1:0"]
        self.log = open(os.path.join(self.args.work_dir, "serve.log"), "wb")
        self.server = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self.log, cwd=ROOT,
        )
        from repro.service import ServiceClient
        from repro.workload.generator import WildScanConfig

        self.config_type = WildScanConfig
        line = self.server.stdout.readline().decode()
        if not line.startswith("scan service on "):
            raise RuntimeError(f"serve did not start: {line!r}")
        host, _, port = line.split()[3].rpartition(":")
        self.client = ServiceClient((host, int(port)), timeout=60.0)
        if not self.client.ping():
            raise RuntimeError("serve did not answer ping")

    def run(self, seconds):
        from repro.service import AdmissionError

        self.scale = SERVICE_POPULATION / PAPER_POPULATION
        self.samples = {key: [] for key in ("latency", "rpc", "fetch", "queue", "exec")}
        self.stamps: list[float] = []
        self.counts = {"warm_hits": 0, "warm_misses": 0, "failed_runs": 0,
                       "transactions": 0}
        started = time.perf_counter()
        index = 0
        while True:
            index += 1
            self.attempted += 1
            # the server is idle between runs
            self.meter.read()
            try:
                errors = self.one_run(index)
            except AdmissionError as exc:
                errors = [f"refused at admission: {exc}"]
            except Exception as exc:  # the program raised: a failed run
                errors = [f"{type(exc).__name__}: {exc}"]
            if errors:
                self.fail(f"run {index}: " + "; ".join(errors))
            if seconds is None:
                if index >= TRACED_RUNS:
                    break
            elif time.perf_counter() - started >= seconds:
                break
        self.meter.read()
        timed = time.perf_counter() - started - self.meter.busy_s
        ledger_bytes = 0
        for folder, _, files in os.walk(self.data_dir):
            ledger_bytes += sum(
                os.path.getsize(os.path.join(folder, name))
                for name in files if name.startswith("ledger")
            )
        samples, counts = self.samples, self.counts
        if samples["latency"]:
            self.layers.update({
                "service.queue_wait_ms_p50": median(samples["queue"]),
                "service.exec_ms_p50": median(samples["exec"]),
                "service.fetch_ms_p50": median(samples["fetch"]),
                "service.rpc_ms_p50": median(samples["rpc"]),
            })
        self.layers.update({
            "service.warm_hits": counts["warm_hits"],
            "service.warm_misses": counts["warm_misses"],
            "service.failed_runs": counts["failed_runs"],
            "ledger.bytes": ledger_bytes,
        })
        server_peak = vm_hwm_kb(self.server.pid) / 1024.0
        return {
            "timed_s": timed,
            "tx_per_s": counts["transactions"] / timed,
            "latencies_ms": samples["latency"],
            "stamps": self.stamps,
            "peak_rss_mb": self_peak_mb() + server_peak,
        }

    def one_run(self, index: int) -> list[str]:
        """Submit one scan, wait for it, page its results and check them;
        the run's wrong outputs."""
        client = self.client
        config = self.config_type(
            scale=self.scale, seed=self.seed * 100_000 + index, shards=SERVICE_SHARDS
        )
        with self.span("bench.run"):
            began = time.perf_counter()
            with self.span("service.submit"):
                view = client.submit(config)
            coalesced = view["coalesced"]
            submitted = time.perf_counter()
            with self.span("service.wait"):
                view = client.request("wait", run_id=view["run_id"], timeout=60.0)["run"]
            waited = time.perf_counter()
            pages = []
            with self.span("service.fetch"):
                offset = 0
                while view["state"] == "completed":
                    page = client.results(view["run_id"], offset=offset,
                                          limit=SERVICE_PAGE)
                    pages.extend(page["detections"])
                    if page["next_offset"] is None:
                        break
                    offset = page["next_offset"]
            finished = time.perf_counter()
        if coalesced:
            return [f"{view['run_id']} coalesced onto an earlier run"]
        if view["state"] != "completed":
            self.counts["failed_runs"] += view["state"] == "failed"
            return [f"{view['run_id']} ended {view['state']}"]
        errors = []
        whole = client.results(view["run_id"])
        if whole["detections"] != pages:
            errors.append(f"{view['run_id']}: paged != unpaged results")
        total = whole["summary"]["total_transactions"]
        expected = population(self.scale)
        if total != expected:
            errors.append(f"{view['run_id']}: population {total} != {expected}")
        errors += row_errors(whole["summary"]["rows"])
        self.counts["transactions"] += total
        self.counts["warm_hits"] += view["warm_hits"]
        self.counts["warm_misses"] += view["warm_misses"]
        for key, value in (
            ("latency", finished - began),
            ("rpc", submitted - began),
            ("fetch", finished - waited),
            ("queue", view["started_at"] - view["submitted_at"]),
            ("exec", view["finished_at"] - view["started_at"]),
        ):
            self.samples[key].append(value * 1e3)
        self.stamps.append(began)
        return errors

    def close(self) -> None:
        client = getattr(self, "client", None)
        if client is not None:
            client.close()
            self.client = None
        server = getattr(self, "server", None)
        if server is not None:
            self.server = None
            # a traced server must drain to write its spans, which takes
            # the listener's 5 s accept timeout; an untraced one has no
            # runs left to drain and just stops.
            traced = self.tracer is not None
            if server.poll() is None:
                server.send_signal(signal.SIGINT if traced else signal.SIGTERM)
            try:
                server.wait(30)
            except subprocess.TimeoutExpired:
                server.kill()
                server.wait()
            server.stdout.close()
            self.log.close()


WORKLOADS = {cls.name: cls for cls in (Scan, Detect, Stream, Service)}


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------


def layer_metrics(tracer, low_ns: int, high_ns: int, layers: dict,
                  op_thread: str) -> tuple[dict, dict]:
    """Per-layer metrics and the wall-time accounting of a traced run."""
    from perfbench.tracer import lane_accounting, load_span_files, load_spans, self_times

    spans, counts = load_spans([tracer.payload()] + load_span_files(tracer.out_dir))
    selfs = self_times(spans)
    by_id = {span.id: span for span in spans}
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span in spans:
        total[span.name] = total.get(span.name, 0) + span.duration / 1e9
        calls[span.name] = calls.get(span.name, 0) + 1

    def under(name: str, parent: str) -> float:
        return sum(
            span.duration for span in spans
            if span.name == name and span.parent in by_id
            and by_id[span.parent].name == parent
        ) / 1e9

    verify = 0
    analyze_in_detect: dict[int, int] = {}
    for span in spans:
        parent = by_id.get(span.parent)
        if span.name == "leishen.analyze" and parent is not None \
                and parent.name == "leishen.detect_task" and parent.lane == span.lane:
            analyze_in_detect[parent.id] = analyze_in_detect.get(parent.id, 0) + span.duration
    for span in spans:
        if span.name == "leishen.detect_task":
            verify += span.duration - analyze_in_detect.get(span.id, 0)

    pool_overhead = 0
    for scan in (s for s in spans if s.name == "bench.scan"):
        per_worker: dict = {}
        for span in spans:
            if span.name == "engine.run_shard" and span.op == scan.id \
                    and span.lane != scan.lane:
                per_worker[span.lane] = per_worker.get(span.lane, 0) + span.duration
        pool_overhead += scan.duration - max(per_worker.values(), default=0)

    analyze_calls = calls.get("leishen.analyze", 0)
    metrics = {
        "engine.schedule_s": total.get("engine.schedule", 0.0),
        "engine.world_builds": calls.get("engine.world_build", 0),
        "engine.world_build_s": total.get("engine.world_build", 0.0),
        "engine.merge_s": total.get("engine.merge", 0.0),
        "engine.pool_overhead_s": pool_overhead / 1e9,
        "execute.calls": calls.get("execute.task", 0),
        "execute.busy_s": total.get("execute.task", 0.0),
        "execute.reverted": counts.get("execute.reverted", 0),
        "leishen.analyze.calls": analyze_calls,
        "leishen.analyze.busy_s": total.get("leishen.analyze", 0.0),
        "leishen.analyze.self_s": sum(
            selfs[span.id] for span in spans if span.name == "leishen.analyze"
        ) / 1e9,
        "leishen.identify_s": under("leishen.identify", "leishen.analyze"),
        "leishen.tag_s": under("leishen.tag", "leishen.analyze"),
        "leishen.simplify_s": under("leishen.simplify", "leishen.analyze"),
        "leishen.trades_s": under("leishen.trades", "leishen.analyze"),
        "leishen.match_s": under("leishen.match", "leishen.analyze"),
        "leishen.verify_s": verify / 1e9,
        "leishen.prescreen.calls": counts.get("leishen.prescreen.calls", 0),
        "leishen.prescreen.rejected": counts.get("leishen.prescreen.rejected", 0),
        "leishen.identified_ratio": (
            counts.get("leishen.identified", 0) / analyze_calls if analyze_calls else 0.0
        ),
        "leishen.window.calls": calls.get("leishen.window", 0),
        "leishen.window.busy_s": total.get("leishen.window", 0.0),
        "leishen.window.detections": counts.get("leishen.window.detections", 0),
        "stream.queue_wait_ms_p50": 0.0,
        "stream.max_queue_depth": 0,
        "stream.generator_late_ms_max": 0.0,
        "service.queue_wait_ms_p50": 0.0,
        "service.exec_ms_p50": 0.0,
        "service.fetch_ms_p50": 0.0,
        "service.rpc_ms_p50": 0.0,
        "service.warm_hits": 0,
        "service.warm_misses": 0,
        "service.failed_runs": 0,
        "ledger.bytes": 0,
    }
    metrics.update(layers)

    op_lane = next(
        span.lane for span in spans
        if span.lane[0] == os.getpid() and span.lane[1] == op_thread
    )
    lanes = sorted({span.lane for span in spans}, key=str)
    accounting = {
        " ".join(map(str, lane)): lane_accounting(spans, lane, low_ns, high_ns, selfs)
        for lane in lanes
    }
    main = accounting[" ".join(map(str, op_lane))]
    metrics["trace.wall_s"] = main["wall"] / 1e9
    metrics["trace.other_s"] = main["other"] / 1e9
    return metrics, {"lanes": accounting, "op_lane": list(op_lane),
                     "skipped_targets": tracer.skipped, "spans": spans}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--index", type=int, default=0,
                        help="which of the run's measured processes this is")
    parser.add_argument("--fixed", action="store_true",
                        help="do the traced runs' fixed work instead of --seconds")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    from time import perf_counter_ns

    low_ns = perf_counter_ns()
    if WORKLOADS[args.workload].one_cpu:
        # inherited by the service's server process; the measured
        # processes of one run take the CPUs in turn
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[-1 - args.index % len(cpus)]})
    sys.path.insert(0, os.path.join(ROOT, "src"))
    tracer = None
    if args.trace:
        from perfbench.tracer import Tracer, write_spans

        trace_dir = os.path.join(args.work_dir, "spans")
        os.makedirs(trace_dir, exist_ok=True)
        tracer = Tracer(trace_dir)
        tracer.install()
    workload = WORKLOADS[args.workload](args, tracer)
    out: dict = {"workload": args.workload, "seed": args.seed}
    try:
        with workload.span("bench.setup"):
            workload.setup()
        ready = getattr(workload, "ready_at", None) or time.monotonic()
        out["setup_s"] = ready - args.spawned_at
        if workload.reads_host:
            setup_meter = HostMeter()
            setup_meter.read(SETUP_READINGS)
            out["setup_factor"] = setup_meter.factor()
        if not args.setup_only:
            measured = workload.run(None if args.fixed else args.seconds)
            high_ns = perf_counter_ns()
            if tracer is not None:
                tracer.uninstall()
            stamps = measured.pop("stamps", None)
            if workload.meter.rates:
                measured["host_factor"] = workload.meter.factor()
                measured["host_readings"] = len(workload.meter.rates)
                # each latency's own factor, for the parent to scale it by
                with open(os.path.join(args.work_dir, "factors.bin"), "wb") as handle:
                    workload.meter.local_factors(stamps).tofile(handle)
            workload.check()
            # the parent takes the percentiles of every measured process
            latencies = array("d", measured.pop("latencies_ms"))
            with open(os.path.join(args.work_dir, "latencies.bin"), "wb") as handle:
                latencies.tofile(handle)
            measured["operations"] = len(latencies)
            out["measured"] = measured
            out["extra"] = workload.extra
            if tracer is not None:
                workload.close()
                layers, accounting = layer_metrics(
                    tracer, low_ns, high_ns, workload.layers, workload.op_thread
                )
                spans = accounting.pop("spans")
                write_spans(os.path.join(args.work_dir, "spans.json.gz"), spans)
                out["layers"] = layers
                out["accounting"] = accounting
    except Exception as exc:  # set-up or a check raised: one failed operation
        import traceback

        workload.attempted += 1
        workload.fail(f"{type(exc).__name__}: {exc}")
        out["traceback"] = traceback.format_exc()
    finally:
        workload.close()
    out.update(attempted=workload.attempted, failed=workload.failed,
               errors=workload.errors)
    with open(args.result, "w") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
