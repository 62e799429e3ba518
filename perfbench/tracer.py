"""Outside-in span tracing for the benchmark's traced runs.

The benchmark never edits the program. A traced run replaces a fixed
list of public functions and methods (:data:`TARGETS`) with wrappers
that record one span per call — name, start, end, parent span and
operation id — plus counts taken at the same boundaries. Spans stay in
memory, one buffer per thread, and are written out when the run ends.

Processes the program forks (the scan's pool workers) inherit the
wrappers and the forking thread's open span, so their spans parent
correctly; each worker writes its buffers to the trace directory after
every ``run_shard`` call, because pool workers exit without running
``atexit`` hooks.

A target that does not exist in the program under test is skipped, so
the benchmark keeps running when a later change deletes or moves a
layer; the metrics that layer fed then read 0.
"""

from __future__ import annotations

import functools
import glob
import gzip
import importlib
import itertools
import json
import os
import pickle
import threading
from array import array
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter_ns

__all__ = [
    "Span",
    "TARGETS",
    "Tracer",
    "covered",
    "lane_accounting",
    "load_span_files",
    "load_spans",
    "self_times",
    "write_spans",
]


def _count_admits(counts: dict, admitted) -> None:
    counts["leishen.prescreen.calls"] = counts.get("leishen.prescreen.calls", 0) + 1
    if not admitted:
        counts["leishen.prescreen.rejected"] = (
            counts.get("leishen.prescreen.rejected", 0) + 1
        )


def _count_identified(counts: dict, report) -> None:
    if report is not None:
        counts["leishen.identified"] = counts.get("leishen.identified", 0) + 1


def _count_reverted(counts: dict, labeled) -> None:
    if labeled is None:
        counts["execute.reverted"] = counts.get("execute.reverted", 0) + 1


def _count_window(counts: dict, detections) -> None:
    counts["leishen.window.detections"] = (
        counts.get("leishen.window.detections", 0) + len(detections)
    )


#: ``(module, owner, attribute, span name, result hook, span?)``. An
#: empty owner names a module-level function; a function imported into
#: several modules is wrapped at each binding its callers look up.
TARGETS = (
    ("repro.engine.plan", "", "build_full_schedule", "engine.schedule", None, True),
    ("repro.engine.scan", "", "build_full_schedule", "engine.schedule", None, True),
    ("repro.engine.stream", "", "build_full_schedule", "engine.schedule", None, True),
    ("repro.service.service", "", "build_full_schedule", "engine.schedule", None, True),
    ("repro.engine.scan", "", "build_shard_context", "engine.world_build", None, True),
    ("repro.engine.stream", "", "build_shard_context", "engine.world_build", None, True),
    ("repro.engine.scan", "", "merge_shard_results", "engine.merge", None, True),
    ("repro.engine.stream", "", "merge_shard_results", "engine.merge", None, True),
    ("repro.runtime.ledger", "", "merge_shard_results", "engine.merge", None, True),
    ("repro.engine.scan", "", "run_shard", "engine.run_shard", None, True),
    ("repro.engine.scan", "", "execute_task", "execute.task", _count_reverted, True),
    ("repro.engine.stream", "", "execute_task", "execute.task", _count_reverted, True),
    ("repro.engine.scan", "", "detect_task", "leishen.detect_task", None, True),
    ("repro.engine.stream", "", "detect_task", "leishen.detect_task", None, True),
    ("repro.leishen.detector", "LeiShen", "analyze", "leishen.analyze",
     _count_identified, True),
    ("repro.leishen.identify", "FlashLoanIdentifier", "identify", "leishen.identify",
     None, True),
    ("repro.leishen.tagging", "AccountTagger", "tag_transfers", "leishen.tag", None, True),
    ("repro.leishen.simplify", "TransferSimplifier", "simplify", "leishen.simplify",
     None, True),
    ("repro.leishen.trades", "TradeIdentifier", "identify", "leishen.trades", None, True),
    ("repro.leishen.patterns", "PatternMatcher", "match", "leishen.match", None, True),
    ("repro.leishen.window", "WindowedMatcher", "observe_block", "leishen.window",
     _count_window, True),
    ("repro.leishen.prescreen", "PreScreen", "admits", "leishen.prescreen",
     _count_admits, False),
)

#: span name that makes a forked worker write its buffers out.
_FLUSH_SPAN = "engine.run_shard"


class _Lane:
    """One thread's span buffer: parallel integer columns, so a traced
    run of a few hundred thousand calls stays a few megabytes."""

    __slots__ = ("key", "stack", "ids", "names", "starts", "ends", "parents",
                 "ops", "counts")

    def __init__(self, key: tuple, stack: list | None = None) -> None:
        self.key = key
        self.stack = stack if stack is not None else []
        self.clear()

    def clear(self) -> None:
        """Drop the recorded spans and counts; open spans stay open."""
        self.ids = array("q")
        self.names = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.ops = array("q")
        self.counts: dict = {}

    def payload(self) -> dict:
        return {
            "key": list(self.key),
            "ids": self.ids.tolist(),
            "names": self.names.tolist(),
            "starts": self.starts.tolist(),
            "ends": self.ends.tolist(),
            "parents": self.parents.tolist(),
            "ops": self.ops.tolist(),
            "counts": dict(self.counts),
        }


class Tracer:
    """Records spans and counts around the calls :meth:`install` wraps.

    Span ids are ``pid << 32 | sequence`` so ids from forked workers
    never collide with the parent's. A span's operation id is the id of
    the outermost span open on its thread when it started — for a
    forked worker, the parent span that was open at the fork.
    """

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.pid = self._root_pid = os.getpid()
        self._names: list[str] = []
        self._name_index: dict[str, int] = {}
        self._local = threading.local()
        self._lanes: list[_Lane] = []
        self._lock = threading.Lock()
        self._seq = itertools.count(1)
        self._flushes = itertools.count()
        self._installed: list[tuple[object, str, object]] = []
        self.skipped: list[str] = []
        os.register_at_fork(after_in_child=self._after_fork)

    # -- recording -------------------------------------------------------

    def _intern(self, name: str) -> int:
        index = self._name_index.get(name)
        if index is None:
            index = self._name_index[name] = len(self._names)
            self._names.append(name)
        return index

    def _lane(self) -> _Lane:
        lane = getattr(self._local, "lane", None)
        if lane is None:
            thread = threading.current_thread()
            lane = _Lane((self.pid, thread.name, thread.ident))
            self._local.lane = lane
            with self._lock:
                self._lanes.append(lane)
        return lane

    def _after_fork(self) -> None:
        # the child keeps the forking thread's open spans as parents but
        # none of the parent's recorded spans.
        self.pid = os.getpid()
        self._seq = itertools.count(1)
        self._lock = threading.Lock()
        old = getattr(self._local, "lane", None)
        thread = threading.current_thread()
        lane = _Lane((self.pid, thread.name, thread.ident),
                     list(old.stack) if old is not None else [])
        self._local.lane = lane
        self._lanes = [lane]

    def span(self, name: str):
        """Context manager recording one span of the benchmark's own."""
        return _SpanContext(self, self._intern(name))

    def _open(self, lane: _Lane) -> tuple[int, int, int]:
        stack = lane.stack
        sid = (self.pid << 32) | next(self._seq)
        parent = stack[-1] if stack else 0
        op = stack[0] if stack else sid
        stack.append(sid)
        return sid, parent, op

    @staticmethod
    def _close(lane: _Lane, sid, name, start, end, parent, op) -> None:
        lane.stack.pop()
        lane.ids.append(sid)
        lane.names.append(name)
        lane.starts.append(start)
        lane.ends.append(end)
        lane.parents.append(parent)
        lane.ops.append(op)

    def wrap(self, name: str, fn, on_result=None, span: bool = True):
        """``fn`` with a span (and ``on_result(counts, result)``) per call."""
        index = self._intern(name)
        tracer = self
        flush = name == _FLUSH_SPAN

        if not span:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                on_result(tracer._lane().counts, result)
                return result

            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            lane = tracer._lane()
            sid, parent, op = tracer._open(lane)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(lane, sid, index, start, perf_counter_ns(), parent, op)
            if on_result is not None:
                on_result(lane.counts, result)
            if flush and tracer.pid != tracer._root_pid:
                tracer.flush()
            return result

        return traced

    # -- installation ----------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        for module_name, owner_name, attr, name, hook, span in targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.skipped.append(f"{module_name}.{attr}")
                continue
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.skipped.append(f"{module_name}:{owner_name}.{attr}")
                continue
            setattr(owner, attr, self.wrap(name, original, hook, span))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- output ----------------------------------------------------------

    def payload(self) -> dict:
        with self._lock:
            lanes = list(self._lanes)
        return {"names": list(self._names), "lanes": [lane.payload() for lane in lanes]}

    def flush(self) -> str:
        """Write this process's buffers to the trace directory and clear
        them (open spans stay open)."""
        path = os.path.join(
            self.out_dir, f"spans-{self.pid}-{next(self._flushes)}.pkl"
        )
        payload = self.payload()
        with open(path, "wb") as handle:
            pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
        with self._lock:
            for lane in self._lanes:
                lane.clear()
        return path


class _SpanContext:
    __slots__ = ("_tracer", "_name", "_lane", "_sid", "_parent", "_op", "_start")

    def __init__(self, tracer: Tracer, name: int) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self):
        lane = self._lane = self._tracer._lane()
        self._sid, self._parent, self._op = self._tracer._open(lane)
        self._start = perf_counter_ns()
        return self

    def __exit__(self, *exc_info) -> None:
        self._tracer._close(self._lane, self._sid, self._name, self._start,
                            perf_counter_ns(), self._parent, self._op)


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Span:
    id: int
    name: str
    start: int
    end: int
    parent: int
    op: int
    lane: tuple

    @property
    def duration(self) -> int:
        return self.end - self.start


def load_spans(payloads) -> tuple[list[Span], dict]:
    """Flatten tracer payloads into spans plus summed counts."""
    spans: list[Span] = []
    counts: dict = defaultdict(int)
    for payload in payloads:
        names = payload["names"]
        for lane in payload["lanes"]:
            key = tuple(lane["key"])
            for name, total in lane["counts"].items():
                counts[name] += total
            for sid, name, start, end, parent, op in zip(
                lane["ids"], lane["names"], lane["starts"], lane["ends"],
                lane["parents"], lane["ops"],
            ):
                spans.append(Span(sid, names[name], start, end, parent, op, key))
    return spans, dict(counts)


def load_span_files(directory: str) -> list[dict]:
    payloads = []
    for path in sorted(glob.glob(os.path.join(directory, "spans-*.pkl"))):
        with open(path, "rb") as handle:
            payloads.append(pickle.load(handle))  # written by this benchmark
    return payloads


def covered(intervals, low: int, high: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    total = 0
    reach = low
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict[int, int]:
    """Each span's duration minus the time its children on the same
    thread cover. Children running on other threads or processes are
    concurrent work, accounted in their own lanes."""
    lane_of = {span.id: span.lane for span in spans}
    children: dict[int, list] = defaultdict(list)
    for span in spans:
        if lane_of.get(span.parent) == span.lane:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: span.duration - covered(children.get(span.id, ()), span.start, span.end)
        for span in spans
    }


def lane_accounting(spans, lane, low: int, high: int, selfs=None) -> dict:
    """Where one thread's wall time ``[low, high]`` went.

    Returns the self time of each span name on ``lane`` and an explicit
    ``other`` residual — the wall time no span covers — so that the self
    times plus ``other`` add up to ``high - low``.
    """
    mine = [span for span in spans if span.lane == lane]
    ids = {span.id for span in mine}
    if selfs is None:
        selfs = self_times(mine)
    roots = [(s.start, s.end) for s in mine if s.parent not in ids]
    by_name: dict[str, int] = defaultdict(int)
    for span in mine:
        by_name[span.name] += selfs[span.id]
    coverage = covered(roots, low, high)
    return {
        "wall": high - low,
        "self": dict(sorted(by_name.items(), key=lambda item: -item[1])),
        "covered": coverage,
        "other": (high - low) - coverage,
    }


def write_spans(path: str, spans) -> None:
    """All spans as gzip'd JSON columns (the trace artifact)."""
    names = sorted({span.name for span in spans})
    index = {name: i for i, name in enumerate(names)}
    lanes = sorted({span.lane for span in spans}, key=str)
    lane_index = {lane: i for i, lane in enumerate(lanes)}
    columns = {
        "names": names,
        "lanes": [list(lane) for lane in lanes],
        "id": [s.id for s in spans],
        "name": [index[s.name] for s in spans],
        "start_ns": [s.start for s in spans],
        "end_ns": [s.end for s in spans],
        "parent": [s.parent for s in spans],
        "op": [s.op for s in spans],
        "lane": [lane_index[s.lane] for s in spans],
    }
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        json.dump(columns, handle)
