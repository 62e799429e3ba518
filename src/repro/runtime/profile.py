"""Per-stage profiling for the scan hot path.

A :class:`StageProfiler` is a pair of dictionaries — nanosecond timers
and event counters — cheap enough to thread through the per-transaction
pipeline (one ``perf_counter_ns`` pair per instrumented stage, nothing
when profiling is off). Every shard carries its own profiler; shard
payloads merge into one run-level profile with :func:`merge_profiles`,
and :func:`write_profile` dumps the merged payload as a JSON artifact
so a performance claim ("parallel loses at small scales because world
generation dominates") is recorded, not guessed.

The payload is plain JSON (``{"timers_ns": {...}, "counters": {...}}``)
so it survives process pools and the cluster wire unchanged. Profiles
are *observability* data: they are deliberately excluded from the shard
result wire schema and the run ledger, so enabling ``--profile`` can
never change a result byte or invalidate a resumable journal.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = [
    "StageProfiler",
    "merge_profiles",
    "render_profile",
    "write_profile",
    "DEFAULT_PROFILE_ARTIFACT",
]

#: canonical profile artifact location (repo root).
DEFAULT_PROFILE_ARTIFACT = "PROFILE_wildscan.json"


class StageProfiler:
    """Nanosecond stage timers plus event counters for one shard."""

    __slots__ = ("timers_ns", "counters")

    def __init__(self) -> None:
        self.timers_ns: dict[str, int] = {}
        self.counters: dict[str, int] = {}

    def add(self, stage: str, elapsed_ns: int) -> None:
        """Accumulate wall time (ns) under ``stage``."""
        timers = self.timers_ns
        timers[stage] = timers.get(stage, 0) + elapsed_ns

    def count(self, name: str, n: int = 1) -> None:
        """Bump the ``name`` event counter by ``n``."""
        counters = self.counters
        counters[name] = counters.get(name, 0) + n

    def to_dict(self) -> dict:
        """JSON-safe payload: ``{"timers_ns": ..., "counters": ...}``."""
        return {"timers_ns": dict(self.timers_ns), "counters": dict(self.counters)}


def merge_profiles(payloads) -> dict:
    """Sum :meth:`StageProfiler.to_dict` payloads into one profile.

    ``None`` entries (shards that ran unprofiled, e.g. resumed from a
    ledger journal) are skipped; the merged payload records how many
    shards actually contributed under ``counters["shards_profiled"]`` so
    a partial profile is visibly partial.
    """
    timers: dict[str, int] = {}
    counters: dict[str, int] = {}
    contributed = 0
    for payload in payloads:
        if not payload:
            continue
        contributed += 1
        for stage, elapsed in payload.get("timers_ns", {}).items():
            timers[stage] = timers.get(stage, 0) + elapsed
        for name, value in payload.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
    counters["shards_profiled"] = contributed
    return {"timers_ns": timers, "counters": counters}


#: stages the detector times inside the engine's per-transaction
#: ``detect`` timer (:meth:`repro.leishen.detector.LeiShen.analyze`):
#: ``simplify`` is the one lifting pass, tagging included. ``tag`` is
#: the tagging timer of profiles taken before that pass, still listed
#: under ``detect`` when a payload carries it.
DETECT_STAGES = frozenset({"identify", "tag", "simplify", "trades", "match"})


def _stage_row(stage: str, elapsed: int, total: int, indent: int) -> str:
    share = elapsed / total if total else 0.0
    name = " " * indent + stage
    return f"{name:<20} {elapsed / 1e6:>10.1f} ms  {share:>6.1%}"


def render_profile(payload: dict) -> str:
    """Human-readable stage table, slowest stage first.

    Top-level stages are shares of their own sum. When the payload has a
    ``detect`` timer, the detector's stages (:data:`DETECT_STAGES`) are
    listed under it as shares of ``detect``, closed by an ``other`` row
    for the part of ``detect`` no inner timer covers. A profile without
    ``detect`` (the streaming engine times no enclosing stage) lists
    every stage at top level.
    """
    timers = payload.get("timers_ns", {})
    counters = payload.get("counters", {})
    nested: dict[str, int] = {}
    if "detect" in timers:
        nested = {stage: ns for stage, ns in timers.items() if stage in DETECT_STAGES}
    top = {stage: ns for stage, ns in timers.items() if stage not in nested}
    total = sum(top.values())
    lines = ["stage profile (wall time per stage, summed across shards):"]
    for stage, elapsed in sorted(top.items(), key=lambda item: -item[1]):
        lines.append(_stage_row(stage, elapsed, total, indent=2))
        if stage != "detect":
            continue
        for inner, inner_ns in sorted(nested.items(), key=lambda item: -item[1]):
            lines.append(_stage_row(inner, inner_ns, elapsed, indent=4) + " of detect")
        other = elapsed - sum(nested.values())
        lines.append(_stage_row("other", other, elapsed, indent=4) + " of detect")
    if counters:
        lines.append("counters:")
        for name, value in sorted(counters.items()):
            lines.append(f"  {name:<18} {value:>10}")
    return "\n".join(lines)


def write_profile(payload: dict, path: str | Path = DEFAULT_PROFILE_ARTIFACT) -> Path:
    """Write a merged profile payload as a diff-friendly JSON artifact.

    Millisecond views are derived at write time so the artifact is
    readable without arithmetic, while the payload keeps exact ns sums.
    """
    path = Path(path)
    timers = payload.get("timers_ns", {})
    artifact = {
        "artifact": "stage_profile",
        "timers_ns": dict(timers),
        "timers_ms": {k: round(v / 1e6, 3) for k, v in timers.items()},
        "counters": dict(payload.get("counters", {})),
    }
    path.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")
    return path
