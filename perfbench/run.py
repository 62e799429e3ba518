"""The benchmark: one command for every workload and metric.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0

Workloads: ``scan``, ``detect``, ``stream``, ``service`` (see
``perfbench/workloads.py`` and the ``why`` of each in BENCHMARK.json).

``--trace 0`` measures the end-to-end metrics with no tracing:
``setup_s`` is the median of several cold starts, each in a fresh
interpreter, plus the measured processes' own; the rest come from the
measured processes, which share ``--seconds``. ``--trace 1`` runs the workload's fixed
traced work twice, untraced and traced, and reports the per-layer
metrics of the traced run; the difference between the two runs'
end-to-end metrics is printed as the tracing overhead.

Every time (and ``tx_per_s``, except the stream's paced rate) of a
workload that reads the host (all but ``scan``) is scaled to the
reference host of ``perfbench/host.py`` by the host readings its
process took. The raw figures are printed beside them.

The metrics printed are the ones BENCHMARK.json declares. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. A wrong output, or a program that raises
or hangs, exits 1 with that result (metrics not measured read
``null``); a checkout without the program, or a benchmark process that
could not run, exits 2 without printing a result. Artifacts (the full
report, spans of traced runs) go under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from array import array

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.stats import TAIL_LADDER, median, percentile, tail_percentile  # noqa: E402

WORKLOADS = ("scan", "detect", "stream", "service")

#: cold starts per run besides the measured processes' own, for
#: workloads whose single set-up is sub-second and so too short to be
#: steady.
COLD_STARTS = {"scan": 4, "detect": 0, "stream": 4, "service": 4}

#: measured processes per run, which share ``--seconds``. detect runs
#: several: its cost per call moves by up to 1.6x with the interpreter's
#: string-hash seed (same calls, same work), so one process is one draw
#: of that lottery; each process slot has its own fixed hash seed, so
#: every run averages the same draws.
PROCESSES = {"scan": 1, "detect": 8, "stream": 1, "service": 1}

#: tail percentile per workload: the highest that has at least 10
#: samples beyond it and repeated within its bound between runs. For
#: stream none above the median did: its p75 spread 0.28 over ten runs
#: of which three ran while the host stole 8-11% of the CPU.
TAIL = {"scan": 0.99, "detect": 0.99, "stream": 0.5, "service": 0.75}

#: every child must be done by then, so the whole command ends within
#: the 180 s a run is allowed.
BUDGET_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not run (exit 2, no result printed)."""


class ProgramFailed(Exception):
    """A child ran the program and it raised or hung; ``result`` holds
    the counts it got to, reported as a failed run (exit 1)."""

    def __init__(self, result: dict) -> None:
        super().__init__(result["errors"])
        self.result = result


def declared_metrics() -> tuple[dict, dict]:
    """Name -> unit of the end-to-end and per-layer metrics BENCHMARK.json
    declares, the one list of what a run prints."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return tuple(
        {metric["name"]: metric["unit"] for metric in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    )


def environment(seed: int) -> dict:
    """Where the numbers were measured."""
    try:
        from importlib.metadata import version

        numpy_version = version("numpy")
    except Exception:  # not installed, or no metadata
        numpy_version = None
    revision = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            revision = None
    return {
        "effective_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_revision": revision,
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "PYTHONHASHSEED": "fixed per process: 0 to 7 (detect), else 0",
        "seed": seed,
    }


def stop_group(child: subprocess.Popen) -> None:
    """Kill a child's process group and wait for the child."""
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    child.wait()


def spawn(args, work_dir: str, tag: str, deadline: float, *extra: str,
          seconds: float | None = None, index: int = 0) -> dict:
    """Run ``workloads.py`` once in a fresh interpreter; its JSON result,
    with the latency samples of a measured run under ``latencies``.
    Raises :class:`ProgramFailed` when the program raised in set-up or
    a check, crashed the interpreter, or did not finish in time."""
    result_path = os.path.join(work_dir, f"{tag}.json")
    child_dir = os.path.join(work_dir, tag)
    os.makedirs(child_dir, exist_ok=True)
    command = [
        sys.executable, os.path.join(ROOT, "perfbench", "workloads.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(seconds or args.seconds), "--work-dir", child_dir,
        "--result", result_path, "--index", str(index), *extra,
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ProgramFailed(hung(f"out of time before {tag}"))
    # a fixed string-hash seed per process slot: the program's cost moves
    # with it (one scan seed read 5-7% slower than three others, in
    # every round), so a random one would add that lottery to the spread
    env = dict(os.environ, PYTHONHASHSEED=str(index))
    spawned_at = time.monotonic()
    # its own process group, so a timeout also stops what it started
    try:
        child = subprocess.Popen(command + ["--spawned-at", repr(spawned_at)], cwd=ROOT,
                                 env=env, start_new_session=True)
    except OSError as exc:
        raise BenchError(f"{tag} could not start: {exc}") from exc
    try:
        code = child.wait(remaining)
    except subprocess.TimeoutExpired:
        stop_group(child)
        raise ProgramFailed(hung(f"{tag} did not finish in time")) from None
    except BaseException:  # interrupted or terminated: stop the child, re-raise
        stop_group(child)
        raise
    # the child reports what the program raises; dying without a result
    # is a crash of the interpreter running it
    if code != 0 or not os.path.exists(result_path):
        raise ProgramFailed(hung(f"{tag} exited {code} without a result"))
    with open(result_path) as handle:
        result = json.load(handle)
    needed = "setup_s" if "--setup-only" in extra else "measured"
    if needed not in result:
        raise ProgramFailed(result)
    if needed == "measured":
        for key in ("latencies", "factors"):
            result[key] = array("d")
            path = os.path.join(child_dir, f"{key}.bin")
            if os.path.exists(path):  # no factors: the host was not read
                with open(path, "rb") as handle:
                    result[key].frombytes(handle.read())
    return result


def hung(message: str) -> dict:
    """The result of a child that crashed or ran out of time."""
    return {"attempted": 1, "failed": 1, "errors": [message]}


def cpu_ticks() -> tuple[int, int]:
    """``(steal, total)`` CPU ticks of the machine, from ``/proc/stat``."""
    try:
        with open("/proc/stat") as handle:
            fields = [int(value) for value in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def end_to_end(workload: str, runs: list[dict], setups: list[tuple[float, float]],
               scaled: bool = True) -> tuple[dict, dict]:
    """The end-to-end metrics of one or more measured processes, and how
    the latency tail was taken; ``(None, None)`` when no operation
    succeeded. The processes ran one after another, so the peak
    resident memory is the largest of theirs. ``setups`` holds
    ``(seconds, host factor)`` pairs.

    With ``scaled``, each latency is multiplied by its own host factor
    and each process's rate divided by the process's; set-up times are
    multiplied by the factor read right after each set-up. Without, the
    raw figures.

    A latency percentile is the mean of each process's own: every
    process is one draw of the hash-seed lottery, and the percentile of
    pooled samples jumps between the draws' modes as their mix changes.
    The tail is taken at the highest percentile every process supports.
    """
    measured = [run for run in runs if len(run["latencies"])]
    if not measured:
        return None, None
    # a workload that took no host readings is not scaled
    samples = [
        array("d", map(operator.mul, run["latencies"], run["factors"]))
        if scaled and run["factors"] else run["latencies"]
        for run in measured
    ]
    timed = sum(run["measured"]["timed_s"] for run in runs)
    fraction, _, qualified = tail_percentile(min(samples, key=len), TAIL[workload])

    def factor(run: dict) -> float:
        return run["measured"].get("host_factor", 1.0) if scaled else 1.0

    def mean_percentile(rung: float) -> float:
        return sum(percentile(values, rung) for values in samples) / len(samples)

    def rate(run: dict) -> float:
        value = run["measured"]["tx_per_s"]
        return value if run["measured"].get("paced") else value / factor(run)

    metrics = {
        "setup_s": median([s * (f if scaled else 1.0) for s, f in setups]),
        "tx_per_s": sum(rate(run) * run["measured"]["timed_s"] for run in runs) / timed,
        "latency_ms_p50": mean_percentile(0.5),
        "latency_ms_tail": mean_percentile(fraction),
        "peak_rss_mb": max(run["measured"]["peak_rss_mb"] for run in runs),
    }
    tail_info = {
        "operations": sum(len(values) for values in samples),
        "processes": len(samples),
        "tail_percentile": fraction,
        "tail_qualified": qualified,
        "percentiles_ms": {f"p{rung * 100:g}": mean_percentile(rung) for rung in TAIL_LADDER},
    }
    return metrics, tail_info


def setup_pair(child: dict) -> tuple[float, float]:
    # a workload that does not read the host is not scaled
    return child["setup_s"], child.get("setup_factor", 1.0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S
    end_to_end_units, per_layer_units = declared_metrics()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no program to measure (src/repro is missing)", file=sys.stderr)
        return 2
    out_root = os.path.join(ROOT, ".bench_out")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = os.path.join(out_root, f"{name}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    report: dict = {"workload": args.workload, "environment": environment(args.seed)}
    ticks = cpu_ticks()
    children: list[dict] = []
    metrics = tail_info = raw = None
    try:
        if args.trace == 0:
            setups = []
            for i in range(COLD_STARTS[args.workload]):
                children.append(spawn(args, work_dir, f"cold{i}", deadline, "--setup-only"))
                setups.append(setup_pair(children[-1]))
            processes = PROCESSES[args.workload]
            runs = []
            for i in range(processes):
                runs.append(spawn(args, work_dir, f"run{i}", deadline,
                                  seconds=args.seconds / processes, index=i))
                children.append(runs[-1])
            setups += [setup_pair(run) for run in runs]
            metrics, tail_info = end_to_end(args.workload, runs, setups)
            raw, _ = end_to_end(args.workload, runs, setups, scaled=False)
            report["setup_samples_s"] = setups
        else:
            base = spawn(args, work_dir, "base", deadline, "--fixed")
            children.append(base)
            run = spawn(args, work_dir, "traced", deadline, "--fixed", "--trace")
            children.append(run)
            untraced, _ = end_to_end(args.workload, [base], [setup_pair(base)])
            traced, tail_info = end_to_end(args.workload, [run], [setup_pair(run)])
            if untraced is not None and traced is not None:
                metrics = dict(run["layers"])
                for key in end_to_end_units:
                    metrics[f"overhead.{key}"] = traced[key] - untraced[key]
                report["overhead"] = {
                    key: {"untraced": untraced[key], "traced": traced[key]}
                    for key in end_to_end_units
                }
                report["accounting"] = run["accounting"]
    except ProgramFailed as exc:
        children.append(exc.result)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    steal, total = (after - before for after, before in zip(cpu_ticks(), ticks))
    report["host_factors"] = [
        child["measured"]["host_factor"] for child in children
        if "host_factor" in child.get("measured", {})
    ]
    report["host_steal_share"] = steal / total if total else None
    report["raw"] = raw
    attempted = sum(child["attempted"] for child in children)
    failed = sum(child["failed"] for child in children)
    errors = [error for child in children for error in child["errors"]]
    correct = failed == 0 and metrics is not None
    units = per_layer_units if args.trace else end_to_end_units
    measured = [child for child in children if "measured" in child]
    report.update(
        measured=[child["measured"] for child in measured], latency=tail_info,
        extra=[child.get("extra") for child in measured], errors=errors,
        tracebacks=[child["traceback"] for child in children if "traceback" in child],
    )
    with open(os.path.join(out_root, f"{name}.json"), "w") as handle:
        json.dump(report, handle, indent=1)
    if args.trace:
        spans = os.path.join(work_dir, "traced", "spans.json.gz")
        if os.path.exists(spans):
            shutil.move(spans, os.path.join(out_root, f"{name}.spans.json.gz"))
    shutil.rmtree(work_dir, ignore_errors=True)
    values = {key: metrics[key] if metrics else None for key in units}

    print(f"environment: {json.dumps(report['environment'])}")
    print("host speed in the timed phases, as a share of the reference host: "
          + (" ".join(f"{factor:.3f}" for factor in report["host_factors"]) or "not read")
          + "; CPU stolen by the host during the run: "
          + ("n/a" if report["host_steal_share"] is None
             else f"{report['host_steal_share']:.1%}"))
    if tail_info is not None:
        print(
            f"{args.workload}: {tail_info['operations']} operations in "
            f"{tail_info['processes']} process(es), tail = "
            f"p{tail_info['tail_percentile'] * 100:g}"
            + ("" if tail_info["tail_qualified"] else " (fewer than 10 samples beyond "
               "any percentile: slowest operation)")
        )
    for text in report["tracebacks"]:
        print(text, file=sys.stderr)
    if "overhead" in report:
        for key, pair in report["overhead"].items():
            print(f"tracing overhead {key}: untraced {pair['untraced']:.6g} "
                  f"traced {pair['traced']:.6g} {end_to_end_units[key]}")
        accounting = report["accounting"]
        lane = accounting["lanes"][" ".join(map(str, accounting["op_lane"]))]
        print(f"operation thread {accounting['op_lane'][1]}: {lane['wall'] / 1e9:.4f} s"
              f" = spans {sum(lane['self'].values()) / 1e9:.4f} s"
              f" + other {lane['other'] / 1e9:.4f} s")
    for message in errors:
        print(f"failed operation: {message}")
    for key, unit in units.items():
        value = values[key]
        line = f"{key} = " + ("not measured" if value is None else f"{value:.6g} {unit}")
        if raw is not None and key in raw and raw[key] != value:
            line += f" (raw {raw[key]:.6g} {unit})"
        print(line)
    print(f"operations attempted {attempted}, failed {failed}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": values[key], "unit": unit} for key, unit in units.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
