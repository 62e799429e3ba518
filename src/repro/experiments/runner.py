"""Experiment CLI: regenerate every table and figure of the paper.

Usage::

    python -m repro.experiments.runner all
    python -m repro.experiments.runner table5 --scale 0.1
    leishen table4            # via the installed console script

Each subcommand accepts exactly the flags it uses and imports its module
only when it runs. An invocation that scans builds one ``WildScanConfig``
from ``--scale/--full/--seed/--shards`` (plus ``--jobs`` and
``--profile`` where the subcommand takes them). ``table5``, ``table6``,
``table7`` and ``fig8`` are views of one scan, so ``all`` scans once.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import os
import sys
import time

from ..engine import ScanEngine
from ..engine.stream import (
    DEFAULT_BLOCK_SIZE,
    DEFAULT_QUEUE_DEPTH,
    DEFAULT_WINDOW_BLOCKS,
)
from ..runtime.profile import DEFAULT_PROFILE_ARTIFACT
from ..workload.generator import WildScanConfig

__all__ = ["main", "parse_address"]

#: what ``all`` prints, in order: the paper's tables and figures.
_EXPERIMENTS = ("fig1", "table1", "table4", "table5", "table6", "table7", "fig8",
                "perf", "ablations")

#: the views of one wild scan (Sec. VI-C/VI-D): ``render(result)``.
_SCAN_VIEWS = ("table5", "table6", "table7", "fig8")


def parse_address(text: str) -> tuple[str, int]:
    """``HOST:PORT`` -> ``(host, port)``; raises ValueError."""
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"expects HOST:PORT, got {text!r}")
    return host, int(port)


def _address(text: str) -> tuple[str, int]:
    try:
        return parse_address(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _at_least(low: int):
    """A ``type=`` converter: an int no smaller than ``low``."""

    def convert(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    convert.__name__ = "int"  # argparse names it in "invalid int value"
    return convert


def _existing_ledger(path: str) -> str:
    if not os.path.exists(path):
        raise argparse.ArgumentTypeError(f"no ledger at {path!r}")
    return path


def _module(name: str):
    return importlib.import_module(f".{name}", __package__)


def _config(args):
    """The invocation's one ``WildScanConfig``."""
    knobs = {name: getattr(args, name) for name in ("jobs", "split_attacks") if name in args}
    return WildScanConfig(
        scale=1.0 if args.full else args.scale,
        seed=args.seed,
        shards=args.shards,
        profile=getattr(args, "profile", None) is not None,
        **knobs,
    )


# -- subcommands other than the paper's tables and figures ---------------


def _robustness(args, config) -> str:
    robustness = _module("robustness")
    return robustness.render(
        seed=args.seed, instances=args.instances or robustness.DEFAULT_INSTANCES
    )


def _scan(args, config) -> str:
    return _module("scan").render(
        config, ledger=args.ledger or args.resume, profile_path=args.profile
    )


def _stream(args, config) -> str:
    if args.window_blocks is not None and not args.windowed:
        args.error("--window-blocks requires --windowed")
    return _module("stream").render(
        config,
        queue_depth=args.queue_depth, block_size=args.block_size,
        windowed=args.windowed,
        window_blocks=args.window_blocks or DEFAULT_WINDOW_BLOCKS,
        ledger=args.ledger or args.resume, profile_path=args.profile,
    )


def _cluster(args, config) -> str:
    cluster = _module("cluster")
    ledger = args.ledger or args.resume
    options = {} if args.heartbeat_timeout is None else {
        "heartbeat_timeout": args.heartbeat_timeout
    }
    if args.connect:
        if ledger is not None:
            args.error("--ledger/--resume apply to the coordinator, not --connect")
        try:
            addresses = [
                parse_address(entry.strip())
                for entry in args.connect.split(",") if entry.strip()
            ]
        except ValueError as exc:
            raise ValueError(f"--connect {exc}") from None
        return cluster.render_worker(addresses)
    if args.standby:
        if ledger is None:
            args.error("--standby requires --ledger/--resume (the shared journal)")
        return cluster.render_standby(
            config, args.standby, host=args.host, port=args.port, ledger=ledger,
            profile_path=args.profile, **options,
        )
    if args.serve:
        return cluster.render_serve(
            config, host=args.host, port=args.port, ledger=ledger,
            profile_path=args.profile, **options,
        )
    if args.workers == 0 and not args.autoscale:
        args.error("--workers 0 requires --autoscale")
    if args.autoscale:
        options.update(
            autoscale=True, min_workers=args.min_workers, max_workers=args.max_workers
        )
    return cluster.render_local(
        config, workers=args.workers, verify=not args.no_verify, ledger=ledger,
        profile_path=args.profile, **options,
    )


def _serve(args, config) -> str:
    host, port = args.address
    return _module("service").render_serve(
        args.data_dir, host, port, executors=args.executors, max_queue=args.max_queue
    )


def _submit(args, config) -> str:
    return _module("service").render_submit(
        args.address, config, wait=args.wait, timeout=args.timeout
    )


def _status(args, config) -> str:
    return _module("service").render_status(args.address, run_id=args.run_id)


def _results(args, config) -> str:
    if args.run_id is None:
        args.error("results requires --run-id (see 'status' for the list)")
    return _module("service").render_results(
        args.address, args.run_id, offset=args.offset, limit=args.limit
    )


# -- the parser ----------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    wild = argparse.ArgumentParser(add_help=False)
    wild.add_argument(
        "--scale", type=float, default=0.1,
        help="wild-scan population scale (1.0 = the paper's 272,984 txs)",
    )
    wild.add_argument("--full", action="store_true", help="shorthand for --scale 1.0")
    wild.add_argument(
        "--seed", type=int, default=7,
        help="wild-scan seed (default 7); part of the scan's identity",
    )
    wild.add_argument(
        "--shards", type=_at_least(1), default=None,
        help="pin the wild-scan shard count (default: automatic; the shard "
        "count, not --jobs, defines the deterministic partition)",
    )
    jobs = argparse.ArgumentParser(add_help=False)
    jobs.add_argument(
        "--jobs", type=_at_least(1), default=1,
        help="worker processes (stream: threads); results are byte-identical "
        "for any value",
    )
    run = argparse.ArgumentParser(add_help=False)
    journal = run.add_mutually_exclusive_group()
    journal.add_argument(
        "--ledger", metavar="PATH", default=None,
        help="journal completed shards to PATH (append-only JSONL run "
        "ledger); an existing ledger for the same config is resumed, a "
        "config mismatch is an error",
    )
    journal.add_argument(
        "--resume", metavar="PATH", type=_existing_ledger, default=None,
        help="resume an existing run ledger at PATH (like --ledger, but the "
        "file must already exist)",
    )
    run.add_argument(
        "--profile", metavar="PATH", nargs="?", const=DEFAULT_PROFILE_ARTIFACT,
        default=None,
        help="collect per-stage timers/counters, print the merged stage "
        f"profile and write it as JSON to PATH (default {DEFAULT_PROFILE_ARTIFACT}); "
        "results are unchanged",
    )
    address = argparse.ArgumentParser(add_help=False)
    address.add_argument(
        "--address", metavar="HOST:PORT", type=_address, default="127.0.0.1:9744",
        help="the scan service's address (default 127.0.0.1:9744)",
    )

    parser = argparse.ArgumentParser(
        prog="leishen",
        description="Regenerate the paper's tables and figures from the reproduction.",
    )
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def command(name, help, run=None, parents=()):
        sub = commands.add_parser(name, help=help, parents=list(parents))
        sub.set_defaults(run=run, error=sub.error)
        return sub

    command("fig1", "Fig. 1: weekly flash loan transactions")
    command("table1", "Table I: real-world flpAttacks, volatility and patterns")
    command("table4", "Table IV: known-attack detection, three detectors")
    command("table5", "Table V: wild-scan detections per pattern", parents=[wild, jobs])
    command("table6", "Table VI: most attacked applications", parents=[wild, jobs])
    command("table7", "Table VII: attack profit analysis", parents=[wild, jobs])
    command("fig8", "Fig. 8: monthly unknown flpAttacks", parents=[wild, jobs])
    command("perf", "detection latency (Sec. VI-A)")
    command("ablations", "pipeline variants and the threshold sweep")
    command(
        "all", "every table and figure above, from one wild scan",
        parents=[wild, jobs],
    )

    robustness = command(
        "robustness",
        "sweep the adversarial mutation matrix; per-family precision/recall",
        _robustness,
    )
    robustness.add_argument("--seed", type=int, default=7, help="sweep seed (default 7)")
    robustness.add_argument(
        "--instances", type=_at_least(1), default=None,
        help="attack instances per (family, mutation) cell",
    )

    command("scan", "the batch wild scan", _scan, parents=[wild, jobs, run])

    stream = command(
        "stream", "the live streaming-detection pipeline", _stream,
        parents=[wild, jobs, run],
    )
    stream.add_argument(
        "--queue-depth", type=_at_least(1), default=DEFAULT_QUEUE_DEPTH,
        help=f"per-worker bounded queue size (default {DEFAULT_QUEUE_DEPTH})",
    )
    stream.add_argument(
        "--block-size", type=_at_least(1), default=DEFAULT_BLOCK_SIZE,
        help=f"transactions per simulated block (default {DEFAULT_BLOCK_SIZE})",
    )
    stream.add_argument(
        "--windowed", action="store_true",
        help="also run the cross-transaction windowed matcher over a sliding "
        "block window (per-transaction results are byte-identical with or "
        "without it)",
    )
    stream.add_argument(
        "--window-blocks", type=_at_least(1), default=None,
        help=f"--windowed: window size in emitted blocks (default {DEFAULT_WINDOW_BLOCKS})",
    )
    stream.add_argument(
        "--split-attacks", type=_at_least(0), default=0,
        help="append N labelled split-attack groups to the schedule, each "
        "spreading one attack across several transactions (invisible per-tx, "
        "detectable with --windowed)",
    )

    cluster = command(
        "cluster", "the distributed scan", _cluster, parents=[wild, run]
    )
    mode = cluster.add_mutually_exclusive_group()
    mode.add_argument(
        "--serve", action="store_true",
        help="coordinator mode: listen for remote workers on --host/--port "
        "instead of spawning local ones",
    )
    mode.add_argument(
        "--connect", metavar="HOST:PORT[,HOST:PORT...]", default=None,
        help="worker mode: serve a coordinator from the comma-separated "
        "address list (primary first, failover standbys after) until drained; "
        "a coordinator lost mid-scan fails over to the next address",
    )
    mode.add_argument(
        "--standby", metavar="HOST:PORT", type=_address, default=None,
        help="hot-standby mode: follow the primary coordinator at HOST:PORT, "
        "probe its liveness, and adopt the shared --ledger journal when it "
        "dies, finishing the scan on this process's own --host/--port socket",
    )
    mode.add_argument(
        "--autoscale", action="store_true",
        help="elastic local worker pool: --workers becomes the initial pool "
        "size (0 scales from zero against queue depth), bounded by "
        "--min-workers/--max-workers, with idle drain and probation "
        "re-admission of excluded workers",
    )
    cluster.add_argument(
        "--workers", type=_at_least(0), default=2,
        help="local worker processes to spawn (default 2)",
    )
    cluster.add_argument(
        "--min-workers", type=_at_least(0), default=0,
        help="--autoscale: floor the pool never drains below (default 0)",
    )
    cluster.add_argument(
        "--max-workers", type=_at_least(1), default=None,
        help="--autoscale: pool size cap (default max(--workers, 2))",
    )
    cluster.add_argument(
        "--host", default="0.0.0.0",
        help="--serve/--standby: interface to listen on (default 0.0.0.0)",
    )
    cluster.add_argument(
        "--port", type=int, default=9733,
        help="--serve/--standby: port to listen on (default 9733; 0 = ephemeral)",
    )
    cluster.add_argument(
        "--heartbeat-timeout", type=float, default=None,
        help="seconds without a heartbeat before a worker's shards are requeued",
    )
    cluster.add_argument(
        "--no-verify", action="store_true",
        help="skip the batch-engine identity check of a local run (halves "
        "the runtime at large scales)",
    )

    serve = command(
        "serve", "start the resident scan service", _serve, parents=[address]
    )
    serve.add_argument(
        "--data-dir", metavar="DIR", default=".leishen-service",
        help="one subdirectory per run holding its manifest and run ledger "
        "(default .leishen-service); a restarted service re-adopts what it finds",
    )
    serve.add_argument(
        "--executors", type=_at_least(1), default=2,
        help="concurrent scan executors (default 2)",
    )
    serve.add_argument(
        "--max-queue", type=_at_least(1), default=16,
        help="admission queue bound: submissions beyond it are rejected "
        "loudly instead of piling up (default 16)",
    )

    submit = command(
        "submit", "submit one scan to the service", _submit,
        parents=[address, wild, jobs],
    )
    submit.add_argument(
        "--wait", action="store_true",
        help="block until the run completes and print its summary",
    )
    submit.add_argument(
        "--timeout", type=float, default=None,
        help="--wait: give up after this many seconds",
    )

    status = command(
        "status", "one run's status, or every run", _status, parents=[address]
    )
    results = command(
        "results", "page a completed run's detections", _results, parents=[address]
    )
    for sub in (status, results):
        sub.add_argument(
            "--run-id", metavar="RUN", default=None,
            help="the run to query (status without it lists every run)",
        )
    results.add_argument(
        "--offset", type=_at_least(0), default=0,
        help="first detection index of the page (default 0)",
    )
    results.add_argument(
        "--limit", type=_at_least(1), default=None,
        help="page size (default: everything from --offset)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    config = _config(args) if "scale" in args else None
    scanned = functools.cache(lambda: ScanEngine(config).run())
    for name in _EXPERIMENTS if args.command == "all" else (args.command,):
        start = time.perf_counter()
        if args.run is not None:
            output = args.run(args, config)
        elif name in _SCAN_VIEWS:
            output = _module(name).render(scanned())
        else:
            output = _module(name).render()
        print(f"=== {name} ({time.perf_counter() - start:.1f}s) ===")
        print(output)
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
