"""Start the scan service through its CLI, optionally traced.

Usage::

    python3 perfbench/serve.py [--trace-dir DIR] -- <serve arguments>

Runs ``repro.experiments.runner.main(["serve", ...])``. With
``--trace-dir`` the benchmark's tracer wraps the program's layers first
and writes the server's spans to ``DIR`` after the service drains on
SIGINT.
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-dir")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args
    if serve_args[:1] == ["--"]:
        serve_args = serve_args[1:]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, ROOT)
    from repro.experiments.runner import main as cli

    tracer = None
    if args.trace_dir:
        from perfbench.tracer import Tracer

        tracer = Tracer(args.trace_dir)
        tracer.install()
    try:
        return cli(["serve", *serve_args])
    finally:
        if tracer is not None:
            tracer.flush()


if __name__ == "__main__":
    sys.exit(main())
