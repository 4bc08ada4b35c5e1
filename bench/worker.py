"""One workload pass in a fresh process: set up, then run the ops back to back.

Closed loop with one client: each op is an in-process call to
``primepairs.cli.main(argv)`` with stdout and stderr captured, issued only
after the previous one returned.  Outputs are left in the pass directory
and summarised in ``result.json`` there; the parent process checks them.

    python3 bench/worker.py --workload NAME --work DIR --shifts 2,4,6 \
        --spawned MONOTONIC [--setup-only | --traced]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads
from shim import Tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--shifts", required=True)
    parser.add_argument("--spawned", required=True, type=float)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--traced", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    from primepairs import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"primepairs imported from {cli.__file__}, not from {SRC}")
    workloads.prepare(args.workload, args.work)
    summary = {"setup_s": time.monotonic() - args.spawned}
    if not args.setup_only:
        shifts = [int(k) for k in args.shifts.split(",")]
        summary.update(run_ops(cli, args, shifts))
    (args.work / "result.json").write_text(json.dumps(summary))
    return 0


def run_ops(cli, args, shifts) -> dict:
    tracer = None
    if args.traced:
        tracer = Tracer()
        tracer.install()
    results = []
    cpu0 = _cpu_s()
    first = time.perf_counter()
    for label, argv in workloads.ops(args.workload, shifts, args.work):
        record = {"label": label, "argv": argv, "cache_before": workloads.cache_listing(args.work)}
        out, err = io.StringIO(), io.StringIO()
        span = tracer.span(f"cli.{label}") if tracer else contextlib.nullcontext()
        start = time.perf_counter()
        with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except Exception:  # a crash is a failed op, not a failed pass
                traceback.print_exc()
                rc = "exception"
        record.update(wall_s=time.perf_counter() - start, rc=rc, stdout=out.getvalue(),
                      stderr=err.getvalue(), cache_after=workloads.cache_listing(args.work))
        results.append(record)
    wall = time.perf_counter() - first
    cpu = _cpu_s() - cpu0
    if tracer:
        tracer.uninstall()
        tracer.write(args.work / "spans.json")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_rss_mb, "ops": results}


if __name__ == "__main__":
    sys.exit(main())
