"""Benchmark of the primepairs CLI: end-to-end and per-layer metrics.

    python3 bench/run.py --workload suite-1e6 --seed 1 --seconds 30 --trace 0

Run from the repository root.  One run:

1. draws the workload's even shifts from ``--seed`` and computes the
   oracle answers (outside every timed region);
2. runs passes back to back: at least MIN_PASSES, and another only while
   the longest so far would still end within ``--seconds``.  A pass is a
   fresh ``bench/worker.py`` process running the workload's ops in a closed
   loop with one client.  Passes longer than ``--seconds`` / MIN_PASSES
   make the run overstay.  ``--trace 0`` runs untraced passes, each after
   SETUP_SPAWNS set-up-only workers; every worker is timed from spawn until
   primepairs is imported and the inputs are ready (``setup_s``), so the
   set-up samples are spread over the whole run.  ``--trace 1`` runs at
   least one untraced and one traced pass, back to back, and reports the
   per-layer metrics of the traced ones;
3. checks every op's output against the oracle, and again against an
   oracle with one wrong value, which must fail (the self-check).

The last stdout line is one JSON object: correct, attempted, failed and
the metrics named in BENCHMARK.json (end_to_end for --trace 0, per_layer
for --trace 1), each the median over the run's passes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
MIN_PASSES = 2
SETUP_SPAWNS = 12  # set-up-only workers before each untraced pass
PASS_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def cap_threads(env) -> None:
    """Hold BLAS/OpenMP pools at the CPUs this process may use."""
    cap = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        env[var] = cap


cap_threads(os.environ)  # before numpy loads, here and in every worker
import layers  # noqa: E402
import workloads  # noqa: E402


def spawn(workload: str, work: Path, shifts: list[int], flag: str | None = None) -> dict | None:
    """Run one worker process; its summary, or None if it did not finish."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--work", str(work),
           "--shifts", ",".join(map(str, shifts))] + ([flag] if flag else [])
    cmd += ["--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"worker timed out after {PASS_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads((work / "result.json").read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not (ROOT / "src" / "primepairs" / "cli.py").is_file():
        print(f"no primepairs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}", file=sys.stderr)
        return 2

    shifts = workloads.draw_shifts(args.workload, args.seed)
    exp = workloads.expected(args.workload, shifts)
    run_dir = WORK / f"{args.workload}-{os.getpid()}"
    print(f"workload {args.workload} seed {args.seed}: shifts {shifts}, "
          f"threads capped at {os.environ['OMP_NUM_THREADS']}")

    setups, passes = [], []
    try:
        start, longest = time.monotonic(), 0.0
        rounds = 1 if args.trace else MIN_PASSES
        while rounds > 0 or time.monotonic() - start + longest <= args.seconds:
            rounds -= 1
            began = time.monotonic()
            for i in range(0 if args.trace else SETUP_SPAWNS):
                summary = spawn(args.workload, run_dir / f"setup{i}", shifts, "--setup-only")
                if summary is not None:
                    setups.append(summary["setup_s"])
            for traced in (False, True) if args.trace else (False,):
                passes.append(run_pass(args.workload, run_dir / f"pass{len(passes)}", shifts, exp, traced))
                report_pass(len(passes), passes[-1])
            longest = max(longest, time.monotonic() - began)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    untraced = [p["summary"] for p in passes if not p["traced"] and p["summary"]]
    if not untraced:
        print("no pass finished; nothing to report", file=sys.stderr)
        return 1
    if not all(p["self_check"] for p in passes if p["summary"]):
        print("self-check: a wrong expected value went unnoticed; the checks are broken", file=sys.stderr)
        return 3
    attempted = sum(len(p["failures"]) for p in passes)
    failed = sum(bool(f) for p in passes for f in p["failures"])
    setups += [s["setup_s"] for s in untraced]
    values = {
        "wall_s": statistics.median(s["wall_s"] for s in untraced),
        "cpu_s": statistics.median(s["cpu_s"] for s in untraced),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in untraced),
        "setup_s": statistics.median(setups),
        "success_rate": 1 - failed / attempted,
    }
    print(f"{len(untraced)} untraced passes, {len(setups)} set-ups; error_rate = {failed}/{attempted} "
          f"= {failed / attempted}")
    wanted = spec["end_to_end"]
    if args.trace:
        values = per_layer_medians(passes)
        wanted = spec["per_layer"]
        if not values:
            print("no traced pass finished; nothing to report", file=sys.stderr)
            return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_pass(workload: str, work: Path, shifts: list[int], exp, traced: bool) -> dict:
    """Spawn one pass and check its outputs, then remove its directory.

    The self-check re-checks the same outputs against an oracle with one
    wrong value; it must find an error or the checks themselves are broken.
    """
    summary = spawn(workload, work, shifts, "--traced" if traced else None)
    p = {"traced": traced, "summary": summary, "spans": None, "self_check": None}
    if summary is None:
        p["failures"] = [["worker did not finish"]] * len(workloads.ops(workload, shifts, work))
    else:
        p["failures"] = workloads.check(workload, summary["ops"], work, exp)
        wrong = workloads.check(workload, summary["ops"], work, workloads.wrong(workload, exp))
        p["self_check"] = sum(bool(f) for f in wrong) / len(wrong)
        if traced:
            p["spans"] = json.loads((work / "spans.json").read_text())
            shutil.copy(work / "spans.json", WORK / f"spans-{workload}.json")
    shutil.rmtree(work, ignore_errors=True)
    return p


def report_pass(number: int, p: dict) -> None:
    kind = "traced" if p["traced"] else "untraced"
    s = p["summary"]
    if s is None:
        print(f"pass {number} ({kind}): did not finish")
        return
    failed = sum(bool(f) for f in p["failures"])
    print(f"pass {number} ({kind}): wall_s={s['wall_s']:.3f} cpu_s={s['cpu_s']:.3f} "
          f"peak_rss_mb={s['peak_rss_mb']:.1f} setup_s={s['setup_s']:.3f} "
          f"ops={len(p['failures'])} failed={failed} self-check error_rate={p['self_check']}")
    for op_failures in p["failures"]:
        for message in op_failures:
            print(f"  FAIL {message}")


def per_layer_medians(passes: list[dict]) -> dict[str, float]:
    """Per-layer metrics of each traced pass, against the untraced pass
    just before it, then the median of each metric."""
    rows = []
    for before, p in zip(passes, passes[1:]):
        if p["traced"] and p["spans"] is not None and before["summary"] is not None:
            walls = {op["label"]: op["wall_s"] for op in p["summary"]["ops"]}
            rows.append(layers.per_layer(p["spans"], walls, p["summary"]["wall_s"],
                                         before["summary"]["wall_s"]))
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]} if rows else {}


if __name__ == "__main__":
    sys.exit(main())
