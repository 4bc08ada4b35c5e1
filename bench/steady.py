"""Steadiness proof: repeat bench/run.py over seeds and report the spread.

    python3 bench/steady.py [--first-seed 1] [--out FILE]

For each workload of BENCHMARK.json it makes RUNS untraced runs, one seed
each from ``--first-seed`` on, and prints every end-to-end metric's median,
quartiles and spread (the interquartile distance as a share of the median,
as ``statistics.quantiles(values, n=4)`` gives them) next to a third of the
metric's bound.  It then makes TRACED traced runs and checks that the exact
counts in EXACT_COUNTS repeat from run to run and match the values recorded
for the seed code.  Exits 1 if a run fails, a spread reaches a third of its
bound, or an exact count moves.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = 10
TRACED = 2

# counts that must repeat bit for bit; values as the seed code gives them
EXACT_COUNTS = {
    "suite-1e6": {"fft.calls": 42, "sieve.build_table.calls": 5},
    "spectral-1e7": {"fft.calls": 4},
    "tables-1e8": {"fft.calls": 0, "sieve.cache.hits": 1, "sieve.cache.misses": 1, "sieve.cache.rebuilds": 1},
}


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    ok, record = True, {}
    for workload in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in range(args.first_seed, args.first_seed + RUNS):
            results.append(run(workload, seed, spec["run_seconds"], 0))
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4f}" for k, v in results[-1]["metrics"].items()), flush=True)
        ok &= all(r["correct"] for r in results)
        record[workload] = {"end_to_end": {}, "exact_counts": {}}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            steady = spread < metric["bound"] / 3
            ok &= steady
            record[workload]["end_to_end"][metric["name"]] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread, "runs": len(values)}
            print(f"  {metric['name']:14s} median {median:.4f} {metric['unit']}  q1 {q1:.4f}  q3 {q3:.4f}  "
                  f"spread {spread:.4f} (bound/3 {metric['bound'] / 3:.4f}){'' if steady else '  NOT STEADY'}")
        counts = [run(workload, seed, spec["run_seconds"], 1)
                  for seed in range(args.first_seed, args.first_seed + TRACED)]
        for name, want in EXACT_COUNTS[workload].items():
            seen = [c["metrics"][name]["value"] for c in counts]
            same = all(v == want for v in seen)
            ok &= same and all(c["correct"] for c in counts)
            record[workload]["exact_counts"][name] = seen
            print(f"  exact {name}: {seen} (seed code {want}){'' if same else '  MOVED'}")
        record[workload]["per_layer_first_traced_run"] = {
            k: v["value"] for k, v in counts[0]["metrics"].items()}
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
