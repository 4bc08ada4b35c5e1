"""The three workloads: their inputs, their op sequences and their checks.

A workload pass is a list of ops, each one argv for ``primepairs.cli.main``.
The seed only draws the even shifts 2k in [2, 210]; sizes and z-schedules
are fixed because transform cost depends on the factorisation of n.

Checks compare each op's exit code, captured stdout and files against the
oracle and return one list of failure messages per op (empty = passed).
"""

from __future__ import annotations

import copy
import json
import random
import re
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import oracle

SUITE = "suite-1e6"
SPECTRAL = "spectral-1e7"
TABLES = "tables-1e8"
WORKLOADS = (SUITE, SPECTRAL, TABLES)

SUITE_N = 10**6
SUITE_Z = (5, 7, 11, 13)
PAIRS_N = 10**7
DECOMPOSE_N = 9699690  # the primorial of 19
DECOMPOSE_Z = 7  # Q = 2*3*5 = 30, so the error spectrum has n/30 rows
SWEEP_N = (10**6, 10**7, 10**8)
PLANTED_N = 10**7  # the sweep extent whose cache file is planted truncated


def draw_shifts(workload: str, seed: int) -> list[int]:
    """Distinct even shifts from [2, 210]: three per workload, plus one for
    decompose on spectral-1e7."""
    rng = random.Random(f"{workload}/{seed}")
    return rng.sample(range(2, oracle.MAX_SHIFT + 1, 2), 4 if workload == SPECTRAL else 3)


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def ops(workload: str, shifts: list[int], work: Path) -> list[tuple[str, list[str]]]:
    """(label, argv) for each op of one pass, in order."""
    two_k = _csv(shifts[:3])
    out = str(work / "out")
    if workload == SUITE:
        return [
            ("verify", ["verify", "--n", str(SUITE_N), "--two-k", two_k, "--z", _csv(SUITE_Z), "--out", out]),
        ]
    if workload == SPECTRAL:
        return [
            ("pairs", ["pairs", "--n", str(PAIRS_N), "--two-k", two_k]),
            ("decompose", ["decompose", "--n", str(DECOMPOSE_N), "--z", str(DECOMPOSE_Z),
                           "--two-k", str(shifts[3]), "--out", out]),
        ]
    sweep = ["sweep", "--n", _csv(SWEEP_N), "--two-k", two_k]
    cache = str(work / "cache")
    top = str(SWEEP_N[-1])
    return [
        ("sweep", sweep + ["--out", str(work / "sweep")]),
        ("sieve_build", ["sieve", "--action", "build", "--n", top, "--cache-dir", cache]),
        ("sieve_verify", ["sieve", "--action", "verify", "--n", top, "--cache-dir", cache]),
        ("sweep_cached", sweep + ["--out", str(work / "sweep_cached"), "--cache-dir", cache]),
    ]


def prepare(workload: str, work: Path) -> None:
    """Fresh output and cache directories; on tables-1e8 also the planted
    truncated cache file that the cached sweep must rebuild."""
    if work.exists():
        shutil.rmtree(work)
    (work / "out").mkdir(parents=True)
    if workload == TABLES:
        (work / "cache").mkdir()
        cache_file(work, PLANTED_N).write_bytes(oracle.truncated_cache_file(PLANTED_N))


def cache_file(work: Path, n: int) -> Path:
    return work / "cache" / f"primetable_{n}.pspc"


def cache_listing(work: Path) -> dict[str, list[int]]:
    """name -> [size, mtime_ns] of every file in the pass's cache dir."""
    folder = work / "cache"
    if not folder.is_dir():
        return {}
    return {p.name: [p.stat().st_size, p.stat().st_mtime_ns] for p in sorted(folder.iterdir())}


@dataclass
class Expected:
    """Oracle answers for one run's shifts."""

    shifts: list[int]
    suite_rows: int = 0
    ext: dict[int, oracle.Extent] = field(default_factory=dict)


def expected(workload: str, shifts: list[int]) -> Expected:
    if workload == SUITE:
        # per n: one spectral and one psi row per shift, round-trip,
        # plancherel, parity; per z: subgroup, twisted, and a
        # reconstruction and a main-term row per shift
        k = len(shifts)
        return Expected(shifts, suite_rows=2 * k + 3 + len(SUITE_Z) * (2 + 2 * k))
    if workload == SPECTRAL:
        sizes = [PAIRS_N, DECOMPOSE_N]
        return Expected(shifts, ext=oracle.extents(sizes, shifts, circular=tuple(sizes), checksums=(DECOMPOSE_N,)))
    return Expected(shifts, ext=oracle.extents(list(SWEEP_N), shifts))


def wrong(workload: str, exp: Expected) -> Expected:
    """A copy of ``exp`` with one deliberately wrong expected value."""
    bad = copy.deepcopy(exp)
    if workload == SUITE:
        bad.suite_rows += 1
    else:
        bad.ext[PAIRS_N if workload == SPECTRAL else SWEEP_N[0]].linear[bad.shifts[0]] += 1
    return bad


def check(workload: str, results: list[dict], work: Path, exp: Expected) -> list[list[str]]:
    """Failure messages per op; an op with a nonzero exit fails outright."""
    checker = {SUITE: _check_suite, SPECTRAL: _check_spectral, TABLES: _check_tables}[workload]
    by_label = {r["label"]: r for r in results}
    try:
        found = checker(by_label, work, exp)
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        # malformed output: no op of the pass can be trusted
        found = {label: [f"check raised {exc!r}"] for label in by_label}
    failures = []
    for r in results:
        fails = [] if r["rc"] == 0 else [f"exit code {r['rc']}: {r['stderr'][-300:]}"]
        if not fails:
            fails = found.get(r["label"], [])
        failures.append([f"{r['label']}: {msg}" for msg in fails])
    return failures


def _expect(fails: list[str], what: str, got, want) -> None:
    if got != want:
        fails.append(f"{what}: got {got!r}, expected {want!r}")


def _csv_rows(text: str) -> list[list[str]]:
    """Data rows of a CSV report: skip '#' comments and the column row."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    return [line.split(",") for line in lines[1:]]


def _check_suite(by_label, work, exp):
    fails = []
    path = work / "out" / "identity_suite.json"
    if not path.is_file():
        return {"verify": [f"missing {path.name}"]}
    report = json.loads(path.read_text())
    rows = report.get("results", [])
    _expect(fails, "all_passed", report.get("all_passed"), True)
    _expect(fails, "identity rows", len(rows), exp.suite_rows)
    _expect(fails, "failing rows", [r.get("identity") for r in rows if not r.get("passed")], [])
    _expect(fails, "[pass] lines", by_label["verify"]["stdout"].count("[pass]"), exp.suite_rows)
    return {"verify": fails}


def _check_spectral(by_label, work, exp):
    out = {}
    fails = out.setdefault("pairs", [])
    ext = exp.ext[PAIRS_N]
    rows = _csv_rows(by_label["pairs"]["stdout"])
    _expect(fails, "pairs rows", len(rows), 3)
    for row, two_k in zip(rows, exp.shifts[:3]):
        n, k, linear, circular, spectral = (int(v) for v in row)
        _expect(fails, "pairs (n, 2k)", (n, k), (PAIRS_N, two_k))
        _expect(fails, f"linear 2k={two_k}", linear, ext.linear[two_k])
        _expect(fails, f"circular 2k={two_k}", circular, ext.circular[two_k])
        _expect(fails, f"spectral 2k={two_k}", spectral, ext.circular[two_k])

    fails = out.setdefault("decompose", [])
    two_k = exp.shifts[3]
    ext = exp.ext[DECOMPOSE_N]
    Q = oracle.primorial_below(DECOMPOSE_Z)
    stem = work / "out" / f"decompose_n{DECOMPOSE_N}_Q{Q}_k{two_k}"
    if not (stem.with_suffix(".json").is_file() and stem.with_suffix(".csv").is_file()):
        fails.append(f"missing {stem.name}.json/.csv")
        return out
    report = json.loads(stem.with_suffix(".json").read_text())
    _expect(fails, "pair_count_circular", report.get("pair_count_circular"), ext.circular[two_k])
    _expect(fails, "pair_count_linear", report.get("pair_count_linear"), ext.linear[two_k])
    _expect(fails, "prime_table_checksum", report.get("prime_table_checksum"), f"fnv1a64:{ext.checksum:016x}")
    body = stem.with_suffix(".csv").read_bytes()
    comments = sum(1 for line in body.splitlines() if line.startswith(b"#"))
    _expect(fails, "error-spectrum rows", body.count(b"\n") - comments - 1, DECOMPOSE_N // Q)
    return out


def _check_cache_file(fails: list[str], path: Path, ext: oracle.Extent) -> bytes:
    """Structure and payload of one cache file; returns its digest tail."""
    if not path.is_file():
        fails.append(f"missing cache file {path.name}")
        return b""
    blob = path.read_bytes()
    size = oracle.CACHE_HEADER + len(ext.packed) + 8
    _expect(fails, f"{path.name} size", len(blob), size)
    _expect(fails, f"{path.name} header", blob[: oracle.CACHE_HEADER],
            oracle.CACHE_MAGIC + ext.n.to_bytes(8, "little"))
    if blob[oracle.CACHE_HEADER : size - 8] != ext.packed:
        fails.append(f"{path.name} payload differs from the oracle bitmap")
    return blob[size - 8 : size]


def _check_sweep(fails: list[str], path: Path, exp: Expected) -> str:
    if not path.is_file():
        fails.append(f"missing {path}")
        return ""
    text = path.read_text()
    rows = _csv_rows(text)
    want = [(n, k) for n in SWEEP_N for k in exp.shifts[:3]]
    _expect(fails, "sweep (n, 2k) rows", [(int(r[0]), int(r[1])) for r in rows], want)
    for row in rows:
        n, k = int(row[0]), int(row[1])
        if n in exp.ext and k in exp.ext[n].linear:
            _expect(fails, f"pair_count n={n} 2k={k}", int(row[2]), exp.ext[n].linear[k])
    return "\n".join(line for line in text.splitlines() if not line.startswith("#"))


def _check_tables(by_label, work, exp):
    out = {label: [] for label in by_label}
    top = exp.ext[SWEEP_N[-1]]
    plain = _check_sweep(out["sweep"], work / "sweep" / "hl_ratio_sweep.csv", exp)

    tail = _check_cache_file(out["sieve_build"], cache_file(work, top.n), top)

    match = re.search(r"checksum fnv1a64:([0-9a-f]{16})", by_label["sieve_verify"]["stdout"])
    if match is None:
        out["sieve_verify"].append("no checksum in verify output")
    else:
        _expect(out["sieve_verify"], "verify checksum vs file tail", int(match.group(1), 16),
                int.from_bytes(tail, "little"))

    fails = out["sweep_cached"]
    cached = _check_sweep(fails, work / "sweep_cached" / "hl_ratio_sweep.csv", exp)
    if cached != plain:
        fails.append("cached sweep CSV body differs from the uncached one")
    before, after = by_label["sweep_cached"]["cache_before"], by_label["sweep_cached"]["cache_after"]
    hit = cache_file(work, top.n).name
    _expect(fails, f"{hit} untouched on a hit", after.get(hit), before.get(hit))
    for n in SWEEP_N[:-1]:
        _check_cache_file(fails, cache_file(work, n), exp.ext[n])
    return out
