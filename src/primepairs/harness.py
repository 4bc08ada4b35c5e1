"""Experiment orchestration: configuration, the mode runner, and prime
table cache administration.

A run is a pure function of its configuration: identical config and code
version produce byte-identical report bodies.  Output and cache
directories are excluded from the config hash, since they locate results
without affecting them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict
from pathlib import Path

from . import __version__
from .constants import hl_constant, li2, singular_series_product
from .errors import IdentityCheck, UsageError
from .factored import primorial
from .reports import complex_rows, write_csv, write_json, write_spectrum_export
from .sieve import (
    PrimeTable,
    build_table,
    cache_path,
    load_or_build,
    load_table,
    pair_count_linear,
    save_table,
    von_mangoldt_vector,
)
from .spectral import (
    decomposition_checks,
    decompositions,
    main_term_convolution_check,
    pair_count_checks,
    pair_count_modulus,
    pair_counts_via_spectrum,
    parity_half_spectrum_check,
    plancherel_check,
    psi_pair_checks,
    round_trip_check,
    subgroup_restriction_check,
    twisted_plancherel_check,
)
from .transform import as_ring, check_extents, forward

MODES = ("identity-suite", "decompose", "constants", "spectrum-export", "hl-ratio-sweep")

# Scale-factor tolerances, each with its scale and the one library function
# applying it; each is that function's default tol.
DEFAULT_TOLERANCES = {
    "spectral-pair-count": 1e-6,       # x n or the rounding model: spectral.pair_count_checks
    "round-trip": 1e-8,                # absolute (max|f| = 1): spectral.round_trip_check
    "plancherel": 1e-8,                # relative: spectral.plancherel_check
    "twisted-plancherel": 1e-8,        # relative, per class: spectral.twisted_plancherel_check
    "parity-half-spectrum": 1e-6,      # x pi(n): spectral.parity_half_spectrum_check
    "subgroup-restriction": 1e-6,      # x pi(n): spectral.subgroup_restriction_check
    "decomposition-reconstruction": 1e-6,  # x n: spectral.decomposition_checks
    "main-term-convolution": 1e-6,     # x n/Q: spectral.main_term_convolution_check
    "psi-spectral-identity": 1e-6,     # x n log^2 n or the rounding model: spectral.psi_pair_checks
}

# Experiment schedule for subgroup moduli; kept explicit rather than
# derived from a growth law so that desk-scale runs stay interpretable.
DEFAULT_Z_SCHEDULE = [5, 7, 11, 13]


@dataclass
class ExperimentConfig:
    mode: str
    n_values: list[int] = field(default_factory=lambda: [30, 120, 1009])
    two_k_values: list[int] = field(default_factory=lambda: [2, 4, 6])
    z_schedule: list[int] = field(default_factory=lambda: list(DEFAULT_Z_SCHEDULE))
    cutoff: int = 10**6
    output_dir: str = "."
    cache_dir: str | None = None
    out_format: str = "csv"
    tolerances: dict = field(default_factory=dict)
    stamp: bool = False
    source_function: str = "prime"


CONFIG_KEYS = set(ExperimentConfig.__dataclass_fields__)


def validate_config(config: ExperimentConfig) -> list[str]:
    """Collect every violation; an empty list means the config is valid."""
    problems = []

    def typed(key, types, what, fallback):
        value = getattr(config, key)
        if isinstance(value, types):
            return value
        problems.append(f"{key} must be {what}, got {value!r}")
        return fallback

    if config.mode not in MODES:
        problems.append(f"mode must be one of {list(MODES)}, got {config.mode!r}")
    n_values, two_k_values, z_schedule = (
        typed(key, (list, tuple), "a list", []) for key in ("n_values", "two_k_values", "z_schedule")
    )
    typed("output_dir", (str, Path), "a path", None)
    typed("cache_dir", (str, Path, type(None)), "a path or null", None)
    typed("stamp", bool, "true or false", None)
    tolerances = typed("tolerances", dict, "an object", {})
    if not config.n_values:
        problems.append("n_values must not be empty")
    # every mode but spectrum-export reads 2k
    if not config.two_k_values and config.mode != "spectrum-export":
        problems.append("two_k_values must not be empty")
    for k in two_k_values:
        if not isinstance(k, int) or k < 2 or k % 2:
            problems.append(f"every 2k must be an even integer >= 2, got {k!r}")
    # the floor max(2k)+2 holds where pairs are counted at n; constants reads no n
    floor = None
    if config.mode == "spectrum-export":
        floor, rule = 2, "2"
    elif config.mode != "constants" and two_k_values and all(isinstance(k, int) for k in two_k_values):
        floor = max(two_k_values) + 2
        rule = f"max(2k)+2 = {floor}"
    for n in n_values if floor else ():
        if not isinstance(n, int) or n < floor:
            problems.append(f"every n must be an integer >= {rule}, got {n!r}")
    for z in z_schedule:
        if not isinstance(z, int) or z < 2:
            problems.append(f"every z must be an integer >= 2, got {z!r}")
    if config.out_format not in ("csv", "json"):
        problems.append(f"format must be csv or json, got {config.out_format!r}")
    if config.source_function not in ("prime", "mangoldt"):
        problems.append(f"source_function must be prime or mangoldt, got {config.source_function!r}")
    if not isinstance(config.cutoff, int) or config.cutoff < 3:
        problems.append(f"cutoff must be an integer >= 3, got {config.cutoff!r}")
    for key, value in tolerances.items():
        if key not in DEFAULT_TOLERANCES:
            problems.append(f"unknown tolerance key {key!r} (known: {sorted(DEFAULT_TOLERANCES)})")
        else:
            try:
                ok = float(value) > 0
            except (TypeError, ValueError):
                ok = False
            if not ok:
                problems.append(f"tolerance {key} must be a positive number, got {value!r}")
    return problems


def config_hash(config: ExperimentConfig) -> str:
    payload = asdict(config)
    payload.pop("output_dir")
    payload.pop("cache_dir")
    blob = json.dumps(payload, sort_keys=True).encode()
    # imported at its one use, not with the module: hashlib maps OpenSSL,
    # about 3.5 MB of RSS, and the identity suite forms its hash only
    # after its last transform, so its Bluestein transforms run without it
    import hashlib

    return hashlib.sha256(blob).hexdigest()[:16]


def load_config_file(path: str | Path) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise UsageError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    unknown = set(raw) - CONFIG_KEYS
    if unknown:
        raise UsageError(f"unknown config keys in {path}: {sorted(unknown)}")
    return raw


def round_up_multiple(n: int, Q: int) -> int:
    """Smallest multiple of Q that is >= n (the extent-adjustment device
    used whenever a subgroup identity needs Q | n)."""
    return ((n + Q - 1) // Q) * Q


@dataclass
class RunResult:
    exit_code: int
    files: list[Path]
    failures: list[str]
    lines: list[str]


def run(config: ExperimentConfig) -> RunResult:
    """Execute one experiment mode, writing reports under output_dir."""
    problems = validate_config(config)
    if problems:
        raise UsageError("invalid config:\n  " + "\n  ".join(problems))
    check_extents(_transform_extents(config), f"{config.mode} transform length")
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    runner = {
        "identity-suite": _run_identity_suite,
        "decompose": _run_decompose,
        "constants": _run_constants,
        "spectrum-export": _run_spectrum_export,
        "hl-ratio-sweep": _run_sweep,
    }[config.mode]
    return runner(config, out)


def _transform_extents(config: ExperimentConfig) -> list[int]:
    """Every length the mode will transform, so that one over the cap is
    rejected before any table is sieved or any report written: the
    extents themselves, except that the suite's subgroup rows and
    decompose transform residue columns of length n/Q at the adjusted
    extent, and the subgroup rows also the length-Q residue counts."""
    if config.mode == "identity-suite":
        extents = [m for n in config.n_values for m in (n, n + n % 2)]
        for z in config.z_schedule:
            Q = primorial(z).value
            extents += [Q] + [round_up_multiple(n, Q) // Q for n in config.n_values]
        return extents
    if config.mode == "decompose":
        moduli = [primorial(z).value for z in config.z_schedule]
        return [round_up_multiple(n, Q) // Q for Q in moduli for n in config.n_values]
    if config.mode == "spectrum-export":
        return list(config.n_values)
    return []


def _tol(config: ExperimentConfig, key: str) -> float:
    return float(config.tolerances.get(key, DEFAULT_TOLERANCES[key]))


def _table(config: ExperimentConfig, n: int) -> PrimeTable:
    return load_or_build(n, config.cache_dir)


class _ExtentTable:
    """The prime table of one extent at a time: asking for another extent
    releases the held table, with its cached spectrum and column spectra,
    before the next is loaded, so consecutive requests for one extent
    share a single sieve (or cache load).  The identity suite and
    decompose both take their tables through one.  Only the suite's
    round-trip, Plancherel and parity rows read the cached spectrum, so
    it is computed at n and n + n % 2 alone; the rows at an adjusted
    extent read residue columns gathered from the bitmap, and no float
    ring and no transform of length n is made there."""

    def __init__(self, config: ExperimentConfig) -> None:
        self._config = config
        self._table: PrimeTable | None = None

    def get(self, n: int) -> PrimeTable:
        if self._table is None or self._table.n != n:
            self._table = None
            self._table = _table(self._config, n)
        return self._table


def _run_identity_suite(config: ExperimentConfig, out: Path) -> RunResult:
    results = []
    lines = []

    def record(check: IdentityCheck, n, Q, two_k, extra=None):
        # the report sorts its keys, so a row's key order is free
        row = {"identity": check.identity, "n": n, "Q": Q, "two_k": two_k, "passed": check.passed}
        row.update(residual=float(check.residual), tolerance=float(check.tolerance))
        results.append({**row, **(extra or {})})
        status = "pass" if check.passed else "FAIL"
        lines.append(
            f"[{status}] {check.identity} n={n} Q={Q} 2k={two_k} "
            f"residual={check.residual:.3e} tolerance={check.tolerance:.3e}"
        )

    # each extent's rows run in their own function, so that no array of a
    # previous extent stays referenced while the next one is transformed
    tables = _ExtentTable(config)
    for n in config.n_values:
        _extent_rows(config, record, tables.get(n))
        # the psi rows read the held table of n, which the parity row may
        # replace by the table of n + 1; they are recorded after it
        psi = psi_pair_checks(
            tables.get(n), config.two_k_values, _tol(config, "psi-spectral-identity")
        )
        _parity_row(config, record, tables, n)
        for two_k, (_, check) in zip(config.two_k_values, psi):
            record(check, n, None, two_k)
        for z in config.z_schedule:
            _subgroup_rows(config, record, tables, n, z)

    failures = sorted({row["identity"] for row in results if not row["passed"]})
    payload = {
        "version": __version__,
        "config_hash": config_hash(config),
        "mode": config.mode,
        "all_passed": not failures,
        "failing_identities": failures,
        "results": results,
    }
    path = write_json(out / "identity_suite.json", payload)
    return RunResult(exit_code=0 if not failures else 2, files=[path], failures=failures, lines=lines)


def _extent_rows(config: ExperimentConfig, record, table: PrimeTable) -> None:
    """Pair counts, round trip and Plancherel (on the cached spectrum) at one extent."""
    n = table.n
    # every shift from one batched transform of the length-n/Q columns
    counts = pair_count_checks(table, config.two_k_values, _tol(config, "spectral-pair-count"))
    for two_k, (_, check) in zip(config.two_k_values, counts):
        record(check, n, None, two_k)

    record(round_trip_check(table, _tol(config, "round-trip")), n, None, None)
    record(plancherel_check(table, _tol(config, "plancherel")), n, None, None)


def _parity_row(config: ExperimentConfig, record, tables: _ExtentTable, n: int) -> None:
    """The half-spectrum parity relation at n, or at n + 1 when n is odd."""
    even_n = n if n % 2 == 0 else n + 1
    check = parity_half_spectrum_check(tables.get(even_n), _tol(config, "parity-half-spectrum"))
    record(check, even_n, None, None, extra={"requested_n": n})


def _subgroup_rows(
    config: ExperimentConfig, record, tables: _ExtentTable, n: int, z: int
) -> None:
    """Subgroup, twisted-energy, reconstruction and main-term rows for the
    primorial Q of z at the extent round_up_multiple(n, Q).  The subgroup
    and reconstruction rows read the table's residue columns mod Q
    (``PrimeTable.columns``), in that order, so where they fit one block
    they are transformed once."""
    Q = primorial(z).value
    adjusted = round_up_multiple(n, Q)
    sub_table = tables.get(adjusted)
    extra = {
        "requested_n": n,
        "z": z,
        "within_log5": bool(Q <= math.log(adjusted) ** 5),
        "within_log10": bool(Q <= math.log(adjusted) ** 10),
    }
    # the twisted check transforms its own columns before the subgroup
    # check builds and keeps the table's column spectra, so that its
    # transform runs while they are not resident; its row is still
    # recorded after the subgroup row
    twisted = twisted_plancherel_check(sub_table, Q, _tol(config, "twisted-plancherel"))
    check = subgroup_restriction_check(sub_table, Q, _tol(config, "subgroup-restriction"))
    record(check, adjusted, Q, None, extra=extra)
    record(twisted, adjusted, Q, None, extra=extra)
    reports = decomposition_checks(
        sub_table, Q, config.two_k_values, _tol(config, "decomposition-reconstruction")
    )
    tol = _tol(config, "main-term-convolution")
    for two_k, (report, check) in zip(config.two_k_values, reports):
        record(check, adjusted, Q, two_k, extra=extra)
        record(main_term_convolution_check(sub_table, report, tol), adjusted, Q, two_k, extra=extra)


def _report_meta(config: ExperimentConfig, **extra) -> dict:
    meta = {"version": __version__, "config_hash": config_hash(config)}
    meta.update(extra)
    return meta


def _run_decompose(config: ExperimentConfig, out: Path) -> RunResult:
    """A JSON and a CSV report per (z, n, 2k), in that order.  The tables
    come through one _ExtentTable, so consecutive z whose adjusted
    extents agree (every z at a primorial n, say) share one sieve."""
    files = []
    lines = []
    tables = _ExtentTable(config)
    for z in config.z_schedule:
        for n in config.n_values:
            _decompose_reports(config, out, tables, n, z, files, lines)
    return RunResult(exit_code=0, files=files, failures=[], lines=lines)


def _decompose_reports(
    config: ExperimentConfig, out: Path, tables: _ExtentTable, n: int, z: int, files, lines
) -> None:
    """The reports of every shift for the primorial Q of z at the extent
    round_up_multiple(n, Q), appended to ``files`` and ``lines``; in a
    function of their own, so that nothing here still holds the table
    when the next extent is loaded.  Each report carries the
    Hardy-Littlewood predictions C_2k * n / log(n)^2 and C_2k * Li2(n)
    of its main term, with C_2k truncated at ``config.cutoff``; they are
    reported, never asserted."""
    Q = primorial(z).value
    adjusted = round_up_multiple(n, Q)
    table = tables.get(adjusted)
    # every shift's report is formed before any file is written
    tol = _tol(config, "decomposition-reconstruction")
    reports = list(decompositions(table, Q, config.two_k_values, tol))
    for two_k, report in zip(config.two_k_values, reports):
        constant = hl_constant(two_k, config.cutoff).value
        predicted_li2 = constant * li2(adjusted)
        meta = _report_meta(
            config,
            n=adjusted,
            requested_n=n,
            Q=Q,
            z=z,
            two_k=two_k,
            prime_table_checksum=f"fnv1a64:{table.checksum():016x}",
        )
        stem = f"decompose_n{adjusted}_Q{Q}_k{two_k}"
        payload = {
            **meta,
            "main_term": report.main_term,
            "predicted_main_log2": constant * adjusted / math.log(adjusted) ** 2,
            "predicted_main_li2": predicted_li2,
            "reconstruction_residual": report.reconstruction_residual,
            "pair_count_circular": report.pair_count_circular,
            "pair_count_linear": pair_count_linear(table, two_k),
        }
        files.append(write_json(out / f"{stem}.json", payload))
        files.append(
            write_csv(
                out / f"{stem}.csv",
                meta,
                ["xi", "re_T", "im_T", "abs_T"],
                complex_rows(report.error_spectrum),
                stamp=config.stamp,
            )
        )
        lines.append(
            f"decompose n={adjusted} Q={Q} 2k={two_k}: main={report.main_term:.4f} "
            f"predicted(li2)={predicted_li2:.4f} "
            f"pairs={report.pair_count_circular} residual={report.reconstruction_residual:.2e}"
        )


def _run_constants(config: ExperimentConfig, out: Path) -> RunResult:
    files = []
    lines = []
    for two_k in config.two_k_values:
        constant = hl_constant(two_k, config.cutoff)
        trace = []
        for z in config.z_schedule:
            Q = primorial(z)
            trace.append([z, Q.value, float(singular_series_product(Q, two_k))])
        payload = {
            **_report_meta(config),
            "two_k": two_k,
            "cutoff": config.cutoff,
            "value": constant.value,
            "error_bound": constant.error_bound,
            "singular_series_trace": trace,
        }
        files.append(write_json(out / f"constants_k{two_k}.json", payload))
        lines.append(
            f"constants 2k={two_k}: value={constant.value!r} error_bound={constant.error_bound:.3e}"
        )
    return RunResult(exit_code=0, files=files, failures=[], lines=lines)


def _run_spectrum_export(config: ExperimentConfig, out: Path) -> RunResult:
    files = []
    lines = []
    for n in config.n_values:
        table = _table(config, n)
        if config.source_function == "prime":
            ring = table.ring_indicator()
        else:
            ring = as_ring(von_mangoldt_vector(table))
        meta = _report_meta(config, n=n, source_function=config.source_function)
        csv_path, json_path = write_spectrum_export(
            out / f"spectrum_n{n}_{config.source_function}",
            forward(ring),
            config.source_function,
            meta,
            stamp=config.stamp,
        )
        files.extend([csv_path, json_path])
        lines.append(f"spectrum n={n} source={config.source_function}: {csv_path.name}")
    return RunResult(exit_code=0, files=files, failures=[], lines=lines)


def _run_sweep(config: ExperimentConfig, out: Path) -> RunResult:
    rows = []
    constants = {k: hl_constant(k, config.cutoff).value for k in config.two_k_values}
    for n in sorted(config.n_values):
        table = _table(config, n)
        li2_n = li2(n)
        for two_k in config.two_k_values:
            count = pair_count_linear(table, two_k)
            predicted = constants[two_k] * li2_n
            rows.append((n, two_k, count, predicted, count / predicted))
    path = write_csv(
        out / "hl_ratio_sweep.csv",
        _report_meta(config, cutoff=config.cutoff),
        ["n", "two_k", "pair_count", "C2k_Li2", "ratio"],
        rows,
        stamp=config.stamp,
    )
    lines = [f"sweep: wrote {len(rows)} rows to {path.name}"]
    return RunResult(exit_code=0, files=[path], failures=[], lines=lines)


def pairs_report(config: ExperimentConfig) -> list[tuple]:
    """Rows (n, 2k, linear, circular, spectral) with all three counts.  The
    spectral counts transform residue columns of length n/Q, Q from
    ``pair_count_modulus``, so the cap applies to n/Q; it is checked for
    every n before any table is sieved.  The circular count is the sieved
    one that each spectral count's check compared it against: the check
    certifies the rounding, so the two columns hold one value."""
    check_extents(
        [n // pair_count_modulus(n) for n in config.n_values], "pairs transform length"
    )
    rows = []
    for n in config.n_values:
        table = _table(config, n)
        spectral = pair_counts_via_spectrum(
            table, config.two_k_values, tol=_tol(config, "spectral-pair-count")
        )
        for two_k, count in zip(config.two_k_values, spectral):
            rows.append((n, two_k, pair_count_linear(table, two_k), count, count))
    return rows


def cache_admin(action: str, n: int, cache_dir: str | Path) -> str:
    """Administer the binary prime-table cache: build, verify, or purge.
    Returns the status message; purging a missing cache is a no-op whose
    message starts with "no-op"."""
    path = cache_path(cache_dir, n)
    if action == "build":
        save_table(build_table(n), path)
        return f"built {path}"
    if action == "verify":
        table = load_table(path, n)
        return f"OK {path} (n={table.n}, checksum fnv1a64:{table.checksum():016x})"
    if action == "purge":
        if path.exists():
            path.unlink()
            return f"purged {path}"
        return f"no-op (missing {path})"
    raise UsageError(f"unknown cache action {action!r}; use build, verify, or purge")
