"""Command-line interface.

Verbs: sieve (cache admin), verify (identity suite), pairs (pair counts by
all methods), decompose, constants, spectrum, sweep.  Exit codes:
0 success, 1 usage error, 2 identity violation or cache error, 3 resource limit.
"""

from __future__ import annotations

import argparse
import sys

from .errors import CacheError, IdentityError, PrimePairsError, ResourceLimitError, UsageError
from .harness import (
    DEFAULT_TOLERANCES,
    ExperimentConfig,
    cache_admin,
    load_config_file,
    pairs_report,
    run,
    validate_config,
)
from .reports import write_csv, write_json
from .sieve import cache_path

_VERB_MODE = {
    "verify": "identity-suite",
    "decompose": "decompose",
    "constants": "constants",
    "spectrum": "spectrum-export",
    "sweep": "hl-ratio-sweep",
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError:
        raise UsageError(f"expected a comma-separated integer list, got {text!r}")


def _tolerance_pair(text: str) -> tuple[str, float]:
    key, sep, value = text.partition("=")
    if not sep:
        raise UsageError(f"--tolerance expects KEY=VAL, got {text!r}")
    try:
        return key, float(value)
    except ValueError:
        raise UsageError(f"tolerance value must be a number, got {value!r}")


_FLAGS = {
    "--n": dict(action="append", help="extent(s), comma-separated, repeatable"),
    "--two-k": dict(action="append", help="even shift(s) 2k, comma-separated"),
    "--z": dict(action="append", help="primorial bound(s) z, comma-separated"),
    "--cache-dir": dict(help="prime-table cache directory"),
    "--tolerance": dict(
        action="append",
        default=[],
        metavar="KEY=VAL",
        help=f"override a named tolerance; keys: {', '.join(sorted(DEFAULT_TOLERANCES))}",
    ),
    "--stamp": dict(action="store_true", help="stamp reports with a timestamp"),
    "--cutoff": dict(type=int, help="prime cutoff for constants"),
    "--format": dict(choices=("csv", "json"), help="format of the --out file"),
    # no default, so that a config file's source_function applies
    "--function": dict(choices=("prime", "mangoldt"), help="source function (default: prime)"),
}

# the flags each verb reads, beside --config and --out
_VERB_FLAGS = {
    "verify": ("--n", "--two-k", "--z", "--cache-dir", "--tolerance"),
    "pairs": ("--n", "--two-k", "--cache-dir", "--tolerance", "--stamp", "--format"),
    "decompose": ("--n", "--two-k", "--z", "--cache-dir", "--tolerance", "--stamp", "--cutoff"),
    "constants": ("--two-k", "--z", "--cutoff"),
    "spectrum": ("--n", "--cache-dir", "--stamp", "--function"),
    "sweep": ("--n", "--two-k", "--cache-dir", "--stamp", "--cutoff"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="primepairs", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    sieve = sub.add_parser("sieve", parents=[], help="prime-table cache admin")
    sieve.add_argument("--action", choices=("build", "verify", "purge"), required=True)
    sieve.add_argument("--n", type=int, required=True)
    sieve.add_argument("--cache-dir", default="cache")

    for verb, help_text in (
        ("verify", "run the identity suite"),
        ("pairs", "pair counts by linear sieve, circular sieve, and spectrum"),
        ("decompose", "main-term / error-spectrum decomposition"),
        ("constants", "Hardy-Littlewood constants with truncation bounds"),
        ("spectrum", "export a spectrum as CSV plus JSON sidecar"),
        ("sweep", "pair-count vs prediction ratio sweep"),
    ):
        p = sub.add_parser(verb, help=help_text)
        p.add_argument("--config", help="JSON config file; flags override its keys")
        p.add_argument("--out", help="output directory (or file for single-file verbs)")
        for flag in _VERB_FLAGS[verb]:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def _config_from_args(args: argparse.Namespace, mode: str) -> ExperimentConfig:
    raw = load_config_file(args.config) if args.config else {}
    raw["mode"] = mode
    # a verb's namespace holds only the flags it registers
    flags = vars(args)
    for flag, key in (("n", "n_values"), ("two_k", "two_k_values"), ("z", "z_schedule")):
        if flags.get(flag):
            raw[key] = [v for part in flags[flag] for v in _int_list(part)]
    if flags.get("cutoff") is not None:
        raw["cutoff"] = flags["cutoff"]
    for flag, key in (
        ("out", "output_dir"),
        ("cache_dir", "cache_dir"),
        ("format", "out_format"),
        ("stamp", "stamp"),
        ("function", "source_function"),
    ):
        if flags.get(flag):
            raw[key] = flags[flag]
    # a tolerances value that is no object is left for validate_config to report
    overrides = raw.get("tolerances", {})
    if isinstance(overrides, dict):
        raw["tolerances"] = {**overrides, **dict(map(_tolerance_pair, flags.get("tolerance", [])))}
    try:
        config = ExperimentConfig(**raw)
    except TypeError as exc:
        raise UsageError(str(exc))
    problems = validate_config(config)
    if problems:
        raise UsageError("invalid config:\n  " + "\n  ".join(problems))
    return config


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.verb == "sieve":
            status = cache_admin(args.action, args.n, args.cache_dir)
            if status.startswith("no-op"):
                path = cache_path(args.cache_dir, args.n)
                print(f"warning: no cache at {path}, nothing to purge", file=sys.stderr)
            print(status)
            return 0
        config = _config_from_args(args, _VERB_MODE.get(args.verb, "identity-suite"))
        if args.verb == "pairs":
            rows = pairs_report(config)
            columns = ["n", "two_k", "linear", "circular", "spectral"]
            print(",".join(columns))
            for row in rows:
                print(",".join(str(cell) for cell in row))
            if args.out:
                if config.out_format == "json":
                    write_json(args.out, [dict(zip(columns, row)) for row in rows])
                else:
                    write_csv(args.out, {}, columns, rows, stamp=config.stamp)
                print(f"wrote {args.out}")
            return 0
        result = run(config)
        for line in result.lines:
            print(line)
        for path in result.files:
            print(f"wrote {path}")
        if result.failures:
            print(
                "identity violations: " + ", ".join(result.failures),
                file=sys.stderr,
            )
        return result.exit_code
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except IdentityError as exc:
        print(f"identity violation: {exc}", file=sys.stderr)
        return 2
    except CacheError as exc:
        print(f"cache error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except PrimePairsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
