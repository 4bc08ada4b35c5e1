"""Deterministic CSV/JSON report emission.

CSV rules: '.' decimal point, no locale, LF line endings, stable column
order, floats printed with repr (shortest round-trip form).  Metadata
travels in leading '# key=value' comment lines; a timestamp line appears
only when stamping is requested, so unstamped reports are byte-identical
across runs.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from itertools import chain
from pathlib import Path

import numpy as np

from .sieve import FNV_OFFSET, fnv1a64


def fmt_value(x) -> str:
    """Render a cell: integers plainly, floats via repr, text as-is."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


CSV_BLOCK_ROWS = 1 << 16


def _header(meta: dict, columns: list[str], stamp: bool) -> str:
    lines = [f"# {key}={fmt_value(meta[key])}" for key in sorted(meta)]
    if stamp:
        lines.append(f"# timestamp={datetime.now(timezone.utc).isoformat()}")
    lines.append(",".join(columns))
    return "\n".join(lines) + "\n"


def _body(rows):
    """The text of each row: a tuple of cells is rendered with fmt_value;
    a str is text already rendered (whole lines, each ending in LF)."""
    for row in rows:
        yield row if isinstance(row, str) else ",".join(fmt_value(cell) for cell in row) + "\n"


def complex_rows(values: np.ndarray, square: bool = False):
    """CSV rows (xi, re, im, |v|) of a complex vector, or (xi, re, im,
    |v|^2) with ``square``, rendered CSV_BLOCK_ROWS lines at a time.  Each
    line is built from Python scalars (``tolist``) with repr and Python's
    abs(complex), which give the text fmt_value gives the numpy scalars
    cell by cell; only one block of text is held at once.  Python's abs
    and ** raise OverflowError past the float range, where numpy gives
    inf; the values the package writes stay far inside that range."""
    for start in range(0, values.shape[0], CSV_BLOCK_ROWS):
        yield "".join(
            f"{xi},{v.real!r},{v.imag!r},{(abs(v) ** 2 if square else abs(v))!r}\n"
            for xi, v in enumerate(values[start : start + CSV_BLOCK_ROWS].tolist(), start)
        )


def render_csv(meta: dict, columns: list[str], rows, stamp: bool = False) -> str:
    """The whole CSV text.  ``rows`` yields tuples of cells, or text
    already rendered such as the blocks of ``complex_rows``."""
    return _header(meta, columns, stamp) + "".join(_body(rows))


def write_csv(
    path: str | Path, meta: dict, columns: list[str], rows, stamp: bool = False, on_write=None
) -> Path:
    """Write the CSV of ``render_csv`` piece by piece, never holding the
    whole text.  ``on_write``, when given, is called with the ASCII bytes
    of each piece as it is written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        for text in chain((_header(meta, columns, stamp),), _body(rows)):
            piece = text.encode("ascii")
            if on_write is not None:
                on_write(piece)
            fh.write(piece)
    return path


def csv_body(text: str) -> str:
    """The body of a CSV report: every line that is not a '#' comment."""
    return "\n".join(line for line in text.splitlines() if not line.startswith("#")) + "\n"


def write_json(path: str | Path, obj) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=2))
        fh.write("\n")
    return path


def write_spectrum_export(
    base: str | Path, values: np.ndarray, source_function: str, meta: dict, stamp: bool = False
) -> tuple[Path, Path]:
    """Spectrum CSV with columns (xi, re, im, abs2) plus a JSON sidecar
    recording n, the transform convention, the source function, and an
    FNV-1a checksum of the full CSV bytes, folded in block by block as
    the CSV is written (the file is not read back)."""
    from .transform import FORWARD_CONVENTION

    base = Path(base)
    digest = FNV_OFFSET

    def fold(piece: bytes) -> None:
        nonlocal digest
        digest = fnv1a64(piece, digest)

    csv_path = write_csv(
        base.with_suffix(".csv"), meta, ["xi", "re", "im", "abs2"],
        complex_rows(values, square=True), stamp=stamp, on_write=fold,
    )
    sidecar = {
        "n": int(values.shape[0]),
        "convention": FORWARD_CONVENTION,
        "source_function": source_function,
        "checksum": f"fnv1a64:{digest:016x}",
    }
    json_path = write_json(base.with_suffix(".json"), sidecar)
    return csv_path, json_path
