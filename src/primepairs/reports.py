"""Deterministic CSV/JSON report emission.

CSV rules: '.' decimal point, no locale, LF line endings, stable column
order, floats printed with repr (shortest round-trip form).  Metadata
travels in leading '# key=value' comment lines; a timestamp line appears
only when stamping is requested, so unstamped reports are byte-identical
across runs.

Rows of complex vectors (the decompose error spectrum and the spectrum
export) are rendered by ``_rows.render``.  An export of more than
CSV_BLOCK_ROWS (65,536) rows is cut into contiguous shares, one per CPU
in this process's affinity mask and at most one per block.  Each share
after the first is rendered by a helper process, ``python -I -S`` running
``_rows.py`` (standard library only, so it starts in milliseconds), into
an unnamed temporary file, while this process renders the first share;
the helpers' files are then copied out in order.  The bytes written do
not depend on the number of shares.  With one CPU, or at one block or
less, nothing is started.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from contextlib import ExitStack
from datetime import datetime, timezone
from itertools import chain
from pathlib import Path

import numpy as np

from . import _rows
from .errors import PrimePairsError
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
_CHUNK_BYTES = 1 << 22  # a helper's file is read back about one block at a time
_STDERR_TAIL = 2000  # characters of a failed helper's stderr in the error


def _header(meta: dict, columns: list[str], stamp: bool) -> str:
    lines = [f"# {key}={fmt_value(meta[key])}" for key in sorted(meta)]
    if stamp:
        lines.append(f"# timestamp={datetime.now(timezone.utc).isoformat()}")
    lines.append(",".join(columns))
    return "\n".join(lines) + "\n"


def _body(rows):
    """The text of each row: a tuple of cells is rendered with fmt_value;
    a str is text already rendered (whole rows, or a chunk of a helper's
    rows), written as it is."""
    for row in rows:
        yield row if isinstance(row, str) else ",".join(fmt_value(cell) for cell in row) + "\n"


def _share_count() -> int:
    """The number of CPUs this process may run on, from its affinity mask
    (1 where the platform has none)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


def _start_helper(stack: ExitStack, values: np.ndarray, start: int, stop: int, square: bool):
    """A helper process rendering rows start..stop-1 of ``values`` into an
    unnamed temporary file; returns the process and that file.  ``stack``
    kills the process if it still runs, waits for it and closes the file."""
    with tempfile.TemporaryFile() as share:
        share.write(np.ascontiguousarray(values[start:stop], dtype=np.complex128))
        share.seek(0)
        out = stack.enter_context(tempfile.TemporaryFile())
        argv = [start, stop - start, int(square), CSV_BLOCK_ROWS]
        proc = stack.enter_context(
            subprocess.Popen(
                [sys.executable, "-I", "-S", _rows.__file__, *map(str, argv)],
                stdin=share, stdout=out, stderr=subprocess.PIPE,
            )
        )
    stack.callback(proc.kill)
    return proc, out


def complex_rows(values: np.ndarray, square: bool = False):
    """CSV rows (xi, re, im, |v|) of a complex vector, or (xi, re, im,
    |v|^2) with ``square``, as ``_rows.render`` gives them; only one block
    of CSV_BLOCK_ROWS rows, or one chunk of a helper's file, is held as
    text at once.

    A vector of more than one block is cut into contiguous shares, one per
    CPU (at most one per block).  One helper process per share after the
    first renders it into an unnamed temporary file while this process
    renders the first share; the helpers' files then follow in order, so
    the text is the same on every path.  A helper that fails raises
    PrimePairsError with its exit status and the tail of its stderr."""
    rows = values.shape[0]
    shares = max(1, min(_share_count(), -(-rows // CSV_BLOCK_ROWS)))
    bounds = [rows * i // shares for i in range(shares + 1)]
    with ExitStack() as stack:
        helpers = [
            (start, stop, *_start_helper(stack, values, start, stop, square))
            for start, stop in zip(bounds[1:], bounds[2:])
        ]
        for start in range(0, bounds[1], CSV_BLOCK_ROWS):
            stop = min(start + CSV_BLOCK_ROWS, bounds[1])
            yield _rows.render(start, values[start:stop].tolist(), square)
        for start, stop, proc, out in helpers:
            _, err = proc.communicate()
            if proc.returncode:
                tail = err.decode("ascii", errors="replace").strip()[-_STDERR_TAIL:]
                raise PrimePairsError(
                    f"row helper for rows {start}..{stop - 1} exited with status "
                    f"{proc.returncode}: {tail}"
                )
            out.seek(0)
            while chunk := out.read(_CHUNK_BYTES):
                yield chunk.decode("ascii")


def write_csv(
    path: str | Path, meta: dict, columns: list[str], rows, stamp: bool = False, on_write=None
) -> Path:
    """Write a CSV piece by piece, never holding the whole text: the
    '# key=value' lines of ``meta`` (sorted by key), the ``columns`` line,
    then ``rows``, which yields tuples of cells or text already rendered
    such as the blocks of ``complex_rows``.  ``on_write``, when given, is
    called with the ASCII bytes of each piece as it is written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        for text in chain((_header(meta, columns, stamp),), _body(rows)):
            piece = text.encode("ascii")
            if on_write is not None:
                on_write(piece)
            fh.write(piece)
    return path


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
