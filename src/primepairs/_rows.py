"""CSV rows of a complex vector: (xi, re, im, |v|), or (xi, re, im, |v|^2).

This module imports only the standard library.  ``reports`` imports it to
render rows in process, and runs the same file as a script in a helper
process that renders a share of a long vector on another CPU:

    python -I -S _rows.py START COUNT SQUARE BLOCK < values > rows

reads COUNT complex128 values (native byte order) on stdin and writes
their rows, numbered from START, to stdout, BLOCK rows at a time; SQUARE
is 1 for |v|^2 and 0 for |v|.
"""

import sys
from array import array


def render(start, values, square=False):
    """The text of the rows of ``values``, Python complex numbers, numbered
    from ``start``: each cell with repr, the last with Python's abs(complex),
    squared with ``square``.  This is the text that rendering the numpy
    scalars cell by cell gives.  Python's abs and ** raise OverflowError
    past the float range, where numpy gives inf; the values the package
    writes stay far inside that range."""
    return "".join(
        f"{xi},{v.real!r},{v.imag!r},{(abs(v) ** 2 if square else abs(v))!r}\n"
        for xi, v in enumerate(values, start)
    )


def main(argv):
    start, count, square, block = (int(arg) for arg in argv[1:5])
    parts = array("d")
    data = sys.stdin.buffer.read()
    if len(data) != 2 * parts.itemsize * count:
        raise SystemExit(f"expected {count} complex128 values on stdin, got {len(data)} bytes")
    parts.frombytes(data)
    del data
    out = sys.stdout.buffer
    for lo in range(0, 2 * count, 2 * block):
        hi = min(lo + 2 * block, 2 * count)
        values = map(complex, parts[lo:hi:2], parts[lo + 1 : hi : 2])
        out.write(render(start + lo // 2, values, bool(square)).encode("ascii"))
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
