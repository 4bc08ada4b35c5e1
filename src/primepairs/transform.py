"""Discrete Fourier transform on Z/nZ for arbitrary n.

One sign and normalization convention is fixed package-wide and nothing
downstream may re-derive phases:

    forward:  F(xi) = sum_{x in Z_n} f(x) * exp(-2*pi*i*xi*x/n)
    inverse:  f(x)  = (1/n) * sum_{xi} F(xi) * exp(+2*pi*i*xi*x/n)

The one inverse is ``inverse_real``, of a Hermitian spectrum given by its
half.

Z/nZ is identified with {1,...,n}; arrays are stored in residue layout,
where slot j holds the value at x = j for 1 <= j < n and slot 0 holds the
value at x = n (the phase factors agree because exp(-2*pi*i*xi*n/n) = 1).

Each convention the package builds on has its one home here, and the
sieve and spectral modules call it instead of restating it:
``unit_phase`` is the kernel e_n(-k) = exp(-2*pi*i*k/n); ``require_divisor``
raises the UsageError when a subgroup identity is asked for Q that does
not divide n (Fourier analysis on Z/QZ ties to Z/nZ only when Q | n);
``check_extents`` enforces the one length cap, ``MAX_TRANSFORM_LENGTH``,
raising ResourceLimitError for every caller;
``as_ring`` lays a function on {1..n} out by residue; and
``gather_columns`` reads the subgroup side off a 1-indexed weight vector.
With Q | n and m = n/Q, the Cooley-Tukey index map x = a + j*Q
(0 <= a < Q, 0 <= j < m) views the ring as an (m, Q) array whose column
a is the class x = a (mod Q), because slot 0 holds x = n = 0 (mod Q).  A
vector masked to that class has the spectrum e_n(-xi*a) * DFT_m(column
a)(xi mod m), so one length-m transform of the column carries the
class's whole energy.  ``forward_real`` transforms a batch of such
columns, one per row, in one call.  ``ColumnBlocks`` gathers the columns
that hold a nonzero weight, in blocks of at most
COLUMN_BLOCK_BYTES of spectra, and fills each block's spectra with such
calls on batches of rows; the spectral correlations (prime pairs and
von Mangoldt pairs), the error spectrum and the subgroup samples all
read it.  A PrimeTable may keep one of its bitmap, with at most one
block of spectra; ``PrimeTable.columns`` says for how long.

A class a with gcd(a, Q) > 1 holds no prime but a itself, at j = 0, so
in the bitmap the columns of all such classes that hold a prime are one
unit impulse with one spectrum.  ``ColumnBlocks`` confirms each of them,
and class 0, by its column's content (a von Mangoldt column also holds
the prime powers of its class), transforms the first impulse of each
weight in a block, and copies its spectrum to the others; the copies are
bit for bit what their own rffts would give.  At 1000002 with Q = 6 that
is 3 rows of 166667, not 4.

Memory model of one block: its spectra, (m//2 + 1) * 16 bytes per
column; the gathered columns, m entries of the weights' type per
transformed column (1 byte for the prime bitmap); and one row batch in
flight, its float input, which the rfft copies from bool, and its
spectra until they are copied into the block's, and pocketfft's own
Bluestein scratch, 128 bytes a point at a length whose largest prime
factor exceeds its square root (``_bluestein_scratch``).  One rule sets
the batch: a block whose float input fits COLUMN_BLOCK_BYTES // 8
(8 MiB) beside that scratch is one batch, so its plan is built once
(numpy 2 keeps no plan cache, and each call builds its plan anew): the
suite's small Bluestein blocks (9, 33334), (49, 4762) and (481, 433)
are one call each.  A larger block goes in batches whose float input
and spectra fit that size beside the scratch, at least one row a call,
so no float copy of the whole block is made: at 9699690 with Q = 30,
one row of 323323 a call.  Where the scratch alone outgrows 8 MiB the
batches are one row, since with numpy 2.4 a one-row rfft of 166667
raises a process's peak RSS by about 24 MB and one of two to four rows
by about 40 MB; so the suite's Q = 6 columns at 1000002 take three
rffts of (1, 166667), each building its plan, and at 3000090 with
Q = 30 the columns of the prime 100003 go one a call: filling that
block raises a process's peak RSS by 23.7 MB, against 36.9 MB in calls
of five rows.  Each row is its own transform, so the spectra are bit
for bit those of one call on the block.

Every transform in the package is a call here, on plain arrays: this is
the only module that names ``numpy.fft``, and each call checks its length.

The fast path delegates to numpy's pocketfft, which implements exactly
this forward kernel with mixed-radix decomposition plus a Bluestein
chirp-transform fallback for large prime factors, so arbitrary composite
or prime lengths run in O(n log n) without any padding of the ring.
Transform error is modelled as ||dF||_2 <= c * eps * log2(n) * ||F||_2,
c = ``spectral.FFT_ERROR_GROWTH``; the pair-count and psi budgets derive
their rounding bounds from that model.

Real input has a Hermitian spectrum, F(n - xi) = conj F(xi), so its whole
spectrum is fixed by the half 0 <= xi <= n//2 that ``forward_real`` (one
rfft) returns.  A PrimeTable caches that half spectrum of its ring
indicator (``PrimeTable.spectrum``), and the length-n identities on a
table read it: ``inverse_real`` inverts it (the round trip),
``spectrum_at`` samples F at any frequency (the parity relation) and
``plancherel_residual`` folds its power over Z/nZ (the energy).  Every
other identity reads residue columns instead.  ``forward`` stays a full
complex transform, at length Q or n/Q, and at length n for the spectrum
export alone.
"""

from __future__ import annotations

import numpy as np

from .errors import ResourceLimitError, UsageError
from .factored import factorize

FORWARD_CONVENTION = "forward = sum_x f(x) exp(-2*pi*i*xi*x/n); inverse carries 1/n"
MAX_TRANSFORM_LENGTH = 10**7
# bytes of one block of column spectra, (m//2 + 1) * 16 bytes per column
COLUMN_BLOCK_BYTES = 64 << 20


def unit_phase(n: int, k) -> np.ndarray:
    """The kernel e_n(-k) = exp(-2*pi*i*k/n) for an integer array k, with
    k reduced mod n in exact integer arithmetic before the float angle."""
    phase = (-2j * np.pi / n) * (np.asarray(k, dtype=np.int64) % n)
    return np.exp(phase, out=phase)


def require_divisor(n: int, Q: int, what: str) -> None:
    """Raise UsageError unless Q | n (with Q >= 1): the subgroup Z/QZ and
    its cosets in Z/nZ exist only then.  ``what`` names the caller."""
    if Q < 1 or n % Q:
        raise UsageError(f"{what} requires Q | n, got Q={Q}, n={n}")


def check_extents(extents, what: str = "transform length") -> None:
    """Raise ResourceLimitError naming every extent in ``extents`` above
    MAX_TRANSFORM_LENGTH, the package's one transform cap."""
    over = sorted({int(m) for m in extents if m > MAX_TRANSFORM_LENGTH})
    if over:
        raise ResourceLimitError(f"{what} capped at 1e7, got {', '.join(map(str, over))}")


def as_ring(values_one_indexed: np.ndarray) -> np.ndarray:
    """Re-index a 1-indexed array of length n+1 (entry 0 ignored) into
    residue layout of length n: slot 0 takes the value at x = n.

    The ring is a floating vector ready for the transform (float64 for
    bool or integer input, else the input's float or complex type),
    filled straight from the input without an intermediate copy."""
    v = np.asarray(values_one_indexed)
    n = v.shape[0] - 1
    if n < 1:
        raise UsageError("need at least one sample on {1..n}")
    out = np.empty(n, dtype=np.result_type(v.dtype, np.float64))
    out[1:] = v[1:n]
    out[0] = v[n]
    return out


def gather_columns(weights: np.ndarray, Q: int, classes) -> np.ndarray:
    """The residue columns mod Q (Q | n) of the ascending ``classes`` of a
    1-indexed weight vector of length n + 1, one per row, in the weights'
    type: row i holds x = a, a + Q, ..., a + n - Q for a = classes[i],
    except that class 0 holds x = n in slot 0, as in residue layout."""
    n = weights.shape[0] - 1
    require_divisor(n, Q, "residue columns")
    classes = np.asarray(classes, dtype=np.int64)
    # np.take reads each row of the (n/Q, Q) view once; the transposed copy
    # puts each column's entries in a row, where a transform reads them
    columns = np.ascontiguousarray(np.take(weights[:n].reshape(n // Q, Q), classes, axis=1).T)
    if classes.size and classes[0] == 0:
        columns[0, 0] = weights[n]
    return columns


def _bluestein_scratch(m: int) -> int:
    """Bytes of pocketfft's scratch in one rfft call at length m, modelled
    as 128 bytes a point (about four complex values a point of the
    convolution of length about 2m) when m may take the Bluestein path,
    its largest prime factor above its square root, and as 0 otherwise.
    With numpy 2.4 a one-row rfft of the prime 166667 raises a process's
    peak RSS by 24 MB, 146 bytes a point."""
    primes = factorize(m).primes
    return 128 * m if primes and primes[-1] ** 2 > m else 0


class ColumnBlocks:
    """The residue columns mod Q of a 1-indexed weight vector that hold a
    nonzero weight, and their length-m spectra, m = n/Q.

    ``weights`` has length n + 1 (entry 0 unused, entry x the weight at
    x) and Q | n.  ``classes`` are the classes a (ascending) whose column
    holds a nonzero weight; ``chunk`` is the number of classes per block,
    as many column spectra of (m//2 + 1) * 16 bytes as fit
    COLUMN_BLOCK_BYTES; ``spectra(j)`` is block j's column spectra, the
    rffts (``forward_real``) of the columns of classes
    chunk*j .. chunk*(j + 1) - 1, one per row, in batches of ``rows``
    columns: the whole block when its float input and pocketfft's
    Bluestein scratch at length m (``_bluestein_scratch``) fit
    COLUMN_BLOCK_BYTES // 8 bytes, else as many as fit that size with
    their spectra beside that scratch, and at least one.  The columns are
    gathered from the weights by ``gather_columns``.  ``impulses`` maps
    each class whose column holds one weight, at j = 0, to that weight;
    within a block only the first class of each weight is gathered and
    transformed, and the others get a copy of its spectrum.

    When every class fits one block, as at every extent of the identity
    suite, the spectra of the first transform are kept (``kept``, not
    writeable) and returned by every later call, so every reader of one
    object transforms its columns once.  With more than one block nothing
    is kept and each call transforms its block again, so a reader's
    memory bound is what it would be without sharing.
    """

    def __init__(self, weights: np.ndarray, Q: int) -> None:
        n = weights.shape[0] - 1
        require_divisor(n, Q, "residue columns")
        self.weights = weights
        self.Q = Q
        self.m = n // Q
        # the weights as residue columns, except that slot 0 holds x = n, not 0
        holding = weights[:n].reshape(self.m, Q).any(axis=0)
        holding[0] |= bool(weights[n])
        self.classes = np.flatnonzero(holding)
        # a class with gcd(a, Q) > 1 holds no prime but a, at j = 0, so its
        # column may be an impulse, one for every such class of equal
        # weight; so may class 0, whose slot 0 holds x = n.  Each candidate
        # is confirmed by its column's other entries, x = a + Q, a + 2Q, ...,
        # where a prime power (or the prime Q, in class 0) may lie
        candidates = self.classes[(self.classes == 0) | (np.gcd(self.classes, Q) > 1)]
        self.impulses = {
            a: (weights[a] if a else weights[n]).item()
            for a in candidates.tolist()
            if not weights[a + Q : n : Q].any()
        }
        spectrum = (self.m // 2 + 1) * 16
        self.chunk = max(1, COLUMN_BLOCK_BYTES // spectrum)
        # a block whose float input fits the batch size beside pocketfft's
        # Bluestein scratch goes whole, so its plan is built once; a larger
        # one goes as many rows a call as fit the batch with their spectra
        # beside that scratch, and at least one
        block, batch = min(self.chunk, self.classes.size), COLUMN_BLOCK_BYTES // 8
        floats, scratch = block * 8 * self.m, _bluestein_scratch(self.m)
        if floats + scratch <= batch:
            self.rows = block
        else:
            self.rows = max(1, (batch - scratch) // (8 * self.m + spectrum))
        self.kept: np.ndarray | None = None

    def spectra(self, block: int) -> np.ndarray:
        if self.kept is not None:
            return self.kept  # the one block
        chunk = self.chunk
        classes = self.classes[block * chunk : (block + 1) * chunk]
        # the first impulse of each weight in the block is transformed, and
        # the others copy its spectrum; only the transformed columns are
        # gathered
        first: dict = {}
        own, copies = [], []
        for row, a in enumerate(classes.tolist()):
            weight = self.impulses.get(a)
            if weight in first:
                copies.append((row, first[weight]))
            else:
                own.append(row)
                if weight is not None:
                    first[weight] = row
        columns = gather_columns(self.weights, self.Q, classes[own])
        # the rfft takes a float copy of its input and returns new spectra,
        # so it is given at most ``rows`` columns at a time; each row is its
        # own transform, so the spectra are those of one call on the block
        rows = self.rows
        spectra = np.empty((classes.size, self.m // 2 + 1), dtype=complex)
        for lo in range(0, len(own), rows):
            spectra[own[lo : lo + rows]] = forward_real(columns[lo : lo + rows])
        for row, source in copies:
            spectra[row] = spectra[source]
        if self.classes.size <= chunk:
            spectra.flags.writeable = False
            self.kept = spectra
        return spectra


def _length(f: np.ndarray) -> int:
    """Length of the vector, or of each row of a batch, about to be
    transformed, within the cap."""
    n = f.shape[-1]
    if n < 1:
        raise UsageError("cannot transform an empty vector")
    check_extents([n])
    return n


def forward(f: np.ndarray) -> np.ndarray:
    """Forward transform of a real or complex vector in residue layout,
    as the complex array F(xi), 0 <= xi < n."""
    f = np.asarray(f)
    _length(f)
    return np.fft.fft(f)


def forward_real(f: np.ndarray) -> np.ndarray:
    """Half spectrum F(xi), 0 <= xi <= n//2, of a real vector in residue
    layout (one rfft); the rest is F(n - xi) = conj F(xi).  A 2-d ``f``
    is a batch whose rows are transformed in the one call."""
    f = np.asarray(f)
    _length(f)
    return np.fft.rfft(f)


def inverse_real(half: np.ndarray, n: int) -> np.ndarray:
    """Inverse transform (with the 1/n factor) of the Hermitian spectrum on
    Z/nZ whose half ``half`` is, as a real vector of length n."""
    if half.shape[0] != n // 2 + 1:
        raise UsageError(f"half spectrum of length {half.shape[0]} does not fit n={n}")
    check_extents([n])
    return np.fft.irfft(half, n)


def spectrum_at(half: np.ndarray, n: int, xi: np.ndarray) -> np.ndarray:
    """Samples F(xi mod n) of a Hermitian spectrum given by its half."""
    m = np.asarray(xi, dtype=np.int64) % n
    upper = m > n // 2
    values = half[np.where(upper, n - m, m)]
    return np.where(upper, np.conj(values), values)


def fold_half(half: np.ndarray, n: int) -> float:
    """sum over xi in Z/nZ of a real g with g(n - xi) = g(xi), given its
    half g(xi), 0 <= xi <= n//2: twice the half's sum, less bin 0 and, for
    even n, the Nyquist bin n/2, which have no mirror."""
    total = 2.0 * float(half.sum()) - half[0]
    if n % 2 == 0:
        total -= half[-1]  # the Nyquist bin has no mirror
    return float(total)


def _power(values: np.ndarray) -> np.ndarray:
    """|values|^2, squared in place in its one absolute-value array."""
    power = np.abs(values)
    return np.multiply(power, power, out=power)


def plancherel_residual(f: np.ndarray, half: np.ndarray) -> float:
    """Relative defect of the energy identity (1/n) sum |F(xi)|^2 =
    sum f(x)^2 for a real vector f of length n and its half spectrum
    ``half``, the power |F|^2 folded over Z/nZ by ``fold_half``; runs no
    transform.  Zero input returns 0 exactly."""
    f = np.asarray(f)
    n = f.shape[0]
    if half.shape[0] != n // 2 + 1:
        raise UsageError(f"half spectrum of length {half.shape[0]} does not fit n={n}")
    energy = float(np.sum(_power(f)))
    spectral = fold_half(_power(half), n) / n
    gap = abs(spectral - energy)
    return gap / energy if energy > 0 else gap
