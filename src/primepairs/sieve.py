"""Segmented prime sieving and every prime-indicator-derived count.

A PrimeTable is an immutable bitmap of primality on {1..n}; on top of it
sit prime and progression counts, linear and circular pair counts,
twisted progression sums (``residue_profile`` returns a plain length-Q
array), and its von Mangoldt weight vector.  The Z/nZ conventions these
use are the ones ``transform`` defines: the ring layout (``as_ring``),
the phase e_n(-k) (``unit_phase``), the Q | n check (``require_divisor``)
and the transform (``forward_real``, the table's half spectrum).  Linear
and circular pair counts AND slices of the bitmap block by block and
copy no ring.
Construction is a single blocking call; all queries afterwards are
read-only and safe to use from concurrent callers.  A table fills a few
derived arrays on first use (its primes, checksum, half spectrum and
residue-column spectra); concurrent first calls each compute the same
array and either result may be kept.

The sieve works on odd slots only, slot i standing for 2i + 1, one
segment of SEGMENT_LENGTH slots (2 * SEGMENT_LENGTH integers) at a time.
Each segment starts as a wheel row of period 15015 slots (30030
integers) that already strikes the multiples of 3, 5, 7, 11 and 13, so
only the base primes from 17 up to sqrt(n) are struck; they come from
a table of extent isqrt(n) built by this same sieve, the package's only
one (the constants' prime list reads it too).
A segment is sieved in the first half of its own stretch of the bitmap
and then spread onto the odd entries of that stretch; even entries stay
False apart from 2.

Memory model: the bitmap is the whole table, 1 byte per entry, so a
table of extent n needs about n+1 bytes (about 1 GB at the 1e9 cap).
Sieving adds no buffer beyond the base primes up to sqrt(n) and their
own table of isqrt(n) + 1 bytes, loading a cache adds the file (n/8
bytes), and pair counts AND the bitmap
_COUNT_BLOCK entries at a time into one 64 KiB buffer: none of them
holds a second n-byte array.  The FNV-1a checksum of a save or load
holds about 1.2 MiB of scratch whatever n is (its 128 KiB low-byte
chain buffers and a 512 KiB int64 fold buffer), beside its cached
512 KiB table of powers of P.  The table keeps no prefix counts: pi(x)
counts the bitmap, about 10 ms at 1e8, and callers ask for it a handful
of times per extent.  The extent cap, 1e9, is the memory bound: an
extent over it is rejected before any array is allocated.  The cached
half spectrum, when asked for, costs 8 more bytes per entry (n/2 + 1
complex bins).  Spectral pair
counts, the decomposition's error spectrum and the subgroup samples read
residue columns of the bitmap instead (``spectral``), so they add no
array of length n.  The table may keep residue columns mod one Q and
at most one block of their spectra, (n/Q/2 + 1) * 16 bytes per class
that holds a prime; ``PrimeTable.columns`` says for how long.  The
prime list (``primes``, 8 bytes per prime) is the int64 index array of
the bitmap itself, not a copy of it.
"""

from __future__ import annotations

import logging
import math
import os
import uuid
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import CacheError, ResourceLimitError, UsageError
from .factored import is_prime_u64
from .transform import ColumnBlocks, as_ring, forward_real, require_divisor, unit_phase

logger = logging.getLogger(__name__)

MAX_TABLE_EXTENT = 10**9
SEGMENT_LENGTH = 1 << 20  # odd slots per sieve segment

_WHEEL_PRIMES = (3, 5, 7, 11, 13)
_WHEEL_PERIOD = math.prod(_WHEEL_PRIMES)  # in odd slots: 30030 integers
_FIRST_BASE_PRIME = 17  # the least prime the wheel leaves to the sieve
_COUNT_BLOCK = 1 << 16  # bitmap entries per AND in the pair counts

CACHE_MAGIC = b"PSPC1"

FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_FNV_PRIME_LOW = np.uint8(_FNV_PRIME & 0xFF)
_U64 = (1 << 64) - 1
FNV_BLOCK = 1 << 16  # bytes per high-part fold (one np.dot)
FNV_CHAIN = 1 << 17  # bytes per low-byte chain
# the word rounds shift and subtract by numpy scalars, which keep uint64
# under the promotion rules of both numpy 1.x and 2.x (NEP 50)
_WORD_SHIFTS = tuple(np.uint64(1 << r) for r in range(6))
_WORD_TOP = np.uint64(63)
_WORD_ZERO = np.uint64(0)


@lru_cache(maxsize=1)
def _fnv_powers() -> np.ndarray:
    """Entry j is P^(FNV_BLOCK - j) mod 2^64 (uint64 products wrap)."""
    ascending = np.multiply.accumulate(np.full(FNV_BLOCK, _FNV_PRIME, dtype=np.uint64))
    powers = ascending[::-1].copy()
    powers.setflags(write=False)
    return powers


def fnv1a64(data: bytes, state: int = FNV_OFFSET) -> int:
    """64-bit FNV-1a hash of a byte string: h <- ((h XOR b) * P) mod 2^64
    per byte b, from h = ``state`` (the offset basis by default), so that
    fnv1a64(b, fnv1a64(a)) == fnv1a64(a + b).  Computed exactly in numpy.

    XOR with a byte changes only the low byte s = h mod 256 of h, so
    h XOR b = h + d with d = (s XOR b) - s, and over a block of C bytes
    h_end = h * P^C + sum_i d_i * P^(C - i) mod 2^64.  The low bytes run
    alone, s' = ((s XOR b) * 0xB3) mod 256.  As P is odd, bit k of s' is
    bit k of s XOR bit k of (((s mod 2^k) XOR b) * 0xB3), so bit k of every
    s in the block is a prefix XOR once bits 0..k-1 are known.

    The low bytes run FNV_CHAIN bytes at a time, keeping x = s XOR b in
    one buffer.  Each bit plane's prefix XOR runs on packed little-endian
    64-bit words: six shift-XOR rounds within each word, then the XOR of
    the parities of all earlier words flips a word whole.  The high part
    is folded FNV_BLOCK bytes at a time, one np.dot of d against the
    powers of P.  Scratch memory is about 1.2 MiB whatever the length.
    """
    h = int(state)
    if not 0 <= h <= _U64:
        raise UsageError(f"FNV-1a state must be a 64-bit unsigned value, got {state}")
    payload = np.frombuffer(data, dtype=np.uint8)
    chain = min(payload.size, FNV_CHAIN)
    block = min(chain, FNV_BLOCK)
    x = np.empty(chain, dtype=np.uint8)
    # one bit plane padded to whole words, then one block of d as int16
    plane = np.empty(max(-(-chain // 64) * 64, 2 * block), dtype=np.uint8)
    diff = np.empty(block, dtype=np.int64)
    powers = _fnv_powers()
    for lo in range(0, payload.size, FNV_CHAIN):
        b = payload[lo : lo + FNV_CHAIN]
        c = b.size
        xs = x[:c]
        xs[...] = b  # s holds no bits yet
        # the bits past c only reach later bits of the prefix XOR
        padded = plane[: -(-c // 64) * 64]
        for k in range(8):
            bit = np.uint8(1 << k)
            # flip i + 1 is bit k of x_i * 0xB3 while x holds bits 0..k-1 of
            # s; flip 0 is bit k of the incoming state
            plane[0] = h & (1 << k)
            np.multiply(xs[:-1], _FNV_PRIME_LOW, out=plane[1:c])
            np.bitwise_and(plane[1:c], bit, out=plane[1:c])
            words = np.packbits(padded, bitorder="little").view("<u8")
            for shift in _WORD_SHIFTS:
                words ^= words << shift
            carry = words >> _WORD_TOP
            np.bitwise_xor.accumulate(carry, out=carry)
            words[1:] ^= _WORD_ZERO - carry[:-1]
            s_bits = np.unpackbits(words.view(np.uint8), count=c, bitorder="little")
            np.multiply(s_bits, bit, out=s_bits)
            np.bitwise_xor(xs, s_bits, out=xs)
        s = np.bitwise_xor(xs, b, out=s_bits)
        for start in range(0, c, FNV_BLOCK):
            m = min(FNV_BLOCK, c - start)
            d = diff[:m]
            d16 = plane.view(np.int16)[:m]
            np.subtract(xs[start : start + m], s[start : start + m], out=d16, dtype=np.int16)
            np.copyto(d, d16)
            high = int(np.dot(d.view(np.uint64), powers[FNV_BLOCK - m :]))
            h = (h * pow(_FNV_PRIME, m, 1 << 64) + high) & _U64
    return h


@dataclass(eq=False)
class PrimeTable:
    """Primality bitmap on {1..n}.

    ``is_prime`` has length n+1 and is indexed directly by the integer
    (index 0 is unused and False).  The table identifies Z/nZ with
    {1,...,n}; ``ring_indicator`` lays the prime indicator out by residue,
    i.e. slot j holds the value at x = j for 1 <= j < n and slot 0 holds
    the value at x = n.
    """

    n: int
    is_prime: np.ndarray
    _primes: np.ndarray | None = field(default=None, repr=False)
    _checksum: int | None = field(default=None, repr=False)
    _spectrum: np.ndarray | None = field(default=None, repr=False)
    _columns: ColumnBlocks | None = field(default=None, repr=False)

    def pi(self, x: int) -> int:
        """Number of primes <= x."""
        if not 0 <= x <= self.n:
            raise UsageError(f"pi(x) requires 0 <= x <= {self.n}, got {x}")
        return int(np.count_nonzero(self.is_prime[: x + 1]))

    def primes(self) -> np.ndarray:
        """All primes <= n as an int64 array (computed once, then cached)."""
        if self._primes is None:
            # flatnonzero gives intp, int64 on 64-bit platforms: no copy there
            self._primes = np.flatnonzero(self.is_prime).astype(np.int64, copy=False)
        return self._primes

    def ring_indicator(self) -> np.ndarray:
        """Prime indicator on Z/nZ in residue layout (slot 0 = value at n),
        as float64."""
        return as_ring(self.is_prime)

    def spectrum(self) -> np.ndarray:
        """Half spectrum F(P)(xi), 0 <= xi <= n//2, of the ring indicator:
        one rfft, computed once, then cached.  F(n - xi) = conj F(xi).  Its
        ring is the only one that the length-n checks lay out."""
        if self._spectrum is None:
            self._spectrum = forward_real(self.ring_indicator())
        return self._spectrum

    def columns(self, Q: int) -> ColumnBlocks:
        """The residue columns mod Q of the bitmap that hold a prime, with
        their length-n/Q spectra, as a ColumnBlocks, which keeps the
        spectra of its block when every class fits one (COLUMN_BLOCK_BYTES,
        64 MiB).  The table keeps the columns of the last Q until a
        decomposition at that Q has read them (``release_columns``), so a
        subgroup check and then a decomposition at one Q transform them
        once; another Q replaces them."""
        if self._columns is None or self._columns.Q != Q:
            self._columns = ColumnBlocks(self.is_prime, Q)
        return self._columns

    def release_columns(self) -> None:
        """Drop the kept residue columns and their spectra, as
        ``spectral.decomposition_checks`` does once its kernel has read
        them; the next ``columns`` call gathers and transforms them
        again."""
        self._columns = None

    def bitmap_payload(self) -> bytes:
        """Packed bits of is_prime[1..n], MSB-first within each byte."""
        return np.packbits(self.is_prime[1 : self.n + 1]).tobytes()

    def checksum(self) -> int:
        """FNV-1a checksum over the packed bitmap payload."""
        if self._checksum is None:
            self._checksum = fnv1a64(self.bitmap_payload())
        return self._checksum


def build_table(n: int) -> PrimeTable:
    """Sieve primality on {1..n} with a segmented Eratosthenes pass over
    odd slots (slot i stands for 2i + 1).

    A segment of SEGMENT_LENGTH slots covers entries [2 lo, 2 hi) of the
    bitmap.  It is sieved contiguously in the first half of that stretch:
    pre-filled from the wheel row, which has struck the multiples of 3, 5,
    7, 11 and 13, then struck by the base primes 17 <= p <= sqrt(n) from
    p^2 on, the primes of ``build_table(isqrt(n))`` (none below 17^2,
    where the wheel has struck every composite).  ``_spread_odd`` then
    moves slot j to entry 2j + 1 and clears the even entries.  Afterwards
    1 is cleared and 2 and the wheel primes are set back to prime.
    Nothing beyond the n+1 byte bitmap and the base primes is allocated.

    Rejects n outside [2, 1e9] before allocating: the extent cap is the
    memory bound, about 1 GB of bitmap at 1e9.
    """
    if n < 2:
        raise UsageError(f"build_table requires n >= 2, got {n}")
    if n > MAX_TABLE_EXTENT:
        raise ResourceLimitError(f"table extent capped at 1e9, got {n}")
    is_prime = np.zeros(n + 1, dtype=bool)
    slots = (n + 1) // 2  # odd integers 1, 3, ..., up to n
    root = math.isqrt(n)
    base = np.empty(0, dtype=np.int64)
    if root >= _FIRST_BASE_PRIME:
        base = build_table(root).primes()
        base = base[base >= _FIRST_BASE_PRIME]
    first = (base * base - 1) // 2  # slot of p^2, ascending in p
    residue = (base - 1) // 2  # slots of odd multiples of p are = residue (mod p)
    for lo in range(0, slots, SEGMENT_LENGTH):
        hi = min(lo + SEGMENT_LENGTH, slots)
        stretch = is_prime[2 * lo : 2 * hi]
        segment = stretch[: hi - lo]
        _fill_wheel(segment, lo)
        live = int(np.searchsorted(first, hi))  # primes with p^2 before hi
        starts = np.maximum(first[:live], lo + (residue[:live] - lo) % base[:live]) - lo
        for p, start in zip(base[:live].tolist(), starts.tolist()):
            segment[start::p] = False
        _spread_odd(stretch, hi - lo)
    is_prime[1] = False  # slot 0 is prime to the wheel
    for p in (2, *_WHEEL_PRIMES):
        if p <= n:
            is_prime[p] = True
    return PrimeTable(n=n, is_prime=is_prime)


def _spread_odd(stretch: np.ndarray, length: int) -> None:
    """Move entry j < length of ``stretch`` to entry 2j + 1, in place, and
    clear the even entries below ``length``.

    Chunks [top // 2, top) go from the top down: a chunk's first target,
    2 (top // 2) + 1 >= top, lies past its own sources and above every
    source still to be read, so numpy sees disjoint views and copies no
    buffer.
    """
    odd = stretch[1::2]
    top = length
    while top > 0:
        bottom = top // 2
        odd[bottom:top] = stretch[bottom:top]
        top = bottom
    stretch[:length:2] = False


def _fill_wheel(segment: np.ndarray, lo: int) -> None:
    """Fill ``segment``, which holds odd slots lo, lo+1, ..., with the wheel
    row: True where 2i + 1 is prime to 3*5*7*11*13.  The first period is
    struck in place, then the filled prefix is doubled until the segment
    is full."""
    filled = min(_WHEEL_PERIOD, segment.size)
    segment[:filled] = True
    for p in _WHEEL_PRIMES:
        segment[((p - 1) // 2 - lo) % p : filled : p] = False
    while filled < segment.size:
        step = min(filled, segment.size - filled)
        segment[filled : filled + step] = segment[:step]
        filled += step


def pi_progression(table: PrimeTable, q: int, a: int) -> int:
    """Count of primes m <= n with m = a (mod q)."""
    if not 0 <= a < q:
        raise UsageError(f"residue must satisfy 0 <= a < q, got a={a}, q={q}")
    if q > table.n:
        raise UsageError(f"modulus {q} exceeds table extent {table.n}")
    start = a if a >= 1 else q
    return int(np.count_nonzero(table.is_prime[start :: q]))


def residue_profile(table: PrimeTable, Q: int, xi: int | None = None) -> np.ndarray:
    """All per-residue counts mod Q in one pass over the sieved primes.

    Entry a is the plain count pi(n, Q, a) as a float when ``xi`` is None,
    or the complex twisted sum of exp(-2*pi*i*x*xi/n) over primes
    x = a (mod Q) when ``xi`` is a frequency in [0, n); the twisted sums
    require Q | n so that frequencies factor cleanly over residues.
    """
    if Q < 1 or Q > table.n:
        raise UsageError(f"need 1 <= Q <= n, got Q={Q}, n={table.n}")
    primes = table.primes()
    classes = primes % Q
    if xi is None:
        return np.bincount(classes, minlength=Q).astype(np.float64)
    require_divisor(table.n, Q, "twisted profiles")
    if not 0 <= xi < table.n:
        raise UsageError(f"frequency must satisfy 0 <= xi < n, got {xi}")
    phases = unit_phase(table.n, primes * xi)
    return np.bincount(classes, weights=phases.real, minlength=Q) + 1j * np.bincount(
        classes, weights=phases.imag, minlength=Q
    )


def twisted_progression_count(table: PrimeTable, xi: int, Q: int, a: int) -> complex:
    """Twisted progression sum: primes x <= n with x = a (mod Q), each
    weighted by exp(-2*pi*i*x*xi/n).  Requires Q | n."""
    require_divisor(table.n, Q, "twisted counts")
    if not 0 <= a < Q:
        raise UsageError(f"residue must satisfy 0 <= a < Q, got {a}")
    if not 0 <= xi < table.n:
        raise UsageError(f"frequency must satisfy 0 <= xi < n, got {xi}")
    primes = table.primes()
    sel = primes[primes % Q == a]
    if sel.size == 0:
        return 0j
    return complex(unit_phase(table.n, sel * xi).sum())


def pair_count_linear(table: PrimeTable, two_k: int) -> int:
    """Count primes p <= n with p + 2k prime, with genuine primality for
    p + 2k > n (no wraparound): the boundary entries are tested directly."""
    n = table.n
    if not 0 <= two_k <= n or two_k % 2:
        raise UsageError(f"need even 0 <= 2k <= n, got 2k={two_k}, n={n}")
    ip = table.is_prime
    core = _and_count(ip, 1, 1 + two_k, n - two_k)
    boundary = sum(
        1 for p in range(n - two_k + 1, n + 1) if ip[p] and is_prime_u64(p + two_k)
    )
    return core + boundary


def pair_count_circular(table: PrimeTable, two_k: int) -> int:
    """Circular pair count on Z/nZ = {1..n}: primes x with the shifted
    point ((x + 2k - 1) mod n) + 1 also prime.  Two slice ANDs of the
    bitmap, x <= n - 2k and the wrapped tail x > n - 2k, counted blockwise
    with no copy of the ring."""
    n = table.n
    if not 0 <= two_k < n or two_k % 2:
        raise UsageError(f"need even 0 <= 2k < n, got 2k={two_k}, n={n}")
    ip = table.is_prime
    return _and_count(ip, 1, 1 + two_k, n - two_k) + _and_count(ip, n - two_k + 1, 1, two_k)


def _and_count(ip: np.ndarray, a: int, b: int, length: int) -> int:
    """Number of j < length with ip[a + j] and ip[b + j] both set, ANDed
    _COUNT_BLOCK entries at a time into one reused buffer."""
    buffer = np.empty(min(length, _COUNT_BLOCK), dtype=bool)
    total = 0
    for lo in range(0, length, _COUNT_BLOCK):
        hi = min(lo + _COUNT_BLOCK, length)
        block = buffer[: hi - lo]
        np.logical_and(ip[a + lo : a + hi], ip[b + lo : b + hi], out=block)
        total += int(np.count_nonzero(block))
    return total


def von_mangoldt_vector(table: PrimeTable) -> np.ndarray:
    """Von Mangoldt weights Lambda(x) for 1 <= x <= n, n the table's
    extent, natural log, as a float64 array of length n+1 (index 0
    unused), from the table's primes."""
    n = table.n
    if n > 10**8:
        raise ResourceLimitError(f"von Mangoldt vector capped at n <= 1e8, got {n}")
    lam = np.zeros(n + 1)
    primes = table.primes()
    lam[primes] = np.log(primes.astype(np.float64))
    for p in primes[primes <= math.isqrt(n)]:
        p = int(p)
        q = p * p
        lp = math.log(p)
        while q <= n:
            lam[q] = lp
            q *= p
    return lam


def save_table(table: PrimeTable, path: str | Path) -> Path:
    """Write the binary cache: magic, n (8-byte LE), packed bitmap payload,
    then an 8-byte LE FNV-1a checksum of the payload.  The digest stays
    cached on the table, so its checksum() needs no second hash.

    The bytes go to a uniquely named file in the same directory, which
    ``os.replace`` then renames onto ``path``: a process that crashes
    mid-write, or a concurrent writer, never leaves a truncated cache
    there (a process killed outright may leave the temporary file behind).
    Nothing is fsynced, so this does not guard against power loss.
    """
    path = Path(path)
    payload = table.bitmap_payload()
    if table._checksum is None:
        table._checksum = fnv1a64(payload)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(CACHE_MAGIC)
            fh.write(table.n.to_bytes(8, "little"))
            fh.write(payload)
            fh.write(table._checksum.to_bytes(8, "little"))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def load_table(path: str | Path, n: int | None = None) -> PrimeTable:
    """Read a binary cache written by save_table, verifying structure and
    checksum; raises CacheError on any mismatch.  The verified digest is
    the loaded table's checksum().

    The checksum covers the payload only, not the header's extent, so a
    caller that expects extent ``n`` passes it: a header naming another
    extent is rejected before the payload is hashed."""
    path = Path(path)
    if not path.exists():
        raise CacheError(f"no cache file at {path}")
    blob = path.read_bytes()
    header = len(CACHE_MAGIC) + 8
    if len(blob) < header + 8 or blob[: len(CACHE_MAGIC)] != CACHE_MAGIC:
        raise CacheError(f"{path} is not a prime-table cache (bad magic or truncated)")
    extent = int.from_bytes(blob[len(CACHE_MAGIC) : header], "little")
    if n is not None and extent != n:
        raise CacheError(f"{path}: extent mismatch, header holds n={extent}, expected n={n}")
    n = extent
    end = header + (n + 7) // 8
    if len(blob) != end + 8:
        raise CacheError(f"{path}: payload length mismatch for extent {n}")
    digest = int.from_bytes(blob[end:], "little")
    if fnv1a64(memoryview(blob)[header:end]) != digest:
        raise CacheError(f"{path}: checksum mismatch, cache is corrupt")
    # unpack the payload with the header's last byte in front, straight
    # into the table: that byte's lowest bit lands at index 0 (cleared
    # below), entry x of the bitmap at index x, and its 7 other bits stay
    # in front of the view
    framed = np.frombuffer(blob, dtype=np.uint8, count=end - header + 1, offset=header - 1)
    bits = np.unpackbits(framed, count=n + 8)
    is_prime = bits[7 : n + 8].view(bool)
    is_prime[0] = False
    return PrimeTable(n=n, is_prime=is_prime, _checksum=digest)


def cache_path(cache_dir: str | Path, n: int) -> Path:
    return Path(cache_dir) / f"primetable_{n}.pspc"


def load_or_build(n: int, cache_dir: str | Path | None = None) -> PrimeTable:
    """Fetch a table from the cache directory when a valid file exists,
    otherwise build it (and write the cache when a directory is given).
    Corrupt caches, including a file whose header names another extent,
    are logged as a warning and rebuilt; ``save_table`` replaces the file
    atomically, even one that a concurrent rebuilder has removed."""
    if cache_dir is None:
        return build_table(n)
    path = cache_path(cache_dir, n)
    if path.exists():
        try:
            return load_table(path, n)
        except CacheError as exc:
            logger.warning("rebuilding corrupt prime-table cache %s: %s", path, exc)
    table = build_table(n)
    save_table(table, path)
    return table
