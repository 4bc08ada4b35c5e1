"""Segmented prime sieving and every prime-indicator-derived count.

A PrimeTable is an immutable bitmap of primality on {1..n}; on top of it
sit prime and progression counts, linear and circular pair counts,
twisted progression sums (``residue_profile`` returns a plain length-Q
array), and the von Mangoldt weight vector.  The Z/nZ conventions these
use are the ones ``transform`` defines: the ring layout (``as_ring``),
the phase e_n(-k) (``unit_phase``), the Q | n check (``require_divisor``)
and the transform (``forward_real``, the table's half spectrum).  Linear
and circular pair counts AND slices of the bitmap and copy no ring.
Construction is a single blocking call; all queries afterwards are
read-only and safe to use from concurrent callers.  A table fills a few derived arrays on first use (its primes,
checksum, half spectrum and circular pair correlation); concurrent first
calls each compute the same array and either result may be kept.

Memory model: the bitmap is the whole table, 1 byte per entry, so a
table of extent n needs about n+1 bytes (about 1 GB at the 1e9 cap) plus
transient sieving buffers.  It keeps no prefix counts: pi(x) counts the
bitmap, about 10 ms at 1e8, and callers ask for it a handful of times per
extent.  Builds that would exceed the configured byte budget are rejected
up front.  The cached spectrum and correlation, when asked for, cost 8
more bytes per entry each.
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
from .transform import as_ring, autocorrelation, forward_real, require_divisor, unit_phase

logger = logging.getLogger(__name__)

MAX_TABLE_EXTENT = 10**9
DEFAULT_MEMORY_BUDGET = 6 * 2**30  # bytes
SEGMENT_LENGTH = 1 << 20

CACHE_MAGIC = b"PSPC1"

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_FNV_PRIME_LOW = np.uint8(_FNV_PRIME & 0xFF)
_U64 = (1 << 64) - 1
FNV_BLOCK = 1 << 16


@lru_cache(maxsize=1)
def _fnv_powers() -> np.ndarray:
    """Entry j is P^(FNV_BLOCK - j) mod 2^64 (uint64 products wrap)."""
    ascending = np.multiply.accumulate(np.full(FNV_BLOCK, _FNV_PRIME, dtype=np.uint64))
    powers = ascending[::-1].copy()
    powers.setflags(write=False)
    return powers


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash of a byte string: h <- ((h XOR b) * P) mod 2^64
    per byte b, computed exactly in numpy blocks of FNV_BLOCK bytes.

    XOR with a byte changes only the low byte s = h mod 256 of h, so
    h XOR b = h + d with d = (s XOR b) - s, and over a block of C bytes
    h_end = h * P^C + sum_i d_i * P^(C - i) mod 2^64.  The low bytes run
    alone, s' = ((s XOR b) * 0xB3) mod 256.  As P is odd, bit k of s' is
    bit k of s XOR bit k of (((s mod 2^k) XOR b) * 0xB3), so bit k of every
    s in the block is a prefix XOR once bits 0..k-1 are known.
    """
    payload = np.frombuffer(data, dtype=np.uint8)
    h = _FNV_OFFSET
    for lo in range(0, payload.size, FNV_BLOCK):
        b = payload[lo : lo + FNV_BLOCK]
        s = np.zeros(b.size, dtype=np.uint8)  # low byte of h before each byte
        flips = np.empty(b.size, dtype=bool)
        for k in range(8):
            bit = np.uint8(1 << k)
            flips[0] = h & (1 << k)
            np.not_equal((s[:-1] ^ b[:-1]) * _FNV_PRIME_LOW & bit, np.uint8(0), out=flips[1:])
            np.logical_xor.accumulate(flips, out=flips)
            s |= flips.view(np.uint8) * bit
        d = ((s ^ b).astype(np.int64) - s).view(np.uint64)
        high = int((d * _fnv_powers()[FNV_BLOCK - b.size :]).sum(dtype=np.uint64))
        h = (h * pow(_FNV_PRIME, b.size, 1 << 64) + high) & _U64
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
    _correlation: np.ndarray | None = field(default=None, repr=False)

    def pi(self, x: int) -> int:
        """Number of primes <= x."""
        if not 0 <= x <= self.n:
            raise UsageError(f"pi(x) requires 0 <= x <= {self.n}, got {x}")
        return int(np.count_nonzero(self.is_prime[: x + 1]))

    def primes(self) -> np.ndarray:
        """All primes <= n as an int64 array (computed once, then cached)."""
        if self._primes is None:
            self._primes = np.flatnonzero(self.is_prime).astype(np.int64)
        return self._primes

    def ring_indicator(self) -> np.ndarray:
        """Prime indicator on Z/nZ in residue layout (slot 0 = value at n),
        as float64."""
        return as_ring(self.is_prime)

    def spectrum(self) -> np.ndarray:
        """Half spectrum F(P)(xi), 0 <= xi <= n//2, of the ring indicator:
        one rfft, computed once, then cached.  F(n - xi) = conj F(xi)."""
        if self._spectrum is None:
            self._spectrum = forward_real(self.ring_indicator())
        return self._spectrum

    def correlation(self) -> np.ndarray:
        """Circular pair correlation for every shift m at once: entry m is
        (1/n) sum_xi |F(P)(xi)|^2 e_n(-m xi), the number of primes x with
        x + m mod n also prime, as floats carrying transform rounding.
        One irfft of the cached power (Wiener-Khinchin), computed once,
        then cached."""
        if self._correlation is None:
            self._correlation = autocorrelation(self.spectrum(), self.n)
        return self._correlation

    def bitmap_payload(self) -> bytes:
        """Packed bits of is_prime[1..n], MSB-first within each byte."""
        return np.packbits(self.is_prime[1 : self.n + 1]).tobytes()

    def checksum(self) -> int:
        """FNV-1a checksum over the packed bitmap payload."""
        if self._checksum is None:
            self._checksum = fnv1a64(self.bitmap_payload())
        return self._checksum


def build_table(n: int, memory_budget: int = DEFAULT_MEMORY_BUDGET) -> PrimeTable:
    """Sieve primality on {1..n} with a segmented Eratosthenes pass.

    Rejects n outside [2, 1e9] and builds whose bitmap would exceed
    ``memory_budget`` bytes.
    """
    if n < 2:
        raise UsageError(f"build_table requires n >= 2, got {n}")
    if n > MAX_TABLE_EXTENT:
        raise ResourceLimitError(f"table extent capped at 1e9, got {n}")
    needed = (n + 1) + 2 * SEGMENT_LENGTH
    if needed > memory_budget:
        raise ResourceLimitError(
            f"building a table of extent {n} needs about {needed} bytes, "
            f"over the budget of {memory_budget}"
        )
    is_prime = np.zeros(n + 1, dtype=bool)
    is_prime[2:] = True
    root = math.isqrt(n)
    base = _simple_sieve(root)
    for lo in range(0, n + 1, SEGMENT_LENGTH):
        hi = min(lo + SEGMENT_LENGTH, n + 1)
        for p in base:
            p = int(p)
            start = max(p * p, ((lo + p - 1) // p) * p)
            if start < hi:
                is_prime[start:hi:p] = False
    return PrimeTable(n=n, is_prime=is_prime)


def _simple_sieve(limit: int) -> np.ndarray:
    """All primes <= limit as an int64 array, by one unsegmented mask."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask).astype(np.int64)


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
    if two_k == 0:
        return table.pi(n)
    ip = table.is_prime
    core = int(np.count_nonzero(ip[1 : n - two_k + 1] & ip[1 + two_k : n + 1]))
    boundary = sum(
        1 for p in range(n - two_k + 1, n + 1) if ip[p] and is_prime_u64(p + two_k)
    )
    return core + boundary


def pair_count_circular(table: PrimeTable, two_k: int) -> int:
    """Circular pair count on Z/nZ = {1..n}: primes x with the shifted
    point ((x + 2k - 1) mod n) + 1 also prime.  Two slice ANDs of the
    bitmap, x <= n - 2k and the wrapped tail x > n - 2k, with no copy of
    the ring: about 1 byte per entry of transient memory."""
    n = table.n
    if not 0 <= two_k < n or two_k % 2:
        raise UsageError(f"need even 0 <= 2k < n, got 2k={two_k}, n={n}")
    ip = table.is_prime
    unwrapped = np.count_nonzero(ip[1 : n - two_k + 1] & ip[1 + two_k : n + 1])
    wrapped = np.count_nonzero(ip[n - two_k + 1 : n + 1] & ip[1 : two_k + 1])
    return int(unwrapped + wrapped)


def von_mangoldt_vector(n: int) -> np.ndarray:
    """Von Mangoldt weights Lambda(x) for 1 <= x <= n, natural log, as a
    float64 array of length n+1 (index 0 unused)."""
    if n < 1:
        raise UsageError(f"need n >= 1, got {n}")
    if n > 10**8:
        raise ResourceLimitError(f"von Mangoldt vector capped at n <= 1e8, got {n}")
    lam = np.zeros(n + 1)
    primes = _simple_sieve(n)
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


def load_table(path: str | Path) -> PrimeTable:
    """Read a binary cache written by save_table, verifying structure and
    checksum; raises CacheError on any mismatch.  The verified digest is
    the loaded table's checksum()."""
    path = Path(path)
    if not path.exists():
        raise CacheError(f"no cache file at {path}")
    blob = path.read_bytes()
    header = len(CACHE_MAGIC) + 8
    if len(blob) < header + 8 or blob[: len(CACHE_MAGIC)] != CACHE_MAGIC:
        raise CacheError(f"{path} is not a prime-table cache (bad magic or truncated)")
    n = int.from_bytes(blob[len(CACHE_MAGIC) : header], "little")
    end = header + (n + 7) // 8
    if len(blob) != end + 8:
        raise CacheError(f"{path}: payload length mismatch for extent {n}")
    # hash and unpack views of the blob: no copy of the payload
    payload = memoryview(blob)[header:end]
    digest = int.from_bytes(blob[end:], "little")
    if fnv1a64(payload) != digest:
        raise CacheError(f"{path}: checksum mismatch, cache is corrupt")
    is_prime = np.empty(n + 1, dtype=bool)
    is_prime[0] = False
    is_prime[1:] = np.unpackbits(np.frombuffer(payload, dtype=np.uint8), count=n).view(bool)
    return PrimeTable(n=n, is_prime=is_prime, _checksum=digest)


def cache_path(cache_dir: str | Path, n: int) -> Path:
    return Path(cache_dir) / f"primetable_{n}.pspc"


def load_or_build(n: int, cache_dir: str | Path | None = None) -> PrimeTable:
    """Fetch a table from the cache directory when a valid file exists,
    otherwise build it (and write the cache when a directory is given).
    Corrupt caches are logged as a warning and rebuilt in place."""
    if cache_dir is None:
        return build_table(n)
    path = cache_path(cache_dir, n)
    if path.exists():
        try:
            return load_table(path)
        except CacheError as exc:
            logger.warning("rebuilding corrupt prime-table cache %s: %s", path, exc)
            os.remove(path)
    table = build_table(n)
    save_table(table, path)
    return table
