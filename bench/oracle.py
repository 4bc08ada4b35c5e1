"""Independent answers the benchmark checks the program's outputs against.

Nothing here imports primepairs.  The sieve is a plain odd-only numpy
Eratosthenes, the FNV-1a hash is written out from its definition, and the
cache layout (magic, 8-byte little-endian extent, MSB-first packed bitmap
of 1..n, 8-byte digest) is restated from the README's file format.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

MAX_SHIFT = 210
CACHE_HEADER = 5 + 8  # magic + extent
CACHE_MAGIC = b"PSPC1"

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def sieve(limit: int) -> np.ndarray:
    """Boolean primality of 0..limit."""
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    is_prime[4::2] = False
    for p in range(3, math.isqrt(limit) + 1, 2):
        if is_prime[p]:
            is_prime[p * p :: 2 * p] = False
    return is_prime


def fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def primorial_below(z: int) -> int:
    """Product of the primes below z, by trial division."""
    return math.prod(p for p in range(2, z) if all(p % d for d in range(2, math.isqrt(p) + 1)))


@dataclass
class Extent:
    """Everything the checks need about one extent n."""

    n: int
    linear: dict[int, int] = field(default_factory=dict)
    circular: dict[int, int] = field(default_factory=dict)
    packed: bytes = b""
    checksum: int | None = None


def extents(
    sizes: list[int], shifts: list[int], circular: tuple[int, ...] = (), checksums: tuple[int, ...] = ()
) -> dict[int, Extent]:
    """Linear pair counts and the packed bitmap for each size.

    One sieve runs up to max(sizes) + MAX_SHIFT, so linear counts see the
    true primality of p + 2k beyond n.  Circular counts (a length-n roll
    per shift) and FNV checksums (a pure Python pass over the bitmap) are
    computed only for the sizes named in ``circular`` and ``checksums``.
    """
    top = sieve(max(sizes) + MAX_SHIFT)
    out = {}
    for n in sizes:
        ext = Extent(n)
        ring = top[1 : n + 1]  # index x - 1 holds x
        for two_k in shifts:
            ext.linear[two_k] = int(np.count_nonzero(ring & top[1 + two_k : n + 1 + two_k]))
            if n in circular:
                ext.circular[two_k] = int(np.count_nonzero(ring & np.roll(ring, -two_k)))
        ext.packed = np.packbits(ring).tobytes()
        if n in checksums:
            ext.checksum = fnv1a64(ext.packed)
        out[n] = ext
    return out


def truncated_cache_file(n: int) -> bytes:
    """A cache file for extent n cut off halfway through its payload, as an
    interrupted write leaves it."""
    payload = np.packbits(sieve(n)[1:]).tobytes()
    return CACHE_MAGIC + n.to_bytes(8, "little") + payload[: len(payload) // 2]
