"""Independent oracles the library is checked against.

Everything here is deliberately written without touching the library's
fast paths: direct O(n^2) transforms, trial-division primality, pure
enumeration loops, and arbitrary-precision products via mpmath.  Values
frozen below were produced by these functions at full size; the slower
oracles are re-run at reduced size inside the tests.
"""

from __future__ import annotations

import cmath
import math
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np

# --- frozen oracle outputs -------------------------------------------------

# twin_constant_highprec(10**7, dps=30); truncated product over primes < 1e7
C2_TRUNCATED_1E7 = 1.3203236394309110

# li2_highprec(10**6) via mpmath.quad at dps=25
LI2_1E6 = 6246.97573522187

# linear pair counts at n = 1e6, enumerated with an independent numpy sieve
PAIR_COUNTS_1E6 = {2: 8169, 4: 8144, 6: 16386, 12: 16378}

# twin count at n = 1e7, cross-checked against the published table value
PAIR_COUNT_TWIN_1E7 = 58980

# prime counts, cross-checked against the enumeration oracle below for
# small x and against a deterministic Miller-Rabin sample for large x
PI_VALUES = {10: 4, 100: 25, 1000: 168, 10**4: 1229, 10**5: 9592, 10**6: 78498}


# --- primality / factor oracles --------------------------------------------

def is_prime_naive(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


def phi_naive(m: int) -> int:
    return sum(1 for a in range(1, m + 1) if math.gcd(a, m) == 1)


def mobius_naive(m: int) -> int:
    if m == 1:
        return 1
    count = 0
    for p in range(2, m + 1):
        if m % p == 0:
            if m % (p * p) == 0:
                return 0
            count += 1
            while m % p == 0:
                m //= p
    return (-1) ** count


def coprime_pairs_loop(Q: int, two_k: int) -> int:
    return sum(
        1
        for a in range(Q)
        if math.gcd(a, Q) == 1 and math.gcd(a + two_k, Q) == 1
    )


def ramanujan_naive(q: int, r: int) -> complex:
    if q == 1:
        return complex(1.0)
    total = 0j
    for b in range(1, q + 1):
        if math.gcd(b, q) == 1:
            total += cmath.exp(-2j * cmath.pi * b * r / q)
    return total


# --- prime-pair enumeration oracles ----------------------------------------

def primes_upto_naive(n: int) -> list[int]:
    return [m for m in range(2, n + 1) if is_prime_naive(m)]


def von_mangoldt_naive(n: int) -> list[float]:
    """Lambda(x) for 0 <= x <= n (entry 0 unused and zero): log p when x
    is a power of the prime p, its least trial divisor, else 0."""
    lam = [0.0] * (n + 1)
    for x in range(2, n + 1):
        p = next((d for d in range(2, math.isqrt(x) + 1) if x % d == 0), x)
        m = x
        while m % p == 0:
            m //= p
        if m == 1:
            lam[x] = math.log(p)
    return lam


def pair_count_linear_naive(n: int, two_k: int) -> int:
    return sum(1 for p in primes_upto_naive(n) if is_prime_naive(p + two_k))


def pair_count_circular_naive(n: int, two_k: int) -> int:
    count = 0
    for x in range(1, n + 1):
        y = (x + two_k - 1) % n + 1
        if is_prime_naive(x) and is_prime_naive(y):
            count += 1
    return count


def sieve_numpy_independent(n: int) -> np.ndarray:
    """Plain (unsegmented) bool sieve used to cross-check the library's
    segmented builder; index i holds primality of i."""
    mask = np.zeros(n + 1, dtype=bool)
    mask[2:] = True
    for p in range(2, math.isqrt(n) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return mask


# --- checksums ----------------------------------------------------------------

def fnv1a64_reference(data: bytes) -> int:
    """64-bit FNV-1a from its definition, one byte at a time."""
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & ((1 << 64) - 1)
    return h


# --- transforms -------------------------------------------------------------

def dft_direct(values: np.ndarray) -> np.ndarray:
    """O(n^2) evaluation of sum_x f(x) exp(-2*pi*i*xi*x/n) in residue
    layout, with exactly reduced integer angles."""
    v = np.asarray(values, dtype=np.complex128)
    n = v.shape[0]
    idx = np.arange(n, dtype=np.int64)
    kernel = np.exp((-2j * np.pi / n) * ((idx[:, None] * idx[None, :]) % n))
    return kernel @ v


def dft_direct_longdouble(values: np.ndarray) -> np.ndarray:
    """O(m^2) evaluation of sum_x f(x) exp(-2*pi*i*xi*x/m) for each row of
    a real or complex (rows, m) array in long double: pi is formed as
    4 atan(1) and every phase from its exactly reduced integer angle in
    ``np.longdouble``, so where long double is wider than float64 (x87's
    80-bit format, eps 1.08e-19) the reference's own rounding lies far
    below that of a float64 transform.  Phases formed in float64 would
    not: the reference is only as good as its phases."""
    rows = np.asarray(values).astype(np.clongdouble)
    m = rows.shape[-1]
    idx = np.arange(m, dtype=np.int64)
    pi = 4 * np.arctan(np.longdouble(1))
    angle = (-2 * pi / m) * ((idx[:, None] * idx[None, :]) % m).astype(np.longdouble)
    kernel = np.empty((m, m), dtype=np.clongdouble)
    kernel.real = np.cos(angle)
    kernel.imag = np.sin(angle)
    return rows @ kernel


def plancherel_residual_full_route(f: np.ndarray) -> float:
    """Relative defect of (1/n) sum |F(xi)|^2 = sum |f(x)|^2 from one
    full-length complex transform of a real or complex f, every bin summed
    as it is: the route that the library's folded half spectrum
    (``spectral.plancherel_check``) is checked against.  Zero input
    returns 0 exactly."""
    f = np.asarray(f)
    energy = float(np.sum(np.abs(f) ** 2))
    spectral = float(np.sum(np.abs(np.fft.fft(f)) ** 2)) / f.shape[0]
    gap = abs(spectral - energy)
    return gap / energy if energy > 0 else gap


def round_trip_residual_ring(ring: np.ndarray, half: np.ndarray) -> float:
    """max_x |inverse(F)(x) - f(x)| for a float ring f and its half
    spectrum F, the ring laid out as its own float vector: the formula
    that ``spectral.round_trip_check``, which reads the bitmap instead,
    must equal bit for bit."""
    return float(np.abs(np.fft.irfft(half, ring.shape[0]) - ring).max())


def plancherel_residual_ring(ring: np.ndarray, half: np.ndarray) -> float:
    """Relative defect of (1/n) sum |F(xi)|^2 = sum f(x)^2 for a float
    ring f and its half spectrum F: the energy summed off the ring, the
    power folded as twice the half's sum less bin 0 and, for even n, the
    Nyquist bin.  The formula that ``spectral.plancherel_check``, which
    reads pi(n) instead, must equal bit for bit."""
    n = ring.shape[0]
    energy = float(np.sum(np.abs(ring) ** 2))
    power = np.abs(half) ** 2
    folded = 2.0 * float(power.sum()) - power[0]
    if n % 2 == 0:
        folded -= power[-1]
    gap = abs(float(folded) / n - energy)
    return gap / energy if energy > 0 else gap


def pair_correlation_via_spectrum(ring: np.ndarray, two_k: int) -> complex:
    """(1/n) * sum_xi |F(ring)(xi)|^2 * exp(-2*pi*i*2k*xi/n) for a real
    weight vector in residue layout, from one full-length complex
    transform and exactly reduced integer angles: the Wiener-Khinchin
    side of the correlation identities, against which the library's
    residue-column kernel is checked."""
    ring = np.asarray(ring, dtype=np.float64)
    n = ring.shape[0]
    power = np.abs(np.fft.fft(ring)) ** 2
    xi = np.arange(n, dtype=np.int64)
    return complex(np.dot(power, np.exp((-2j * np.pi / n) * ((two_k * xi) % n))) / n)


def error_spectrum_full_route(ring: np.ndarray, Q: int, two_k: int) -> np.ndarray:
    """T(xi) = sum_r |F(ring)(xi + r*n/Q)|^2 * exp(-2*pi*i*2k*r/Q) for
    0 <= xi < n/Q, regrouped over the cosets of the index-Q subgroup from
    the power of one full-length transform, with exactly reduced integer
    angles: the length-n coset regroup that the library's residue-column
    error spectrum is checked against.  The power is mirrored from one
    rfft by |F(n - xi)| = |F(xi)| to halve the memory at n near 1e7."""
    ring = np.asarray(ring, dtype=np.float64)
    n = ring.shape[0]
    half = np.abs(np.fft.rfft(ring)) ** 2
    power = np.concatenate((half, half[(n - 1) // 2 : 0 : -1]))
    r = np.arange(Q, dtype=np.int64)
    weights = np.exp((-2j * np.pi / Q) * ((two_k * r) % Q))
    return weights @ power.reshape(Q, n // Q)


def subgroup_samples_full_route(ring: np.ndarray, Q: int) -> np.ndarray:
    """F(ring)(r*n/Q) for 0 <= r < Q, sampled from one full-length rfft,
    the upper half mirrored by F(n - xi) = conj F(xi): the length-n route
    that the library's residue-column subgroup samples are checked
    against."""
    ring = np.asarray(ring, dtype=np.float64)
    n = ring.shape[0]
    half = np.fft.rfft(ring)
    xi = np.arange(Q, dtype=np.int64) * (n // Q)
    upper = xi > n // 2
    values = half[np.where(upper, n - xi, xi)]
    return np.where(upper, np.conj(values), values)


def half_spectrum_residual_one_pass(half: np.ndarray, n: int) -> float:
    """max over 0 <= xi < n/2 of |F(xi + n/2) + F(xi) - 2 e_n(-2 xi)| for
    even n, from the half spectrum ``half`` (F(n - m) = conj F(m) above
    n/2), in one pass over all n/2 frequencies, each term formed as the
    library forms it (e_n(-k) = exp((-2 pi i / n) * (k mod n))): the
    one-pass formula that the library's blocked parity residual is
    checked against, bit for bit."""
    h = n // 2
    upper = np.conj(half[n - np.arange(h, n, dtype=np.int64)])
    upper[0] = half[h]  # F(n/2) itself, not its mirror
    expected = 2.0 * np.exp((-2j * np.pi / n) * ((2 * np.arange(h, dtype=np.int64)) % n))
    return float(np.abs(upper + half[:h] - expected).max())


def class_energy_masked(ring: np.ndarray, Q: int, a: int) -> float:
    """Mean power (1/n) sum |F(xi)|^2 of the ring masked to the class
    x = a (mod Q), slot j holding x = j (slot 0 holding x = n = 0 mod Q),
    through one full-length complex transform of the masked copy."""
    ring = np.asarray(ring, dtype=np.float64)
    n = ring.shape[0]
    masked = np.where(np.arange(n, dtype=np.int64) % Q == a, ring, 0.0)
    return float(np.sum(np.abs(np.fft.fft(masked)) ** 2)) / n


# --- report text -------------------------------------------------------------

def render_csv(meta: dict, columns: list[str], rows, stamp: bool = False) -> str:
    """The whole text that ``reports.write_csv`` writes for these
    arguments, read back as bytes from a temporary file, so that a CR or
    any other byte it writes shows.  The one helper here that runs the
    library: the rendering tests compare its text with cell-by-cell text."""
    from primepairs.reports import write_csv

    with tempfile.TemporaryDirectory() as tmp:
        path = write_csv(Path(tmp) / "report.csv", meta, columns, rows, stamp=stamp)
        return path.read_bytes().decode("ascii")


def csv_body(text: str) -> str:
    """The body of a CSV report: every line that is not a '#' comment."""
    return "\n".join(line for line in text.splitlines() if not line.startswith("#")) + "\n"


# --- high-precision constants ----------------------------------------------

def twin_constant_highprec(cutoff: int, dps: int = 30):
    """2 * prod_{2 < p < cutoff} p(p-2)/(p-1)^2 via exact rational chunks
    promoted to mpmath floats; the reference for hl_constant(2, cutoff)."""
    import mpmath as mp

    mask = sieve_numpy_independent(cutoff - 1)
    odd_primes = np.flatnonzero(mask)[1:]
    with mp.workdps(dps):
        acc = mp.mpf(2)
        for chunk in np.array_split(odd_primes, max(1, len(odd_primes) // 4000)):
            num = 1
            den = 1
            for p in chunk.tolist():
                num *= p * (p - 2)
                den *= (p - 1) * (p - 1)
            acc *= mp.mpf(num) / mp.mpf(den)
        return float(acc)


def li2_highprec(n: int) -> float:
    import mpmath as mp

    with mp.workdps(25):
        points = [2] + [10**e for e in range(2, 20) if 10**e < n] + [n]
        return float(mp.quad(lambda t: 1 / mp.log(t) ** 2, points))


def singular_series_loop(Q: int, two_k: int) -> Fraction:
    """Divisor-sum singular series by literal divisor enumeration of Q,
    with each Ramanujan value taken from the rounded naive sum."""
    total = Fraction(0)
    for d in range(1, Q + 1):
        if Q % d:
            continue
        if mobius_naive(d) == 0:
            continue
        c_d = ramanujan_naive(d, two_k)
        total += Fraction(round(c_d.real), phi_naive(d) ** 2)
    return total
