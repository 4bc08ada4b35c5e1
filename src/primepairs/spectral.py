"""Spectral identities for prime-pair counts, run as executable checks.

The circular pair count on Z/nZ = {1..n} equals (1/n) * sum over xi of
|F(P)(xi)|^2 * exp(-2*pi*i*2k*xi/n) exactly, and when Q | n the spectrum
regroups over the cosets of the index-Q subgroup:

    T(xi) = sum_{r=0}^{Q-1} |F(P)(xi + r*n/Q)|^2 * exp(-2*pi*i*2k*r/Q)

with the pair count equal to (1/n) * sum_{0 <= xi < n/Q} e_n(-2k*xi) T(xi).
T(0)/n is the main term; the rest is the error spectrum this module
instruments.  Every identity here is exact in exact arithmetic; the
functions verify their stated floating-point residuals and raise
IdentityError (naming the identity) when a residual exceeds tolerance.

Every identity on a PrimeTable reads the table's one cached real spectrum
(``PrimeTable.spectrum``, an rfft of the ring indicator) instead of
transforming again: circular pair counts for all shifts come from one
irfft of its power (``PrimeTable.correlation``); ``decompose`` and
``error_spectrum_stats`` regroup its power mirrored to length n;
``half_spectrum_pair_value`` reads its power directly; and
``rho_identity_check`` and ``half_spectrum_residual`` take the samples
F(n - m) as conj F(m).  The length-Q transforms of residue profiles, the
independent side of those identities, are ``transform.forward`` and
``inverse`` calls like every other.  The phase weights e_n(-k), the Q | n
check and the 1e7 extent cap are the ones ``transform`` defines
(``unit_phase``, ``require_divisor``, ``check_extents``).

Conjugation note: for a complex twisted profile rho the subgroup inversion
produces sum_a rho(a) * conj(rho(a + 2k)); the conjugate on the shifted
factor is required for the two evaluation routes to agree and is what this
module implements (for the untwisted xi = 0 profile rho is real and the
distinction vanishes).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .constants import hl_constant, li2
from .errors import IdentityError, UsageError
from .factored import is_prime_u64, _as_factored
from .sieve import (
    PrimeTable,
    build_table,
    pair_count_circular,
    residue_profile,
    von_mangoldt_vector,
)
from .transform import (
    as_ring,
    autocorrelation,
    check_extents,
    forward,
    forward_real,
    inverse,
    mirror_power,
    require_divisor,
    spectrum_at,
    unit_phase,
)

logger = logging.getLogger(__name__)


@dataclass(eq=False)
class DecompositionReport:
    """Main-term / error-spectrum split of the circular pair count.

    ``error_spectrum`` holds T(xi) for 0 <= xi < n/Q (entry 0 is the main
    term times n).  ``predicted_main_log2`` and ``predicted_main_li2`` are
    the conjectural comparison values C_2k * n / log(n)^2 and C_2k * Li2(n);
    they are reported, never asserted.
    """

    n: int
    Q: int
    two_k: int
    main_term: float
    predicted_main_log2: float
    predicted_main_li2: float
    error_spectrum: np.ndarray
    reconstruction_residual: float
    pair_count_circular: int


@dataclass(eq=False)
class ErrorProbe:
    """Twisted residue profile at one frequency and its pair correlation."""

    xi: int
    per_residue: np.ndarray
    correlation: complex
    magnitude: float


def _table_for(n: int, table: PrimeTable | None) -> PrimeTable:
    if table is not None:
        if table.n != n:
            raise UsageError(f"supplied table has extent {table.n}, expected {n}")
        return table
    check_extents([n], "spectral extent", UsageError)
    return build_table(n)


def correlation_via_spectrum(ring: np.ndarray) -> np.ndarray:
    """(1/n) * sum_xi |F(ring)(xi)|^2 * exp(-2*pi*i*m*xi/n) for every shift
    m at once, for any real weight vector in residue layout: one rfft and
    one irfft (Wiener-Khinchin).  |F|^2 is even, so entry m also equals
    the sum with exp(+2*pi*i*m*xi/n)."""
    return autocorrelation(forward_real(ring), ring.shape[0])


def correlation_direct(ring: np.ndarray, two_k: int) -> float:
    """sum_x ring(x) * ring(x + 2k mod n): the direct side of the
    correlation identities."""
    return float(np.dot(ring, np.roll(ring, -(two_k % ring.shape[0]))))


def pair_correlation_via_spectrum(ring: np.ndarray, two_k: int) -> complex:
    """(1/n) * sum_xi |F(ring)(xi)|^2 * exp(-2*pi*i*2k*xi/n) for any real
    weight vector in residue layout; the spectral side of the identities."""
    return complex(correlation_via_spectrum(ring)[two_k % ring.shape[0]])


def pair_count_via_spectrum(
    n: int, two_k: int, table: PrimeTable | None = None, tol: float = 1e-6
) -> int:
    """Circular prime-pair count evaluated through the spectrum.

    Reads the table's cached correlation (one irfft for all shifts),
    asserts the value is integral to within tol * n, rounds, and checks
    exact agreement with the sieve's circular count before returning it.
    """
    if not 2 <= two_k < n:
        raise UsageError(f"need 2 <= 2k < n, got 2k={two_k}, n={n}")
    check_extents([n], "spectral pair count", UsageError)
    t = _table_for(n, table)
    raw = float(t.correlation()[two_k])
    budget = tol * n
    nearest = round(raw)
    if abs(raw - nearest) > budget:
        raise IdentityError(
            "spectral-pair-count", abs(raw - nearest), budget, f"rounding, n={n}"
        )
    sieved = pair_count_circular(t, two_k)
    if nearest != sieved:
        raise IdentityError(
            "spectral-pair-count",
            abs(nearest - sieved),
            0.0,
            f"spectral {nearest} vs sieve {sieved}, n={n}, 2k={two_k}",
        )
    return int(nearest)


def rho_identity_check(
    n: int, Q: int, table: PrimeTable | None = None, tol: float = 1e-6
) -> float:
    """Max deviation between the subgroup samples F(P)(r*n/Q) and the
    mod-Q transform of the residue counts rho(a) = pi(n, Q, a).

    Returns the deviation and raises if it exceeds tol * pi(n).
    """
    require_divisor(n, Q, "subgroup identity")
    t = _table_for(n, table)
    coset = spectrum_at(t.spectrum(), n, np.arange(Q, dtype=np.int64) * (n // Q))
    rho = residue_profile(t, Q)
    deviation = float(np.abs(coset - forward(rho)).max())
    budget = tol * max(t.pi(n), 1)
    if deviation > budget:
        raise IdentityError("subgroup-restriction", deviation, budget, f"n={n}, Q={Q}")
    return deviation


def main_term_convolution(
    n: int, Q: int, two_k: int, table: PrimeTable | None = None
) -> float:
    """(Q/n) * sum_r rho(r) * rho(r + 2k mod Q): the main term evaluated
    as a residue-count autocorrelation, independent of any length-n
    transform."""
    require_divisor(n, Q, "main-term convolution")
    t = _table_for(n, table)
    rho = residue_profile(t, Q)
    return float(Q / n * np.dot(rho, np.roll(rho, -(two_k % Q))))


def _full_power(table: PrimeTable) -> np.ndarray:
    """|F(P)(xi)|^2 for every xi in Z/nZ, mirrored from the cached half."""
    return mirror_power(np.abs(table.spectrum()) ** 2, table.n)


def _coset_regroup(power: np.ndarray, Q: int, two_k: int) -> np.ndarray:
    """T(xi) for 0 <= xi < n/Q from the full power spectrum |F(P)|^2."""
    rows = power.reshape(Q, power.shape[0] // Q)
    weights = unit_phase(Q, two_k * np.arange(Q, dtype=np.int64))
    # real and imaginary weights apart: a complex weight vector would cast
    # the whole real power array to a complex copy
    return weights.real @ rows + 1j * (weights.imag @ rows)


def is_primorial(Q) -> bool:
    """True when Q is a product of the first consecutive primes (1 counts,
    as the empty product)."""
    f = _as_factored(Q)
    if not f.is_squarefree():
        return False
    expect = 2
    for p in f.primes:
        while not is_prime_u64(expect):
            expect += 1
        if p != expect:
            return False
        expect += 1
    return True


def decompose(
    n: int,
    Q: int,
    two_k: int,
    table: PrimeTable | None = None,
    constant_cutoff: int = 10**6,
    tol: float = 1e-6,
) -> DecompositionReport:
    """Split the spectral pair-count sum into the subgroup main term and
    the per-frequency error spectrum, verifying exact reconstruction.

    Requires Q | n with Q a primorial.  Q > sqrt(n) is allowed (the
    identity is exact for any Q | n) but logged, since the main term only
    carries its asymptotic meaning for small Q.
    """
    require_divisor(n, Q, "decomposition")
    if not is_primorial(Q):
        raise UsageError(f"Q must be a primorial, got {Q}")
    if not 2 <= two_k < n:
        raise UsageError(f"need 2 <= 2k < n, got 2k={two_k}")
    if Q * Q > n:
        logger.warning("decompose called with Q=%d above sqrt(n=%d); identity still exact", Q, n)
    t = _table_for(n, table)
    spectrum = _coset_regroup(_full_power(t), Q, two_k)
    if abs(spectrum[0].imag) > tol * n:
        raise IdentityError(
            "main-term-realness", abs(spectrum[0].imag), tol * n, f"n={n}, Q={Q}"
        )
    main_term = float(spectrum[0].real) / n
    reconstructed = complex(
        np.dot(spectrum, unit_phase(n, two_k * np.arange(n // Q, dtype=np.int64))) / n
    )
    sieved = pair_count_circular(t, two_k)
    residual = abs(reconstructed - sieved)
    if residual > tol * n:
        raise IdentityError("decomposition-reconstruction", residual, tol * n, f"n={n}, Q={Q}")
    constant = hl_constant(two_k, constant_cutoff).value
    return DecompositionReport(
        n=n,
        Q=Q,
        two_k=two_k,
        main_term=main_term,
        predicted_main_log2=constant * n / math.log(n) ** 2,
        predicted_main_li2=constant * li2(n),
        error_spectrum=spectrum,
        reconstruction_residual=residual,
        pair_count_circular=sieved,
    )


def error_probe(
    n: int,
    Q: int,
    two_k: int,
    xi: int,
    table: PrimeTable | None = None,
    tol: float = 1e-6,
) -> ErrorProbe:
    """Twisted residue correlation at frequency xi, checked two ways.

    Forms sum_a rho_xi(a) * conj(rho_xi(a + 2k)) from the twisted counts
    and independently inverts |F_Q(rho_xi)|^2 at -2k; the two must agree
    within tol * pi(n)^2.
    """
    require_divisor(n, Q, "error probe")
    if not 0 < xi < n // Q:
        raise UsageError(f"need 0 < xi < n/Q, got xi={xi}")
    t = _table_for(n, table)
    rho = residue_profile(t, Q, xi=xi)
    correlation = complex(np.sum(rho * np.conj(np.roll(rho, -(two_k % Q)))))
    inverted = complex(inverse(np.abs(forward(rho)) ** 2)[(-two_k) % Q])
    budget = tol * max(t.pi(n), 1) ** 2
    gap = abs(correlation - inverted)
    if gap > budget:
        raise IdentityError(
            "twisted-correlation-factorization", gap, budget, f"n={n}, Q={Q}, xi={xi}"
        )
    return ErrorProbe(
        xi=xi, per_residue=rho, correlation=correlation, magnitude=abs(correlation)
    )


def error_spectrum_stats(
    n: int, Q: int, two_k: int, table: PrimeTable | None = None
) -> dict:
    """Diagnostic summary of the error spectrum T(xi), 0 < xi < n/Q.

    Reports the max of |T(xi)|/n with its argmax, quantiles of |T(xi)|,
    the off-zero reconstruction sum, the progression scale
    n / (phi(Q) log n), and the count of frequencies xi > 0 whose power
    |F(P)(xi)|^2 / n reaches n / log(n)^2 (the energy-constrained level
    with C = 1).  Purely informational; nothing here is asserted.
    """
    require_divisor(n, Q, "error spectrum")
    if Q >= n:
        raise UsageError(f"degenerate Q = n rejected, got Q={Q}, n={n}")
    t = _table_for(n, table)
    power = _full_power(t)
    spectrum = _coset_regroup(power, Q, two_k)
    tail = np.abs(spectrum[1:])
    weights = unit_phase(n, two_k * np.arange(n // Q, dtype=np.int64))
    offzero = complex(np.dot(spectrum[1:], weights[1:]) / n)
    phi_q = float(np.count_nonzero(np.gcd(np.arange(1, Q + 1, dtype=np.int64), Q) == 1))
    large = int(np.count_nonzero(power[1:] / n >= n / math.log(n) ** 2))
    quantiles = np.quantile(tail, [0.5, 0.9, 0.99]) if tail.size else np.zeros(3)
    return {
        "n": n,
        "Q": Q,
        "two_k": two_k,
        "max_abs_T_over_n": float(tail.max() / n) if tail.size else 0.0,
        "argmax_xi": int(np.argmax(tail) + 1) if tail.size else 0,
        "abs_T_q50": float(quantiles[0]),
        "abs_T_q90": float(quantiles[1]),
        "abs_T_q99": float(quantiles[2]),
        "offzero_sum_re": offzero.real,
        "offzero_sum_im": offzero.imag,
        "progression_scale": n / (phi_q * math.log(n)),
        "large_frequency_count": large,
    }


def psi_pair_direct(n: int, two_k: int) -> float:
    """sum_x Lambda(x) * Lambda(x + 2k mod n) on Z/nZ = {1..n}."""
    return correlation_direct(as_ring(von_mangoldt_vector(n)), two_k)


def psi_pair_via_spectrum(n: int, two_k: int, tol: float = 1e-6) -> float:
    """Von Mangoldt pair correlation through the spectrum, verified
    against the direct double sum within tol * n * log(n)^2."""
    if n < 2:
        raise UsageError(f"need n >= 2, got {n}")
    check_extents([n], "psi pair correlation", UsageError)
    if two_k % 2 or two_k < 0:
        raise UsageError(f"2k must be even and nonnegative, got {two_k}")
    ring = as_ring(von_mangoldt_vector(n))
    raw = float(correlation_via_spectrum(ring)[two_k % n])
    budget = tol * n * math.log(n) ** 2
    gap = abs(raw - correlation_direct(ring, two_k))
    if gap > budget:
        raise IdentityError("psi-spectral-identity", gap, budget, f"n={n}, 2k={two_k}")
    return raw


def half_spectrum_residual(n: int, table: PrimeTable | None = None) -> float:
    """Max over 0 <= xi < n/2 of |F(P)(xi + n/2) + F(P)(xi) - 2 e_n(-2 xi)|.

    The sum of the two half-spectrum samples is exactly twice the even-x
    contribution, and the only even prime is 2; the residual is pure
    floating-point error.  Requires even n >= 4.
    """
    if n < 4 or n % 2:
        raise UsageError(f"parity relation needs even n >= 4, got {n}")
    t = _table_for(n, table)
    values = t.spectrum()
    half = n // 2
    upper = spectrum_at(values, n, np.arange(half, n, dtype=np.int64))
    expected = 2.0 * unit_phase(n, 2 * np.arange(half, dtype=np.int64))
    return float(np.abs(upper + values[:half] - expected).max())


def half_spectrum_pair_value(
    n: int, two_k: int, table: PrimeTable | None = None
) -> complex:
    """(2/n) * sum_{0 <= xi < n/2} |F(P)(xi)|^2 * e_n(-2k xi): the folded
    form of the spectral pair count; differs from the full value by a
    bounded bookkeeping term contributed by the prime 2."""
    if n < 4 or n % 2:
        raise UsageError(f"folded pair value needs even n >= 4, got {n}")
    t = _table_for(n, table)
    half = n // 2
    power = np.abs(t.spectrum()[:half]) ** 2
    weights = unit_phase(n, two_k * np.arange(half, dtype=np.int64))
    return complex(2.0 * np.dot(power, weights) / n)
