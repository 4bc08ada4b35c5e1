"""Spectral identities for prime-pair counts, run as executable checks.

Every identity here is a statement about the prime indicator of one
PrimeTable on Z/nZ = {1..n}, and takes that table first; n is the
table's extent.  The circular pair count equals (1/n) * sum over xi of
|F(P)(xi)|^2 * exp(-2*pi*i*2k*xi/n) exactly, and when Q | n the spectrum
regroups over the cosets of the index-Q subgroup:

    T(xi) = sum_{r=0}^{Q-1} |F(P)(xi + r*n/Q)|^2 * exp(-2*pi*i*2k*r/Q)

with the pair count equal to (1/n) * sum_{0 <= xi < n/Q} e_n(-2k*xi) T(xi).
T(0)/n is the main term; the rest is the error spectrum this module
instruments.  Every identity here is exact in exact arithmetic, and each
function takes only what its identity reads: the Hardy-Littlewood
prediction that the main term is compared with is not part of the split,
and the decompose reports compute it (``harness``).

Each key of ``DEFAULT_TOLERANCES`` is applied by the one function here
that its comment names, which returns the identity's residual and
tolerance as an ``IdentityCheck``.  The suite only records them;
``pair_counts_via_spectrum``, ``psi_pair_via_spectrum`` and
``decompositions`` raise IdentityError from them.

Residue columns tie the two sides without any length-n transform.  With
m = n/Q, column a of the ring is the class x = a (mod Q) (the Cooley-Tukey
index map x = a + j*Q), C_a is its length-m DFT, and a + 2k = b + t*Q with
0 <= b < Q.  Then, exactly,

    S(xi) = sum_a e_m(-t*xi) * C_a(xi) * conj(C_b(xi)),
    T(xi) = Q * e_n(+2k*xi) * S(xi),
    circular pair count = (1/m) * sum_{xi in Z/mZ} S(xi).

``column_pair_spectra`` computes S for several shifts from one batched
rfft of the columns that hold a nonzero weight, gathered block by block
from a 1-indexed weight vector (a ``transform.ColumnBlocks``): the bool
bitmap for prime pairs, the von Mangoldt weights for psi pairs.  It is
the one spectral correlation route, and the one route to T.  The
spectral pair counts and psi pair correlations take it with Q from
``pair_count_modulus``; ``decomposition_checks``, the one
decomposition routine (``decompositions`` reads it),
takes it with the Q it is given, at every n, so the transform length is
n/Q, and forms each T from its S alone once the kernel has run to the
end.  The reconstruction sum of the decompositions, the direct
correlation (``correlation_direct``) and the residue-count convolution
(``main_term_convolution``) are numpy reductions, not BLAS products,
which OpenBLAS splits across threads: their digits do not depend on the
number of CPUs.

The subgroup samples F(r*n/Q) come from the same residue columns: by the
index map they are the length-Q transform of the columns' bins 0,
sum_a e_Q(-r*a) * C_a(0) (``subgroup_samples``), so
``subgroup_restriction_check`` transforms columns of length n/Q and never
one of length n.  Both it and ``decomposition_checks`` read the table's
own residue columns mod Q, ``PrimeTable.columns(Q)``, which states how
long the table keeps them; a subgroup check followed by a decomposition
at the same Q, the identity suite's order, shares one transform.  The
length-n checks read the table's one cached real spectrum
(``PrimeTable.spectrum``) beside its bitmap and pi(n), the energy of a
0/1 indicator, and lay out no ring: the parity relation reads F(n - m)
as conj F(m) off a reversed slice.  The length-Q transform of the
residue profile, the independent side of the subgroup identity, is a
``transform.forward`` call like every other.  The phase weights e_n(-k),
the Q | n check and the 1e7 extent cap are the ones ``transform``
defines (``unit_phase``, ``require_divisor``, ``check_extents``); the
cap is checked where each transform's length is known, so an over-cap
transform raises ResourceLimitError before it runs.

Conjugation note: at a frequency 0 < xi < n/Q the subgroup inversion
gives T(xi) = Q * sum_a rho(a) * conj(rho(a + 2k)) for the complex
twisted profile rho = ``residue_profile(table, Q, xi=xi)``; the conjugate
sits on the shifted factor (for the untwisted xi = 0 profile rho is real
and the distinction vanishes).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import IdentityCheck, IdentityError, UsageError
from .factored import euler_phi, factorize
from .sieve import (
    PrimeTable,
    pair_count_circular,
    pi_progression,
    residue_profile,
    von_mangoldt_vector,
)
from .transform import (
    ColumnBlocks,
    as_ring,
    check_extents,
    fold_half,
    forward,
    gather_columns,
    inverse_real,
    require_divisor,
    unit_phase,
)

logger = logging.getLogger(__name__)

# c in the transform error model ||dC||_2 <= c * eps * log2(m) * ||C||_2
FFT_ERROR_GROWTH = 16
# frequencies per block of the parity relation, so that its scratch is a
# few arrays of this length, not of n/2
PARITY_BLOCK = 1 << 16

# each identity's default tol, with its scale and the function here applying it
DEFAULT_TOLERANCES = {
    "spectral-pair-count": 1e-6,       # x n or the rounding model: pair_count_checks
    "round-trip": 1e-8,                # absolute (max|f| = 1): round_trip_check
    "plancherel": 1e-8,                # relative: plancherel_check
    "twisted-plancherel": 1e-8,        # relative, per class: twisted_plancherel_check
    "parity-half-spectrum": 1e-6,      # x pi(n): parity_half_spectrum_check
    "subgroup-restriction": 1e-6,      # x pi(n): subgroup_restriction_check
    "decomposition-reconstruction": 1e-6,  # x n: decomposition_checks
    "main-term-convolution": 1e-6,     # x n/Q: main_term_convolution_check
    "psi-spectral-identity": 1e-6,     # x n log^2 n or the rounding model: psi_pair_checks
}


@dataclass(eq=False)
class DecompositionReport:
    """Main-term / error-spectrum split of the circular pair count.

    ``error_spectrum`` holds T(xi) for 0 <= xi < n/Q; entry 0 is the main
    term times n, and is real: it is built from real bins 0 and the unit
    phase 1.
    """

    n: int
    Q: int
    two_k: int
    main_term: float
    error_spectrum: np.ndarray
    reconstruction_residual: float
    pair_count_circular: int


def correlation_direct(ring: np.ndarray, two_k: int) -> float:
    """sum_x ring(x) * ring(x + 2k mod n): the direct side of the
    correlation identities."""
    # a numpy reduction, not BLAS, so the sum's order is fixed
    shifted = np.roll(ring, -(two_k % ring.shape[0]))
    shifted *= ring
    return float(shifted.sum())


def _required(checked):
    """The values of (value, IdentityCheck) pairs in turn; raises
    IdentityError at the first check that fails."""
    for value, check in checked:
        check.require()
        yield value


def _pair_shifts(n: int, shifts) -> list:
    """``shifts`` as a list, each an even 2k with 2 <= 2k < n, the shifts
    a pair count on Z/nZ takes; raises UsageError before any transform."""
    shifts = list(shifts)
    for two_k in shifts:
        if two_k % 2 or not 2 <= two_k < n:
            raise UsageError(f"need even 2 <= 2k < n, got 2k={two_k}, n={n}")
    return shifts


@lru_cache(maxsize=256)
def pair_count_modulus(n: int) -> int:
    """The Q | n that the spectral pair count groups Z/nZ by: among the
    divisors Q <= sqrt(n), the one with the smallest phi(Q)/Q, so that the
    fewest residue columns hold primes, and the largest such Q on a tie,
    so that the columns are shortest.  Q = 1 for prime n."""
    divisors = (d for d in factorize(n).divisors() if d.value * d.value <= n)
    return min(divisors, key=lambda d: (Fraction(euler_phi(d), d.value), -d.value)).value


def _phase_row(m: int, half: int, t: int) -> np.ndarray:
    """unit_phase(m, t * xi) for 0 <= xi < half, with the index vector
    scaled in place, so that it makes one index vector, not two."""
    k = np.arange(half, dtype=np.int64)
    k *= t
    return unit_phase(m, k)


def column_pair_spectra(columns: ColumnBlocks, shifts):
    """Yield, for each shift 2k in ``shifts`` (any 2k >= 0) in turn, the
    half accumulator S(xi), 0 <= xi <= m//2 with m = n/Q:

        S(xi) = sum_a e_m(-t*xi) * C_a(xi) * conj(C_b(xi)),

    where C_a is the length-m DFT of residue column a of the real weights
    f, and a + 2k = b + t*Q with 0 <= b < Q.  Then (1/m) sum_xi S(xi) is
    sum_x f(x) * f(x + 2k mod n), and S(m - xi) = conj S(xi).

    ``columns`` holds the residue columns mod Q of the 1-indexed weights:
    ``PrimeTable.is_prime`` for prime pairs, ``von_mangoldt_vector(table)``
    for psi pairs.  Only the classes a that hold a nonzero weight are
    read, in the blocks of ``columns``, each one batched rfft through
    ``transform``.  The blocks live at once are a block of classes a and
    the blocks that hold their partners b: for shifts below the span of a
    block, two.  So the memory is the weights plus
    chunk * (m//2 + 1) * 16 bytes per live block of chunk classes, and,
    while a block is transformed, its gathered columns and one row batch
    (``transform.ColumnBlocks``: the block, or rows whose float input and
    spectra fit 8 MiB).  A group's accumulators and the product, each
    (m//2 + 1) * 16 bytes, are allocated once the first block's spectra
    exist, so none is held while it is transformed; no block is held by
    the kernel once the shifts are yielded, and each S is formed in place
    in its shift's first accumulator.  A shift that pairs no class yields
    zeros.

    t takes two values per shift, so each shift keeps two accumulators and
    two phase vectors.  Shifts go in groups whose accumulators fit one
    block; when every class fits one block, which it does at the sizes
    ``pair_count_modulus`` picks up to 2e7, one transform serves every
    shift of a group, and a ColumnBlocks read by the subgroup samples too
    (a table's own, ``PrimeTable.columns``) transforms its one block once
    for both.
    """
    Q, m = columns.Q, columns.m
    check_extents([m], "residue-column length")
    half = m // 2 + 1
    classes, chunk = columns.classes, columns.chunk
    position = np.full(Q, -1, dtype=np.int64)
    position[classes] = np.arange(classes.size)

    shifts = list(shifts)
    group = max(1, chunk // 2)  # two accumulators per shift fit one block
    for first in range(0, len(shifts), group):
        batch = shifts[first : first + group]
        # every pair (a, b) of weight-holding classes, by the position of a,
        # with its accumulator: two per shift, for t = 2k // Q and t + 1
        a_pos, b_pos, slot = [], [], []
        for s, two_k in enumerate(batch):
            shifted = classes + two_k
            partner = position[shifted % Q]
            kept = np.flatnonzero(partner >= 0)
            a_pos.append(kept)
            b_pos.append(partner[kept])
            slot.append(2 * s + shifted[kept] // Q - two_k // Q)
        order = np.argsort(np.concatenate(a_pos), kind="stable")
        a_pos, b_pos, slot = (np.concatenate(v)[order] for v in (a_pos, b_pos, slot))

        # the accumulators, one array each, and the product are allocated
        # once the first block's spectra exist, so they are not held while
        # it is transformed
        acc = product = None
        live: dict[int, np.ndarray] = {}
        bounds = np.searchsorted(a_pos, np.arange(0, classes.size + chunk, chunk))
        for block, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            if lo == hi:
                continue
            needed = {block, *(b_pos[lo:hi] // chunk).tolist()}
            live = {k: v for k, v in live.items() if k in needed}
            for k in sorted(needed - live.keys()):
                live[k] = columns.spectra(k)
            if acc is None:
                acc = [np.zeros(half, dtype=complex) for _ in range(2 * len(batch))]
                product = np.empty(half, dtype=complex)
            for a, b, j in zip(a_pos[lo:hi].tolist(), b_pos[lo:hi].tolist(), slot[lo:hi].tolist()):
                np.conjugate(live[b // chunk][b % chunk], out=product)
                product *= live[a // chunk][a % chunk]
                acc[j] += product
        live = product = None  # no block is held while the shifts are yielded
        if acc is None:  # no class pairs with a partner at any shift
            acc = [np.zeros(half, dtype=complex) for _ in range(2 * len(batch))]
        for s, two_k in enumerate(batch):
            # S is formed in place in the shift's first accumulator, and the
            # kernel lets go of both; the phase stays the first factor, since
            # a complex product with fused multiply-adds is not symmetric
            t = two_k // Q
            spectrum, upper = acc[2 * s], acc[2 * s + 1]
            acc[2 * s] = acc[2 * s + 1] = None
            np.multiply(_phase_row(m, half, t), spectrum, out=spectrum)
            np.multiply(_phase_row(m, half, t + 1), upper, out=upper)
            spectrum += upper
            upper = None
            yield spectrum


def column_pair_counts(weights: np.ndarray, Q: int, shifts) -> list[float]:
    """(1/m) * sum over all xi in Z/mZ of S(xi) for each shift: the
    circular correlations sum_x f(x) * f(x + 2k mod n) of the 1-indexed
    ``weights`` as floats carrying transform rounding (for the prime
    bitmap, the circular pair counts), each folded from its half
    accumulator (``fold_half``, S(m - xi) = conj S(xi)) as soon as it is
    formed."""
    m = (weights.shape[0] - 1) // Q
    spectra = column_pair_spectra(ColumnBlocks(weights, Q), shifts)
    return [fold_half(half.real, m) / m for half in spectra]


def pair_count_rounding_budget(primes: int, Q: int, m: int) -> float:
    """Bound on the rounding error of a column pair count over
    ``primes`` primes, with Q classes of length m.

    By Parseval ||C_a||_2^2 = m * pi_a, pi_a the primes of class a.  A
    length-m transform errs by ||dC_a||_2 <= c * eps * log2(m) * ||C_a||_2
    (c = FFT_ERROR_GROWTH; about 5 for radix 2, and Bluestein's three
    transforms and chirp need more), so the transform error of
    (1/m) sum_xi C_a conj C_b is at most 2c eps log2(m) sqrt(pi_a pi_b),
    and by Cauchy-Schwarz at most 2c eps log2(m) * primes over all a.  The
    products, phases and sums over at most Q classes and m frequencies
    add at most (Q + m + 4) eps times (1/m) sum |C_a| |C_b| <= primes.
    """
    eps = float(np.finfo(np.float64).eps)
    return eps * primes * (2 * FFT_ERROR_GROWTH * math.log2(max(m, 2)) + Q + m + 4)


def pair_count_checks(
    table: PrimeTable, shifts, tol: float = DEFAULT_TOLERANCES["spectral-pair-count"]
) -> list[tuple]:
    """(count, check) for every shift in ``shifts``: the table's circular
    prime-pair count through the residue-column spectra with
    Q = pair_count_modulus(n), one batched transform of length-n/Q columns
    for every shift, rounded, and the check |raw - sieved| <= budget.

    The budget is ``pair_count_rounding_budget``, tightened to tol * n
    when that is smaller (a tolerance never loosens it); a model budget of
    0.5 or more cannot certify the rounding, and raises.  Below 0.5 the
    check holds exactly when raw rounds to the sieved count within the
    budget: a nearest integer other than that count is over 0.5 away.
    """
    n = table.n
    shifts = _pair_shifts(n, shifts)
    Q = pair_count_modulus(n)
    raws = column_pair_counts(table.is_prime, Q, shifts)
    model = pair_count_rounding_budget(table.pi(n), Q, n // Q)
    if model >= 0.5:
        raise IdentityError(
            "spectral-pair-count", model, 0.5, f"rounding budget cannot certify, n={n}"
        )
    budget = min(model, tol * n)
    checked = []
    for two_k, raw in zip(shifts, raws):
        gap = abs(raw - pair_count_circular(table, two_k))
        detail = f"rounding to the sieved count, n={n}, 2k={two_k}"
        checked.append((round(raw), IdentityCheck("spectral-pair-count", gap, budget, detail)))
    return checked


def pair_counts_via_spectrum(
    table: PrimeTable, shifts, tol: float = DEFAULT_TOLERANCES["spectral-pair-count"]
) -> list[int]:
    """The spectral circular prime-pair counts of ``pair_count_checks``;
    raises IdentityError if any check fails."""
    return list(_required(pair_count_checks(table, shifts, tol)))


def subgroup_samples(columns: ColumnBlocks) -> np.ndarray:
    """The samples F(r*n/Q), 0 <= r < Q, of the spectrum of the real
    weights whose residue columns mod Q are ``columns``.

    By the index map x = a + j*Q, F(r*n/Q) = sum_a e_Q(-r*a) * C_a(0),
    where C_a is the length-n/Q DFT of column a: the samples are the
    length-Q transform of the columns' bins 0, zero on the classes that
    hold no weight.  The columns are transformed in the blocks of
    ``columns``, the ones ``column_pair_spectra`` reads, so no transform
    has length n, and a ColumnBlocks of one block that both are given is
    transformed once.
    """
    Q, classes, chunk = columns.Q, columns.classes, columns.chunk
    check_extents([columns.m, Q], "subgroup samples length")
    bins = np.zeros(Q, dtype=complex)
    for block, first in enumerate(range(0, classes.size, chunk)):
        bins[classes[first : first + chunk]] = columns.spectra(block)[:, 0]
    return forward(bins)


def subgroup_restriction_check(
    table: PrimeTable, Q: int, tol: float = DEFAULT_TOLERANCES["subgroup-restriction"]
) -> IdentityCheck:
    """Max deviation between the subgroup samples F(P)(r*n/Q) of the
    table and the mod-Q transform of its residue counts
    rho(a) = pi(n, Q, a), checked against tol * pi(n).

    The samples come from the table's residue-column spectra mod Q
    (``subgroup_samples`` of ``table.columns(Q)``, which
    ``decomposition_checks`` at the same Q reads too) and the counts from the
    sieved primes, two independent computations; the transforms have
    lengths n/Q and Q, and the cap applies to those.
    """
    n = table.n
    require_divisor(n, Q, "subgroup identity")
    coset = subgroup_samples(table.columns(Q))
    rho = residue_profile(table, Q)
    deviation = float(np.abs(coset - forward(rho)).max())
    budget = tol * max(table.pi(n), 1)
    return IdentityCheck("subgroup-restriction", deviation, budget, f"n={n}, Q={Q}")


def _class_energies(columns: np.ndarray) -> list[float]:
    """(1/m) sum |C|^2 of each row's length-m DFT C, the rows real.  The
    rows that hold a nonzero value go two to a complex row, Z = c_u + i c_v,
    all in one ``forward`` call; C_u(xi) = (Z(xi) + conj Z(-xi)) / 2 and
    C_v(xi) = (Z(xi) - conj Z(-xi)) / 2i.  A zero row has energy 0 and no
    transform."""
    m = columns.shape[1]
    held = np.flatnonzero(columns.any(axis=1))
    energies = [0.0] * columns.shape[0]
    if not held.size:
        return energies
    packed = np.zeros(((held.size + 1) // 2, m), dtype=complex)
    packed.real = columns[held[0::2]]
    packed.imag[: held.size // 2] = columns[held[1::2]]
    spectra = forward(packed)
    # conj Z(-xi): xi = 0 stays, xi = 1 .. m - 1 read m - 1 .. 1; the roll
    # is a copy, conjugated in place
    mirror = np.roll(spectra[:, ::-1], 1, axis=1)
    np.conjugate(mirror, out=mirror)
    for row, (u, v) in enumerate(zip(held[0::2].tolist(), held[1::2].tolist() + [None])):
        energies[u] = float(np.sum(np.abs(spectra[row] + mirror[row]) ** 2)) / (4 * m)
        if v is not None:
            energies[v] = float(np.sum(np.abs(spectra[row] - mirror[row]) ** 2)) / (4 * m)
    return energies


def twisted_plancherel_check(
    table: PrimeTable, Q: int, tol: float = DEFAULT_TOLERANCES["twisted-plancherel"]
) -> IdentityCheck:
    """The worst relative gap, over the classes 0, 1 and Q - 1 mod Q, between
    a class's spectral energy and its prime count pi(n, Q, a), checked
    against tol.  The class-masked spectrum is e_n(-xi a) times the DFT of
    residue column a, so the column's energy (``_class_energies``, on
    columns gathered from the bitmap: no table's kept spectra) is the
    class's mean power, its count, exactly."""
    classes = sorted({0, 1 % Q, Q - 1})
    energies = _class_energies(gather_columns(table.is_prime, Q, classes))
    counts = [pi_progression(table, Q, a) for a in classes]
    worst = max(abs(energy - count) / max(count, 1) for energy, count in zip(energies, counts))
    return IdentityCheck("twisted-plancherel", worst, tol, f"n={table.n}, Q={Q}")


def main_term_convolution(table: PrimeTable, Q: int, two_k: int) -> float:
    """(Q/n) * sum_r rho(r) * rho(r + 2k mod Q): the main term evaluated
    as a residue-count autocorrelation (``correlation_direct`` on the
    residue profile), independent of any length-n transform.  Requires Q | n
    and an even 2k with 2 <= 2k < n, checked before the profile is made."""
    n = table.n
    require_divisor(n, Q, "main-term convolution")
    _pair_shifts(n, [two_k])
    return Q / n * correlation_direct(residue_profile(table, Q), two_k)


def main_term_convolution_check(
    table: PrimeTable,
    report: DecompositionReport,
    tol: float = DEFAULT_TOLERANCES["main-term-convolution"],
) -> IdentityCheck:
    """The gap between the main term of ``report``, a decomposition of
    ``table``, and ``main_term_convolution`` at its Q and 2k, checked
    against tol * (n/Q)."""
    n, Q, two_k = table.n, report.Q, report.two_k
    gap = abs(main_term_convolution(table, Q, two_k) - report.main_term)
    return IdentityCheck("main-term-convolution", gap, tol * (n / Q), f"n={n}, Q={Q}, 2k={two_k}")


def _error_spectrum(n: int, Q: int, two_k: int, half: np.ndarray):
    """T(xi) = Q * e_n(+2k*xi) * S(xi) for 0 <= xi < n/Q, formed in place
    in one array from the half accumulator S (S(m - xi) = conj S(xi)
    fills the upper half), and the terms T(xi) * e_n(-2k*xi) of the
    reconstruction sum, into which the one phase vector turns, conjugated
    in place."""
    m = n // Q
    spectrum = np.empty(m, dtype=complex)
    spectrum[: half.shape[0]] = half
    np.conjugate(half[1 : m - half.shape[0] + 1][::-1], out=spectrum[half.shape[0] :])
    spectrum *= Q
    phase = unit_phase(n, -two_k * np.arange(m, dtype=np.int64))
    spectrum *= phase
    terms = np.conjugate(phase, out=phase)
    terms *= spectrum
    return spectrum, terms


def decomposition_checks(
    table: PrimeTable,
    Q: int,
    shifts,
    tol: float = DEFAULT_TOLERANCES["decomposition-reconstruction"],
):
    """Yield, for each shift 2k in ``shifts`` in turn, the split of the
    table's spectral pair-count sum into the subgroup main term and the
    per-frequency error spectrum T, as a ``DecompositionReport``, with the
    check that the split reconstructs the sieve's circular count within
    tol * n.

    One ``column_pair_spectra`` call on ``table.columns(Q)``, residue
    columns of length m = n/Q only, gives every shift's half accumulator
    S; the kernel runs to the end, the table then releases its columns,
    and only then is each T formed from its S alone.  The reconstruction
    sum (1/n) sum_xi T(xi) e_n(-2k*xi) is a numpy reduction, so its digits
    do not depend on the number of CPUs.

    Requires Q | n and an even 2k with 2 <= 2k < n for every shift,
    checked before any transform; the identity is exact for any such Q,
    primorial or not.  Q > sqrt(n) is allowed but logged, since the main
    term only carries its asymptotic meaning for small Q.
    """
    n = table.n
    require_divisor(n, Q, "decomposition")
    shifts = _pair_shifts(n, shifts)
    if Q * Q > n:
        logger.warning("decomposition at Q=%d above sqrt(n=%d); identity still exact", Q, n)
    halves = list(column_pair_spectra(table.columns(Q), shifts))
    table.release_columns()
    budget, detail = tol * n, f"n={n}, Q={Q}"
    for two_k, half in zip(shifts, halves):
        spectrum, terms = _error_spectrum(n, Q, two_k, half)
        main_term = float(spectrum[0].real) / n
        reconstructed = complex(terms.sum()) / n
        sieved = pair_count_circular(table, two_k)
        residual = abs(reconstructed - sieved)
        report = DecompositionReport(
            n=n,
            Q=Q,
            two_k=two_k,
            main_term=main_term,
            error_spectrum=spectrum,
            reconstruction_residual=residual,
            pair_count_circular=sieved,
        )
        yield report, IdentityCheck("decomposition-reconstruction", residual, budget, detail)


def decompositions(
    table: PrimeTable,
    Q: int,
    shifts,
    tol: float = DEFAULT_TOLERANCES["decomposition-reconstruction"],
):
    """The reports of ``decomposition_checks`` in turn; raises
    IdentityError at the first check that fails."""
    return _required(decomposition_checks(table, Q, shifts, tol))


def psi_pair_direct(table: PrimeTable, two_k: int) -> float:
    """sum_x Lambda(x) * Lambda(x + 2k mod n) on Z/nZ = {1..n}, from the
    primes of the table."""
    return correlation_direct(as_ring(von_mangoldt_vector(table)), two_k)


def psi_rounding_budget(weights: np.ndarray, Q: int) -> float:
    """Bound on the gap between the column route and the direct sum of a
    correlation of the 1-indexed real ``weights``, n = len(weights) - 1,
    with Q classes of length m = n/Q.

    The column route's is ``pair_count_rounding_budget`` with the energy
    E = sum f(x)^2 in place of the prime count (||C_a||_2^2 = m E_a by
    Parseval).  The direct sum adds n products, each rounded once, whose
    absolute sum is at most E (Cauchy-Schwarz); numpy's pairwise sum takes
    a term through at most log2(n) halvings and 25 adds in a block of 128,
    so it errs by at most (log2(n) + 26) eps E.
    """
    n = weights.shape[0] - 1
    held = weights[weights != 0]
    energy = float(np.square(held, out=held).sum())
    eps = float(np.finfo(np.float64).eps)
    direct = eps * energy * (math.log2(max(n, 2)) + 26)
    return pair_count_rounding_budget(energy, Q, n // Q) + direct


def psi_pair_checks(
    table: PrimeTable, shifts, tol: float = DEFAULT_TOLERANCES["psi-spectral-identity"]
) -> list[tuple]:
    """(value, check) for every even shift 2k >= 0 in ``shifts``: the von
    Mangoldt pair correlation of the table's primes through the
    residue-column spectra (``column_pair_counts`` on the von Mangoldt
    weights, Q from ``pair_count_modulus``, one batched transform for
    every shift), and its gap to the direct double sum, checked against
    ``psi_rounding_budget``, tightened to tol * n * log(n)^2 when that is
    smaller.  The cap applies to the column length n/Q, and is checked
    before the weights are built."""
    n = table.n
    shifts = list(shifts)
    for two_k in shifts:
        if two_k % 2 or two_k < 0:
            raise UsageError(f"2k must be even and nonnegative, got {two_k}")
    Q = pair_count_modulus(n)
    check_extents([n // Q], "residue-column length")
    weights = von_mangoldt_vector(table)
    raws = column_pair_counts(weights, Q, shifts)
    budget = min(psi_rounding_budget(weights, Q), tol * n * math.log(n) ** 2)
    # the direct side holds one float copy of the weights, the ring, and
    # each shift's product
    ring = as_ring(weights)
    weights = None
    checked = []
    for two_k, raw in zip(shifts, raws):
        gap = abs(raw - correlation_direct(ring, two_k))
        checked.append((raw, IdentityCheck("psi-spectral-identity", gap, budget, f"n={n}, 2k={two_k}")))
    return checked


def psi_pair_via_spectrum(
    table: PrimeTable, two_k: int, tol: float = DEFAULT_TOLERANCES["psi-spectral-identity"]
) -> float:
    """The von Mangoldt pair correlation at one shift of
    ``psi_pair_checks``; raises IdentityError if its check fails."""
    (value,) = _required(psi_pair_checks(table, [two_k], tol))
    return value


def half_spectrum_residual(table: PrimeTable) -> float:
    """Max over 0 <= xi < n/2 of |F(P)(xi + n/2) + F(P)(xi) - 2 e_n(-2 xi)|
    on the table's cached spectrum.

    The sum of the two half-spectrum samples is exactly twice the even-x
    contribution, and the only even prime is 2; the residual is pure
    floating-point error.  Requires even n >= 4.  The frequencies go in
    blocks of PARITY_BLOCK, so beside the cached spectrum the relation
    holds a few arrays of one block.
    """
    n = table.n
    if n < 4 or n % 2:
        raise UsageError(f"parity relation needs even n >= 4, got {n}")
    values = table.spectrum()
    half = n // 2
    worst = 0.0
    # each block of PARITY_BLOCK frequencies is the full-vector expression
    # on its slice, elementwise, and a max is exact, so the residual is the
    # one a single pass over all n/2 frequencies gives, bit for bit
    for lo in range(0, half, PARITY_BLOCK):
        hi = min(lo + PARITY_BLOCK, half)
        # F(xi + n/2) = conj F(n/2 - xi), a reversed slice of the half
        # spectrum; at xi = 0 that is conj F(n/2) = F(n/2), which is real
        upper = np.conj(values[half - hi + 1 : half - lo + 1][::-1])
        expected = 2.0 * unit_phase(n, 2 * np.arange(lo, hi, dtype=np.int64))
        worst = max(worst, float(np.abs(upper + values[lo:hi] - expected).max()))
    return worst


def parity_half_spectrum_check(
    table: PrimeTable, tol: float = DEFAULT_TOLERANCES["parity-half-spectrum"]
) -> IdentityCheck:
    """``half_spectrum_residual`` of the table, checked against
    tol * pi(n).  Requires even n >= 4."""
    n = table.n
    residual = half_spectrum_residual(table)
    return IdentityCheck("parity-half-spectrum", residual, tol * max(table.pi(n), 1), f"n={n}")


def round_trip_check(
    table: PrimeTable, tol: float = DEFAULT_TOLERANCES["round-trip"]
) -> IdentityCheck:
    """max_x |f(x) - inverse(F)(x)| for the table's prime indicator f and
    its cached half spectrum F, checked against tol.  f is the bitmap in
    residue layout (slot 0 holds x = n), subtracted in place in the
    inverse, so the check holds the half spectrum and the inverse alone."""
    n = table.n
    residual = inverse_real(table.spectrum(), n)
    np.subtract(residual[1:], table.is_prime[1:n], out=residual[1:])
    residual[0] -= table.is_prime[n]
    worst = float(np.abs(residual, out=residual).max())
    return IdentityCheck("round-trip", worst, tol, f"n={n}")


def _power(values: np.ndarray) -> np.ndarray:
    """|values|^2, squared in place in its one absolute-value array."""
    power = np.abs(values)
    return np.multiply(power, power, out=power)


def plancherel_check(
    table: PrimeTable, tol: float = DEFAULT_TOLERANCES["plancherel"]
) -> IdentityCheck:
    """|(1/n) sum |F(xi)|^2 - pi(n)| / pi(n) (the bare gap when pi(n) = 0),
    the energy identity's defect for the table's 0/1 indicator, from its
    cached half spectrum's folded power (``fold_half``), checked against tol."""
    n = table.n
    primes = table.pi(n)
    gap = abs(fold_half(_power(table.spectrum()), n) / n - primes)
    return IdentityCheck("plancherel", gap / primes if primes else gap, tol, f"n={n}")
