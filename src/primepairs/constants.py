"""Hardy-Littlewood pair constants and truncated singular series.

Finite (modulus-Q) quantities use exact rational arithmetic: the two
derivations of the constant agree exactly at every finite squarefree Q and
the tests witness that as Fraction equality, not float closeness.  Only
the infinite Euler products are truncated into floats, and those carry a
rigorous tail bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import ResourceLimitError, UsageError
from .factored import FactoredInteger, _as_factored, euler_phi, coprime_pair_count_formula
from .sieve import build_table

EULER_GAMMA = 0.57721566490153286061

MAX_DIVISOR_OMEGA = 20
MAX_MERTENS_Z = 10**5


@dataclass(frozen=True)
class TruncatedConstant:
    """A pair constant evaluated over primes below ``cutoff``, with a
    rigorous bound on the distance to the untruncated limit."""

    two_k: int
    cutoff: int
    value: float
    error_bound: float


@lru_cache(maxsize=8)
def _primes_below(cutoff: int) -> np.ndarray:
    if cutoff < 3:
        raise UsageError(f"cutoff must be >= 3, got {cutoff}")
    if cutoff > 10**8:
        raise ResourceLimitError(f"constant cutoff capped at 1e8, got {cutoff}")
    out = build_table(cutoff - 1).primes()
    out.setflags(write=False)
    return out


def hl_constant(two_k: int, cutoff: int) -> TruncatedConstant:
    """Truncated pair constant for the shift 2k.

    Evaluates prod_{p | 2k} p/(p-1) times prod_{p not| 2k, p < cutoff}
    p(p-2)/(p-1)^2.  The first product is finite and taken in full; the
    second is the truncation of a convergent product whose omitted factors
    are 1 - 1/(p-1)^2.

    Tail bound: sum_{p >= cutoff} 1/(p-1)^2 <= sum_{m >= cutoff-1} 1/m^2
    <= 1/(cutoff-2), and |log(1-x)| <= x/(1-x), so the log of the omitted
    product is at most T = (1/(cutoff-2)) / (1 - 1/(cutoff-1)^2) in
    absolute value and |value - limit| <= value * (exp(T) - 1).
    """
    if two_k < 2 or two_k % 2:
        raise UsageError(f"2k must be an even integer >= 2, got {two_k}")
    shift_primes = _as_factored(two_k).primes
    value = 1.0
    for p in shift_primes:
        value *= p / (p - 1)
    ps = _primes_below(cutoff)
    keep = np.ones(ps.shape[0], dtype=bool)
    for p in shift_primes:
        keep &= ps != p
    ps = ps[keep].astype(np.float64)
    value *= float(np.prod(ps * (ps - 2) / (ps - 1) ** 2))
    tail = (1.0 / (cutoff - 2)) / (1.0 - 1.0 / (cutoff - 1) ** 2)
    return TruncatedConstant(
        two_k=two_k, cutoff=cutoff, value=value, error_bound=value * math.expm1(tail)
    )


def _squarefree_or_raise(Q) -> FactoredInteger:
    f = _as_factored(Q)
    if not f.is_squarefree():
        raise UsageError(f"singular series forms require squarefree Q, got {f.value}")
    return f


def _prime_ramanujan(p: int, two_k: int) -> int:
    # c_p(2k) collapses to p-1 when p | 2k and -1 otherwise
    return p - 1 if two_k % p == 0 else -1


def singular_series_divisor_sum(Q, two_k: int) -> Fraction:
    """Q-truncated singular series as the divisor sum
    sum_{d | Q} |mu(d)| c_d(2k) / phi(d)^2 over the squarefree divisors."""
    f = _squarefree_or_raise(Q)
    if f.omega > MAX_DIVISOR_OMEGA:
        raise ResourceLimitError(
            f"divisor enumeration capped at 2^{MAX_DIVISOR_OMEGA} divisors, Q has omega={f.omega}"
        )
    return sum(
        Fraction(math.prod(_prime_ramanujan(p, two_k) for p in d.primes), euler_phi(d) ** 2)
        for d in f.divisors()
    )


def singular_series_product(Q, two_k: int) -> Fraction:
    """Q-truncated singular series as the Euler product
    prod_{p | Q} (1 + c_p(2k)/(p-1)^2)."""
    f = _squarefree_or_raise(Q)
    out = Fraction(1)
    for p in f.primes:
        out *= 1 + Fraction(_prime_ramanujan(p, two_k), (p - 1) ** 2)
    return out


def singular_series_from_pair_count(Q, two_k: int) -> Fraction:
    """The same quantity as Q/phi(Q)^2 times the closed-form coprime-pair
    count; agreement with the singular series is the two-derivations
    consistency check."""
    f = _squarefree_or_raise(Q)
    phi = euler_phi(f)
    return Fraction(f.value, phi * phi) * coprime_pair_count_formula(f, two_k)


def mertens_ratio(z: int) -> tuple[float, float]:
    """(phi(Q_z)/Q_z computed exactly then converted, exp(-gamma)/log z).

    A diagnostic pair: the two entries approach each other as z grows.
    """
    if z < 3:
        raise UsageError(f"mertens_ratio requires z >= 3, got {z}")
    if z > MAX_MERTENS_Z:
        raise ResourceLimitError(f"mertens_ratio capped at z <= 1e5, got {z}")
    ratio = Fraction(1)
    for p in _primes_below(z).tolist():
        ratio *= Fraction(p - 1, p)
    return float(ratio), math.exp(-EULER_GAMMA) / math.log(z)


def li2(n: float) -> float:
    """Offset pair logarithmic integral: integral of dt/log(t)^2 from 2 to n,
    by adaptive Simpson refinement to absolute tolerance 1e-6.  Values are
    memoized by argument: decompose asks for the same n repeatedly."""
    # a plain function over the cached one keeps li2 visible to
    # bench/shim.py, which traces functions, not lru_cache wrappers
    return _li2(float(n))


@lru_cache(maxsize=8)
def _li2(n: float) -> float:
    if n <= 2:
        return 0.0

    def f(t: float) -> float:
        return 1.0 / math.log(t) ** 2

    return _adaptive_simpson(f, 2.0, n, 1e-6)


def _adaptive_simpson(f, a: float, b: float, tol: float) -> float:
    def simpson(lo: float, hi: float, flo: float, fmid: float, fhi: float) -> float:
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    total = 0.0
    mid = 0.5 * (a + b)
    stack = [(a, b, f(a), f(mid), f(b), simpson(a, b, f(a), f(mid), f(b)), tol, 0)]
    while stack:
        lo, hi, flo, fmid, fhi, whole, budget, depth = stack.pop()
        m = 0.5 * (lo + hi)
        lm = 0.5 * (lo + m)
        rm = 0.5 * (m + hi)
        flm = f(lm)
        frm = f(rm)
        left = simpson(lo, m, flo, flm, fmid)
        right = simpson(m, hi, fmid, frm, fhi)
        if depth > 50 or abs(left + right - whole) <= 15.0 * budget:
            total += left + right + (left + right - whole) / 15.0
        else:
            stack.append((lo, m, flo, flm, fmid, left, budget / 2.0, depth + 1))
            stack.append((m, hi, fmid, frm, fhi, right, budget / 2.0, depth + 1))
    return total
