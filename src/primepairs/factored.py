"""Exact multiplicative number theory on factored integers.

Everything here is integer or rational arithmetic: factorization, the
Moebius and Euler-phi functions, primorials, the pair-sieving density
function nu, Ramanujan sums, and the coprime-pair count over a squarefree
modulus (closed form and brute-force enumeration).  The one walk over the
divisors of a factored integer is ``FactoredInteger.divisors()``; its
readers (inclusion-exclusion here, the singular-series divisor sum in
``constants``, the pair-count modulus in ``spectral``) take ``mobius``,
``nu`` and ``euler_phi`` of each divisor.  All functions are pure and
safe to call concurrently.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import IdentityCheck, ResourceLimitError, UsageError

MAX_INT_WIDTH = 2**63 - 1

# Deterministic Miller-Rabin witnesses, valid for every n < 3.3e24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime_u64(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for 0 <= n <= 2**63 - 1."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FactoredInteger:
    """A positive integer together with its canonical prime factorization.

    ``factors`` is a tuple of (prime, exponent) pairs with strictly
    increasing primes and every exponent >= 1; the empty tuple represents 1.
    """

    value: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        prod = 1
        prev = 0
        for p, e in self.factors:
            if p <= prev or e < 1:
                raise UsageError(f"malformed factorization for {self.value}: {self.factors}")
            prod *= p**e
            prev = p
        if prod != self.value or self.value < 1:
            raise UsageError(f"factorization {self.factors} does not multiply to {self.value}")

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    @property
    def omega(self) -> int:
        """Number of distinct prime factors."""
        return len(self.factors)

    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.factors)

    def divisors(self):
        """Every positive divisor exactly once, each as a FactoredInteger,
        1 first and the value itself last: a generator over the exponent
        vectors (``itertools.product`` of 0..e per prime), so the divisors
        are never held as a list."""
        for exponents in itertools.product(*(range(e + 1) for _, e in self.factors)):
            factors = tuple((p, j) for (p, _), j in zip(self.factors, exponents) if j)
            yield FactoredInteger(math.prod(p**j for p, j in factors), factors)


def factorize(m: int) -> FactoredInteger:
    """Canonical prime factorization of m by wheel trial division.

    Accepts 1 <= m <= 2**63 - 1; cofactors are declared prime via a
    deterministic Miller-Rabin test so that inputs with at most one large
    prime factor finish quickly.  factorize(1) has an empty factor list.
    """
    if not isinstance(m, int) or isinstance(m, bool):
        raise UsageError(f"factorize expects an integer, got {type(m).__name__}")
    if m < 1:
        raise UsageError(f"factorize requires m >= 1, got {m}")
    if m > MAX_INT_WIDTH:
        raise ResourceLimitError(f"factorize supports m <= 2**63 - 1, got {m}")
    value = m
    factors = []
    for p in (2, 3, 5):
        m = _divide_out(m, p, factors)
    # 30-wheel over candidates coprime to 2, 3, 5.  A cofactor that
    # Miller-Rabin calls composite has a prime factor at most its square
    # root, so a candidate divides it before the wheel passes that root and
    # no bound is checked; the factors come out in increasing order
    wheel = (7, 11, 13, 17, 19, 23, 29, 31)
    base = 0
    while m > 1:
        if is_prime_u64(m):
            factors.append((m, 1))
            break
        for off in wheel:
            if m % (base + off) == 0:
                m = _divide_out(m, base + off, factors)
                break
        else:
            base += 30
    return FactoredInteger(value, tuple(factors))


def _divide_out(m: int, d: int, factors: list) -> int:
    """m with every factor d removed; appends (d, e) to factors when d^e,
    e >= 1, exactly divides m."""
    e = 0
    while m % d == 0:
        m //= d
        e += 1
    if e:
        factors.append((d, e))
    return m


def _as_factored(m) -> FactoredInteger:
    if isinstance(m, FactoredInteger):
        return m
    return factorize(m)


def mobius(m) -> int:
    """Moebius function: 0 on non-squarefree input, else (-1)**omega."""
    f = _as_factored(m)
    if not f.is_squarefree():
        return 0
    return -1 if f.omega % 2 else 1


def euler_phi(m) -> int:
    """Euler totient: the number of 1 <= a <= m coprime to m."""
    f = _as_factored(m)
    out = 1
    for p, e in f.factors:
        out *= p ** (e - 1) * (p - 1)
    return out


def primorial(z: int) -> FactoredInteger:
    """Product of all primes strictly below z, with its factorization.

    Rejects z < 2 and results that would exceed 2**63 - 1 (the integer
    width every other operation in this module guarantees).
    """
    if z < 2:
        raise UsageError(f"primorial requires z >= 2, got {z}")
    value = 1
    factors = []
    for p in range(2, z):
        if is_prime_u64(p):
            value *= p
            if value > MAX_INT_WIDTH:
                raise ResourceLimitError(
                    f"primorial({z}) exceeds 2**63 - 1 (overflow at prime {p})"
                )
            factors.append((p, 1))
    return FactoredInteger(value, tuple(factors))


def nu(d, two_k: int) -> int:
    """Multiplicative pair-density weight on squarefree d.

    At a prime p the value is 1 when p divides 2k (only the residue 0 is
    excluded twice over) and 2 otherwise; extended multiplicatively over
    the prime factors of d.  Non-squarefree d is rejected: the sieving
    identities only ever evaluate nu on squarefree divisors.
    """
    _check_even_positive(two_k)
    f = _as_factored(d)
    if not f.is_squarefree():
        raise UsageError(f"nu is only defined here for squarefree d, got {f.value}")
    out = 1
    for p in f.primes:
        out *= 1 if two_k % p == 0 else 2
    return out


def ramanujan_sum_direct(q: int, r: int) -> int:
    """Ramanujan sum c_q(r) by direct summation over residues coprime to q.

    Evaluates sum over 1 <= b <= q with gcd(b, q) = 1 of exp(-2*pi*i*b*r/q)
    in double precision and rounds; the value is a rational integer, so a
    rounding residual above 1e-9 * phi(q) signals numerical trouble and is
    raised as an IdentityError.
    """
    if q < 1:
        raise UsageError(f"ramanujan_sum_direct requires q >= 1, got {q}")
    if q == 1:
        return 1
    b = np.arange(1, q + 1, dtype=np.int64)
    b = b[np.gcd(b, q) == 1]
    phases = np.exp((-2j * np.pi / q) * ((b * (r % q)) % q))
    total = complex(phases.sum())
    nearest = round(total.real)
    residual = abs(total - nearest)
    tolerance = 1e-9 * len(b)
    IdentityCheck("ramanujan-sum-integrality", residual, tolerance, f"q={q}, r={r}").require()
    return int(nearest)


def ramanujan_sum_formula(q, r: int) -> int:
    """Ramanujan sum c_q(r) via the closed form mu(q/g) * phi(q) / phi(q/g)
    with g = gcd(r, q)."""
    f = _as_factored(q)
    g = math.gcd(abs(r), f.value)
    cofactor = f.value // g
    mu = mobius(cofactor)
    if mu == 0:
        return 0
    return mu * euler_phi(f) // euler_phi(cofactor)


def coprime_pair_count_formula(Q, two_k: int) -> Fraction:
    """Count of residues a mod Q with gcd(a, Q) = 1 = gcd(a + 2k, Q), as the
    closed-form product over the primes of a squarefree Q.

    The product multiplies (p - 1) for primes dividing both Q and 2k and
    (p - 2) for the remaining primes of Q; it is integer-valued and returned
    as an exact Fraction.  Non-squarefree Q is rejected (the closed form is
    proved only under that hypothesis).
    """
    _check_even_positive(two_k)
    f = _as_factored(Q)
    if not f.is_squarefree():
        raise UsageError(
            f"coprime pair count formula requires squarefree Q (hypothesis of the "
            f"closed form), got {f.value}"
        )
    out = Fraction(1)
    for p in f.primes:
        out *= (p - 1) if two_k % p == 0 else (p - 2)
    return out


def coprime_pair_count_bruteforce(Q: int, two_k: int) -> int:
    """Literal enumeration of 0 <= a < Q with gcd(a, Q) = 1 = gcd(a + 2k, Q).

    Enumeration budget Q <= 10**7.  This is the oracle the closed form is
    checked against; it works for any positive Q, squarefree or not.
    """
    _check_even_positive(two_k)
    if Q < 1:
        raise UsageError(f"coprime_pair_count_bruteforce requires Q >= 1, got {Q}")
    if Q > 10**7:
        raise ResourceLimitError(f"enumeration budget is Q <= 1e7, got {Q}")
    coprime = np.gcd(np.arange(Q, dtype=np.int64), Q) == 1
    shifted = np.roll(coprime, -(two_k % Q))
    return int(np.count_nonzero(coprime & shifted))


def coprime_pair_count_inclusion_exclusion(Q, two_k: int) -> int:
    """Same count via Moebius inclusion-exclusion: sum over squarefree
    divisors d | Q of mu(d) * Q * nu(d, 2k) / d (each summand an integer)."""
    _check_even_positive(two_k)
    f = _as_factored(Q)
    if not f.is_squarefree():
        raise UsageError(f"inclusion-exclusion form requires squarefree Q, got {f.value}")
    return sum(mobius(d) * (f.value // d.value) * nu(d, two_k) for d in f.divisors())


def _check_even_positive(two_k: int) -> None:
    if two_k < 2 or two_k % 2:
        raise UsageError(f"2k must be an even positive integer, got {two_k}")
