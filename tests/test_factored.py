import inspect
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primepairs import (
    FactoredInteger,
    ResourceLimitError,
    UsageError,
    coprime_pair_count_bruteforce,
    coprime_pair_count_formula,
    coprime_pair_count_inclusion_exclusion,
    euler_phi,
    factorize,
    is_prime_u64,
    mobius,
    nu,
    primorial,
    ramanujan_sum_direct,
    ramanujan_sum_formula,
)

import oracles


class TestFactorize:
    def test_one_has_empty_factorization(self):
        assert factorize(1).factors == ()

    def test_small_examples(self):
        assert factorize(30).factors == ((2, 1), (3, 1), (5, 1))
        assert factorize(360).factors == ((2, 3), (3, 2), (5, 1))

    def test_rejects_zero_and_negative(self):
        with pytest.raises(UsageError):
            factorize(0)
        with pytest.raises(UsageError):
            factorize(-6)

    def test_rejects_values_beyond_width(self):
        with pytest.raises(ResourceLimitError):
            factorize(2**63)

    def test_large_prime_cofactor(self):
        n = 2**61 - 1  # Mersenne prime
        f = factorize(4 * n)
        assert f.factors == ((2, 2), (n, 1))

    @given(st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_and_primality_of_factors(self, m):
        f = factorize(m)
        assert math.prod(p**e for p, e in f.factors) == m
        assert all(oracles.is_prime_naive(p) for p, _ in f.factors)
        assert list(f.primes) == sorted(f.primes)

    def test_malformed_factorization_rejected(self):
        with pytest.raises(UsageError):
            FactoredInteger(6, ((3, 1), (2, 1)))
        with pytest.raises(UsageError):
            FactoredInteger(6, ((2, 1),))


class TestDivisors:
    @given(st.integers(min_value=1, max_value=10**5))
    @settings(max_examples=100, deadline=None)
    def test_each_divisor_once_and_factored(self, n):
        f = factorize(n)
        walk = list(f.divisors())
        values = [d.value for d in walk]
        assert len(set(values)) == len(values)
        assert sorted(values) == [d for d in range(1, n + 1) if n % d == 0]
        assert len(walk) == math.prod(e + 1 for _, e in f.factors)
        assert all(math.prod(p**e for p, e in d.factors) == d.value for d in walk)
        assert values[0] == 1 and values[-1] == n

    def test_walk_is_lazy(self):
        # primorial(50) has 2**15 divisors; the first comes after building
        # one FactoredInteger, not all of them
        walk = primorial(50).divisors()
        assert inspect.isgenerator(walk)
        built = []
        original = FactoredInteger.__post_init__
        with mock.patch.object(FactoredInteger, "__post_init__", lambda f: built.append(original(f))):
            first = next(walk)
        assert first == FactoredInteger(1, ()) and len(built) == 1


class TestMultiplicativeFunctions:
    def test_mobius_examples(self):
        assert mobius(1) == 1
        assert mobius(4) == 0
        assert mobius(6) == 1

    def test_euler_phi_examples(self):
        assert euler_phi(1) == 1
        assert euler_phi(12) == 4
        assert euler_phi(30) == 8

    @given(st.integers(min_value=1, max_value=400))
    @settings(max_examples=150, deadline=None)
    def test_against_enumeration(self, m):
        assert mobius(m) == oracles.mobius_naive(m)
        assert euler_phi(m) == oracles.phi_naive(m)

    @given(st.integers(min_value=1, max_value=3000), st.integers(min_value=1, max_value=3000))
    @settings(max_examples=200, deadline=None)
    def test_multiplicative_on_coprime_pairs(self, a, b):
        if math.gcd(a, b) != 1:
            return
        assert mobius(a * b) == mobius(a) * mobius(b)
        assert euler_phi(a * b) == euler_phi(a) * euler_phi(b)

    def test_nu_multiplicative_on_coprime_squarefree(self):
        rng = np.random.default_rng(7)
        squarefree = [m for m in range(1, 200) if mobius(m) != 0]
        for _ in range(100):
            a, b = rng.choice(squarefree, 2)
            if math.gcd(int(a), int(b)) != 1:
                continue
            for two_k in (2, 4, 6, 30):
                assert nu(int(a) * int(b), two_k) == nu(int(a), two_k) * nu(int(b), two_k)


class TestPrimorial:
    def test_small_values(self):
        assert primorial(3).value == 2
        assert primorial(6).value == 30
        # product of all primes strictly below 30, including 29
        assert primorial(30).value == 6469693230

    def test_factors_are_consecutive_primes(self):
        assert primorial(12).factors == ((2, 1), (3, 1), (5, 1), (7, 1), (11, 1))

    def test_overflow_names_z(self):
        with pytest.raises(ResourceLimitError, match="59"):
            primorial(59)

    def test_rejects_tiny_z(self):
        with pytest.raises(UsageError):
            primorial(1)


class TestNu:
    def test_examples(self):
        assert nu(6, 4) == 2
        assert nu(15, 4) == 4
        assert nu(1, 8) == 1

    def test_rejects_non_squarefree(self):
        with pytest.raises(UsageError):
            nu(12, 4)

    def test_rejects_odd_shift(self):
        with pytest.raises(UsageError):
            nu(6, 3)


class TestRamanujanSums:
    def test_examples(self):
        assert ramanujan_sum_direct(1, 5) == 1
        assert ramanujan_sum_direct(3, 2) == -1
        assert ramanujan_sum_direct(6, 2) == -1
        assert ramanujan_sum_formula(2, 2) == 1
        assert ramanujan_sum_formula(3, 2) == -1
        assert ramanujan_sum_formula(30, 6) == -2

    def test_r_zero_gives_phi(self):
        for q in (1, 2, 12, 30):
            assert ramanujan_sum_formula(q, 0) == euler_phi(q)
            assert ramanujan_sum_direct(q, 0) == euler_phi(q)

    def test_symmetric_in_r(self):
        for q in (5, 12, 30):
            for r in range(-6, 7):
                assert ramanujan_sum_direct(q, r) == ramanujan_sum_direct(q, -r)
                assert ramanujan_sum_formula(q, r) == ramanujan_sum_formula(q, -r)

    def test_formula_matches_direct_small_grid(self):
        for q in range(1, 61):
            for r in range(0, 61):
                assert ramanujan_sum_formula(q, r) == ramanujan_sum_direct(q, r), (q, r)

    def test_against_naive_complex_sum(self):
        for q in (7, 9, 24, 45):
            for r in (0, 1, 5, 11):
                naive = oracles.ramanujan_naive(q, r)
                assert abs(naive.imag) < 1e-9
                assert round(naive.real) == ramanujan_sum_formula(q, r)

    def test_multiplicative_in_q(self):
        for q1 in range(1, 25):
            for q2 in range(1, 25):
                if math.gcd(q1, q2) != 1:
                    continue
                for r in (2, 6, 8):
                    assert ramanujan_sum_formula(q1 * q2, r) == ramanujan_sum_formula(
                        q1, r
                    ) * ramanujan_sum_formula(q2, r)


class TestCoprimePairCounts:
    def test_formula_examples(self):
        assert coprime_pair_count_formula(15, 2) == 3
        assert coprime_pair_count_formula(30, 2) == 3
        assert coprime_pair_count_formula(30, 6) == 6

    def test_bruteforce_examples(self):
        assert coprime_pair_count_bruteforce(15, 2) == 3
        assert coprime_pair_count_bruteforce(30, 2) == 3
        assert coprime_pair_count_bruteforce(30, 6) == 6

    def test_bruteforce_matches_pure_python_loop(self):
        for Q in (1, 2, 15, 30, 36, 210):
            for two_k in (2, 6, 12):
                assert coprime_pair_count_bruteforce(Q, two_k) == oracles.coprime_pairs_loop(
                    Q, two_k
                )

    def test_formula_returns_exact_fraction(self):
        value = coprime_pair_count_formula(30, 2)
        assert isinstance(value, Fraction)
        assert value.denominator == 1

    def test_formula_rejects_non_squarefree(self):
        with pytest.raises(UsageError, match="squarefree"):
            coprime_pair_count_formula(12, 2)

    def test_bruteforce_budget(self):
        with pytest.raises(ResourceLimitError):
            coprime_pair_count_bruteforce(10**7 + 1, 2)

    def test_three_forms_agree_on_small_grid(self):
        squarefree = [m for m in range(1, 211) if mobius(m) != 0]
        for Q in squarefree:
            for two_k in (2, 4, 6, 10, 50):
                formula = coprime_pair_count_formula(Q, two_k)
                assert formula == coprime_pair_count_bruteforce(Q, two_k)
                assert formula == coprime_pair_count_inclusion_exclusion(Q, two_k)

    def test_inclusion_exclusion_summands_are_integers(self):
        # each term mu(d) * Q * nu_d(2k) / d is an integer because d | Q
        Q = 210
        f = factorize(Q)
        for two_k in (2, 6):
            for mask in range(1 << f.omega):
                d = math.prod(p for i, p in enumerate(f.primes) if mask >> i & 1)
                assert (Q * nu(d, two_k)) % d == 0


class TestMillerRabin:
    def test_agrees_with_trial_division(self):
        for m in range(0, 2000):
            assert is_prime_u64(m) == oracles.is_prime_naive(m), m

    def test_known_large_values(self):
        assert is_prime_u64(2**61 - 1)
        assert not is_prime_u64((2**31 - 1) * (2**31 + 11))
