import contextlib
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from primepairs import (
    ResourceLimitError,
    UsageError,
    build_table,
    half_spectrum_residual,
    main_term_convolution,
    pair_count_circular,
    pair_count_linear,
    pair_counts_via_spectrum,
    pi_progression,
    psi_pair_direct,
    psi_pair_via_spectrum,
    residue_profile,
    twisted_progression_count,
    von_mangoldt_vector,
)
from primepairs import IdentityError, spectral, transform
from primepairs.errors import IdentityCheck
from primepairs.harness import DEFAULT_TOLERANCES
from primepairs.spectral import (
    column_pair_counts,
    column_pair_spectra,
    correlation_direct,
    decomposition_checks,
    decompositions,
    pair_count_checks,
    pair_count_modulus,
    pair_count_rounding_budget,
    psi_pair_checks,
    subgroup_restriction_check,
)
from primepairs.transform import ColumnBlocks, as_ring, forward, unit_phase

import oracles


class TestSpectralPairCount:
    @pytest.mark.parametrize("n", [24, 30, 120, 1009, 4096, 30030])
    @pytest.mark.parametrize("two_k", [2, 4, 6, 12])
    def test_matches_circular_sieve(self, n, two_k):
        table = build_table(n)
        assert pair_counts_via_spectrum(table, [two_k]) == [pair_count_circular(table, two_k)]

    def test_small_reference_values(self, table_100):
        assert pair_counts_via_spectrum(build_table(30), [2]) == [4]
        assert pair_counts_via_spectrum(table_100, [2, 6]) == [
            8,
            oracles.pair_count_circular_naive(100, 6),
        ]

    def test_rejects_out_of_range_shift(self):
        with pytest.raises(UsageError):
            pair_counts_via_spectrum(build_table(30), [30])

    def test_prime_weights_through_shared_core(self, table_100):
        # the correlation core applied to the prime indicator is exactly
        # the integer pair count
        raw = oracles.pair_correlation_via_spectrum(table_100.ring_indicator(), 6)
        assert raw.real == pytest.approx(pair_count_circular(table_100, 6), abs=1e-9)
        assert raw.imag == pytest.approx(0.0, abs=1e-9)


class TestRhoIdentity:
    def test_desk_instances(self):
        t = build_table(3000)
        assert subgroup_restriction_check(t, 30).require().residual < 1e-6 * t.pi(3000)

    def test_trivial_modulus(self, table_100):
        assert subgroup_restriction_check(table_100, 1).require().residual < 1e-9

    def test_dc_sample_is_prime_count(self, table_9240):
        spec = forward(table_9240.ring_indicator())
        assert spec[0].real == pytest.approx(table_9240.pi(9240), abs=1e-8)

    def test_rejects_non_divisor(self, table_100):
        with pytest.raises(UsageError):
            subgroup_restriction_check(table_100, 30)


class TestIdentityChecks:
    """Each identity's one check: the functions that return checks record
    a violation, and the functions that return values raise it."""

    def test_record(self):
        assert IdentityCheck("x", 1.0, 1.0).passed
        assert not IdentityCheck("x", 2.0, 1.0).passed
        assert not IdentityCheck("x", math.nan, 1.0).passed
        ok = IdentityCheck("x", 0.5, 1.0)
        assert ok.require() is ok
        with pytest.raises(IdentityError, match=r"^x: residual 2 exceeds tolerance 1 \(n=7\)$") as info:
            IdentityCheck("x", 2.0, 1.0, "n=7").require()
        assert (info.value.identity, info.value.residual, info.value.tolerance) == ("x", 2.0, 1.0)

    def test_subgroup_restriction(self, monkeypatch):
        t = build_table(3000)
        check = subgroup_restriction_check(t, 30)
        assert check.identity == "subgroup-restriction"
        assert check.tolerance == 1e-6 * t.pi(3000)
        assert check.residual == subgroup_restriction_check(t, 30).require().residual
        # one count off by one moves the counts' transform by 1 at every r
        original = spectral.residue_profile

        def off_by_one(table, Q):
            return original(table, Q) + np.eye(Q)[0]

        monkeypatch.setattr(spectral, "residue_profile", off_by_one)
        check = subgroup_restriction_check(t, 30)
        assert check.residual == pytest.approx(1.0) and not check.passed
        with pytest.raises(IdentityError, match="subgroup-restriction"):
            subgroup_restriction_check(t, 30).require()

    def test_decomposition_reconstruction(self):
        # at n = 30030, Q = 6, 2k = 2 the reconstruction residual is about
        # 1e-13, far above a tolerance of 1e-30 * n
        t = build_table(30030)
        ((report, check),) = decomposition_checks(t, 6, [2], tol=1e-30)
        assert check.identity == "decomposition-reconstruction"
        assert check.residual == report.reconstruction_residual > 0
        assert check.tolerance == 1e-30 * 30030 and not check.passed
        assert report.main_term == next(decompositions(t, 6, [2])).main_term
        with pytest.raises(IdentityError, match="decomposition-reconstruction"):
            next(decompositions(t, 6, [2], tol=1e-30))

    def test_pair_counts(self, table_10k):
        checked = pair_count_checks(table_10k, [2, 4, 210])
        assert [count for count, _ in checked] == pair_counts_via_spectrum(table_10k, [2, 4, 210])
        Q = pair_count_modulus(10**4)
        model = pair_count_rounding_budget(table_10k.pi(10**4), Q, 10**4 // Q)
        assert {check.tolerance for _, check in checked} == {min(model, 1e-6 * 10**4)}
        assert all(check.passed for _, check in checked)


def _plus_one(monkeypatch, name, hit=lambda *args: True):
    """Patch spectral.<name> to add 1 to its value where ``hit`` holds."""
    exact = getattr(spectral, name)
    monkeypatch.setattr(spectral, name, lambda *args: exact(*args) + hit(*args))


def _flip_bit(table, x):
    """Mark the composite x prime in the table's bitmap."""
    assert not table.is_prime[x]
    table.is_prime[x] = True


class TestOneUnitDefects:
    """Each check's identity with one unit planted on one side only, at
    n = 30030 and Q = 30: the check fails at its default tolerance.  Each
    entry is (check, plant); the plant alters the table or a sieve-side
    value before the check runs."""

    N, Q = 30030, 30

    DEFECTS = {
        # the cached spectrum reads the true bitmap; the round trip then
        # subtracts the bitmap that holds the composite 9 too: off by 1 at x = 9
        "round-trip": (
            lambda t, tol: spectral.round_trip_check(t, tol),
            lambda t, mp: (t.spectrum(), _flip_bit(t, 9)),
        ),
        # the same plant: the table's pi(n) is one more than the spectral one
        "plancherel": (
            lambda t, tol: spectral.plancherel_check(t, tol),
            lambda t, mp: (t.spectrum(), _flip_bit(t, 9)),
        ),
        # a second even "prime", 4, in the spectrum: the even part is then
        # e_n(-2 xi) + e_n(-4 xi), not e_n(-2 xi), off by 2 at every xi
        "parity-half-spectrum": (
            lambda t, tol: spectral.parity_half_spectrum_check(t, tol),
            lambda t, mp: _flip_bit(t, 4),
        ),
        # one prime too many counted in class 1
        "twisted-plancherel": (
            lambda t, tol: spectral.twisted_plancherel_check(t, 30, tol),
            lambda t, mp: _plus_one(mp, "pi_progression", lambda t, q, a: a == 1),
        ),
        # the residue counts read the cached primes; the columns, gathered
        # after them, hold the composite 9 in class 9: off by 1 at every r
        "subgroup-restriction": (
            lambda t, tol: subgroup_restriction_check(t, 30, tol),
            lambda t, mp: (t.primes(), _flip_bit(t, 9)),
        ),
        # the sieved circular count one pair too many
        "spectral-pair-count": (
            lambda t, tol: pair_count_checks(t, [2], tol)[0][1],
            lambda t, mp: _plus_one(mp, "pair_count_circular"),
        ),
        # the direct psi correlation one unit too large
        "psi-spectral-identity": (
            lambda t, tol: psi_pair_checks(t, [2], tol)[0][1],
            lambda t, mp: _plus_one(mp, "correlation_direct"),
        ),
    }

    def test_every_certifying_key_has_a_defect(self):
        # the reconstruction (tol * n) and main-term (tol * n/Q) budgets
        # pass a defect of one unit at the suite's extents, n >= 1e6: they
        # do not certify yet, so they have no case here
        uncertified = {"decomposition-reconstruction", "main-term-convolution"}
        assert set(self.DEFECTS) == set(DEFAULT_TOLERANCES) - uncertified

    @pytest.mark.parametrize("key", sorted(DEFECTS))
    def test_one_unit_fails_the_check(self, monkeypatch, key):
        check, plant = self.DEFECTS[key]
        tol = DEFAULT_TOLERANCES[key]
        clean = check(build_table(self.N), tol)
        assert clean.identity == key and clean.passed
        t = build_table(self.N)
        plant(t, monkeypatch)
        planted = check(t, tol)
        assert planted.identity == key and planted.tolerance <= clean.tolerance * 1.001
        assert not planted.passed, (planted.residual, planted.tolerance)


class TestMainTermConvolution:
    def test_trivial_modulus_is_squared_density(self, table_100):
        value = main_term_convolution(table_100, 1, 2)
        assert value == pytest.approx(table_100.pi(100) ** 2 / 100)

    def test_zero_lag_autocorrelation(self, table_9240):
        # 2k = 0 mod Q reduces to the sum of squared residue counts
        value = main_term_convolution(table_9240, 30, 30)
        rho = np.array([pi_progression(table_9240, 30, a) for a in range(30)], dtype=float)
        assert value == pytest.approx(30 / 9240 * np.dot(rho, rho))

    def test_matches_decomposition_main_term(self):
        for n, Q, two_k in ((3000, 30, 2), (3840, 30, 2), (9240, 2310, 6)):
            t = build_table(n)
            report = next(decompositions(t, Q, [two_k]))
            assert main_term_convolution(t, Q, two_k) == pytest.approx(
                report.main_term, abs=1e-6 * n / Q
            )


class TestDecompose:
    def test_reconstruction_and_positivity(self):
        t = build_table(3840)
        report = next(decompositions(t, 30, [2]))
        assert report.reconstruction_residual < 1e-6 * 3840
        assert report.main_term > 0
        assert report.pair_count_circular == pair_count_circular(t, 2)
        assert report.error_spectrum.shape == (3840 // 30,)

    @pytest.mark.parametrize("n, Q", [(30030, 30), (1000020, 30), (1000230, 2310)])
    def test_main_term_is_real(self, n, Q):
        # T(0) is built from the columns' real rfft bins 0 and the unit
        # phase 1, so its imaginary part is exactly zero
        for report in decompositions(build_table(n), Q, [2, 4, 6]):
            assert report.error_spectrum[0].imag == 0.0

    def test_modulus_two_reproduces_parity_main_term(self):
        # Q = 2: the main term is (2/n) * pi-odd^2-ish, about twice the
        # naive squared density
        n = 4096
        t = build_table(n)
        report = next(decompositions(t, 2, [2]))
        naive = t.pi(n) ** 2 / n
        assert report.main_term == pytest.approx(2 * naive, rel=0.01)

    # Q | n need not be a primorial: odd squarefree moduli, prime powers
    # and a non-squarefree composite, and Q = n, where the main term is
    # the whole count
    @pytest.mark.parametrize(
        "n, Q, two_k",
        [
            (3000, 15, 2), (3500, 35, 4), (3850, 77, 6),
            (1000, 4, 2), (1000, 8, 4), (360, 12, 2), (24, 24, 22),
        ],
    )
    def test_any_divisor_modulus(self, n, Q, two_k):
        t = build_table(n)
        report = next(decompositions(t, Q, [two_k]))
        sieved = pair_count_circular(t, two_k)
        assert report.pair_count_circular == sieved
        assert report.reconstruction_residual < 1e-9 * n
        # both sides are Q * sum_r rho(r) rho(r + 2k), an integer
        convolution = n * main_term_convolution(t, Q, two_k)
        assert n * report.main_term == pytest.approx(convolution, rel=1e-12)
        assert round(n * report.main_term) == round(convolution)
        if Q == n:
            assert round(convolution) == n * sieved

    def test_non_primorial_main_term_hand_value(self):
        # n = 360, Q = 12: n * main term = 12 * sum_r rho(r) rho(r + 2)
        t = build_table(360)
        assert round(360 * next(decompositions(t, 12, [2])).main_term) == 7752
        rho = [pi_progression(t, 12, r) for r in range(12)]
        assert 12 * sum(rho[r] * rho[(r + 2) % 12] for r in range(12)) == 7752

    def test_requires_divisibility(self):
        with pytest.raises(UsageError):
            next(decompositions(build_table(3001), 30, [2]))

    def test_oversized_modulus_still_exact(self, caplog):
        # Q above sqrt(n) stays a valid exact identity, with one warning;
        # Q = 30 below sqrt(4620) gives none
        with caplog.at_level("WARNING", "primepairs.spectral"):
            report = next(decompositions(build_table(2310 * 2), 2310, [2]))
        assert report.reconstruction_residual < 1e-6 * 2310 * 2
        warnings = [r.getMessage() for r in caplog.records if r.name == "primepairs.spectral"]
        assert len(warnings) == 1 and "Q=2310" in warnings[0] and "n=4620" in warnings[0]
        caplog.clear()
        with caplog.at_level("WARNING", "primepairs.spectral"):
            next(decompositions(build_table(4620), 30, [2]))
        assert not [r for r in caplog.records if r.name == "primepairs.spectral"]


def _twisted_correlation(t, Q, two_k, xi):
    """sum_a rho_xi(a) * conj(rho_xi(a + 2k mod Q)) over the twisted
    residue profile at xi, a direct sum over the primes with no transform:
    T(xi) / Q, by the subgroup inversion at xi."""
    rho = residue_profile(t, Q, xi=xi)
    return complex(np.sum(rho * np.conj(np.roll(rho, -(two_k % Q)))))


class TestErrorProbe:
    """The error spectrum probed at one frequency xi by the twisted
    residue profile, against the column kernel's T(xi)."""

    def test_matches_coset_regroup_value(self):
        n, Q, two_k = 3000, 30, 2
        t = build_table(n)
        report = next(decompositions(t, Q, [two_k]))
        for xi in (1, 7, 42):
            assert Q * _twisted_correlation(t, Q, two_k, xi) == pytest.approx(
                complex(report.error_spectrum[xi]), abs=1e-6 * t.pi(n) ** 2
            )

    def test_majorized_by_untwisted_counts(self):
        n, Q, two_k = 3000, 30, 2
        t = build_table(n)
        rho = np.array([pi_progression(t, Q, a) for a in range(Q)], dtype=float)
        majorant = float(np.dot(rho, np.roll(rho, -two_k)))
        for xi in (1, 13, 99):
            assert abs(_twisted_correlation(t, Q, two_k, xi)) <= majorant + 1e-9

    def test_trivial_modulus_gives_power_at_xi(self):
        n = 900
        t = build_table(n)
        spec = forward(t.ring_indicator())
        for xi in (1, 5, 100):
            assert _twisted_correlation(t, 1, 2, xi) == pytest.approx(
                abs(spec[xi]) ** 2, abs=1e-6 * t.pi(n)
            )

    def test_per_residue_is_twisted_count(self):
        n, Q, xi = 3000, 30, 17
        t = build_table(n)
        rho = residue_profile(t, Q, xi=xi)
        for a in (0, 1, 7, 29):
            assert rho[a] == pytest.approx(twisted_progression_count(t, xi, Q, a), abs=1e-9)


class TestPsiPair:
    def test_spectral_equals_direct(self):
        for n in (30, 1009):
            t = build_table(n)
            for two_k in (2, 6):
                spectral = psi_pair_via_spectrum(t, two_k)
                direct = psi_pair_direct(t, two_k)
                assert abs(spectral - direct) < 1e-6 * n * math.log(n) ** 2

    def test_hand_value_n30(self):
        # direct double sum over the von Mangoldt weights, wrapping mod 30
        lam = von_mangoldt_vector(build_table(30))
        expected = sum(
            lam[x] * lam[(x + 2 - 1) % 30 + 1] for x in range(1, 31)
        )
        assert psi_pair_via_spectrum(build_table(30), 2) == pytest.approx(expected, abs=1e-9)

    def test_zero_shift_is_energy(self):
        t = build_table(500)
        ring = as_ring(von_mangoldt_vector(t))
        assert psi_pair_via_spectrum(t, 0) == pytest.approx(
            float(np.dot(ring, ring)), abs=1e-7
        )

    def test_cap_names_the_column_length(self, table_10000019):
        # the prime 10000019 has Q = 1, so its one column is the whole ring;
        # the kernel rejects it, as a resource limit, before any transform
        with pytest.raises(ResourceLimitError, match="residue-column length capped at 1e7, got 10000019$"):
            psi_pair_via_spectrum(table_10000019, 2)

    def test_cap_checked_before_the_weights(self, table_10000019, monkeypatch):
        # the von Mangoldt weights of 10000019 are about 80 MB; the column
        # length is rejected before any of them is built
        calls = []
        monkeypatch.setattr(spectral, "von_mangoldt_vector", lambda *a: calls.append(a))
        with pytest.raises(ResourceLimitError, match="residue-column length capped at 1e7, got 10000019$"):
            psi_pair_via_spectrum(table_10000019, 2)
        assert calls == []

    def test_checks_of_several_shifts_match_one_shift_calls(self):
        t = build_table(1009)
        checked = psi_pair_checks(t, [0, 2, 6])
        assert [value for value, _ in checked] == [psi_pair_via_spectrum(t, k) for k in (0, 2, 6)]
        for two_k, (_, check) in zip((0, 2, 6), checked):
            assert check.identity == "psi-spectral-identity"
            assert check.residual == abs(psi_pair_via_spectrum(t, two_k) - psi_pair_direct(t, two_k))
            # the rounding model, far below 1e-6 * n * log(n)^2
            model = spectral.psi_rounding_budget(von_mangoldt_vector(t), 1)
            assert check.tolerance == model < 1e-6 * 1009 * math.log(1009) ** 2

    def test_density_ratio_reported_scale(self):
        # psi-pair mass over C_2k * n is of order one already at modest n
        from primepairs import hl_constant

        n = 10**5
        ratio = psi_pair_via_spectrum(build_table(n), 2) / (hl_constant(2, 10**6).value * n)
        assert 0.7 <= ratio <= 1.3


class TestBlasFreeSums:
    def test_independent_of_blas_threads(self):
        """OpenBLAS splits a dot product of more than about 1e4 entries
        across its threads, which sums it in another order; the
        residue-count convolution is a numpy reduction, so one BLAS thread
        and two print the same digits."""
        script = (
            "from primepairs import build_table, main_term_convolution\n"
            "t = build_table(10**6)\n"
            "print(repr(main_term_convolution(t, 10**5, 2)))\n"
        )
        printed = []
        for threads in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
                capture_output=True,
                text=True,
                cwd=str(Path(__file__).resolve().parent.parent),
            )
            assert proc.returncode == 0, proc.stderr
            printed.append(proc.stdout)
        assert printed[0] == printed[1]
        assert printed[0].count("\n") == 1


class TestHalfSpectrum:
    def test_parity_relation_exact(self):
        for n in (4, 30, 100, 4096, 9240):
            t = build_table(n)
            assert half_spectrum_residual(t) < 1e-6 * max(t.pi(n), 1)

    def test_rejects_odd_extent(self):
        with pytest.raises(UsageError):
            half_spectrum_residual(build_table(99))

    # n/2 below one block; 2.5 blocks; 1e6, whose n/2 = 500000 is not a
    # multiple of the block either
    @pytest.mark.parametrize("n", [4, 5 * spectral.PARITY_BLOCK, 10**6])
    def test_blocks_equal_one_pass(self, n):
        t = build_table(n)
        residual = half_spectrum_residual(t)
        assert residual.hex() == oracles.half_spectrum_residual_one_pass(t.spectrum(), n).hex()

    def test_traced_peak_holds_a_few_blocks(self):
        # beside the cached half spectrum, the relation holds the arrays of
        # one block of frequencies, about 105 bytes a frequency; one pass
        # over all n/2 = 2e6 frequencies would hold 130 MB
        n = 4 * 10**6
        t = build_table(n)
        t.spectrum()
        tracemalloc.start()
        try:
            half_spectrum_residual(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 128 * spectral.PARITY_BLOCK < 16 * (n // 2)


class TestRingFreeChecks:
    """The round-trip and Plancherel checks read the bitmap and pi(n) in
    place of a float ring, with the same residuals, bit for bit, as the
    ring formulas: the ring's entries are exactly 0.0 and 1.0, and a float
    sum of pi(n) ones is pi(n)."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 30030, 30031, 1000002])
    def test_residuals_equal_the_ring_formulas(self, n):
        t = build_table(n)
        ring, half = t.ring_indicator(), t.spectrum()
        for check, formula in (
            (spectral.round_trip_check(t), oracles.round_trip_residual_ring(ring, half)),
            (spectral.plancherel_check(t), oracles.plancherel_residual_ring(ring, half)),
        ):
            assert check.residual.hex() == formula.hex()


PRIMORIALS = (1, 2, 6, 30, 210, 2310)
EXTENTS = st.integers(min_value=4, max_value=1200)


def _divisors(n):
    return [q for q in range(1, n + 1) if n % q == 0]


class TestHermitianPaths:
    """Identities read from the cached real spectrum or from residue
    columns at odd and even n, prime n, n = 2k + 2 and Q = n, against
    full-length transforms and the sieve; odd n has no Nyquist bin, so
    its mirror differs."""

    @given(n=EXTENTS)
    @example(n=4)
    @example(n=1009)
    @example(n=2310)
    @example(n=9973)
    @example(n=30030)
    @settings(max_examples=40, deadline=None)
    def test_pair_count_every_even_shift(self, n):
        t = build_table(n)
        # the last shift is 2k = n - 2 for even n
        shifts = list(range(2, n, 2))
        assert pair_counts_via_spectrum(t, shifts) == [pair_count_circular(t, k) for k in shifts]

    @given(n=EXTENTS, k=st.integers(min_value=0, max_value=600))
    @example(n=1155, k=0)
    @example(n=2310, k=1153)
    @example(n=30, k=13)
    @example(n=30030, k=2)
    @example(n=30031, k=4)
    @settings(max_examples=40, deadline=None)
    def test_error_spectrum_matches_full_transform(self, n, k):
        two_k = 2 + 2 * (k % ((n - 1) // 2))  # every even shift 2 <= 2k < n
        t = build_table(n)
        ring = t.ring_indicator()
        for Q in (q for q in PRIMORIALS if n % q == 0):
            expected = oracles.error_spectrum_full_route(ring, Q, two_k)
            got = next(decompositions(t, Q, [two_k])).error_spectrum
            assert got.shape == (n // Q,)
            assert np.abs(got - expected).max() <= 1e-12 * max(np.abs(expected).max(), 1.0)

    @given(n=EXTENTS)
    @example(n=4)
    @example(n=997)
    @example(n=2310)
    @example(n=30030)
    @example(n=30031)
    @settings(max_examples=40, deadline=None)
    def test_rho_identity_every_divisor(self, n):
        # every divisor: Q = 1 (one column, the ring), Q = n (columns of
        # length 1) and, at prime n, nothing between
        t = build_table(n)
        budget = 1e-6 * max(t.pi(n), 1)
        for Q in _divisors(n):
            expected = oracles.subgroup_samples_full_route(t.ring_indicator(), Q)
            got = spectral.subgroup_samples(ColumnBlocks(t.is_prime, Q))
            assert got.shape == (Q,)
            assert np.abs(got - expected).max() <= 1e-9 * max(t.pi(n), 1)
            assert subgroup_restriction_check(t, Q).require().residual <= budget

    @pytest.mark.parametrize("block", [1, 2, 5])
    def test_subgroup_samples_across_blocks(self, table_9240, block):
        # blocks of a few column spectra, so the bins 0 come from many
        # batched rffts
        n, Q = 9240, 2310
        expected = oracles.subgroup_samples_full_route(table_9240.ring_indicator(), Q)
        with _classes_per_block(block, n // Q):
            got = spectral.subgroup_samples(ColumnBlocks(table_9240.is_prime, Q))
        assert np.abs(got - expected).max() <= 1e-9 * table_9240.pi(n)

    @pytest.mark.parametrize("block", [1, 2, 5, None])
    def test_shared_columns_match_unshared(self, block):
        # the subgroup samples and then the decompositions read one table's
        # columns and give, bit for bit, what each gets from columns of its
        # own; with more than one block the table keeps no spectra, and
        # with one it transforms its columns once for both.  The
        # decompositions then release them
        n, Q, shifts = 9240, 210, [2, 4, 420]
        with _classes_per_block(block, n // Q), _counted_column_rffts() as batches:
            t = build_table(n)
            columns = t.columns(Q)
            shared = spectral.subgroup_samples(columns)
            kept = columns.kept
            shared_reports = list(decompositions(t, Q, shifts))
            shared_batches = len(batches)
            alone = spectral.subgroup_samples(ColumnBlocks(t.is_prime, Q))
            alone_reports = list(decompositions(build_table(n), Q, shifts))
        assert shared.tobytes() == alone.tobytes()
        for a, b in zip(shared_reports, alone_reports, strict=True):
            assert a.error_spectrum.tobytes() == b.error_spectrum.tobytes()
            assert (a.main_term, a.reconstruction_residual) == (b.main_term, b.reconstruction_residual)
        # the 48 units mod 210 and the classes of 2, 3, 5 and 7, whose
        # columns are one impulse, transformed once in a block
        assert columns.classes.size == 52
        if block is None:
            assert kept is not None and not kept.flags.writeable
            assert batches == [(49, n // Q)] * 3
        else:
            assert kept is None
            assert shared_batches == len(batches) - shared_batches >= 2 * -(-52 // block)
        # the table holds no column spectra after the decompositions
        released = weakref.ref(columns)
        del columns
        assert released() is None

    def test_one_column_rfft_per_table_and_modulus(self):
        # a subgroup check and then a decomposition on one table at one Q,
        # the identity suite's order, read the columns the table keeps: the
        # 8 units mod 30 and the classes of 2, 3 and 5, transformed once,
        # the last three as one impulse.  The decomposition releases them,
        # so the next one transforms again
        t = build_table(9240)
        with _counted_column_rffts() as batches:
            columns = t.columns(30)
            subgroup_restriction_check(t, 30).require()
            first = list(decompositions(t, 30, [2, 4]))
            assert batches == [(9, 9240 // 30)]
            fresh = t.columns(30)
            assert fresh is not columns and fresh.kept is None
            second = list(decompositions(t, 30, [2, 4]))
        assert batches == [(9, 9240 // 30)] * 2
        for a, b, two_k in zip(first, second, [2, 4], strict=True):
            assert a.pair_count_circular == pair_count_circular(t, two_k)
            assert a.error_spectrum.tobytes() == b.error_spectrum.tobytes()

    @pytest.mark.parametrize("two_k", [3, 0, 9240])
    @pytest.mark.parametrize(
        "entry",
        [
            lambda t, two_k: pair_count_checks(t, [2, two_k]),
            lambda t, two_k: pair_counts_via_spectrum(t, [two_k]),
            lambda t, two_k: next(decomposition_checks(t, 30, [2, two_k])),
            lambda t, two_k: list(decompositions(t, 30, [two_k])),
            lambda t, two_k: next(decompositions(t, 30, [two_k])),
            lambda t, two_k: main_term_convolution(t, 30, two_k),
        ],
    )
    def test_shifts_checked_before_any_column_rfft(self, entry, two_k):
        # an odd shift, 2k = 0 and 2k = n are rejected before the first
        # numpy.fft call (a (17, 154) column batch for the pair counts, a
        # (9, 308) one for the decompositions) and before the main-term
        # convolution's residue profile; a fresh table has no cached spectrum
        t = build_table(9240)
        with _counted_fft_calls() as calls, mock.patch.object(spectral, "residue_profile") as profile:
            with pytest.raises(UsageError, match=f"need even 2 <= 2k < n, got 2k={two_k}, n=9240$"):
                entry(t, two_k)
        assert calls == [] and not profile.called

    def test_another_modulus_replaces_the_columns(self):
        # the table keeps the columns of the last Q only: asking for
        # another releases them, spectra and all
        t = build_table(9240)
        columns = t.columns(30)
        spectral.subgroup_samples(columns)
        assert columns.kept is not None and t.columns(30) is columns
        released = weakref.ref(columns)
        del columns
        replaced = t.columns(210)
        assert replaced.Q == 210 and replaced.kept is None
        assert released() is None
        assert t.columns(210) is replaced and t.columns(30) is not replaced


def _column_route_T(half, n, Q, two_k):
    """T(xi) = Q e_n(+2k xi) S(xi) from the half accumulator S, mirrored
    by S(m - xi) = conj S(xi)."""
    m = n // Q
    full = np.concatenate((half, np.conj(half[1 : m - half.shape[0] + 1][::-1])))
    return Q * full * unit_phase(n, -two_k * np.arange(m))


def _full_route_budget(n, Q, primes):
    """Bound on the rounding of ``oracles.error_spectrum_full_route`` for
    a 0/1 ring with ``primes`` ones: its rfft errs by ||dF||_2 <= c eps
    log2(n) ||F||_2 with ||F||_2^2 = n * primes, so the power of all its
    bins errs by at most 2 c eps log2(n) n primes in sum, and the Q phase
    weights and the sum over a coset add at most (Q + 2) eps times the
    coset's power, at most n primes."""
    eps = float(np.finfo(np.float64).eps)
    return eps * n * primes * (2 * spectral.FFT_ERROR_GROWTH * math.log2(max(n, 2)) + Q + 2)


def _classes_per_block(block, m):
    """Blocks of ``block`` column spectra of length m // 2 + 1 (and shift
    groups of block // 2), so that small tables span many blocks; None
    keeps the default."""
    if block is None:
        return contextlib.nullcontext()
    return mock.patch.object(transform, "COLUMN_BLOCK_BYTES", block * (m // 2 + 1) * 16)


@contextlib.contextmanager
def _counted_fft_calls():
    """The names of the numpy.fft entry points called while the context
    is open, in order."""
    calls = []
    with contextlib.ExitStack() as stack:
        for name in ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn"):
            original = getattr(np.fft, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            stack.enter_context(mock.patch.object(np.fft, name, counted))
        yield calls


@contextlib.contextmanager
def _counted_column_rffts():
    """The shapes of the batched column rffts that ``ColumnBlocks`` makes
    while the context is open, in order."""
    batches = []
    original = transform.forward_real

    def counted(f):
        batches.append(f.shape)
        return original(f)

    with mock.patch.object(transform, "forward_real", counted):
        yield batches


class TestColumnKernel:
    """The residue-column kernel against the sieve and against the
    full-length coset regroup, at prime n (Q = 1), Q = n, primorial and
    non-primorial Q, 2k < Q and 2k >= Q, n = 2k + 2, and blocks of a few
    classes, so that partners cross blocks and wrap to the first one."""

    @given(
        n=st.integers(min_value=4, max_value=1500),
        pick=st.integers(min_value=0, max_value=10**6),
        k=st.integers(min_value=0, max_value=10**6),
        block=st.sampled_from([None, 1, 2, 3, 7]),
    )
    @example(n=1009, pick=0, k=0, block=None)  # prime n: Q = 1
    @example(n=1009, pick=1, k=3, block=1)  # prime n: Q = n, columns of length 1
    @example(n=2310, pick=31, k=104, block=3)  # Q = 2310 = n
    @example(n=2310, pick=24, k=1153, block=2)  # Q = 210, n = 2k + 2
    @example(n=1200, pick=9, k=20, block=2)  # Q = 15, 2k = 42 >= Q
    @example(n=1200, pick=10, k=6, block=1)  # Q = 16, 2k = 14 < Q
    @example(n=30, pick=7, k=13, block=None)  # Q = 30 = n, 2k = 28
    @example(n=381, pick=3, k=1128, block=None)  # Q = 381 = n, 2k = 358 pairs no class
    @settings(max_examples=60, deadline=None)
    def test_matches_sieve_and_full_route(self, n, pick, k, block):
        t = build_table(n)
        divisors = _divisors(n)
        Q = divisors[pick % len(divisors)]
        two_k = 2 + 2 * (k % ((n - 1) // 2))  # every even shift 2 <= 2k < n
        shifts = [two_k, 2] if two_k != 2 else [2]
        with _classes_per_block(block, n // Q):
            spectra = list(column_pair_spectra(ColumnBlocks(t.is_prime, Q), shifts))
        counts = column_pair_counts(t.is_prime, Q, shifts)
        budget = pair_count_rounding_budget(t.pi(n), Q, n // Q)
        holding = set(ColumnBlocks(t.is_prime, Q).classes.tolist())
        for shift, half, raw in zip(shifts, spectra, counts):
            assert half.shape == (n // Q // 2 + 1,)
            assert abs(raw - pair_count_circular(t, shift)) <= budget
            expected = oracles.error_spectrum_full_route(t.ring_indicator(), Q, shift)
            if not any((a + shift) % Q in holding for a in holding):
                # no pair of prime-holding classes: the kernel adds nothing,
                # so S is 0 exactly, and the full route reads its rounding
                assert not half.any()
                assert np.abs(expected).max() <= _full_route_budget(n, Q, t.pi(n))
                continue
            got = _column_route_T(half, n, Q, shift)
            # relative, except where T vanishes (no pairs at all)
            scale = max(np.abs(expected).max(), 1.0)
            assert np.abs(got - expected).max() <= 1e-12 * scale
            # S itself: the regrouped T turned back by Q e_n(+2k xi)
            xi = np.arange(half.shape[0])
            s_full = expected[: half.shape[0]] * unit_phase(n, shift * xi) / Q
            assert np.abs(half - s_full).max() <= 1e-12 * scale / Q

    @given(
        n=st.integers(min_value=2, max_value=3000),
        pick=st.integers(min_value=0, max_value=10**6),
        kind=st.sampled_from(["zero", "two", "past_Q", "past_n"]),
        j=st.integers(min_value=0, max_value=50),
        block=st.sampled_from([None, 1, 3]),
    )
    @example(n=2999, pick=0, kind="two", j=0, block=None)  # prime n: Q = 1
    @example(n=2999, pick=1, kind="past_n", j=3, block=1)  # prime n: Q = n
    @example(n=2187, pick=7, kind="past_Q", j=0, block=1)  # n = 3^7: Lambda(n) in class 0
    @example(n=289, pick=1, kind="zero", j=0, block=None)  # n = 17^2, Q = 17
    @example(n=2310, pick=10**6, kind="past_Q", j=5, block=3)  # Q = 2310 = n
    @example(n=2, pick=0, kind="past_n", j=1, block=None)
    @settings(max_examples=60, deadline=None)
    def test_von_mangoldt_weights_match_direct(self, n, pick, kind, j, block):
        # the kernel on Lambda, the psi route, equals the direct double sum
        # within the psi tolerance for every Q | n and 2k in {0, 2, >= Q, >= n}
        divisors = _divisors(n)
        Q = divisors[pick % len(divisors)]
        two_k = {
            "zero": 0,
            "two": 2,
            "past_Q": 2 * (-(-Q // 2) + j),
            "past_n": 2 * (-(-n // 2) + j),
        }[kind]
        t = build_table(n)
        weights = von_mangoldt_vector(t)
        with _classes_per_block(block, n // Q):
            (raw,) = column_pair_counts(weights, Q, [two_k])
        tolerance = 1e-6 * n * math.log(n) ** 2
        direct = correlation_direct(as_ring(weights), two_k)
        assert abs(raw - direct) <= tolerance
        assert abs(psi_pair_via_spectrum(t, two_k) - direct) <= tolerance

    def test_shift_pairing_no_class_yields_zeros(self):
        # no holding class a has a holding partner a + 2k mod Q, so nothing
        # is accumulated; the kernel still yields S = 0 for each such shift,
        # in a group of its own or beside a shift that pairs
        weights = np.zeros(61)
        weights[1] = 1.0  # x = 1 only: class 1 of Q = 6, columns of m = 10
        for shifts in ([2], [2, 4], [2, 0]):
            spectra = list(column_pair_spectra(ColumnBlocks(weights, 6), shifts))
            assert [half.shape for half in spectra] == [(6,)] * len(shifts)
            for two_k, half in zip(shifts, spectra):
                assert not half.any() if two_k else np.allclose(half, 1.0)
            assert column_pair_counts(weights, 6, shifts) == [float(two_k == 0) for two_k in shifts]
        # the bitmap at n = Q = 4: 2 + 2 = 4 and 3 + 2 = 5 = 1 (mod 4) hold no prime
        (half,) = column_pair_spectra(ColumnBlocks(build_table(4).is_prime, 4), [2])
        assert half.shape == (1,) and not half.any()

    def test_small_blocks_agree_with_one_block(self):
        # when every class fits one block, one batched transform serves
        # every shift; any block size gives the same accumulators
        t = build_table(9240)
        shifts = [2, 4, 30, 210, 2310, 9238]
        with _counted_column_rffts() as batches:
            whole = list(column_pair_spectra(ColumnBlocks(t.is_prime, 210), shifts))
        # the 48 units mod 210 and the classes of 2, 3, 5 and 7, the last
        # four one impulse, transformed once
        assert batches == [(49, 9240 // 210)]
        for block in (1, 4, 13):
            with _classes_per_block(block, 9240 // 210):
                blocks = column_pair_spectra(ColumnBlocks(t.is_prime, 210), shifts)
                for a, b in zip(whole, blocks, strict=True):
                    assert np.abs(a - b).max() <= 1e-12 * np.abs(a).max()
        assert list(column_pair_spectra(ColumnBlocks(t.is_prime, 210), [])) == []

    def test_block_without_a_pair_is_not_transformed(self):
        # one class per block: the classes 1, 2, 3 and 5 hold primes mod 6,
        # and at 2k = 2 the class of 2 pairs with none (4 holds no prime),
        # so its block is skipped; the others transform 0 and 2, then 3,
        # then 0 again
        t = build_table(30030)
        (whole,) = column_pair_spectra(ColumnBlocks(t.is_prime, 6), [2])
        with _classes_per_block(1, 30030 // 6), _counted_column_rffts() as batches:
            (half,) = column_pair_spectra(ColumnBlocks(t.is_prime, 6), [2])
        assert batches == [(1, 5005)] * 4
        assert np.array_equal(half, whole)

    def test_cross_check_at_primorial_19(self):
        n = 9699690  # 2*3*5*7*11*13*17*19
        t = build_table(n)
        ring = t.ring_indicator()
        for Q, shifts in ((30, [2]), (210, [6, 420])):
            m = n // Q
            raws = column_pair_counts(t.is_prime, Q, shifts)
            for two_k, raw, report in zip(shifts, raws, decompositions(t, Q, shifts), strict=True):
                expected = oracles.error_spectrum_full_route(ring, Q, two_k)
                got = report.error_spectrum
                scale = np.abs(expected).max()
                assert np.abs(got - expected).max() <= 1e-12 * scale
                assert abs(raw - pair_count_circular(t, two_k)) <= pair_count_rounding_budget(
                    t.pi(n), Q, m
                )
                # the direct twisted sums use no transform of length m or n
                for xi in (1, 12345, m - 1):
                    assert abs(Q * _twisted_correlation(t, Q, two_k, xi) - got[xi]) <= 1e-9 * scale

    @given(
        n=st.integers(min_value=4, max_value=1500),
        pick=st.integers(min_value=0, max_value=10**6),
        ks=st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=5),
        block=st.sampled_from([None, 1, 3]),
    )
    @example(n=2310, pick=5, ks=[0, 1153, 104], block=1)  # Q = 2310 = n, n = 2k + 2
    @example(n=1009, pick=0, ks=[0, 0, 503], block=None)  # prime n: Q = 1, a repeated shift
    @example(n=1200, pick=3, ks=[0, 20, 598], block=3)  # Q = 30, 2k >= Q
    @settings(max_examples=40, deadline=None)
    def test_decompositions_match_one_shift_at_a_time(self, n, pick, ks, block):
        # every shift from one column_pair_spectra call is, bit for bit,
        # the report of that shift alone
        t = build_table(n)
        moduli = [q for q in PRIMORIALS if n % q == 0]
        Q = moduli[pick % len(moduli)]
        shifts = [2 + 2 * (k % ((n - 1) // 2)) for k in ks]  # every even 2 <= 2k < n
        with _classes_per_block(block, n // Q):
            reports = list(decompositions(t, Q, shifts))
            singles = [next(decompositions(t, Q, [two_k])) for two_k in shifts]
        for report, single in zip(reports, singles, strict=True):
            assert report.error_spectrum.tobytes() == single.error_spectrum.tobytes()
            for name in ("n", "Q", "two_k", "main_term", "reconstruction_residual", "pair_count_circular"):
                assert getattr(report, name) == getattr(single, name), name

    def test_modulus_choice(self):
        assert pair_count_modulus(10**7) == 2500
        assert pair_count_modulus(10**6) == 1000
        assert pair_count_modulus(2 * 10**7) == 4000
        assert pair_count_modulus(10000030) == 10
        assert pair_count_modulus(9699690) == 2310
        assert pair_count_modulus(10000019) == 1
        assert pair_count_modulus(4) == 2
        assert pair_count_modulus(64) == 8  # 2, 4 and 8 tie: the largest
        # smallest phi(Q)/Q among Q <= sqrt(n), largest on a tie, by brute force
        for n in range(2, 3001):
            best = min(
                (q for q in _divisors(n) if q * q <= n),
                key=lambda q: (Fraction(oracles.phi_naive(q), q), -q),
            )
            assert pair_count_modulus(n) == best, n


class TestPairCountBudget:
    def test_budget_certifies_measured_residuals(self, table_1e6):
        raw = column_pair_counts(table_1e6.is_prime, 1000, [2, 4, 6, 12])
        budget = pair_count_rounding_budget(table_1e6.pi(10**6), 1000, 1000)
        assert budget < 1e-6
        for two_k, value in zip((2, 4, 6, 12), raw):
            assert abs(value - pair_count_circular(table_1e6, two_k)) <= budget

    def test_budget_of_half_or_more_raises_before_rounding(self, monkeypatch):
        monkeypatch.setattr(spectral, "FFT_ERROR_GROWTH", 1e18)
        with pytest.raises(IdentityError, match="cannot certify"):
            pair_counts_via_spectrum(build_table(120), [2])

    def test_tolerance_tightens_never_loosens(self, monkeypatch):
        n = 30030
        t = build_table(n)
        exact = column_pair_counts(t.is_prime, 30, [2])[0]
        model = pair_count_rounding_budget(t.pi(n), 30, n // 30)

        def shifted(offset):
            monkeypatch.setattr(spectral, "column_pair_counts", lambda *a: [exact + offset])

        # an error inside the model passes at the default and fails a
        # tighter tolerance
        shifted(model / 2)
        assert pair_counts_via_spectrum(t, [2]) == [pair_count_circular(t, 2)]
        with pytest.raises(IdentityError, match="rounding"):
            pair_counts_via_spectrum(t, [2], tol=model / 4 / n)
        # an error past the model fails even under a tolerance of n
        shifted(0.25)
        for tol in (1e-6, 1.0):
            with pytest.raises(IdentityError, match="rounding"):
                pair_counts_via_spectrum(t, [2], tol=tol)

    def test_off_by_one_count_fails_the_one_check(self, monkeypatch):
        # a raw count that rounds exactly, but to a neighbour of the sieved
        # count, is 1 away from it: one check rejects what the rounding
        # alone would pass
        n = 30030
        t = build_table(n)
        exact = column_pair_counts(t.is_prime, 30, [2])[0]
        monkeypatch.setattr(spectral, "column_pair_counts", lambda *a: [exact + 1])
        ((count, check),) = pair_count_checks(t, [2])
        assert count == pair_count_circular(t, 2) + 1
        assert check.residual == pytest.approx(1.0) and not check.passed
        with pytest.raises(IdentityError, match="spectral-pair-count: residual 1 .*rounding"):
            pair_counts_via_spectrum(t, [2])

    def test_counts_for_several_shifts(self, table_10k):
        shifts = [2, 4, 6, 210, 9998]
        assert pair_counts_via_spectrum(table_10k, shifts) == [
            pair_count_circular(table_10k, k) for k in shifts
        ]
        with pytest.raises(UsageError):
            pair_counts_via_spectrum(table_10k, [2, 10**4])


class TestUpperExtent:
    def test_spectral_identity_at_1e7(self):
        # the documented ceiling of the spectral range; twin count matches
        # the published value and the sieve paths
        t = build_table(10**7)
        assert t.pi(10**7) == 664579
        assert pair_counts_via_spectrum(t, [2]) == [oracles.PAIR_COUNT_TWIN_1E7]
        assert pair_count_linear(t, 2) == oracles.PAIR_COUNT_TWIN_1E7

    @pytest.mark.parametrize("n", [10000030, 2 * 10**7])
    def test_pair_count_past_the_cap(self, n):
        # 10000030 = 10 * 1000003 groups by Q = 10, 2e7 by Q = 4000: both
        # transform columns within the cap
        t = build_table(n)
        shifts = [2, 4, 210]
        assert pair_counts_via_spectrum(t, shifts) == [pair_count_circular(t, k) for k in shifts]

    def test_decompose_past_the_cap(self):
        # 10000020 = 30 * 333334: T from length-333334 columns
        n, Q = 10000020, 30
        t = build_table(n)
        report = next(decompositions(t, Q, [2]))
        assert report.error_spectrum.shape == (n // Q,)
        assert report.pair_count_circular == pair_count_circular(t, 2)
        assert report.reconstruction_residual < 1e-6
        assert report.main_term == pytest.approx(main_term_convolution(t, Q, 2), rel=1e-9)

    def test_rho_identity_past_the_cap(self):
        # 20030010 = 30030 * 667: the subgroup samples come from columns
        # of length 667 and one transform of length 30030, each within the
        # cap that the kernel checks
        n, Q = 20030010, 30030
        t = build_table(n)
        assert subgroup_restriction_check(t, Q).require().residual <= 1e-6 * t.pi(n)

    def test_extent_above_ceiling_rejected(self, table_10000019):
        # the cap holds the column length n/Q: the prime 10000019 has Q = 1,
        # so its one column is the whole ring, and the kernel raises before
        # any transform, for the pair counts and the subgroup samples alike
        calls = []
        with mock.patch.object(np.fft, "rfft", lambda *a, **kw: calls.append(a)):
            with pytest.raises(ResourceLimitError, match="residue-column length capped at 1e7, got 10000019$"):
                pair_counts_via_spectrum(table_10000019, [2])
            with pytest.raises(ResourceLimitError, match="subgroup samples length capped at 1e7, got 10000019$"):
                subgroup_restriction_check(table_10000019, 1)
        assert calls == []


class TestConcurrency:
    def test_shared_table_and_pure_ops_across_threads(self, table_9240):
        from concurrent.futures import ThreadPoolExecutor

        from primepairs import factorize, hl_constant, singular_series_product

        def work(seed: int):
            two_k = 2 + 2 * (seed % 6)
            return (
                pair_counts_via_spectrum(table_9240, [two_k]),
                subgroup_restriction_check(table_9240, 30).require().residual,
                factorize(10**6 + seed).value,
                float(singular_series_product(2310, two_k)),
                hl_constant(two_k, 1000).value,
            )

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(work, range(24)))
        for seed, got in enumerate(results):
            assert got == work(seed)
