import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from primepairs import (
    ResourceLimitError,
    Spectrum,
    UsageError,
    as_ring,
    build_table,
    cyclic_convolution,
    forward,
    inverse,
    pair_count_circular,
    phases,
    plancherel_residual,
    subgroup_slice,
)
from primepairs.transform import (
    forward_real,
    inverse_real,
    mirror_power,
    phase_weights,
    spectrum_at,
)

import oracles

ROUND_TRIP_SIZES = list(range(1, 65)) + [97, 360, 1009, 2**16, 3 * 5 * 7 * 11 * 13]


def _rng():
    return np.random.default_rng(424242)


class TestForward:
    def test_prime_indicator_dc_term_is_prime_count(self):
        for n in (6, 30, 1009):
            t = build_table(n)
            spec = forward(t.ring_indicator())
            assert spec.values[0].real == pytest.approx(t.pi(n), abs=1e-9)

    def test_point_mass_at_one(self):
        n = 12
        f = np.zeros(n)
        f[1] = 1.0
        values = forward(f).values
        assert np.allclose(np.abs(values), 1.0)
        assert np.allclose(values, phases(n, 1))

    def test_constant_function(self):
        n = 17
        values = forward(np.ones(n)).values
        assert values[0] == pytest.approx(n)
        assert np.allclose(values[1:], 0.0, atol=1e-12)

    def test_matches_direct_evaluation_up_to_512(self):
        rng = _rng()
        for n in range(1, 513):
            f = rng.normal(size=n) + 1j * rng.normal(size=n)
            fast = forward(f).values
            direct = oracles.dft_direct(f)
            assert np.abs(fast - direct).max() <= 1e-9 * np.abs(f).sum() + 1e-12, n

    def test_length_budget(self):
        with pytest.raises(ResourceLimitError):
            forward(np.zeros(10**7 + 1, dtype=np.float32))


class TestInverse:
    @pytest.mark.parametrize("n", ROUND_TRIP_SIZES)
    def test_round_trip_real_and_complex(self, n):
        rng = np.random.default_rng(n)
        for f in (rng.normal(size=n), rng.normal(size=n) + 1j * rng.normal(size=n)):
            back = inverse(forward(f))
            tol = 1e-8 * max(1.0, np.abs(f).max())
            assert np.abs(back - f).max() < tol

    def test_all_ones_spectrum_is_delta_at_element_n(self):
        n = 10
        back = inverse(Spectrum(n, np.ones(n, dtype=complex)))
        expected = np.zeros(n)
        expected[0] = 1.0  # slot 0 carries the element n (residue 0)
        assert np.allclose(back, expected, atol=1e-12)

    def test_recovers_prime_indicator(self):
        t = build_table(6)
        ring = t.ring_indicator()
        back = inverse(forward(ring))
        assert np.allclose(back.real, ring, atol=1e-12)
        # primes 2, 3, 5 sit at their own slots
        assert list(np.round(back.real).astype(int)) == [0, 0, 1, 1, 0, 1]

    def test_hermitian_symmetry_for_real_input(self):
        rng = _rng()
        for n in (16, 31, 60):
            f = rng.normal(size=n)
            values = forward(f).values
            sym_gap = np.abs(values[1:][::-1] - np.conj(values[1:])).max()
            assert sym_gap < 1e-8 * np.abs(f).sum()


class TestConvolution:
    def test_delta_is_identity(self):
        n = 9
        delta = np.zeros(n)
        delta[0] = 1.0
        g = _rng().normal(size=n)
        assert np.allclose(cyclic_convolution(delta, delta)[0], 1.0)
        assert np.allclose(cyclic_convolution(delta, g), g, atol=1e-12)

    def test_reproduces_circular_pair_count(self):
        n, two_k = 30, 2
        t = build_table(n)
        ring = t.ring_indicator()
        reversed_ring = ring[(-np.arange(n)) % n]  # P(-x) in residue layout
        correlation = cyclic_convolution(ring, reversed_ring)
        value = correlation[(-two_k) % n]
        assert value.real == pytest.approx(pair_count_circular(t, two_k), abs=1e-9)

    def test_ones_against_sum(self):
        g = _rng().normal(size=21)
        out = cyclic_convolution(np.ones(21), g)
        assert np.allclose(out, g.sum(), atol=1e-9)

    def test_direct_and_fft_paths_agree(self):
        rng = _rng()
        for n in (8, 129, 1000):
            f = rng.normal(size=n) + 1j * rng.normal(size=n)
            g = rng.normal(size=n) + 1j * rng.normal(size=n)
            direct = cyclic_convolution(f, g, method="direct")
            fast = cyclic_convolution(f, g, method="fft")
            scale = np.abs(direct).max()
            assert np.abs(direct - fast).max() < 1e-8 * max(1.0, scale)

    def test_matches_naive_double_loop(self):
        rng = _rng()
        f = rng.normal(size=17)
        g = rng.normal(size=17)
        assert np.allclose(
            cyclic_convolution(f, g), oracles.cyclic_convolution_naive(f, g), atol=1e-9
        )

    def test_convolution_theorem(self):
        rng = _rng()
        for n in (12, 100, 4096):
            f = rng.normal(size=n)
            g = rng.normal(size=n)
            lhs = forward(cyclic_convolution(f, g)).values
            rhs = forward(f).values * forward(g).values
            scale = np.abs(rhs).max()
            assert np.abs(lhs - rhs).max() < 1e-8 * max(1.0, scale)

    def test_length_mismatch(self):
        with pytest.raises(UsageError):
            cyclic_convolution(np.ones(3), np.ones(4))


class TestPlancherel:
    def test_prime_indicator_energy(self):
        t = build_table(6)
        ring = t.ring_indicator()
        assert plancherel_residual(ring) < 1e-12
        energy = np.abs(forward(ring).values) ** 2
        assert energy.sum() / 6 == pytest.approx(3.0)  # pi(6) = 3

    def test_zero_vector(self):
        assert plancherel_residual(np.zeros(8)) == 0.0

    def test_random_complex(self):
        f = _rng().normal(size=1000) + 1j * _rng().normal(size=1000)
        assert plancherel_residual(f) < 1e-10


class TestSubgroupSlice:
    def test_whole_spectrum_when_q_equals_n(self):
        values = forward(_rng().normal(size=30)).values
        sliced = subgroup_slice(Spectrum(30, values), 30, 0)
        assert np.array_equal(sliced, values)

    def test_q_one_is_dc_sample(self):
        spec = forward(_rng().normal(size=12))
        assert subgroup_slice(spec, 1, 0) == pytest.approx(spec.values[:1])

    def test_offsets_partition_spectrum(self):
        n, Q = 60, 6
        spec = forward(_rng().normal(size=n))
        seen = np.concatenate([subgroup_slice(spec, Q, xi) for xi in range(n // Q)])
        assert sorted(map(complex, seen), key=lambda z: (z.real, z.imag)) == sorted(
            map(complex, spec.values), key=lambda z: (z.real, z.imag)
        )

    def test_rejects_non_divisor(self):
        spec = forward(np.ones(10))
        with pytest.raises(UsageError):
            subgroup_slice(spec, 3, 0)


class TestRingLayout:
    def test_slot_zero_takes_element_n(self):
        v = np.array([0.0, 10.0, 20.0, 30.0])  # values at x = 1, 2, 3
        ring = as_ring(v)
        assert list(ring) == [30.0, 10.0, 20.0]

    def test_phases_reduce_angles_exactly(self):
        n = 48
        assert np.allclose(phases(n, n + 3), phases(n, 3), atol=1e-15)
        assert phases(n, 0) == pytest.approx(np.ones(n))


class TestRealSpectrum:
    """The half spectrum of one rfft against the full complex transform, at
    odd n (no Nyquist bin to leave unpaired) and even n."""

    @given(n=st.integers(min_value=1, max_value=2000), seed=st.integers(0, 2**32 - 1))
    @example(n=101, seed=0)
    @example(n=1155, seed=0)
    @example(n=2310, seed=0)
    @example(n=9973, seed=0)
    @example(n=30030, seed=0)
    @example(n=30031, seed=0)
    @settings(max_examples=60, deadline=None)
    def test_hermitian_half_rebuilds_full_spectrum(self, n, seed):
        f = np.random.default_rng(seed).normal(size=n)
        full = forward(f).values
        half = forward_real(f)
        assert half.shape == (n // 2 + 1,)
        scale = np.abs(full).max()
        every = np.arange(-n, 2 * n)
        assert np.abs(spectrum_at(half, n, every) - full[every % n]).max() <= 1e-12 * scale
        power = np.abs(full) ** 2
        mirrored = mirror_power(np.abs(half) ** 2, n)
        assert mirrored.shape == (n,)
        assert np.abs(mirrored - power).max() <= 1e-12 * power.max()
        assert np.abs(inverse_real(half, n) - f).max() <= 1e-12 * max(1.0, np.abs(f).max())

    def test_rejects_mismatched_half(self):
        with pytest.raises(UsageError):
            inverse_real(np.ones(4, dtype=complex), 10)
        with pytest.raises(UsageError):
            mirror_power(np.ones(4), 10)

    def test_length_budget(self):
        with pytest.raises(ResourceLimitError):
            forward_real(np.zeros(10**7 + 1, dtype=np.float32))

    def test_phase_weights_are_leading_phases(self):
        for n, multiplier in ((48, 5), (49, 2), (30, 30 + 4)):
            for count in (0, 1, n // 2, n):
                assert np.array_equal(phase_weights(n, multiplier, count), phases(n, multiplier)[:count])
