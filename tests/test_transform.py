import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from primepairs import (
    PrimeTable,
    ResourceLimitError,
    UsageError,
    as_ring,
    build_table,
    forward,
    von_mangoldt_vector,
)
from primepairs import spectral, transform
from primepairs.transform import (
    MAX_TRANSFORM_LENGTH,
    ColumnBlocks,
    check_extents,
    fold_half,
    forward_real,
    gather_columns,
    inverse_real,
    require_divisor,
    unit_phase,
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
            assert spec[0].real == pytest.approx(t.pi(n), abs=1e-9)

    def test_point_mass_at_one(self):
        n = 12
        f = np.zeros(n)
        f[1] = 1.0
        values = forward(f)
        assert np.allclose(np.abs(values), 1.0)
        assert np.allclose(values, unit_phase(n, np.arange(n)))

    def test_constant_function(self):
        n = 17
        values = forward(np.ones(n))
        assert values[0] == pytest.approx(n)
        assert np.allclose(values[1:], 0.0, atol=1e-12)

    def test_matches_direct_evaluation_up_to_512(self):
        rng = _rng()
        for n in range(1, 513):
            f = rng.normal(size=n) + 1j * rng.normal(size=n)
            fast = forward(f)
            direct = oracles.dft_direct(f)
            assert np.abs(fast - direct).max() <= 1e-9 * np.abs(f).sum() + 1e-12, n

    def test_length_budget(self):
        with pytest.raises(ResourceLimitError):
            forward(np.zeros(10**7 + 1, dtype=np.float32))


class TestRoundingConstant:
    """The constant c of the transform error model ||dC||_2 <= c eps
    log2(m) ||C||_2 that every certified rounding budget rests on
    (``spectral.FFT_ERROR_GROWTH``), measured against a long-double direct
    DFT on the columns the system transforms: residue columns mod 30 of
    the prime bitmap and of the von Mangoldt weights, at the smooth
    length 1000 and the primes 433 (a column length of the identity
    suite) and 1009."""

    @pytest.mark.parametrize("m", [433, 1000, 1009])
    @pytest.mark.parametrize("source", ["prime", "mangoldt"])
    def test_measured_constant_within_a_quarter_of_the_model(self, m, source):
        if np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps:
            pytest.skip("long double has float64's eps here, so it cannot measure float64 rounding")
        t = build_table(30 * m)
        weights = t.is_prime if source == "prime" else von_mangoldt_vector(t)
        columns = gather_columns(weights, 30, [1, 7, 11, 13, 17, 19, 23, 29])
        # the real columns through rfft, and packed two to a complex row,
        # as the twisted-Plancherel row packs them, through fft
        packed = columns[0::2] + 1j * columns[1::2]
        eps, bound = np.finfo(np.float64).eps, spectral.FFT_ERROR_GROWTH / 4
        for name, computed, rows in (
            ("forward_real", forward_real(columns), columns),
            ("forward", forward(packed), packed),
        ):
            exact = oracles.dft_direct_longdouble(rows)[:, : computed.shape[1]]
            norms = np.sqrt(np.sum(np.abs(exact) ** 2, axis=1))
            errors = np.sqrt(np.sum(np.abs(computed - exact) ** 2, axis=1))
            c = float(np.max(errors / (eps * np.log2(m) * norms)))
            assert c < bound, f"c = {c:.3f} for {name} at m = {m} ({source}), bound {bound}"


class TestInverse:
    @pytest.mark.parametrize("n", ROUND_TRIP_SIZES)
    def test_round_trip_real_and_complex(self, n):
        # the package inverts real spectra only; a complex one is inverted
        # here by numpy's own ifft, which carries the same 1/n
        rng = np.random.default_rng(n)
        real, complex_ = rng.normal(size=n), rng.normal(size=n) + 1j * rng.normal(size=n)
        for f, back in (
            (real, inverse_real(forward_real(real), n)),
            (complex_, np.fft.ifft(forward(complex_))),
        ):
            tol = 1e-8 * max(1.0, np.abs(f).max())
            assert np.abs(back - f).max() < tol

    def test_all_ones_spectrum_is_delta_at_element_n(self):
        n = 10
        back = inverse_real(np.ones(n // 2 + 1, dtype=complex), n)
        expected = np.zeros(n)
        expected[0] = 1.0  # slot 0 carries the element n (residue 0)
        assert np.allclose(back, expected, atol=1e-12)

    def test_recovers_prime_indicator(self):
        t = build_table(6)
        ring = t.ring_indicator()
        assert ring.dtype == np.float64
        back = inverse_real(forward_real(ring), 6)
        assert np.allclose(back, ring, atol=1e-12)
        # primes 2, 3, 5 sit at their own slots
        assert list(np.round(back).astype(int)) == [0, 0, 1, 1, 0, 1]

    def test_hermitian_symmetry_for_real_input(self):
        rng = _rng()
        for n in (16, 31, 60):
            f = rng.normal(size=n)
            values = forward(f)
            sym_gap = np.abs(values[1:][::-1] - np.conj(values[1:])).max()
            assert sym_gap < 1e-8 * np.abs(f).sum()


class TestPlancherel:
    """The energy identity, the power of a half spectrum folded over Z/nZ
    (``fold_half``), runs no transform on a table's cached spectrum; the
    full complex transform is the oracle's route."""

    def test_prime_indicator_energy(self, monkeypatch):
        t = build_table(6)
        half = t.spectrum()
        monkeypatch.setattr(np, "fft", None)  # no transform may run
        assert spectral.plancherel_check(t).residual < 1e-12
        assert fold_half(np.abs(half) ** 2, 6) / 6 == pytest.approx(3.0)  # pi(6) = 3

    def test_zero_vector(self):
        # a bitmap without a prime: pi(n) = 0, and the residual is the bare gap
        t = PrimeTable(n=8, is_prime=np.zeros(9, dtype=bool))
        assert spectral.plancherel_check(t).residual == 0.0

    def test_random_real(self):
        for n in (1, 2, 7, 1000, 1001):
            f = _rng().normal(size=n)
            energy = float(np.sum(f**2))
            assert abs(fold_half(np.abs(forward_real(f)) ** 2, n) / n - energy) < 1e-10 * energy
            assert oracles.plancherel_residual_full_route(f) < 1e-10

    def test_fold_is_the_full_sum(self):
        # odd and even n: bin 0, and for even n the Nyquist bin, once
        for n in range(1, 21):
            f = _rng().normal(size=n)
            power = np.abs(np.fft.fft(f)) ** 2
            assert fold_half(np.abs(forward_real(f)) ** 2, n) == pytest.approx(power.sum(), rel=1e-12)


class TestRingLayout:
    def test_slot_zero_takes_element_n(self):
        v = np.array([0.0, 10.0, 20.0, 30.0])  # values at x = 1, 2, 3
        ring = as_ring(v)
        assert list(ring) == [30.0, 10.0, 20.0]

    def test_phases_reduce_angles_exactly(self):
        n = 48
        xi = np.arange(n)
        assert np.allclose(unit_phase(n, (n + 3) * xi), unit_phase(n, 3 * xi), atol=1e-15)
        assert unit_phase(n, 0 * xi) == pytest.approx(np.ones(n))
        # the angle is formed from k mod n, so k and k + j*n give equal floats
        k = np.array([-7, 0, 5, 47, 10**12 + 5], dtype=np.int64)
        assert np.array_equal(unit_phase(n, k), unit_phase(n, k % n))

    def test_boolean_and_integer_input_become_float64(self):
        ring = as_ring(np.array([False, True, False, True]))
        assert ring.dtype == np.float64
        assert list(ring) == [1.0, 1.0, 0.0]
        assert as_ring(np.arange(5)).dtype == np.float64
        assert as_ring(np.arange(5) * 1j).dtype == np.complex128


# primorial moduli; the tests take n = Q * m, so Q = 1 and Q = n (m = 1)
# both arise, with m odd and even
PRIMORIALS = (1, 2, 6, 30, 210, 2310)


class TestResidueColumns:
    """The residue columns mod Q of a 1-indexed weight vector, one per
    row, gathered by ``gather_columns``; class 0 holds x = n in slot 0."""

    @settings(max_examples=60, deadline=None)
    @given(
        Q=st.sampled_from(PRIMORIALS),
        m=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(Q=1, m=1, seed=0)  # Q = n = 1
    @example(Q=30, m=1, seed=0)  # Q = n
    @example(Q=1, m=37, seed=0)  # Q = 1, odd m
    @example(Q=6, m=14, seed=0)  # even m
    def test_columns_are_the_classes(self, Q, m, seed):
        n = Q * m
        rng = np.random.default_rng(seed)
        weights = rng.random(n + 1)
        columns = gather_columns(weights, Q, np.arange(Q))
        assert columns.shape == (Q, m) and columns.flags.c_contiguous
        for a in range(Q):
            x = a + Q * np.arange(m)
            if a == 0:
                x[0] = n
            assert np.array_equal(columns[a], weights[x]), a
        # a subset of classes gathers the same rows
        subset = np.flatnonzero(rng.random(Q) < 0.5)
        assert np.array_equal(gather_columns(weights, Q, subset), columns[subset])

    @settings(max_examples=30, deadline=None)
    @given(
        # one full transform per class: Q = 2310 only at Q = n, kept small
        Q=st.sampled_from(PRIMORIALS[:-1]),
        m=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(Q=2310, m=1, seed=0)  # Q = n
    def test_column_energy_is_the_masked_energy(self, Q, m, seed):
        """(1/m) sum |DFT_m(column a)|^2 equals the mean power of the 0/1
        ring masked to class a, taken by a full length-n transform, and
        both equal the count of ones in the class."""
        n = Q * m
        weights = np.random.default_rng(seed).integers(0, 2, n + 1).astype(bool)
        ring = as_ring(weights)
        columns = gather_columns(weights, Q, np.arange(Q)).astype(np.float64)
        for a in range(Q):
            column = float(np.sum(np.abs(forward(columns[a])) ** 2)) / m
            masked = oracles.class_energy_masked(ring, Q, a)
            assert column == pytest.approx(masked, rel=1e-12, abs=1e-12), a
            assert masked == pytest.approx(np.count_nonzero(columns[a]), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("n, Q", [(30, 7), (30, 4), (12, 0), (2, 6)])
    def test_non_divisor_rejected(self, n, Q):
        with pytest.raises(UsageError, match="requires Q [|] n"):
            gather_columns(np.zeros(n + 1), Q, [0])


class TestConventions:
    """The Q | n check and the transform cap, each defined once."""

    @pytest.mark.parametrize("n, Q", [(30, 0), (30, -6), (30, 7), (1, 2)])
    def test_non_divisor_rejected(self, n, Q):
        with pytest.raises(UsageError, match="requires Q [|] n"):
            require_divisor(n, Q, "subgroup identity")

    @pytest.mark.parametrize("n, Q", [(30, 1), (30, 6), (30, 30)])
    def test_divisor_accepted(self, n, Q):
        require_divisor(n, Q, "subgroup identity")

    def test_cap_names_every_extent_over_it(self):
        check_extents([1, MAX_TRANSFORM_LENGTH])
        over = [MAX_TRANSFORM_LENGTH + 20, MAX_TRANSFORM_LENGTH + 2, MAX_TRANSFORM_LENGTH + 2]
        with pytest.raises(ResourceLimitError, match="got 10000002, 10000020$"):
            check_extents(over + [30])
        # one error class for every caller: the CLI maps it to exit 3
        with pytest.raises(ResourceLimitError, match="spectral extent capped"):
            check_extents(over, "spectral extent")


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
        full = forward(f)
        half = forward_real(f)
        assert half.shape == (n // 2 + 1,)
        scale = np.abs(full).max()
        # the upper bins mirrored, F(n - xi) = conj F(xi) for 0 < xi < n/2
        rebuilt = np.concatenate((half, np.conj(half[(n - 1) // 2 : 0 : -1])))
        assert np.abs(rebuilt - full).max() <= 1e-12 * scale
        assert np.abs(inverse_real(half, n) - f).max() <= 1e-12 * max(1.0, np.abs(f).max())

    def test_rejects_mismatched_half(self):
        with pytest.raises(UsageError):
            inverse_real(np.ones(4, dtype=complex), 10)

    def test_length_budget(self):
        with pytest.raises(ResourceLimitError):
            forward_real(np.zeros(10**7 + 1, dtype=np.float32))

    def test_inverse_real_length_budget(self, monkeypatch):
        # the half of a length-10000002 spectrum is rejected before the
        # irfft runs, as forward_real rejects that length
        def irfft(*args, **kwargs):
            raise AssertionError("irfft ran past the cap")

        monkeypatch.setattr(np.fft, "irfft", irfft)
        half = np.broadcast_to(np.zeros(1, dtype=complex), (5000002,))
        with pytest.raises(ResourceLimitError, match="capped at 1e7, got 10000002$"):
            inverse_real(half, 10000002)


class TestColumnBlocks:
    """A block's spectra are filled by rffts of row batches of at most
    COLUMN_BLOCK_BYTES // 8 bytes of float input each."""

    @staticmethod
    def _counted(monkeypatch):
        """The shapes of the ``forward_real`` calls, in order."""
        shapes = []
        original = transform.forward_real

        def counted(f):
            shapes.append(f.shape)
            return original(f)

        monkeypatch.setattr(transform, "forward_real", counted)
        return shapes

    # m = 1009 is prime, so pocketfft takes its Bluestein path; 1024 is 2^10
    @pytest.mark.parametrize("m", [1009, 1024])
    @pytest.mark.parametrize("source", ["prime", "mangoldt"])
    def test_row_batches_equal_one_call(self, monkeypatch, m, source):
        Q = 30
        t = build_table(Q * m)
        weights = t.is_prime if source == "prime" else von_mangoldt_vector(t)
        # the classes' columns gathered from the ring layout, independently
        classes = ColumnBlocks(weights, Q).classes
        ring = as_ring(weights)
        whole = np.fft.rfft(np.ascontiguousarray(ring.reshape(m, Q)[:, classes].T))
        shapes = self._counted(monkeypatch)
        # batches of three rows of float input and their spectra, beside
        # the Bluestein scratch of one call (129 KB at 1009, none at 1024);
        # the holding classes (8 units and 2, 3, 5, and for the weights
        # also 4, 8, 16, 9, 21, 27 and 25) fit one block, of 175 at 1009
        # and 47 at 1024, but not one batch.  The bitmap's columns of 2, 3
        # and 5 are one impulse, transformed once; each weight class of 2,
        # 3 and 5 holds a prime power too
        batch = 3 * (8 * m + (m // 2 + 1) * 16) + transform._bluestein_scratch(m)
        monkeypatch.setattr(transform, "COLUMN_BLOCK_BYTES", batch * 8)
        columns = ColumnBlocks(weights, Q)
        k, own = {"prime": (11, 9), "mangoldt": (18, 18)}[source]
        chunk = {1009: 175, 1024: 47}[m]
        assert (columns.chunk, columns.rows, columns.classes.size) == (chunk, 3, k)
        assert columns.impulses == ({2: True, 3: True, 5: True} if source == "prime" else {})
        spectra = columns.spectra(0)
        assert shapes == [(3, m)] * (own // 3) + [(own % 3, m)] * (own % 3 > 0)
        assert spectra.dtype == whole.dtype and spectra.shape == whole.shape
        assert spectra.tobytes() == whole.tobytes()
        # the one block is kept and returned again without a transform
        calls = len(shapes)
        assert columns.spectra(0) is spectra and not spectra.flags.writeable
        assert len(shapes) == calls

    @pytest.mark.parametrize("source", ["prime", "mangoldt"])
    def test_shared_impulse_spectra_equal_unshared(self, monkeypatch, source):
        # 1e5 mod 1000: the bitmap's columns of 2 and 5 are one impulse of
        # weight 1; the weights' columns of 2, 4, ..., 512 one of log 2, and
        # those of 5 and 25 another, of log 5 (125 and 625 also hold 5^7 and
        # 5^6).  One rfft per impulse, and the spectra are those of a
        # transform of every column
        n, Q = 10**5, 1000
        t = build_table(n)
        weights = t.is_prime if source == "prime" else von_mangoldt_vector(t)
        columns = ColumnBlocks(weights, Q)
        m, classes = columns.m, columns.classes
        whole = np.fft.rfft(np.ascontiguousarray(as_ring(weights).reshape(m, Q)[:, classes].T))
        if source == "prime":
            groups = [[2, 5]]
        else:
            groups = [[2**j for j in range(1, 10)], [5, 25]]
        assert columns.impulses == {a: weights[group[0]] for group in groups for a in group}
        shapes = self._counted(monkeypatch)
        spectra = columns.spectra(0)
        shared = sum(len(group) - 1 for group in groups)
        assert shapes == [(classes.size - shared, m)]
        assert spectra.tobytes() == whole.tobytes()
        row = {a: i for i, a in enumerate(classes.tolist())}
        for group in groups:
            assert all(np.array_equal(spectra[row[a]], spectra[row[group[0]]]) for a in group)
        if source == "mangoldt":
            # impulses of unequal weight do not share
            assert not np.array_equal(spectra[row[5]], spectra[row[2]])

    def test_default_batch_takes_a_small_block_whole(self, monkeypatch):
        # the identity suite's column blocks at n = 1e6.  1000002 / 6 =
        # 166667 is prime, a Bluestein length whose scratch (128 bytes a
        # point, 21 MB) outgrows the 8 MiB batch: the units 1 and 5 and the
        # one impulse of 2 and 3 go one row a call, and the spectra are
        # those of one multi-row rfft.  The small Bluestein blocks, 33334 =
        # 2 * 7 * 2381, 4762 = 2 * 2381 and the prime 433, go whole, so
        # each builds its plan once
        cases = [(1000002, 6, [(1, 166667)] * 3)]
        cases += [(1000020, 30, [(9, 33334)]), (1000020, 210, [(49, 4762)])]
        cases += [(1000230, 2310, [(481, 433)])]
        shapes = self._counted(monkeypatch)
        for n, Q, calls in cases:
            t = build_table(n)
            columns = ColumnBlocks(t.is_prime, Q)
            shapes.clear()
            spectra = columns.spectra(0)
            assert shapes == calls
            whole = np.fft.rfft(gather_columns(t.is_prime, Q, columns.classes))
            assert spectra.tobytes() == whole.tobytes()

    def test_oversized_bluestein_block_goes_one_row_a_call(self, monkeypatch):
        # 3000090 / 30 = 100003 is prime: 11 columns (8.8 MB of float
        # input) outgrow the 8 MiB batch, and so does the scratch of one
        # call (128 bytes a point, 12.8 MB), so the 9 transformed columns
        # (2, 3 and 5 share one impulse) go one row a call, and the spectra
        # are those of one call on the block
        t = build_table(3000090)
        columns = ColumnBlocks(t.is_prime, 30)
        assert (columns.m, columns.classes.size, columns.rows) == (100003, 11, 1)
        shapes = self._counted(monkeypatch)
        spectra = columns.spectra(0)
        assert shapes == [(1, 100003)] * 9
        whole = np.fft.rfft(gather_columns(t.is_prime, 30, columns.classes))
        assert spectra.tobytes() == whole.tobytes()

    def test_traced_peak_holds_one_batch(self, monkeypatch, table_1e6):
        # 1e6 mod 1000: 402 holding classes of 1000 entries, one block of
        # spectra (3.2 MB), transformed 32 rows (0.26 MB of floats and 0.26
        # MB of spectra) at a time
        monkeypatch.setattr(transform, "COLUMN_BLOCK_BYTES", 4 << 20)
        columns = ColumnBlocks(table_1e6.is_prime, 1000)
        k, m = columns.classes.size, columns.m
        assert (k, columns.chunk, columns.rows) == (402, 523, 32)
        forward_real(np.zeros(8))  # numpy.fft loads on first use
        tracemalloc.start()
        try:
            spectra = columns.spectra(0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        batch = columns.rows * m * 8 + columns.rows * (m // 2 + 1) * 16
        bound = spectra.nbytes + k * m + batch + (64 << 10)
        assert peak <= bound
        # a float copy of the whole block would not fit the bound
        assert spectra.nbytes + k * m + k * m * 8 > bound

    def test_oversized_block_batches_fit_the_batch_size(self, monkeypatch):
        # 6 classes of 200000 (9.6 MB of float input) do not fit one batch
        # of COLUMN_BLOCK_BYTES // 8 (8 MiB), so they go 2 rows a call: the
        # float input and the spectra of a batch (3.2 MB a row) fit it
        shapes = self._counted(monkeypatch)
        columns = ColumnBlocks(np.ones(6 * 200000 + 1, dtype=bool), 6)
        k, m, batch = 6, columns.m, transform.COLUMN_BLOCK_BYTES // 8
        row = 8 * m + (m // 2 + 1) * 16
        assert columns.rows == 2 and k * 8 * m > batch >= columns.rows * row
        forward_real(np.zeros(8))  # numpy.fft loads on first use
        tracemalloc.start()
        try:
            spectra = columns.spectra(0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert shapes == [(2, m)] * 3
        # beside the block's spectra and its gathered bool columns, one
        # batch's float input and spectra are in flight
        assert peak - spectra.nbytes - k * m <= batch + (64 << 10)
