import logging
import math
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primepairs import (
    CacheError,
    ResourceLimitError,
    UsageError,
    build_table,
    is_prime_u64,
    load_table,
    pair_count_circular,
    pair_count_linear,
    pi_progression,
    residue_profile,
    save_table,
    twisted_progression_count,
    von_mangoldt_vector,
)
from primepairs import sieve
from primepairs.constants import _primes_below
from primepairs.sieve import FNV_BLOCK, FNV_CHAIN, SEGMENT_LENGTH, fnv1a64, load_or_build

import oracles


class TestBuildTable:
    def test_prime_counts(self, table_1e6):
        for x, expected in oracles.PI_VALUES.items():
            assert table_1e6.pi(x) == expected

    def test_tiny_extent(self):
        assert build_table(2).pi(2) == 1

    def test_bitmap_against_independent_sieve(self):
        t = build_table(50000)
        assert np.array_equal(t.is_prime, oracles.sieve_numpy_independent(50000))

    def test_bitmap_spans_segments(self):
        # a segment holds SEGMENT_LENGTH odd slots, 2 * SEGMENT_LENGTH
        # integers: an extent just past that exercises the segmented path
        n = 2 * SEGMENT_LENGTH + 137
        t = build_table(n)
        ref = oracles.sieve_numpy_independent(n)
        assert np.array_equal(t.is_prime, ref)

    # tiny extents around the wheel primes and the first base prime 17,
    # and one and two wheel periods (15015 odd slots, 30030 integers)
    @pytest.mark.parametrize(
        "n", [*range(2, 20), *range(15013, 15018), *range(30028, 30033)]
    )
    def test_bitmap_at_wheel_edges(self, n):
        assert np.array_equal(build_table(n).is_prime, oracles.sieve_numpy_independent(n))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 70000))
    def test_bitmap_matches_independent_sieve(self, n):
        assert np.array_equal(build_table(n).is_prime, oracles.sieve_numpy_independent(n))

    @settings(max_examples=6, deadline=None)
    @given(st.integers(1, 2), st.integers(-3, 3))
    def test_bitmap_at_segment_boundaries(self, k, offset):
        n = 2 * k * SEGMENT_LENGTH + offset
        assert np.array_equal(build_table(n).is_prime, oracles.sieve_numpy_independent(n))

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([1, 2, 3, 7, 64, 15014, 15016, 20000]), st.integers(1, 3), st.integers(-3, 3))
    def test_bitmap_with_short_segments(self, segment, k, offset):
        # segments shorter than, near and longer than one wheel period, so
        # segments start at many wheel phases and end mid-period
        n = max(2, 2 * k * segment + offset)
        with mock.patch.object(sieve, "SEGMENT_LENGTH", segment):
            t = build_table(n)
        assert np.array_equal(t.is_prime, oracles.sieve_numpy_independent(n))

    def test_random_samples_against_miller_rabin(self, table_1e6):
        rng = np.random.default_rng(2024)
        for x in rng.integers(1, table_1e6.n + 1, size=1000):
            assert bool(table_1e6.is_prime[x]) == is_prime_u64(int(x))

    def test_prefix_counts(self, table_10k):
        assert table_10k.is_prime[1] == False  # noqa: E712
        assert table_10k.is_prime[2] == True  # noqa: E712
        cumulative = np.cumsum(oracles.sieve_numpy_independent(table_10k.n))
        assert [table_10k.pi(x) for x in range(table_10k.n + 1)] == cumulative.tolist()
        assert table_10k.pi(table_10k.n) == int(np.count_nonzero(table_10k.is_prime))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 5000), st.data())
    def test_pi_matches_oracle(self, n, data):
        t = build_table(n)
        ref = oracles.sieve_numpy_independent(n)
        for x in (0, 1, 2, n, data.draw(st.integers(0, n))):
            assert t.pi(x) == int(ref[: x + 1].sum())
        for x in (-1, n + 1):
            with pytest.raises(UsageError):
                t.pi(x)

    @pytest.mark.parametrize(
        "n",
        [288, 289, 290, 291, 17**2 * 2, 17**2 * 3, 17**2 * 17, 17**2 * 289, 17**2 * 289 + 1],
    )
    def test_across_base_prime_recursion(self, n):
        # base primes come from build_table(isqrt(n)) once isqrt(n) >= 17,
        # so 288 needs none, 289 strikes 17^2 with the primes of a table of
        # extent 17, and 17^4 takes them from one that recursed itself
        assert np.array_equal(build_table(n).is_prime, oracles.sieve_numpy_independent(n))

    def test_over_cap_raises_before_allocating(self):
        # the extent cap is the memory bound: an extent over it raises
        # before the 1 GB bitmap, or any other array, is allocated
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="capped at 1e9"):
                build_table(10**9 + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10

    def test_extent_bounds(self):
        with pytest.raises(UsageError):
            build_table(1)
        with pytest.raises(ResourceLimitError):
            build_table(10**9 + 1)


class TestProgressionCounts:
    def test_examples_mod_3(self):
        t = build_table(30)
        assert pi_progression(t, 3, 1) == 3  # 7, 13, 19
        assert pi_progression(t, 3, 2) == 6  # 2, 5, 11, 17, 23, 29
        assert pi_progression(t, 3, 0) == 1  # only 3 itself

    def test_classes_partition_all_primes(self, table_10k):
        for q in range(1, 101):
            total = sum(pi_progression(table_10k, q, a) for a in range(q))
            assert total == table_10k.pi(table_10k.n)

    def test_profile_matches_progression(self, table_9240):
        for Q in (3, 30, 2310):
            profile = residue_profile(table_9240, Q)
            for a in range(0, Q, max(1, Q // 37)):
                assert profile[a] == pi_progression(table_9240, Q, a)

    def test_rejects_bad_residue(self, table_100):
        with pytest.raises(UsageError):
            pi_progression(table_100, 10, 10)


class TestPairCounts:
    def test_linear_examples(self, table_100):
        assert pair_count_linear(table_100, 2) == 8
        assert pair_count_linear(build_table(30), 2) == 5  # includes (29, 31)
        assert pair_count_linear(build_table(10), 6) == 2  # (5,11), (7,13)

    def test_linear_against_enumeration(self):
        for n in (10, 30, 97, 200):
            t = build_table(n)
            for two_k in (2, 4, 6, 12):
                if two_k <= n:
                    assert pair_count_linear(t, two_k) == oracles.pair_count_linear_naive(
                        n, two_k
                    ), (n, two_k)

    def test_linear_zero_shift_counts_the_primes(self, table_1e6):
        # 2k = 0 takes the general path: the bitmap ANDed with itself, and
        # an empty boundary range
        tables = [build_table(n) for n in (2, 3, 4, 5, 10, 100, 9999, 30030)]
        for t in tables + [table_1e6]:
            assert pair_count_linear(t, 0) == t.pi(t.n), t.n

    def test_circular_examples(self, table_100):
        assert pair_count_circular(build_table(30), 2) == 4  # (29,31) wraps to 1
        assert pair_count_circular(table_100, 2) == 8
        assert pair_count_circular(table_100, 0) == table_100.pi(100)

    def test_circular_against_enumeration(self):
        # every even shift, up to n = 2k + 2 and 2k = n - 1 for odd n
        for n in (10, 30, 97, 120):
            t = build_table(n)
            for two_k in range(0, n, 2):
                assert pair_count_circular(t, two_k) == oracles.pair_count_circular_naive(
                    n, two_k
                ), (n, two_k)

    def test_linear_circular_gap_bounded_by_boundary_primes(self, table_10k):
        # only primes in (n-2k, n] can be paired differently by the two
        # counts, and each can flip either way: at n=1e4, 2k=30 the prime
        # 9973 pairs circularly (wraps to 3) but not linearly (10003 = 7*1429)
        n = table_10k.n
        for two_k in (2, 6, 12, 30):
            gap = pair_count_linear(table_10k, two_k) - pair_count_circular(table_10k, two_k)
            assert abs(gap) <= table_10k.pi(n) - table_10k.pi(n - two_k)


class TestVonMangoldt:
    def test_point_values(self):
        lam = von_mangoldt_vector(build_table(10))
        assert lam[8] == pytest.approx(math.log(2))
        assert lam[6] == 0.0
        assert lam[7] == pytest.approx(math.log(7))
        assert lam[1] == 0.0
        assert lam[9] == pytest.approx(math.log(3))

    @pytest.mark.parametrize("n", [2, 3, 4, 16, 17, 288, 289, 290, 83521])
    def test_matches_trial_division(self, n):
        # von_mangoldt_vector and the constants' prime list both read
        # build_table
        lam, expected = von_mangoldt_vector(build_table(n)), np.array(oracles.von_mangoldt_naive(n))
        assert np.array_equal(np.flatnonzero(lam), np.flatnonzero(expected))
        assert np.allclose(lam, expected, rtol=1e-15, atol=0)
        assert _primes_below(n + 1).tolist() == oracles.primes_upto_naive(n)

    def test_no_prime_list_below_2(self):
        with pytest.raises(UsageError):
            _primes_below(2)

    def test_reads_supplied_table(self, monkeypatch):
        table = build_table(290)
        monkeypatch.setattr(sieve, "build_table", lambda *args, **kwargs: pytest.fail("sieved"))
        expected = np.array(oracles.von_mangoldt_naive(290))
        assert np.allclose(von_mangoldt_vector(table), expected, rtol=1e-15, atol=0)

    def test_chebyshev_psi_near_n(self, table_1e6):
        lam = von_mangoldt_vector(table_1e6)
        assert 0.99 <= lam.sum() / 10**6 <= 1.01

    def test_budget(self):
        # the cap is checked before the table's primes are read
        with pytest.raises(ResourceLimitError):
            von_mangoldt_vector(mock.Mock(spec=["n"], n=10**8 + 1))


class TestTwistedCounts:
    def test_zero_frequency_is_plain_count(self, table_9240):
        for Q, a in ((3, 1), (30, 7), (30, 0)):
            twisted = twisted_progression_count(table_9240, 0, Q, a)
            assert twisted == pytest.approx(pi_progression(table_9240, Q, a))
            assert twisted.imag == pytest.approx(0.0)

    def test_modulus_bounded_by_plain_count(self, table_9240):
        rng = np.random.default_rng(5)
        for _ in range(25):
            Q = int(rng.choice([3, 30, 2310]))
            a = int(rng.integers(0, Q))
            xi = int(rng.integers(0, table_9240.n))
            twisted = twisted_progression_count(table_9240, xi, Q, a)
            assert abs(twisted) <= pi_progression(table_9240, Q, a) + 1e-9

    def test_hand_value(self):
        # primes = 2 mod 3 up to 30 weighted by exp(-pi*i*x): 2 is even,
        # the five odd ones each contribute -1
        t = build_table(30)
        value = twisted_progression_count(t, 15, 3, 2)
        assert value.real == pytest.approx(-4.0, abs=1e-9)
        assert value.imag == pytest.approx(0.0, abs=1e-9)

    def test_profile_matches_single_counts(self, table_9240):
        profile = residue_profile(table_9240, 30, xi=77)
        for a in (0, 1, 7, 29):
            single = twisted_progression_count(table_9240, 77, 30, a)
            assert profile[a] == pytest.approx(single, abs=1e-9)

    def test_twisted_profile_at_zero_equals_untwisted(self, table_9240):
        plain = residue_profile(table_9240, 30)
        twisted = residue_profile(table_9240, 30, xi=0)
        assert np.allclose(twisted, plain, atol=1e-9)
        assert plain.sum() == table_9240.pi(table_9240.n)

    def test_requires_divisibility(self, table_100):
        with pytest.raises(UsageError):
            twisted_progression_count(table_100, 1, 30, 1)


class TestCache:
    def test_roundtrip(self, tmp_path):
        t = build_table(12345)
        path = save_table(t, tmp_path / "t.pspc")
        loaded = load_table(path)
        assert loaded.n == t.n
        assert np.array_equal(loaded.is_prime, t.is_prime)
        assert [loaded.pi(x) for x in range(t.n + 1)] == [t.pi(x) for x in range(t.n + 1)]
        assert loaded.checksum() == t.checksum()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 624), st.integers(0, 7))
    def test_roundtrip_property(self, eighths, remainder):
        n = max(2, 8 * eighths + remainder)
        built = build_table(n)
        with tempfile.TemporaryDirectory() as folder:
            path = save_table(built, Path(folder) / "t.pspc")
            blob = path.read_bytes()
            loaded = load_table(path)
        payload = blob[13 : 13 + (n + 7) // 8]
        assert loaded.n == n
        assert loaded.is_prime.dtype == bool
        assert np.array_equal(loaded.is_prime, built.is_prime)
        assert loaded.is_prime[0] == False  # noqa: E712
        assert not np.unpackbits(np.frombuffer(payload, dtype=np.uint8))[n:].any()
        assert loaded.checksum() == built.checksum() == oracles.fnv1a64_reference(payload)

    def test_corrupt_payload_detected(self, tmp_path):
        path = save_table(build_table(5000), tmp_path / "t.pspc")
        blob = bytearray(path.read_bytes())
        blob[20] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CacheError, match="checksum"):
            load_table(path)

    # n = 5001: a 13-byte header, a 626-byte payload ending in 7 padding
    # bits, an 8-byte digest
    @pytest.mark.parametrize("size", [0, 5, 13, 20, 21, 400, 646])
    def test_truncated_file_rejected(self, tmp_path, size):
        path = save_table(build_table(5001), tmp_path / "t.pspc")
        path.write_bytes(path.read_bytes()[:size])
        with pytest.raises(CacheError):
            load_table(path)

    @pytest.mark.parametrize("extra", [b"\x00", bytes(8), b"PSPC1"])
    def test_trailing_bytes_rejected(self, tmp_path, extra):
        path = save_table(build_table(5001), tmp_path / "t.pspc")
        path.write_bytes(path.read_bytes() + extra)
        with pytest.raises(CacheError, match="payload length mismatch"):
            load_table(path)

    # bit offsets after the header: first entry, a middle one, the last
    # entry, the last padding bit, the first and last bits of the digest
    @pytest.mark.parametrize("bit", [0, 2500, 5000, 5007, 5008, 5071])
    def test_flipped_bit_rejected(self, tmp_path, bit):
        path = save_table(build_table(5001), tmp_path / "t.pspc")
        blob = bytearray(path.read_bytes())
        blob[13 + bit // 8] ^= 0x80 >> (bit % 8)
        path.write_bytes(bytes(blob))
        with pytest.raises(CacheError, match="checksum"):
            load_table(path)

    def test_crash_mid_write_keeps_the_old_cache(self, tmp_path, monkeypatch):
        n = 5001
        path = save_table(build_table(n), tmp_path / "t.pspc")

        class TornFile:
            """Writes half of its second write, then fails like a full disk."""

            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.writes += 1
                if self.writes == 2:
                    self.fh.write(bytes(data)[: len(data) // 2])
                    raise OSError(28, "No space left on device")
                return self.fh.write(data)

        monkeypatch.setattr(
            sieve, "open", lambda *a, **k: TornFile(open(*a, **k)), raising=False
        )
        with pytest.raises(OSError, match="No space"):
            save_table(build_table(n), path)
        monkeypatch.undo()
        assert [p.name for p in tmp_path.iterdir()] == ["t.pspc"]
        assert np.array_equal(load_table(path).is_prime, build_table(n).is_prime)

    def test_bad_magic_detected(self, tmp_path):
        path = tmp_path / "junk.pspc"
        path.write_bytes(b"NOTAPRIMETABLE")
        with pytest.raises(CacheError):
            load_table(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CacheError):
            load_table(tmp_path / "absent.pspc")

    def test_load_or_build_rebuilds_corrupt_cache(self, tmp_path):
        first = load_or_build(4000, tmp_path)
        path = tmp_path / "primetable_4000.pspc"
        blob = bytearray(path.read_bytes())
        blob[30] ^= 0x01
        path.write_bytes(bytes(blob))
        rebuilt = load_or_build(4000, tmp_path)
        assert np.array_equal(rebuilt.is_prime, first.is_prime)
        assert load_table(path).n == 4000

    def test_load_or_build_rebuilds_wrong_extent(self, tmp_path, caplog):
        # n = 997 keeps the payload length of n = 1000 and the payload's
        # digest, so only the extent check tells the files apart
        path = save_table(build_table(1000), tmp_path / "primetable_1000.pspc")
        blob = bytearray(path.read_bytes())
        blob[5:13] = (997).to_bytes(8, "little")
        path.write_bytes(bytes(blob))
        assert load_table(path).n == 997
        with caplog.at_level(logging.WARNING, logger="primepairs.sieve"):
            table = load_or_build(1000, tmp_path)
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert "extent mismatch" in warnings[0]
        assert table.n == 1000
        assert table.pi(1000) == 168
        assert load_table(path, 1000).n == 1000

    def test_load_or_build_logs_truncated_cache(self, tmp_path, caplog):
        path = save_table(build_table(6000), tmp_path / "primetable_6000.pspc")
        path.write_bytes(path.read_bytes()[:400])
        with caplog.at_level(logging.WARNING, logger="primepairs.sieve"):
            rebuilt = load_or_build(6000, tmp_path)
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert str(path) in warnings[0].getMessage()
        assert "payload length mismatch" in warnings[0].getMessage()
        fresh = build_table(6000)
        assert np.array_equal(rebuilt.is_prime, fresh.is_prime)
        assert np.array_equal(load_table(path).is_prime, fresh.is_prime)

    def test_load_or_build_survives_a_concurrent_rebuild(self, tmp_path, monkeypatch, caplog):
        # another process rebuilding the same corrupt cache removes the
        # file between this load's failure and its rebuild; save_table's
        # os.replace writes the new file whether or not the old one is there
        path = save_table(build_table(5000), tmp_path / "primetable_5000.pspc")

        def raced_load(p, n=None):
            Path(p).unlink()
            raise CacheError(f"{p}: checksum mismatch, cache is corrupt")

        with monkeypatch.context() as patched, caplog.at_level(logging.WARNING, "primepairs.sieve"):
            patched.setattr(sieve, "load_table", raced_load)
            table = load_or_build(5000, tmp_path)
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1 and "checksum mismatch" in warnings[0].getMessage()
        assert np.array_equal(table.is_prime, build_table(5000).is_prime)
        assert np.array_equal(load_table(path, 5000).is_prime, table.is_prime)

    def test_one_hash_per_table(self, tmp_path, fnv_calls):
        table = load_or_build(7000, tmp_path)
        assert table.checksum() == oracles.fnv1a64_reference(table.bitmap_payload())
        assert len(fnv_calls) == 1
        loaded = load_table(tmp_path / "primetable_7000.pspc")
        assert loaded.checksum() == table.checksum()
        assert len(fnv_calls) == 2


    def test_save_reuses_the_table_checksum(self, tmp_path, fnv_calls):
        t = build_table(7000)
        t.checksum()
        path = save_table(t, tmp_path / "t.pspc")
        assert fnv_calls == [875]
        assert path.read_bytes()[-8:] == t.checksum().to_bytes(8, "little")


class TestMemoryModel:
    """Traced peak bytes per entry at n = 1e6.  The table is its 1-byte
    bitmap; building adds one segment buffer, loading adds only the file
    (1/8 byte per entry), and pair counts AND the bitmap in small blocks."""

    N = 10**6

    @classmethod
    def _traced(cls, fn, *args):
        """(result, traced peak bytes per entry) of one call."""
        tracemalloc.start()
        try:
            result = fn(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return result, peak / (cls.N + 1)

    def test_build_table(self):
        table, per_entry = self._traced(build_table, self.N)
        assert table.n == self.N
        assert per_entry < 1.5

    def test_load_table(self, tmp_path):
        # saving hashes first, so the hash's power table is not counted
        path = save_table(build_table(self.N), tmp_path / "t.pspc")
        table, per_entry = self._traced(load_table, path)
        assert table.n == self.N
        assert per_entry < 1.5

    def test_pair_count_circular(self, table_1e6):
        # blockwise ANDs of bitmap slices: no ring copy, no roll, no
        # n-byte temporary
        count, per_entry = self._traced(pair_count_circular, table_1e6, 6)
        assert per_entry < 0.1
        mask = oracles.sieve_numpy_independent(self.N)
        ring = np.concatenate((mask[self.N :], mask[1 : self.N]))
        assert count == np.count_nonzero(ring & np.roll(ring, -6))

    def test_pair_count_linear(self, table_1e6):
        count, per_entry = self._traced(pair_count_linear, table_1e6, 6)
        assert per_entry < 0.1
        assert count == oracles.PAIR_COUNTS_1E6[6]

    def test_primes_make_no_second_copy(self, table_1e6):
        # the int64 prime list is the index array itself, not a copy of it;
        # a fresh table, so that no cached list is returned
        table = sieve.PrimeTable(self.N, table_1e6.is_prime)
        primes, per_entry = self._traced(table.primes)
        pi = table.pi(self.N)
        assert primes.dtype == np.int64 and primes.shape == (pi,)
        assert np.array_equal(primes, np.flatnonzero(oracles.sieve_numpy_independent(self.N)))
        assert per_entry * (self.N + 1) < 1.5 * pi * 8


class TestFnv1a64:
    """The numpy block kernel against the per-byte definition."""

    @settings(max_examples=60, deadline=None)
    @given(st.binary(max_size=3000), st.sampled_from([bytes, bytearray, memoryview]))
    def test_matches_reference(self, data, kind):
        assert fnv1a64(kind(data)) == oracles.fnv1a64_reference(data)

    # fold blocks, low-byte chains, and every partial packed word: lengths
    # 1..63 mod 64 (so 1..7 mod 8) end a chain inside a 64-bit word
    @pytest.mark.parametrize(
        "length",
        [0, 1, FNV_BLOCK - 1, FNV_BLOCK, FNV_BLOCK + 1, 3 * FNV_BLOCK + 5]
        + [FNV_CHAIN - 1, FNV_CHAIN, FNV_CHAIN + 1]
        + [3 * 64 + r for r in range(1, 64)],
    )
    def test_block_boundaries(self, length):
        data = np.random.default_rng(length).integers(0, 256, length, dtype=np.uint8).tobytes()
        assert fnv1a64(data) == oracles.fnv1a64_reference(data)

    @settings(max_examples=60, deadline=None)
    @given(st.binary(max_size=3000), st.lists(st.integers(0, 3000), max_size=4))
    def test_chained_state(self, data, cuts):
        # fnv1a64(b, fnv1a64(a)) == fnv1a64(a + b), split at any points
        bounds = [0, *sorted(min(cut, len(data)) for cut in cuts), len(data)]
        state = sieve.FNV_OFFSET
        for lo, hi in zip(bounds, bounds[1:]):
            state = fnv1a64(data[lo:hi], state)
        assert state == fnv1a64(data) == oracles.fnv1a64_reference(data)

    def test_chained_state_across_chains(self):
        # the second call starts mid-stream and crosses a chain boundary
        length = 2 * FNV_CHAIN + 99
        data = np.random.default_rng(7).integers(0, 256, length, dtype=np.uint8).tobytes()
        cut = FNV_CHAIN // 2 + 3
        assert fnv1a64(data[cut:], fnv1a64(data[:cut])) == oracles.fnv1a64_reference(data)

    @pytest.mark.parametrize("state", [-1, 1 << 64])
    def test_state_out_of_range(self, state):
        with pytest.raises(UsageError):
            fnv1a64(b"a", state)

    @pytest.mark.parametrize("fill", [0x00, 0xFF])
    def test_constant_runs(self, fill):
        # 0x00 gives d = 0 at every byte; 0xFF gives the largest |d|
        data = bytes([fill]) * 70000
        assert fnv1a64(data) == oracles.fnv1a64_reference(data)

    def test_published_vectors(self):
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a64(b"foobar") == 0x85944171F73967E8

    def test_prime_table_checksum(self, table_1e6):
        assert table_1e6.checksum() == oracles.fnv1a64_reference(table_1e6.bitmap_payload())
