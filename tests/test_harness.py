import json
import math
import os
import signal
import subprocess
import sys
import tracemalloc
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from primepairs import PrimePairsError, ResourceLimitError, UsageError
from primepairs import constants, harness, reports, sieve, spectral, transform
from primepairs.cli import main
from primepairs.constants import hl_constant, li2
from primepairs.harness import (
    ExperimentConfig,
    cache_admin,
    config_hash,
    load_config_file,
    pairs_report,
    round_up_multiple,
    run,
    validate_config,
)
from primepairs.factored import factorize, primorial
from primepairs.reports import complex_rows
from primepairs.sieve import (
    build_table,
    fnv1a64,
    pair_count_circular,
    pair_count_linear,
    pi_progression,
    von_mangoldt_vector,
)
from primepairs.spectral import pair_count_modulus, pair_count_rounding_budget, psi_rounding_budget
from primepairs.transform import fold_half, gather_columns

import oracles
from oracles import csv_body, render_csv


def small_config(mode, tmp_path, **kw):
    defaults = dict(
        mode=mode,
        n_values=[30, 120],
        two_k_values=[2, 6],
        z_schedule=[5],
        cutoff=1000,
        output_dir=str(tmp_path),
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestConfig:
    def test_valid_config_has_no_problems(self, tmp_path):
        assert validate_config(small_config("identity-suite", tmp_path)) == []

    def test_all_violations_reported_at_once(self, tmp_path):
        config = small_config(
            "no-such-mode",
            tmp_path,
            two_k_values=[3, 2],
            n_values=[4],
            z_schedule=[1],
            tolerances={"bogus": 1e-6, "plancherel": -1},
        )
        problems = validate_config(config)
        assert len(problems) == 6
        assert any("mode" in p for p in problems)
        assert any("even integer" in p for p in problems)
        assert any("max(2k)+2" in p for p in problems)
        assert any("z must" in p for p in problems)
        assert any("bogus" in p for p in problems)
        assert any("positive" in p for p in problems)

    def test_hash_ignores_locations(self, tmp_path):
        a = small_config("identity-suite", tmp_path)
        b = small_config("identity-suite", tmp_path / "elsewhere", cache_dir="x")
        assert config_hash(a) == config_hash(b)
        c = small_config("identity-suite", tmp_path, n_values=[30, 121])
        assert config_hash(a) != config_hash(c)

    def test_config_file_roundtrip(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"mode": "constants", "two_k_values": [2], "cutoff": 500}))
        raw = load_config_file(path)
        assert raw["cutoff"] == 500
        with pytest.raises(UsageError, match="unknown config keys"):
            path.write_text(json.dumps({"modes": "constants"}))
            load_config_file(path)

    def test_run_rejects_invalid_config(self, tmp_path):
        with pytest.raises(UsageError, match="invalid config"):
            run(small_config("identity-suite", tmp_path, two_k_values=[7]))

    def test_round_up_multiple(self):
        assert round_up_multiple(30, 30) == 30
        assert round_up_multiple(31, 30) == 60
        assert round_up_multiple(1, 2310) == 2310


class TestIdentitySuite:
    def test_green_run(self, tmp_path):
        result = run(small_config("identity-suite", tmp_path))
        assert result.exit_code == 0
        assert result.failures == []
        payload = json.loads((tmp_path / "identity_suite.json").read_text())
        assert payload["all_passed"] is True
        identities = {row["identity"] for row in payload["results"]}
        assert identities == {
            "spectral-pair-count",
            "round-trip",
            "plancherel",
            "twisted-plancherel",
            "parity-half-spectrum",
            "psi-spectral-identity",
            "subgroup-restriction",
            "decomposition-reconstruction",
            "main-term-convolution",
        }
        assert all(row["passed"] for row in payload["results"])
        assert payload["config_hash"] == config_hash(small_config("identity-suite", tmp_path))

    def test_impossible_tolerance_fails_with_exit_2(self, tmp_path):
        result = run(
            small_config(
                "identity-suite", tmp_path, tolerances={"spectral-pair-count": 1e-30}
            )
        )
        assert result.exit_code == 2
        assert result.failures == ["spectral-pair-count"]
        payload = json.loads((tmp_path / "identity_suite.json").read_text())
        assert payload["all_passed"] is False
        assert payload["failing_identities"] == ["spectral-pair-count"]

    def test_extent_rows_hold_ring_half_and_inverse(self):
        # the round-trip and Plancherel rows at n = 1e6 hold the cached
        # half spectrum and one float copy of length n, and no more: the
        # spectrum's rfft sees the one ring it makes and frees, the
        # round trip subtracts the bitmap in place in the inverse (through
        # a ufunc cast buffer for the bool operand), and the energy reads
        # pi(n).  numpy < 2 zero-pads irfft's input to n complex entries
        # (16n bytes) beside the half and the inverse
        n = 10**6
        table = build_table(n)
        config = ExperimentConfig(mode="identity-suite", two_k_values=[2, 4, 6])
        recorded = []
        transform.inverse_real(transform.forward_real(np.zeros(8)), 8)  # numpy.fft loads
        tracemalloc.start()
        try:
            harness._extent_rows(config, lambda check, *args: recorded.append(check), table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        identities = [check.identity for check in recorded]
        assert identities == ["spectral-pair-count"] * 3 + ["round-trip", "plancherel"]
        assert all(check.passed for check in recorded)
        padded = 16 * n if np.lib.NumpyVersion(np.__version__) < "2.0.0" else 0
        assert peak <= padded + table.spectrum().nbytes + 8 * n + (128 << 10)

    def test_twisted_row_transforms_before_the_kept_columns(self, tmp_path, monkeypatch):
        # at 1000002 with Q = 6 the twisted-Plancherel row's complex fft,
        # one packed row of the Bluestein length 166667, runs before the
        # table builds and keeps its column spectra mod 6 for the subgroup
        # and reconstruction rows, so that they are not resident beside
        # its scratch; its row is still recorded after the subgroup row
        events = []
        fft, columns = np.fft.fft, sieve.PrimeTable.columns

        def spied_fft(a, *args, **kwargs):
            events.append(("fft", np.shape(a), np.asarray(a).dtype.kind))
            return fft(a, *args, **kwargs)

        def spied_columns(table, Q):
            events.append(("columns", Q))
            return columns(table, Q)

        monkeypatch.setattr(np.fft, "fft", spied_fft)
        monkeypatch.setattr(sieve.PrimeTable, "columns", spied_columns)
        argv = ["verify", "--n", "1000002", "--z", "5", "--two-k", "2", "--out", str(tmp_path)]
        assert main(argv) == 0
        twisted = [i for i, event in enumerate(events) if event[0] == "fft" and len(event[1]) == 2]
        assert [events[i] for i in twisted] == [("fft", (1, 166667), "c")]
        assert twisted[0] < events.index(("columns", 6))
        rows = json.loads((tmp_path / "identity_suite.json").read_text())["results"]
        assert [(row["identity"], row["n"], row["Q"], row["two_k"]) for row in rows] == [
            ("spectral-pair-count", 1000002, None, 2),
            ("round-trip", 1000002, None, None),
            ("plancherel", 1000002, None, None),
            ("parity-half-spectrum", 1000002, None, None),
            ("psi-spectral-identity", 1000002, None, 2),
            ("subgroup-restriction", 1000002, 6, None),
            ("twisted-plancherel", 1000002, 6, None),
            ("decomposition-reconstruction", 1000002, 6, 2),
            ("main-term-convolution", 1000002, 6, 2),
        ]

    @pytest.mark.parametrize("tol", [1e-6, 1e-17])
    def test_spectral_pair_count_tolerance_is_the_rounding_budget(self, tmp_path, tol):
        # the rows hold the bound pair_counts_via_spectrum rounds against,
        # tightened to tol * n when that is smaller: at n = 30030 the model
        # is far below 1e-6 * n, and 1e-17 * n is below the model
        n = 30030
        config = small_config(
            "identity-suite", tmp_path, n_values=[n], tolerances={"spectral-pair-count": tol}
        )
        run(config)
        rows = json.loads((tmp_path / "identity_suite.json").read_text())["results"]
        Q = pair_count_modulus(n)
        model = pair_count_rounding_budget(build_table(n).pi(n), Q, n // Q)
        assert model < 1e-6 * n
        got = [r["tolerance"] for r in rows if r["identity"] == "spectral-pair-count"]
        assert got == [min(model, tol * n)] * 2

    # each tolerance's documented scale, from the row it is recorded on
    SCALES = {
        "spectral-pair-count": lambda row, tol: min(
            pair_count_rounding_budget(
                build_table(row["n"]).pi(row["n"]),
                pair_count_modulus(row["n"]),
                row["n"] // pair_count_modulus(row["n"]),
            ),
            tol * row["n"],
        ),
        "round-trip": lambda row, tol: tol,
        "plancherel": lambda row, tol: tol,
        "twisted-plancherel": lambda row, tol: tol,
        "parity-half-spectrum": lambda row, tol: tol * max(build_table(row["n"]).pi(row["n"]), 1),
        "subgroup-restriction": lambda row, tol: tol * max(build_table(row["n"]).pi(row["n"]), 1),
        "decomposition-reconstruction": lambda row, tol: tol * row["n"],
        "main-term-convolution": lambda row, tol: tol * (row["n"] / row["Q"]),
        "psi-spectral-identity": lambda row, tol: min(
            psi_rounding_budget(
                von_mangoldt_vector(build_table(row["n"])), pair_count_modulus(row["n"])
            ),
            tol * row["n"] * math.log(row["n"]) ** 2,
        ),
    }

    @pytest.fixture(scope="class")
    def default_rows(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("defaults")
        run(small_config("identity-suite", out, n_values=[31, 30030], z_schedule=[5, 7]))
        return json.loads((out / "identity_suite.json").read_text())["results"]

    @pytest.mark.parametrize("key", sorted(harness.DEFAULT_TOLERANCES))
    def test_every_tolerance_reaches_its_rows(self, tmp_path, default_rows, key):
        # an override of 1e-20 scales that identity's rows, and only those;
        # its rows may fail, and are recorded, not raised.  At 1e-20 * n
        # the pair counts' tolerance is below the rounding model, so it
        # changes too.  31 is odd, so its parity row is at 32
        assert set(self.SCALES) == set(harness.DEFAULT_TOLERANCES)
        config = small_config(
            "identity-suite", tmp_path, n_values=[31, 30030], z_schedule=[5, 7],
            tolerances={key: 1e-20},
        )
        run(config)
        rows = json.loads((tmp_path / "identity_suite.json").read_text())["results"]
        assert len(rows) == len(default_rows)
        hit = 0
        for row, default in zip(rows, default_rows):
            assert (row["identity"], row["n"], row["Q"], row["two_k"]) == (
                default["identity"], default["n"], default["Q"], default["two_k"]
            )
            scale = self.SCALES[row["identity"]]
            assert default["tolerance"] == scale(default, harness.DEFAULT_TOLERANCES[row["identity"]])
            if row["identity"] == key:
                hit += 1
                assert row["tolerance"] == scale(row, 1e-20) != default["tolerance"]
            else:
                assert row["tolerance"] == default["tolerance"]
        assert hit >= 2

    def test_violation_recorded_not_raised(self, tmp_path):
        # the reconstruction residuals at n = 30030 are about 1e-13, far
        # above 1e-30 * n; run() would pass an IdentityError on to the
        # caller, and must instead finish with FAIL rows of that identity
        config = small_config(
            "identity-suite", tmp_path, n_values=[30030], two_k_values=[2, 4, 6],
            z_schedule=[5, 7], tolerances={"decomposition-reconstruction": 1e-30},
        )
        result = run(config)
        assert result.exit_code == 2
        assert result.failures == ["decomposition-reconstruction"]
        payload = json.loads((tmp_path / "identity_suite.json").read_text())
        assert payload["failing_identities"] == ["decomposition-reconstruction"]
        rows = payload["results"]
        failed = [r for r in rows if not r["passed"]]
        assert [(r["identity"], r["Q"], r["two_k"]) for r in failed] == [
            ("decomposition-reconstruction", Q, two_k) for Q in (6, 30) for two_k in (2, 4, 6)
        ]
        assert all(r["residual"] > 0 for r in failed)

    SUITE_ARGV = ["verify", "--n", "30030", "--z", "5,7", "--two-k", "2,4"]

    def _failed(self, tmp_path):
        rows = json.loads((tmp_path / "identity_suite.json").read_text())["results"]
        return {row["identity"] for row in rows if not row["passed"]}

    def test_perturbed_cached_spectrum_fails_its_rows(self, tmp_path, monkeypatch, capsys):
        # one unit added to bin 0 of each table's cached half spectrum: the
        # round trip is then off by 1/n everywhere and the folded energy by
        # (2 pi(n) + 1)/n, far past the 1e-8 of both rows; the parity row
        # reads that spectrum too.  The other rows read no length-n spectrum
        cached = sieve.PrimeTable.spectrum

        def perturbed(table):
            if table._spectrum is None:
                cached(table)
                table._spectrum[0] += 1
            return table._spectrum

        monkeypatch.setattr(sieve.PrimeTable, "spectrum", perturbed)
        assert main(self.SUITE_ARGV + ["--out", str(tmp_path)]) == 2
        assert self._failed(tmp_path) == {"round-trip", "plancherel", "parity-half-spectrum"}
        out = capsys.readouterr().out
        assert "[FAIL] plancherel n=30030" in out and "[FAIL] round-trip n=30030" in out

    def test_perturbed_class_count_fails_twisted_plancherel(self, tmp_path, monkeypatch, capsys):
        # one prime too many in class 1: that class's column energy is off
        # by 1/count relative, far past 1e-8, at every Q
        exact = spectral.pi_progression
        monkeypatch.setattr(spectral, "pi_progression", lambda table, q, a: exact(table, q, a) + (a == 1))
        assert main(self.SUITE_ARGV + ["--out", str(tmp_path)]) == 2
        assert self._failed(tmp_path) == {"twisted-plancherel"}
        assert capsys.readouterr().out.count("[FAIL] twisted-plancherel") == 2

    def test_wrong_impulse_share_fails_psi(self, tmp_path, monkeypatch, capsys):
        # 1e5 groups by Q = 250, where the von Mangoldt columns of 2, 4, 8,
        # ..., 128 are one impulse of log 2 and those of 5 and 25 one of
        # log 5.  Sharing every impulse whatever its weight, in the weights'
        # columns only, gives 5 and 25 the spectrum of log 2: the psi
        # correlations move by units, which the rounding budget catches and
        # 1e-6 * n * log(n)^2 (13.3) does not.  The bitmap's impulses are of
        # one weight, so no other row moves
        n = 10**5
        init = transform.ColumnBlocks.__init__

        def planted(self, weights, Q):
            init(self, weights, Q)
            if weights.dtype != bool:
                self.impulses = dict.fromkeys(self.impulses, 0.0)

        monkeypatch.setattr(transform.ColumnBlocks, "__init__", planted)
        argv = ["verify", "--n", str(n), "--z", "5", "--two-k", "2,4", "--out", str(tmp_path)]
        assert main(argv) == 2
        payload = json.loads((tmp_path / "identity_suite.json").read_text())
        assert payload["failing_identities"] == ["psi-spectral-identity"]
        psi = [r for r in payload["results"] if r["identity"] == "psi-spectral-identity"]
        assert [r["two_k"] for r in psi] == [2, 4] and not any(r["passed"] for r in psi)
        assert all(1 < r["residual"] < 1e-6 * n * math.log(n) ** 2 for r in psi)
        assert capsys.readouterr().out.count(f"[FAIL] psi-spectral-identity n={n}") == 2

    def test_twisted_plancherel_at_q_one(self, tmp_path):
        """z = 2 gives Q = 1, whose one residue class is all of Z/nZ."""
        result = run(small_config("identity-suite", tmp_path, n_values=[120], z_schedule=[2]))
        assert result.exit_code == 0
        rows = json.loads((tmp_path / "identity_suite.json").read_text())["results"]
        twisted = [row for row in rows if row["identity"] == "twisted-plancherel"]
        assert [(row["Q"], row["passed"]) for row in twisted] == [(1, True)]

    def test_odd_extent_adjusted_for_parity_check(self, tmp_path):
        result = run(small_config("identity-suite", tmp_path, n_values=[31]))
        assert result.exit_code == 0
        payload = json.loads((tmp_path / "identity_suite.json").read_text())
        parity_rows = [r for r in payload["results"] if r["identity"] == "parity-half-spectrum"]
        assert parity_rows[0]["n"] == 32
        assert parity_rows[0]["requested_n"] == 31

    def test_psi_violation_recorded_not_raised(self, tmp_path, monkeypatch, capsys):
        # push every direct psi value, and so every psi gap, past the
        # default budget 1e-6 * n * log(n)^2; the run must finish and
        # record FAIL rows.  main_term_convolution reads correlation_direct
        # too, so only the psi checks' calls are perturbed
        exact = spectral.correlation_direct

        def perturbed(ring, two_k):
            direct = exact(ring, two_k)
            if sys._getframe(1).f_code.co_name != "psi_pair_checks":
                return direct
            n = ring.shape[0]
            return direct + 2e-6 * n * math.log(n) ** 2

        monkeypatch.setattr(spectral, "correlation_direct", perturbed)
        code = main(["verify", "--n", "30,120", "--two-k", "2,6", "--z", "5", "--out", str(tmp_path)])
        assert code == 2
        payload = json.loads((tmp_path / "identity_suite.json").read_text())
        assert payload["failing_identities"] == ["psi-spectral-identity"]
        psi = [r for r in payload["results"] if r["identity"] == "psi-spectral-identity"]
        assert [(r["n"], r["two_k"]) for r in psi] == [(30, 2), (30, 6), (120, 2), (120, 6)]
        assert not any(r["passed"] for r in psi)
        assert all(r["passed"] for r in payload["results"] if r not in psi)
        assert capsys.readouterr().out.count("[FAIL] psi-spectral-identity") == 4


class TestSuiteChecksAtBoundaries:
    """The checks the identity suite once computed itself, called from the
    library at its defaults, against the rows ``verify`` records at the
    kernel's boundary examples: bit for bit the same residual and
    tolerance."""

    @pytest.mark.parametrize(
        "n, z, Q, two_k",
        [
            (30029, 2, 1, 2),  # prime n, Q = 1: the twisted classes collapse to {0}
            (30030, 17, 30030, 2),  # Q = n: residue columns of length 1
            (9240, None, 12, 2),  # Q = 12, no primorial
            (8, 3, 2, 6),  # n = 2k + 2
        ],
    )
    def test_library_checks_equal_the_rows(self, tmp_path, monkeypatch, n, z, Q, two_k):
        if z is None:  # verify names Q by a primorial; here z = 5 names 12
            z = 5
            monkeypatch.setattr(harness, "primorial", lambda _: factorize(Q))
        argv = ["verify", "--n", str(n), "--z", str(z), "--two-k", str(two_k), "--out", str(tmp_path)]
        assert main(argv) == 0
        rows = json.loads((tmp_path / "identity_suite.json").read_text())["results"]
        t = build_table(n)
        ((report, _),) = spectral.decomposition_checks(t, Q, [two_k])
        checks = [
            spectral.round_trip_check(t),
            spectral.plancherel_check(t),
            spectral.parity_half_spectrum_check(build_table(n + n % 2)),
            spectral.twisted_plancherel_check(t, Q),
            spectral.main_term_convolution_check(t, report),
        ]
        for check in checks:
            (row,) = [row for row in rows if row["identity"] == check.identity]
            assert row["Q"] in (None, Q)
            assert (check.residual, check.tolerance) == (row["residual"], row["tolerance"])
            assert check.passed and row["passed"]


class TestTwistedEnergies:
    """The twisted-Plancherel row's class energies, two real columns to one
    complex row, against one rfft per class."""

    @staticmethod
    def _alone(column):
        m = column.shape[0]
        return fold_half(np.abs(np.fft.rfft(column.astype(np.float64))) ** 2, m) / m

    @pytest.mark.parametrize("Q", [1, 2, 6, 30])
    def test_packed_energies_equal_per_class_rfft(self, Q):
        # m = 1009 is prime, a Bluestein length; 1024 is 2^10
        for n in (Q * 1009, Q * 1024, round_up_multiple(30030, Q)):
            t = build_table(n)
            classes = sorted({0, 1 % Q, Q - 1})
            columns = gather_columns(t.is_prime, Q, classes)
            energies = spectral._class_energies(columns)
            for a, column, energy in zip(classes, columns, energies, strict=True):
                # a class that holds no prime reads 0 exactly
                assert energy == pytest.approx(self._alone(column), rel=1e-12, abs=0), (n, a)
                assert round(energy) == pi_progression(t, Q, a)

    @pytest.mark.parametrize("rows", [4, 5])
    def test_odd_and_even_row_counts_share_one_call(self, monkeypatch, rows):
        # one zero row, so 3 or 4 rows go in two complex rows, the last of
        # 3 alone in its row's real part
        columns = np.random.default_rng(rows).integers(0, 2, (rows, 1009)).astype(bool)
        columns[1] = False
        calls = []
        forward = spectral.forward
        monkeypatch.setattr(spectral, "forward", lambda f: calls.append(f.shape) or forward(f))
        energies = spectral._class_energies(columns)
        assert calls == [(2, 1009)]
        for column, energy in zip(columns, energies, strict=True):
            assert energy == pytest.approx(self._alone(column), rel=1e-12, abs=0)

    def test_zero_rows_make_no_transform(self, monkeypatch):
        calls = []
        forward = spectral.forward
        monkeypatch.setattr(spectral, "forward", lambda f: calls.append(f.shape) or forward(f))
        assert spectral._class_energies(np.zeros((3, 7), bool)) == [0.0] * 3
        assert calls == []


class TestTransformBudget:
    FFT_ENTRY_POINTS = (
        "fft", "ifft", "rfft", "irfft", "hfft", "ihfft",
        "fft2", "ifft2", "fftn", "ifftn", "rfft2", "irfft2", "rfftn", "irfftn",
    )

    @pytest.fixture
    def callers(self):
        """The module that made each numpy.fft call in the test, in order."""
        return []

    @pytest.fixture
    def calls(self, monkeypatch, callers):
        """(entry point, input copy) of every numpy.fft call in the test."""
        seen = []
        for name in self.FFT_ENTRY_POINTS:
            def counted(a, *args, _name=name, _original=getattr(np.fft, name), **kwargs):
                seen.append((_name, np.array(a)))
                callers.append(sys._getframe(1).f_globals["__name__"])
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        return seen

    def test_pairs_one_batched_column_rfft_per_extent(self, calls, capsys):
        # every shift from one rfft of the prime-holding residue columns:
        # 1001 = 7 * 143 takes Q = 7 (classes 1..6 and 0, which holds 7 at
        # j = 1) and 2310 takes Q = 30 (the 8 units and 2, 3, 5, whose
        # columns are one impulse, transformed once), length n/Q each
        assert main(["pairs", "--n", "1001,2310", "--two-k", "2,4,6"]) == 0
        assert [(name, a.shape) for name, a in calls] == [("rfft", (7, 143)), ("rfft", (9, 77))]

    def test_one_ring_transform_per_extent(self, tmp_path, monkeypatch, calls):
        built = {}
        sieved = Counter()
        build = sieve.build_table

        def counted_build(n, *args, **kwargs):
            table = build(n, *args, **kwargs)
            sieved[n] += 1
            # the tables the suite reads; the sieve's base primes,
            # von_mangoldt_vector and the constants' prime list build
            # tables of their own, which are never transformed
            if sys._getframe(1).f_code.co_name == "load_or_build":
                built.setdefault(n, []).append(table.ring_indicator())
            return table

        monkeypatch.setattr(sieve, "build_table", counted_build)
        # the extents at which the package lays out a float ring
        rings = Counter()
        ring_indicator = sieve.PrimeTable.ring_indicator

        def counted_ring(table):
            if sys._getframe(1).f_globals["__name__"] != __name__:
                rings[table.n] += 1
            return ring_indicator(table)

        monkeypatch.setattr(sieve.PrimeTable, "ring_indicator", counted_ring)
        n_values, z_values = [2310, 1001], [5, 7, 11]
        code = main(
            [
                "verify", "--n", "2310,1001", "--z", "5,7,11", "--two-k", "2,4,6",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        # 2310 serves every row of its own; 1001 is odd, so its parity row
        # and z = 5 (Q = 6) share 1002, and z = 7, 11 need 1020 and 1050
        extents = [2310, 1001, 1002, 1020, 1050]
        assert {n: len(rings) for n, rings in built.items()} == {n: 1 for n in extents}
        # and each is sieved once: the psi rows read the suite's table
        assert {n: sieved[n] for n in extents} == {n: 1 for n in extents}

        def ring_transforms(name):
            return Counter(
                n
                for fn, a in calls
                if fn == name
                for n, (ring,) in built.items()
                if a.shape == ring.shape and np.array_equal(a, ring)
            )

        # the cached spectrum only where the round-trip and parity rows
        # read it: at n and at n + 1 for odd n, never at 1020 or 1050,
        # whose subgroup rows read residue columns
        spectra = [2310, 1001, 1002]
        assert ring_transforms("rfft") == Counter(spectra)
        # the energy identity folds that cached spectrum: no complex
        # transform of a ring
        assert ring_transforms("fft") == Counter()
        # every complex fft by length: per (n, z) two of length Q, of the
        # column bins 0 and of the residue counts, and one call on the
        # twisted-Plancherel row's residue columns of length n/Q at the
        # adjusted extent, gathered from the bitmap: class 0 holds no prime,
        # and classes 1 and Q - 1 go two to one complex row
        lengths = Counter()
        for n in n_values:
            for z in z_values:
                Q = primorial(z).value
                lengths[Q] += 2
                lengths[round_up_multiple(n, Q) // Q] += 1
        assert Counter(a.shape[-1] for fn, a in calls if fn == "fft") == lengths
        twisted = [a.shape for fn, a in calls if fn == "fft" and a.ndim == 2]
        assert twisted == [
            (1, round_up_multiple(n, primorial(z).value) // primorial(z).value)
            for n in n_values
            for z in z_values
        ]
        # batched column rffts by length: per n those of the pair counts and
        # of the von Mangoldt weights, of length n / pair_count_modulus(n),
        # and per (n, z) the one that the subgroup samples and the
        # decompositions share, of columns of length n/Q at the adjusted
        # extent
        columns = Counter()
        for n in n_values:
            columns[n // pair_count_modulus(n)] += 2
            for z in z_values:
                Q = primorial(z).value
                columns[round_up_multiple(n, Q) // Q] += 1
        assert Counter(a.shape[1] for fn, a in calls if fn == "rfft" and a.ndim == 2) == columns
        # per n: the two batched column rffts and the round-trip irfft;
        # per (n, z): the two length-Q transforms, the batched
        # twisted-Plancherel fft and the shared batched column rfft
        budget = len(spectra) + 3 * len(n_values) + 4 * len(n_values) * len(z_values)
        assert len(calls) == budget == 33
        # one float ring per extent whose spectrum is cached, laid out
        # for its rfft: the round-trip, Plancherel and parity rows read the
        # bitmap and pi(n) beside that spectrum, and the twisted-Plancherel
        # rows gather their columns from the bitmap
        assert rings == Counter({2310: 1, 1001: 1, 1002: 1})
        # no transform of any length-n ring at an adjusted extent, and no
        # complex one of length n at all
        assert not {1020, 1050} & {a.shape[-1] for fn, a in calls}
        assert not set(built) & {a.shape[-1] for fn, a in calls if fn in ("fft", "ifft")}

    def test_subgroup_rows_share_one_column_rfft(self, tmp_path, monkeypatch, calls):
        # at 30030 both Q = 6 and Q = 30 divide n: the 4 holding classes
        # mod 6 (1, 5 and those of 2 and 3) in columns of length 5005, and
        # the 8 units mod 30 and the classes of 2, 3 and 5 in columns of
        # length 1001, each one block, transformed once for the subgroup
        # and the reconstruction rows together.  The columns of 2, 3 and 5
        # are one impulse, so one of them is transformed
        inside = []
        subgroup_rows = harness._subgroup_rows

        def marked(*args, **kwargs):
            first = len(calls)
            subgroup_rows(*args, **kwargs)
            inside.extend(calls[first:])

        monkeypatch.setattr(harness, "_subgroup_rows", marked)
        argv = ["verify", "--n", "30030", "--z", "5,7", "--two-k", "2,4", "--out", str(tmp_path)]
        assert main(argv) == 0
        rffts = Counter(a.shape for fn, a in inside if fn == "rfft")
        assert rffts == Counter({(3, 5005): 1, (9, 1001): 1})

    def test_every_transform_goes_through_transform_module(self, tmp_path, calls, callers):
        argv = ["verify", "--n", "2310,1001", "--z", "5,7,11", "--two-k", "2,4,6", "--out", str(tmp_path)]
        assert main(argv) == 0
        # the length-Q and twisted-Plancherel ffts, the column rffts and the
        # round-trip irfft; the package makes no ifft
        assert {name for name, _ in calls} == {"fft", "rfft", "irfft"}
        assert set(callers) == {"primepairs.transform"}


class TestModeOutputs:
    def test_decompose_sieves_each_extent_once(self, tmp_path, monkeypatch, capsys):
        # 510510 = 2*3*5*7*11*13: every z from 5 to 13 gives a Q | n, so the
        # four moduli read one table, and the files and lines keep their order
        sieved = Counter()
        build = sieve.build_table

        def counted_build(n, *args, **kwargs):
            sieved[n] += 1
            return build(n, *args, **kwargs)

        monkeypatch.setattr(sieve, "build_table", counted_build)
        argv = ["decompose", "--n", "510510", "--z", "5,7,11,13", "--two-k", "2", "--out", str(tmp_path)]
        assert main(argv) == 0
        assert sieved[510510] == 1
        moduli = [6, 30, 210, 2310]
        lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("decompose ")]
        assert [line.split()[2] for line in lines] == [f"Q={Q}" for Q in moduli]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            f"decompose_n510510_Q{Q}_k2.{ext}" for Q in moduli for ext in ("csv", "json")
        )

    def test_decompose_files(self, tmp_path):
        result = run(
            small_config("decompose", tmp_path, n_values=[3000], two_k_values=[2], z_schedule=[7])
        )
        assert result.exit_code == 0
        report = json.loads((tmp_path / "decompose_n3000_Q30_k2.json").read_text())
        assert report["Q"] == 30
        assert report["pair_count_circular"] > 0
        assert report["reconstruction_residual"] < 1e-6 * 3000
        csv_text = (tmp_path / "decompose_n3000_Q30_k2.csv").read_text()
        header = csv_text.splitlines()
        assert any(line.startswith("# prime_table_checksum=fnv1a64:") for line in header)
        assert "xi,re_T,im_T,abs_T" in header

    def test_decompose_writes_with_column_spectra_released(self, tmp_path, monkeypatch):
        # every shift's error spectrum is formed before the first file is
        # written, and by then the table has released its residue columns
        # mod Q and their kept spectra
        blocks, dead = [], []
        columns = sieve.PrimeTable.columns
        csv = harness.write_csv

        def tracked(table, Q):
            kept = columns(table, Q)
            blocks.append(weakref.ref(kept))
            return kept

        def checked(*args, **kwargs):
            dead.append(all(ref() is None for ref in blocks))
            return csv(*args, **kwargs)

        monkeypatch.setattr(sieve.PrimeTable, "columns", tracked)
        monkeypatch.setattr(harness, "write_csv", checked)
        argv = ["decompose", "--n", "30030", "--z", "5,7", "--two-k", "2,4,6", "--out", str(tmp_path)]
        assert main(argv) == 0
        assert len(blocks) == 2  # Q = 6 and Q = 30, one kept block each
        assert dead == [True] * 6

    def test_decompose_forms_error_spectra_with_column_spectra_released(
        self, tmp_path, monkeypatch
    ):
        # the column pass runs the kernel to the end, and the table releases
        # its residue columns mod Q and their kept spectra before the T step
        # forms the first error spectrum
        blocks, dead = [], []
        columns = sieve.PrimeTable.columns
        form = spectral._error_spectrum

        def tracked(table, Q):
            kept = columns(table, Q)
            blocks.append(weakref.ref(kept))
            return kept

        def checked(*args):
            dead.append(all(ref() is None for ref in blocks))
            return form(*args)

        monkeypatch.setattr(sieve.PrimeTable, "columns", tracked)
        monkeypatch.setattr(spectral, "_error_spectrum", checked)
        argv = ["decompose", "--n", "30030", "--z", "5,7", "--two-k", "2,4,6", "--out", str(tmp_path)]
        assert main(argv) == 0
        assert len(blocks) == 2  # Q = 6 and Q = 30, one kept block each
        assert dead == [True] * 6

    def test_failed_reconstruction_writes_no_shift(self, tmp_path, monkeypatch, capsys):
        # the second shift's check fails: the run exits 2, and the first
        # shift, which passed, gets no file either, since the
        # decomposition runs to the end before anything is written
        sieved = spectral.pair_count_circular

        def off_by_one(table, two_k):
            return sieved(table, two_k) + (two_k == 4)

        monkeypatch.setattr(spectral, "pair_count_circular", off_by_one)
        argv = ["decompose", "--n", "3000", "--z", "7", "--two-k", "2,4", "--out", str(tmp_path)]
        assert main(argv) == 2
        assert "decomposition-reconstruction" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_decompose_predictions_are_the_hardy_littlewood_expressions(self, tmp_path):
        argv = ["decompose", "--n", "3000", "--z", "7", "--two-k", "2,4", "--cutoff", "10000"]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        n = 3000  # a multiple of Q = 30, so the extent is not adjusted
        for two_k in (2, 4):
            report = json.loads((tmp_path / f"decompose_n{n}_Q30_k{two_k}.json").read_text())
            c = hl_constant(two_k, 10000).value
            assert report["predicted_main_log2"] == c * n / math.log(n) ** 2
            assert report["predicted_main_li2"] == c * li2(n)

    def test_decompose_line_prints_the_reported_prediction(self, tmp_path, capsys):
        # the line's li2 prediction is the JSON's, a count like main=
        argv = ["decompose", "--n", "3000", "--z", "5,7", "--two-k", "2,4", "--out", str(tmp_path)]
        assert main(argv) == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("decompose ")]
        assert len(lines) == 4
        for line in lines:
            fields = dict(field.split("=", 1) for field in line.replace(":", "").split()[1:])
            stem = f"decompose_n{fields['n']}_Q{fields['Q']}_k{fields['2k']}"
            report = json.loads((tmp_path / f"{stem}.json").read_text())
            assert fields["predicted(li2)"] == f"{report['predicted_main_li2']:.4f}"
            assert fields["main"] == f"{report['main_term']:.4f}"

    def test_exploratory_ratio_reported(self, tmp_path):
        # the main term divided by the conjectural prediction should be of
        # order one at desk scale; reported, not asserted tightly
        n = 2310 * 64
        argv = ["decompose", "--n", str(n), "--z", "13", "--two-k", "2", "--out", str(tmp_path)]
        assert main(argv) == 0
        report = json.loads((tmp_path / f"decompose_n{n}_Q2310_k2.json").read_text())
        assert 0.5 <= report["main_term"] / report["predicted_main_li2"] <= 2.0
        assert report["predicted_main_log2"] > 0

    def test_suite_computes_no_prediction(self, tmp_path, monkeypatch):
        # the Hardy-Littlewood predictions belong to the decompose reports;
        # the identity suite records no value that needs them
        calls = []
        for module in (harness, constants):
            for name in ("hl_constant", "li2"):
                def counted(*args, _name=name, _original=getattr(module, name)):
                    calls.append(_name)
                    return _original(*args)

                monkeypatch.setattr(module, name, counted)
        assert not hasattr(spectral, "hl_constant") and not hasattr(spectral, "li2")
        argv = ["verify", "--n", "30030", "--z", "5,7", "--two-k", "2,4", "--out", str(tmp_path / "v")]
        assert main(argv) == 0
        assert calls == []
        # the wrappers do see the decompose writer's calls
        argv = ["decompose", "--n", "3000", "--z", "7", "--two-k", "2", "--out", str(tmp_path / "d")]
        assert main(argv) == 0
        assert sorted(calls) == ["hl_constant", "li2"]

    def test_constants_report_schema(self, tmp_path):
        result = run(
            small_config(
                "constants", tmp_path, two_k_values=[2], cutoff=10**4, z_schedule=[5, 7]
            )
        )
        assert result.exit_code == 0
        payload = json.loads((tmp_path / "constants_k2.json").read_text())
        assert set(payload) >= {"two_k", "cutoff", "value", "error_bound", "singular_series_trace"}
        assert payload["singular_series_trace"] == [
            [5, 6, pytest.approx(1.5)],
            [7, 30, pytest.approx(45 / 32)],
        ]

    def test_spectrum_export_digest_folds_written_blocks(self, tmp_path, monkeypatch):
        # many row blocks and a stamped header, rendered in process and in
        # three shares, two of them by helpers; the CSV is never read back
        values = np.fft.fft(np.arange(50.0))
        for shares in (1, 3):
            monkeypatch.setattr(reports, "CSV_BLOCK_ROWS", 7)
            monkeypatch.setattr(reports, "_share_count", lambda: shares)
            helpers = _count_helpers(monkeypatch)
            monkeypatch.setattr(
                reports.Path, "read_bytes", lambda self: pytest.fail(f"{self} was read back")
            )
            csv_path, json_path = reports.write_spectrum_export(
                tmp_path / f"sp{shares}", values, "prime", {"n": 50}, stamp=True
            )
            monkeypatch.undo()
            assert len(helpers) == shares - 1
            data = csv_path.read_bytes()
            sidecar = json.loads(json_path.read_text())
            assert sidecar["checksum"] == f"fnv1a64:{oracles.fnv1a64_reference(data):016x}"
            assert data.count(b"\n") == 2 + 1 + 50  # comments, columns, rows

    def test_spectrum_export_checksum_covers_csv_bytes(self, tmp_path):
        result = run(
            small_config("spectrum-export", tmp_path, n_values=[120], two_k_values=[2])
        )
        assert result.exit_code == 0
        csv_path = tmp_path / "spectrum_n120_prime.csv"
        sidecar = json.loads((tmp_path / "spectrum_n120_prime.json").read_text())
        assert sidecar["n"] == 120
        assert sidecar["source_function"] == "prime"
        assert sidecar["checksum"] == f"fnv1a64:{fnv1a64(csv_path.read_bytes()):016x}"
        body = csv_path.read_text().splitlines()
        first_data = [line for line in body if not line.startswith("#")][1]
        xi, re, im, abs2 = first_data.split(",")
        assert xi == "0"
        assert float(re) == pytest.approx(30.0)  # pi(120)
        assert float(abs2) == pytest.approx(900.0)

    def test_sweep_ratio_columns(self, tmp_path):
        result = run(
            small_config(
                "hl-ratio-sweep",
                tmp_path,
                n_values=[1000, 10000],
                two_k_values=[2],
                cutoff=10**5,
            )
        )
        assert result.exit_code == 0
        text = (tmp_path / "hl_ratio_sweep.csv").read_text()
        lines = [line for line in text.splitlines() if not line.startswith("#")]
        assert lines[0] == "n,two_k,pair_count,C2k_Li2,ratio"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["1000", "10000"]
        for row in rows:
            assert 0.5 <= float(row[4]) <= 1.5

    def test_sweep_ratio_trend_toward_one(self, tmp_path):
        # per-decade twin ratios climb toward 1 (about 0.957, 0.980, 0.990)
        result = run(
            small_config(
                "hl-ratio-sweep",
                tmp_path,
                n_values=[10**4, 10**5, 10**6],
                two_k_values=[2],
                cutoff=10**6,
            )
        )
        text = result.files[0].read_text()
        rows = [line.split(",") for line in text.splitlines() if not line.startswith("#")][1:]
        gaps = [abs(1.0 - float(r[4])) for r in rows]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 0.02


class TestReproducibility:
    def test_identity_suite_reports_byte_identical(self, tmp_path):
        config_a = small_config("identity-suite", tmp_path / "a")
        config_b = small_config("identity-suite", tmp_path / "b")
        run(config_a)
        run(config_b)
        assert (tmp_path / "a/identity_suite.json").read_bytes() == (
            tmp_path / "b/identity_suite.json"
        ).read_bytes()

    def test_reports_independent_of_blas_threads(self, tmp_path):
        """OpenBLAS splits a dot product or a matrix-vector product of more
        than about 1e4 entries across its threads, which sums it in
        another order.  The decompose and identity-suite reports take
        their sums with numpy reductions, so one BLAS thread and two
        write the same bytes."""
        written = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            for verb in ("decompose", "verify"):
                proc = subprocess.run(
                    [
                        sys.executable, "-m", "primepairs.cli", verb, "--n", "100000",
                        "--z", "5,7", "--two-k", "2,4", "--out", str(out / verb),
                    ],
                    env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
                    capture_output=True,
                    text=True,
                    cwd=str(Path(__file__).resolve().parent.parent),
                )
                assert proc.returncode == 0, proc.stderr
            written.append({p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()})
        # two shifts at two moduli, a CSV and a JSON each, and the suite
        assert len(written[0]) == 9
        assert sorted(name for name in written[0] if written[0][name] != written[1].get(name)) == []

    def test_sweep_csv_byte_identical(self, tmp_path):
        for sub in ("a", "b"):
            run(
                small_config(
                    "hl-ratio-sweep",
                    tmp_path / sub,
                    n_values=[1000],
                    two_k_values=[2],
                    cutoff=10**4,
                )
            )
        assert (tmp_path / "a/hl_ratio_sweep.csv").read_bytes() == (
            tmp_path / "b/hl_ratio_sweep.csv"
        ).read_bytes()

    def test_stamp_changes_header_not_body(self, tmp_path):
        plain = run(
            small_config(
                "hl-ratio-sweep", tmp_path / "plain", n_values=[1000], two_k_values=[2],
                cutoff=10**4,
            )
        )
        stamped = run(
            small_config(
                "hl-ratio-sweep", tmp_path / "stamped", n_values=[1000], two_k_values=[2],
                cutoff=10**4, stamp=True,
            )
        )
        plain_text = plain.files[0].read_text()
        stamped_text = stamped.files[0].read_text()
        assert plain_text != stamped_text
        assert any(line.startswith("# timestamp=") for line in stamped_text.splitlines())
        assert csv_body(plain_text) == csv_body(stamped_text)

    def test_render_csv_uses_lf_and_dot_decimal(self):
        text = render_csv({"k": 1.5}, ["a"], [(0.1,)])
        assert text == "# k=1.5\na\n0.1\n"

    @pytest.mark.parametrize("square", [False, True])
    def test_complex_rows_match_cell_rendering(self, monkeypatch, square):
        """Block-rendered rows equal the cell-by-cell text of numpy
        scalars, across block boundaries, signed zeros, extreme exponents
        and non-finite parts, in process and in three shares, the last two
        rendered by helpers."""
        monkeypatch.setattr(reports, "CSV_BLOCK_ROWS", 7)
        helpers = _count_helpers(monkeypatch)
        rng = np.random.default_rng(5)
        values = rng.normal(size=40) * 10.0 ** rng.integers(-150, 150, 40) + 1j * rng.normal(size=40)
        values[:6] = [0.0, -0.0 + 0j, complex(-0.0, -0.0), 5e-324j, np.inf, complex(3, np.nan)]
        values[-3:] = [complex(np.nan, -np.inf), -5e-324, complex(-1e150, 1e-300)]
        expected = _cell_rendering(values, square)
        assert expected.splitlines()[3].startswith("2,-0.0,-0.0,0.0")
        assert expected.splitlines()[5].endswith(",inf")
        for shares in (1, 3):
            monkeypatch.setattr(reports, "_share_count", lambda: shares)
            helpers.clear()
            assert render_csv({}, ["xi", "re", "im", "abs"], complex_rows(values, square)) == expected
            assert len(helpers) == shares - 1

    @pytest.mark.parametrize("shares", [1, 2, 3])
    @pytest.mark.parametrize("rows", [1, 7, 8, 22])
    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    def test_complex_rows_at_block_edges(self, monkeypatch, rows, dtype, shares):
        """At one block or less the rows are rendered in process; past it
        one share per CPU, at most one per block.  A complex64 vector gives
        the text of its exact complex128 widening on both paths."""
        monkeypatch.setattr(reports, "CSV_BLOCK_ROWS", 7)
        monkeypatch.setattr(reports, "_share_count", lambda: shares)
        helpers = _count_helpers(monkeypatch)
        rng = np.random.default_rng(rows)
        values = (rng.normal(size=rows) + 1j * rng.normal(size=rows)).astype(dtype)
        expected = _cell_rendering(values.astype(np.complex128), True)
        assert render_csv({}, ["xi", "re", "im", "abs"], complex_rows(values, True)) == expected
        assert len(helpers) == min(shares, -(-rows // 7)) - 1

    def test_failed_helper_raises_with_status_and_stderr(self, monkeypatch):
        # |v|^2 past the float range raises OverflowError in Python; in
        # the last share that happens in a helper, which exits with 1
        monkeypatch.setattr(reports, "CSV_BLOCK_ROWS", 7)
        monkeypatch.setattr(reports, "_share_count", lambda: 2)
        helpers = _count_helpers(monkeypatch)
        values = np.ones(20, dtype=complex)
        values[-1] = 1e200
        with pytest.raises(PrimePairsError, match=r"(?s)rows 10\.\.19 exited with status 1: .*OverflowError"):
            "".join(complex_rows(values, square=True))
        assert [proc.returncode for proc in helpers] == [1]

    def test_closed_rows_leave_no_helper_running(self, monkeypatch):
        monkeypatch.setattr(reports, "CSV_BLOCK_ROWS", 7)
        monkeypatch.setattr(reports, "_share_count", lambda: 3)
        helpers = _count_helpers(monkeypatch)
        files = []
        temporary_file = reports.tempfile.TemporaryFile

        def tracked_file(*args, **kwargs):
            files.append(temporary_file(*args, **kwargs))
            return files[-1]

        monkeypatch.setattr(reports.tempfile, "TemporaryFile", tracked_file)
        rows = complex_rows(np.arange(300000, dtype=complex))
        assert next(rows) == "".join(f"{i},{float(i)!r},0.0,{float(i)!r}\n" for i in range(7))
        rows.close()
        # killed, not waited for: each had about 100,000 rows still to render
        assert [proc.returncode for proc in helpers] == [-signal.SIGKILL] * 2
        assert len(files) == 4 and all(fh.closed for fh in files)


def _cell_rendering(values, square):
    """The CSV text of the rows of ``values`` rendered cell by cell from
    numpy scalars."""
    cells = (
        (xi, v.real, v.imag, abs(v) ** 2 if square else abs(v))
        for xi, v in enumerate(values)
    )
    return render_csv({}, ["xi", "re", "im", "abs"], cells)


def _count_helpers(monkeypatch):
    """Every helper process ``reports`` starts, in order."""
    started = []
    popen = reports.subprocess.Popen

    def counted(*args, **kwargs):
        started.append(popen(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(reports.subprocess, "Popen", counted)
    return started


class TestCacheAdmin:
    def test_build_verify_purge_cycle(self, tmp_path):
        assert "built" in cache_admin("build", 10**4, tmp_path)
        assert cache_admin("verify", 10**4, tmp_path).startswith("OK")
        assert "purged" in cache_admin("purge", 10**4, tmp_path)

    def test_purge_missing_is_noop_with_warning(self, tmp_path, capsys):
        assert main(["sieve", "--action", "purge", "--n", "555", "--cache-dir", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert "no-op" in captured.out
        assert "warning" in captured.err

    def test_purge_missing_returns_without_printing(self, tmp_path, capsys):
        assert cache_admin("purge", 555, tmp_path).startswith("no-op")
        assert capsys.readouterr() == ("", "")

    def test_verify_hashes_the_table_once(self, tmp_path, fnv_calls):
        cache_admin("build", 3000, tmp_path)
        fnv_calls.clear()
        status = cache_admin("verify", 3000, tmp_path)
        assert fnv_calls == [(3000 + 7) // 8]
        assert f"fnv1a64:{fnv1a64(sieve.build_table(3000).bitmap_payload()):016x}" in status

    def test_verify_detects_corruption(self, tmp_path):
        cache_admin("build", 2048, tmp_path)
        path = tmp_path / "primetable_2048.pspc"
        blob = bytearray(path.read_bytes())
        blob[17] ^= 0x40
        path.write_bytes(bytes(blob))
        from primepairs import CacheError

        with pytest.raises(CacheError):
            cache_admin("verify", 2048, tmp_path)


class TestPairsReport:
    def test_rows_contain_all_three_methods(self, tmp_path):
        rows = pairs_report(small_config("identity-suite", tmp_path, n_values=[100]))
        assert (100, 2, 8, 8, 8) in rows

    def test_circular_count_sieved_once_per_shift(self, monkeypatch, capsys):
        # the circular column is the count each spectral check compared
        # against, not a second sieve count
        table = build_table(30030)
        expected = ["n,two_k,linear,circular,spectral"] + [
            f"30030,{k},{pair_count_linear(table, k)},{pair_count_circular(table, k)},"
            f"{pair_count_circular(table, k)}"
            for k in (2, 4, 6)
        ]
        calls = []
        for module in (sieve, spectral, harness):
            if hasattr(module, "pair_count_circular"):
                def counted(*args, _original=module.pair_count_circular):
                    calls.append(args[1])
                    return _original(*args)

                monkeypatch.setattr(module, "pair_count_circular", counted)
        assert main(["pairs", "--n", "30030", "--two-k", "2,4,6"]) == 0
        assert capsys.readouterr().out.splitlines() == expected
        assert calls == [2, 4, 6]


class TestCli:
    def test_verify_verb_green(self, tmp_path, capsys):
        code = main(["verify", "--n", "30", "--two-k", "2", "--z", "5", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "[pass] spectral-pair-count" in out
        assert (tmp_path / "identity_suite.json").exists()

    def test_verify_exit_2_on_violation(self, tmp_path, capsys):
        code = main(
            [
                "verify",
                "--n",
                "30",
                "--two-k",
                "2",
                "--z",
                "5",
                "--out",
                str(tmp_path),
                "--tolerance",
                "plancherel=1e-30",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "plancherel" in err

    def test_usage_errors_exit_1(self, capsys):
        assert main(["no-such-verb"]) == 1
        assert main(["verify", "--n", "abc"]) == 1
        assert main(["verify", "--two-k", "3", "--n", "30"]) == 1
        assert main(["verify", "--n", "30", "--tolerance", "plancherel"]) == 1

    def test_resource_limit_exit_3(self, tmp_path, capsys):
        code = main(["sieve", "--action", "build", "--n", str(10**9 + 7), "--cache-dir", str(tmp_path)])
        assert code == 3

    def test_cache_error_exit_2(self, tmp_path, capsys):
        code = main(["sieve", "--action", "verify", "--n", "77", "--cache-dir", str(tmp_path)])
        assert code == 2

    def test_verify_wrong_extent_exit_2(self, tmp_path, capsys):
        # a file renamed onto another extent's cache name keeps a valid
        # payload and checksum; only its header's extent gives it away
        cache_admin("build", 997, tmp_path)
        (tmp_path / "primetable_997.pspc").rename(tmp_path / "primetable_1000.pspc")
        code = main(["sieve", "--action", "verify", "--n", "1000", "--cache-dir", str(tmp_path)])
        assert code == 2
        assert "extent mismatch" in capsys.readouterr().err

    def test_pairs_verb_prints_and_writes(self, tmp_path, capsys):
        out_file = tmp_path / "pairs.csv"
        code = main(["pairs", "--n", "100,120", "--two-k", "2,6", "--out", str(out_file)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "100,2,8,8,8" in printed
        assert out_file.exists()
        assert "n,two_k,linear,circular,spectral" in out_file.read_text()

    def test_pairs_honours_spectral_pair_count_tolerance(self, capsys):
        # the rounding residual at n = 1e6, 2k = 2 is about 4e-12, far
        # above 1e-30 * n (at 2k = 4 the column sum lands on 8144 exactly)
        argv = ["pairs", "--n", "1000000", "--two-k", "2"]
        assert main(argv + ["--tolerance", "spectral-pair-count=1e-30"]) == 2
        assert "spectral-pair-count" in capsys.readouterr().err
        assert main(argv) == 0

    def test_format_only_on_pairs(self, tmp_path, capsys):
        for verb in ("verify", "decompose", "constants", "spectrum", "sweep"):
            argv = [verb, "--format", "json", "--out", str(tmp_path / verb)]
            assert main(argv) == 1, verb
            assert "unrecognized arguments: --format json" in capsys.readouterr().err, verb
            assert not (tmp_path / verb).exists()
        out_file = tmp_path / "pairs.json"
        argv = ["pairs", "--n", "100,120", "--two-k", "2,6", "--format", "json", "--out", str(out_file)]
        assert main(argv) == 0
        rows = json.loads(out_file.read_text())
        assert rows[0] == {"n": 100, "two_k": 2, "linear": 8, "circular": 8, "spectral": 8}

    def test_over_cap_extent_rejected_before_any_work(self, tmp_path, monkeypatch, capsys):
        builds = []
        monkeypatch.setattr(sieve, "build_table", lambda *a, **kw: builds.append(a))
        out = tmp_path / "out"
        # the primorial of z = 29, 223092870, is over the 1e7 transform
        # cap: the subgroup rows transform the residue counts at length Q
        code = main(["verify", "--n", str(10**7), "--z", "29", "--out", str(out)])
        assert code == 3
        assert builds == []
        assert not out.exists()
        assert "223092870" in capsys.readouterr().err

    def test_subgroup_rows_capped_at_column_length(self, tmp_path, monkeypatch):
        # the subgroup rows transform columns of length n/Q and the
        # length-Q residue counts, so the adjusted extent 10210200 of
        # z = 19 (Q = 510510, m = 20) passes the cap and the run sieves
        class Sieved(Exception):
            pass

        def sieved(*args, **kwargs):
            raise Sieved

        monkeypatch.setattr(sieve, "build_table", sieved)
        config = small_config("identity-suite", tmp_path, n_values=[10**7], z_schedule=[19])
        assert round_up_multiple(10**7, primorial(19).value) == 10210200
        assert harness._transform_extents(config) == [10**7, 10**7, 510510, 20]
        with pytest.raises(Sieved):
            run(config)
        config = small_config("identity-suite", tmp_path, n_values=[10**7], z_schedule=[19, 29])
        with pytest.raises(ResourceLimitError, match="got 223092870$"):
            run(config)

    def test_every_over_cap_extent_named_at_once(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sieve, "build_table", lambda *a, **kw: pytest.fail("sieved"))
        # 10000001 and its parity extent, and the primorial of 29; the
        # adjusted extents 10000002 (z = 5) and 223092870 (z = 29) are
        # transformed as columns of length 1666667 and 1, within the cap
        config = small_config("identity-suite", tmp_path, n_values=[10**7 + 1], z_schedule=[5, 29])
        with pytest.raises(ResourceLimitError, match="10000001, 10000002, 223092870$"):
            run(config)
        # decompose transforms columns of length n/Q at every n, so
        # 10000020 (m = 333334) runs and 300000030 (m = 10000001) does not
        config = small_config("decompose", tmp_path, n_values=[10**7, 300000030], z_schedule=[7])
        with pytest.raises(ResourceLimitError, match="got 10000001$"):
            run(config)
        config = small_config("spectrum-export", tmp_path, n_values=[30, 10**7 + 1])
        with pytest.raises(ResourceLimitError, match="got 10000001$"):
            run(config)

    @pytest.mark.parametrize("verb", ["verify", "pairs", "spectrum"])
    def test_cutoff_rejected_where_unread(self, tmp_path, capsys, verb):
        # only decompose, constants and sweep compute a constant; spectrum
        # reads no 2k either
        shifts = [] if verb == "spectrum" else ["--two-k", "2"]
        argv = [verb, "--n", "30030", *shifts, "--cutoff", "5", "--out", str(tmp_path)]
        assert main(argv) == 1
        assert "unrecognized arguments: --cutoff 5" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_runs_without_cutoff_keep_their_bytes_and_hash(self, tmp_path):
        # the config keeps its default cutoff, so the hashes are those these
        # runs had while the verbs still took the flag, and the files are
        # those of the library run of the default config
        cli, lib = tmp_path / "cli", tmp_path / "lib"
        assert main(["verify", "--n", "30030", "--z", "5", "--two-k", "2", "--out", str(cli)]) == 0
        assert main(["spectrum", "--n", "30030", "--out", str(cli)]) == 0
        run(ExperimentConfig("identity-suite", [30030], [2], [5], output_dir=str(lib)))
        run(ExperimentConfig("spectrum-export", [30030], output_dir=str(lib)))
        names = ["identity_suite.json", "spectrum_n30030_prime.csv", "spectrum_n30030_prime.json"]
        assert sorted(p.name for p in cli.iterdir()) == sorted(p.name for p in lib.iterdir()) == names
        for name in names:
            assert (cli / name).read_bytes() == (lib / name).read_bytes(), name
        assert json.loads((cli / names[0]).read_text())["config_hash"] == "8fa103896e15f93f"
        assert "# config_hash=e69701946e5d8a66\n" in (cli / names[1]).read_text()

    @pytest.mark.parametrize(
        "verb, flag",
        [
            ("pairs", ["--z", "5"]),
            ("spectrum", ["--z", "5"]),
            ("sweep", ["--z", "5"]),
            ("spectrum", ["--two-k", "2"]),
            ("constants", ["--n", "30"]),
            ("constants", ["--cache-dir", "cache"]),
            ("constants", ["--tolerance", "plancherel=1e-8"]),
            ("constants", ["--stamp"]),
            ("spectrum", ["--tolerance", "plancherel=1e-8"]),
            ("sweep", ["--tolerance", "plancherel=1e-8"]),
            ("verify", ["--stamp"]),
        ],
        ids=lambda v: v if isinstance(v, str) else v[0].lstrip("-"),
    )
    def test_flags_rejected_where_unread(self, tmp_path, monkeypatch, capsys, verb, flag):
        # each verb registers only the flags it reads
        monkeypatch.chdir(tmp_path)
        base = {
            "pairs": ["--n", "30030", "--two-k", "2"],
            "spectrum": ["--n", "30030"],
            "sweep": ["--n", "30030", "--two-k", "2"],
            "constants": ["--two-k", "2", "--z", "5"],
            "verify": ["--n", "30030", "--two-k", "2", "--z", "5"],
        }[verb]
        assert main([verb, *base, *flag, "--out", str(tmp_path / "out")]) == 1
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_runs_without_removed_flags_keep_their_bytes_and_hash(self, tmp_path):
        # the hashes are those these runs had while the verbs still took
        # the flags, and the files are those of the library run of the
        # same config (verify and spectrum: the test above)
        cli, lib = tmp_path / "cli", tmp_path / "lib"
        assert main(["constants", "--two-k", "2", "--z", "5,7", "--cutoff", "10000", "--out", str(cli)]) == 0
        assert main(["sweep", "--n", "30030", "--two-k", "2", "--out", str(cli)]) == 0
        run(ExperimentConfig("constants", two_k_values=[2], z_schedule=[5, 7], cutoff=10000, output_dir=str(lib)))
        run(ExperimentConfig("hl-ratio-sweep", [30030], [2], output_dir=str(lib)))
        names = ["constants_k2.json", "hl_ratio_sweep.csv"]
        assert sorted(p.name for p in cli.iterdir()) == sorted(p.name for p in lib.iterdir()) == names
        for name in names:
            assert (cli / name).read_bytes() == (lib / name).read_bytes(), name
        assert json.loads((cli / names[0]).read_text())["config_hash"] == "a085ba2aee2dc468"
        assert "# config_hash=3582351143d03b93\n" in (cli / names[1]).read_text()

    def test_constants_verb(self, tmp_path, capsys):
        code = main(
            [
                "constants",
                "--two-k",
                "2",
                "--cutoff",
                "10000",
                "--z",
                "5,7",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        assert (tmp_path / "constants_k2.json").exists()

    def test_spectrum_verb_mangoldt(self, tmp_path):
        code = main(
            ["spectrum", "--n", "60", "--function", "mangoldt", "--out", str(tmp_path)]
        )
        assert code == 0
        sidecar = json.loads((tmp_path / "spectrum_n60_mangoldt.json").read_text())
        assert sidecar["source_function"] == "mangoldt"

    def test_spectrum_reads_the_config_source_function(self, tmp_path):
        # --function has no default of its own, so the config file's key
        # applies when the flag is not given, and the flag overrides it
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"source_function": "mangoldt"}))
        argv = ["spectrum", "--n", "30", "--config", str(config)]
        assert main(argv + ["--out", str(tmp_path / "file")]) == 0
        assert [p.name for p in sorted((tmp_path / "file").iterdir())] == [
            "spectrum_n30_mangoldt.csv",
            "spectrum_n30_mangoldt.json",
        ]
        assert main(argv + ["--function", "prime", "--out", str(tmp_path / "flag")]) == 0
        assert (tmp_path / "flag" / "spectrum_n30_prime.csv").is_file()

    def test_spectrum_mangoldt_reads_the_cache(self, tmp_path, monkeypatch):
        argv = ["spectrum", "--n", "30030", "--function", "mangoldt"]
        assert main(argv + ["--out", str(tmp_path / "plain")]) == 0
        sieved = Counter()
        build = sieve.build_table

        def counted_build(n, *args, **kwargs):
            sieved[n] += 1
            return build(n, *args, **kwargs)

        monkeypatch.setattr(sieve, "build_table", counted_build)
        cache = tmp_path / "cache"
        for run_name, sieves in (("miss", 1), ("hit", 0)):
            sieved.clear()
            assert main(argv + ["--cache-dir", str(cache), "--out", str(tmp_path / run_name)]) == 0
            assert (cache / "primetable_30030.pspc").is_file()
            assert sieved[30030] == sieves, run_name
            for ext in ("csv", "json"):
                name = f"spectrum_n30030_mangoldt.{ext}"
                assert (tmp_path / run_name / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()

    @pytest.mark.parametrize(
        "raw",
        [
            {"n_values": 5},
            {"z_schedule": 7},
            {"two_k_values": 4},
            {"cutoff": "x"},
            {"tolerances": 5},
            {"output_dir": 5},
            {"cache_dir": 7},
            {"stamp": "no"},
        ],
    )
    def test_malformed_config_file_is_a_usage_error(self, tmp_path, capsys, raw):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(raw))
        assert main(["verify", "--config", str(config), "--tolerance", "plancherel=1e-8"]) == 1
        err = capsys.readouterr().err
        assert "usage error: invalid config" in err
        assert f"{next(iter(raw))} must be" in err

    def test_pairs_over_cap_rejected_before_any_work(self, monkeypatch, capsys):
        # the prime 10000019 has no divisor but 1 to group by, so its
        # columns are the whole ring, over the cap
        monkeypatch.setattr(sieve, "build_table", lambda *a, **kw: pytest.fail("sieved"))
        assert main(["pairs", "--n", "10000019", "--two-k", "2"]) == 3
        assert "10000019" in capsys.readouterr().err

    def test_pairs_past_the_cap(self, capsys):
        # 2e7 groups by Q = 4000, so its columns have length 5000
        assert main(["pairs", "--n", str(2 * 10**7), "--two-k", "2,4,210"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [row[1] for row in rows] == ["2", "4", "210"]
        table = build_table(2 * 10**7)
        for _, two_k, _, circular, spectral in rows:
            assert int(spectral) == int(circular) == pair_count_circular(table, int(two_k))

    def test_decompose_past_the_cap(self, tmp_path, capsys):
        # 10000020 = 30 * 333334: the report holds n/Q rows of T
        argv = ["decompose", "--n", "10000020", "--z", "7", "--two-k", "2", "--out", str(tmp_path)]
        assert main(argv) == 0
        report = json.loads((tmp_path / "decompose_n10000020_Q30_k2.json").read_text())
        assert report["pair_count_circular"] == pair_count_circular(build_table(10000020), 2)
        assert report["reconstruction_residual"] < 1e-6
        rows = (tmp_path / "decompose_n10000020_Q30_k2.csv").read_text().splitlines()
        assert len([line for line in rows if not line.startswith("#")]) == 1 + 333334

    def test_n_floor_only_where_pairs_are_counted(self, tmp_path, capsys):
        assert main(["spectrum", "--n", "5", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "spectrum_n5_prime.csv").read_text().splitlines()
        assert len([line for line in lines if not line.startswith("#")]) == 1 + 5
        assert main(["spectrum", "--n", "1", "--out", str(tmp_path)]) == 1
        # constants reads no n and registers no --n: an n below the floor
        # from a config file passes
        config = tmp_path / "n3.json"
        config.write_text(json.dumps({"n_values": [3]}))
        argv = ["constants", "--config", str(config), "--two-k", "2", "--cutoff", "1000"]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["sweep", "--n", "5", "--two-k", "4", "--out", str(tmp_path)]) == 1
        assert "max(2k)+2 = 6" in capsys.readouterr().err

    def test_empty_two_k_only_where_2k_is_read(self, tmp_path, capsys):
        config = tmp_path / "e.json"
        config.write_text(json.dumps({"two_k_values": []}))
        assert main(["spectrum", "--n", "30", "--config", str(config), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "spectrum_n30_prime.csv").exists()
        capsys.readouterr()
        assert main(["verify", "--config", str(config), "--out", str(tmp_path)]) == 1
        assert "two_k_values must not be empty" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "n_values": [30],
                    "two_k_values": [2],
                    "z_schedule": [5],
                    "output_dir": str(tmp_path / "from_file"),
                }
            )
        )
        code = main(["verify", "--config", str(config), "--out", str(tmp_path / "cli_wins")])
        assert code == 0
        assert (tmp_path / "cli_wins/identity_suite.json").exists()
        assert not (tmp_path / "from_file").exists()
