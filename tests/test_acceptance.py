"""Acceptance suite: one test per numbered criterion, each printing a
single pass/fail line with the measured quantities.

Criterion 04b checks the truncated singular series series(Q_30, 2k)
against the constant C_2k (cutoff 1e7) for 2k in {2, 4, 6, 10} by its
relative gap.  For every shift whose odd primes all lie below 30 the
ratio series / C_2k is the same omitted tail
prod_{30 <= p < 1e7} (1 - 1/(p-1)^2)^-1 = 1.0075384..., so the absolute
gap scales with the constant (0.00995 for 2k in {2, 4}, 0.0199 for 2k = 6,
0.0133 for 2k = 10) and a flat absolute 0.01 band cannot hold for every
shift.  The 0.01 band is read as relative.  The test also asserts that the
series equals hl_constant(2k, 30) and that the relative gap equals the tail
product summed over an independent sieve, so a wrong Euler factor in the
series or the constant fails it.
"""

import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from primepairs import (
    build_table,
    coprime_pair_count_bruteforce,
    coprime_pair_count_formula,
    coprime_pair_count_inclusion_exclusion,
    half_spectrum_residual,
    hl_constant,
    singular_series_from_pair_count,
    li2,
    main_term_convolution,
    mobius,
    pair_count_circular,
    pair_count_linear,
    pair_counts_via_spectrum,
    pi_progression,
    primorial,
    psi_pair_direct,
    psi_pair_via_spectrum,
    ramanujan_sum_direct,
    ramanujan_sum_formula,
    singular_series_divisor_sum,
    singular_series_product,
    twisted_progression_count,
)
from primepairs.sieve import PrimeTable
from primepairs.spectral import decomposition_checks, subgroup_restriction_check

import oracles


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _squarefree_upto(limit: int) -> list[int]:
    mask = np.ones(limit + 1, dtype=bool)
    for p in range(2, math.isqrt(limit) + 1):
        mask[p * p :: p * p] = False
    return [int(q) for q in np.flatnonzero(mask)[1:]]


def test_criterion_01_exact_spectral_identity(table_1e6):
    failures = []
    for n in (30, 120, 1009, 4096, 30030):
        t = build_table(n)
        for two_k in (2, 4, 6, 12):
            (spectral,) = pair_counts_via_spectrum(t, [two_k])
            sieved = pair_count_circular(t, two_k)
            raw = oracles.pair_correlation_via_spectrum(t.ring_indicator(), two_k)
            residual = abs(raw - spectral)
            if spectral != sieved or residual >= 1e-6 * n:
                failures.append((n, two_k, spectral, sieved, residual))
    start = time.perf_counter()
    big_table = build_table(10**6)
    shifts = (2, 4, 6, 12)
    for two_k, spectral in zip(shifts, pair_counts_via_spectrum(big_table, shifts)):
        if spectral != pair_count_circular(table_1e6, two_k):
            failures.append((10**6, two_k, "mismatch"))
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(("runtime", elapsed))
    _report(
        "01",
        not failures,
        f"spectral pair count = circular sieve on the full grid; "
        f"n=1e6 build+4 shifts in {elapsed:.2f}s (budget 5s); failures={failures}",
    )


def test_criterion_02_coprime_pair_oracle_equivalence():
    start = time.perf_counter()
    shifts = range(2, 51, 2)
    mismatches = 0
    checked = 0
    for Q in _squarefree_upto(2310):
        coprime = np.gcd(np.arange(Q, dtype=np.int64), Q) == 1
        for two_k in shifts:
            brute = int(np.count_nonzero(coprime & np.roll(coprime, -(two_k % Q))))
            formula = coprime_pair_count_formula(Q, two_k)
            second_proof = coprime_pair_count_inclusion_exclusion(Q, two_k)
            checked += 1
            if not (formula == brute == second_proof):
                mismatches += 1
    # the vectorized enumeration above is the library's own kernel; spot-check
    # it against the dedicated op on a sample
    rng = np.random.default_rng(8)
    for Q in rng.choice(_squarefree_upto(2310), size=40, replace=False):
        assert coprime_pair_count_bruteforce(int(Q), 6) == coprime_pair_count_formula(int(Q), 6)
    elapsed = time.perf_counter() - start
    _report(
        "02",
        mismatches == 0 and elapsed < 60.0,
        f"closed form = brute force = inclusion-exclusion on {checked} "
        f"(squarefree Q <= 2310) x (even 2k <= 50) cases in {elapsed:.1f}s "
        f"(budget 60s); mismatches={mismatches}",
    )


def test_criterion_03_ramanujan_sum_equivalence():
    mismatches = 0
    for q in range(1, 201):
        for r in range(-200, 201):
            if ramanujan_sum_formula(q, r) != ramanujan_sum_direct(q, r):
                mismatches += 1
    mult_failures = 0
    pairs = 0
    for q1 in range(1, 51):
        for q2 in range(q1, 51):
            if math.gcd(q1, q2) != 1:
                continue
            pairs += 1
            for r in range(0, 51):
                lhs = ramanujan_sum_formula(q1 * q2, r)
                if lhs != ramanujan_sum_formula(q1, r) * ramanujan_sum_formula(q2, r):
                    mult_failures += 1
    _report(
        "03",
        mismatches == 0 and mult_failures == 0,
        f"closed form = direct sum on q <= 200, |r| <= 200 (mismatches={mismatches}); "
        f"multiplicative on {pairs} coprime pairs q1,q2 <= 50 (failures={mult_failures})",
    )


def test_criterion_04a_singular_series_triangle():
    family = _squarefree_upto(2310)
    # genuine omega = 6 members (every squarefree Q <= 2310 has omega <= 5)
    sixes = [30030, 30030 // 13 * 17, 30030 // 11 * 17, 30030 // 13 * 19, 510510 // 17]
    family += [q for q in sixes if mobius(q) != 0]
    bad = 0
    for Q in family:
        for two_k in range(2, 31, 2):
            a = singular_series_divisor_sum(Q, two_k)
            b = singular_series_product(Q, two_k)
            c = singular_series_from_pair_count(Q, two_k)
            if not (a == b == c):
                bad += 1
    _report(
        "04a",
        bad == 0,
        f"divisor sum = Euler product = normalized pair count as exact rationals "
        f"on {len(family)} squarefree Q (omega <= 6) x even 2k <= 30; failures={bad}",
    )


def test_criterion_04b_truncated_series_near_constant():
    # Every odd prime of these shifts lies below 30, so series(Q_30, 2k) / C_2k
    # is the same omitted tail prod_{30 <= p < 1e7} (1 - 1/(p-1)^2)^-1 for all
    # of them; it is summed here in log space from an independent sieve.
    cutoff = 10**7
    ps = np.flatnonzero(oracles.sieve_numpy_independent(cutoff - 1)).astype(np.float64)
    ps = ps[ps >= 30]
    tail_excess = math.expm1(-math.fsum(np.log1p(-1.0 / (ps - 1) ** 2).tolist()))
    Q30 = primorial(30)
    rows = {}
    for two_k in (2, 4, 6, 10):
        series = float(singular_series_product(Q30, two_k))
        constant = hl_constant(two_k, cutoff).value
        at_30 = hl_constant(two_k, 30).value
        rows[two_k] = (
            series - constant,
            (series - constant) / constant,
            abs(series - at_30) / at_30,
        )
    in_band = all(0.0 <= rel <= 0.01 for _, rel, _ in rows.values())
    same_as_constant_at_30 = all(dev <= 1e-14 for _, _, dev in rows.values())
    tail_diff = max(abs(rel - tail_excess) for _, rel, _ in rows.values())
    matches_tail = tail_diff <= 1e-9
    detail = "; ".join(
        f"2k={k}: gap={a:.6f} (rel {r:.10f}, vs C_2k at z=30 {d:.1e})"
        for k, (a, r, d) in rows.items()
    )
    _report(
        "04b",
        in_band and same_as_constant_at_30 and matches_tail,
        f"(series(Q_30, 2k) - C_2k) / C_2k in [0, 0.01] ({in_band}); "
        f"series = hl_constant(2k, 30) to rel 1e-14 ({same_as_constant_at_30}); "
        f"rel gap = independent tail excess {tail_excess:.10f} to 1e-9 "
        f"({matches_tail}, max diff {tail_diff:.1e}): "
        f"{detail}",
    )


def test_criterion_05_twin_prime_constant():
    tc = hl_constant(2, 10**7)
    in_band = abs(tc.value - 1.3203236) <= 1e-6
    matches_oracle = abs(tc.value - oracles.C2_TRUNCATED_1E7) <= 1e-12 * oracles.C2_TRUNCATED_1E7
    # independent strict-decrease check: cumulative product over every odd
    # prime below 1e5 must fall at each step
    odd = np.flatnonzero(oracles.sieve_numpy_independent(10**5))[1:].astype(np.float64)
    partials = 2.0 * np.cumprod(odd * (odd - 2) / (odd - 1) ** 2)
    decreasing = bool(np.all(np.diff(partials) < 0))
    op_decreasing = all(
        hl_constant(2, a).value > hl_constant(2, b).value
        for a, b in ((10, 100), (100, 10**4), (10**4, 10**6))
    )
    _report(
        "05",
        in_band and matches_oracle and decreasing and op_decreasing,
        f"hl_constant(2, 1e7) = {tc.value!r} inside 1.3203236 +- 1e-6 (band {in_band}), "
        f"= frozen high-precision oracle {oracles.C2_TRUNCATED_1E7!r} ({matches_oracle}); "
        f"partial products strictly decreasing ({decreasing and op_decreasing})",
    )


def test_criterion_06_subgroup_identity_instances():
    # the residuals of the library's own checks, held to the criterion's
    # bounds here rather than to the checks' tolerances
    failures = []
    for n, Q in ((3000, 30), (2310 * 16, 2310)):
        t = build_table(n)
        deviation = subgroup_restriction_check(t, Q).residual
        if deviation >= 1e-6 * t.pi(n):
            failures.append((n, Q, "rho", deviation))
        for report, check in decomposition_checks(t, Q, (2, 6)):
            two_k = report.two_k
            if check.residual >= 1e-6 * n:
                failures.append((n, Q, two_k, "reconstruction", check.residual))
            gap = abs(main_term_convolution(t, Q, two_k) - report.main_term)
            if gap >= 1e-6 * n / Q:
                failures.append((n, Q, two_k, "main-term", gap))
    _report(
        "06",
        not failures,
        f"subgroup restriction, reconstruction, and main-term convolution at "
        f"(n=3000, Q=30) and (n=36960, Q=2310); failures={failures}",
    )


def test_criterion_07_plancherel_suite(table_9240, table_1e6):
    n, Q = 9240, 30
    worst_rel = 0.0
    slots = np.arange(n, dtype=np.int64) % Q
    ring = table_9240.ring_indicator()
    for a in range(Q):
        masked = np.where(slots == a, ring, 0.0)
        energy = float(np.sum(np.abs(np.fft.fft(masked)) ** 2)) / n
        count = pi_progression(table_9240, Q, a)
        worst_rel = max(worst_rel, abs(energy - count) / max(count, 1))
    # the masked-spectrum bins are the twisted progression sums themselves
    spot = np.fft.fft(np.where(slots == 7, ring, 0.0))
    spot_gap = max(
        abs(spot[xi] - twisted_progression_count(table_9240, xi, Q, 7))
        for xi in (0, 1, 123, 4620, 9239)
    )
    power = np.abs(np.fft.fft(table_1e6.ring_indicator())) ** 2
    untwisted_rel = abs(float(power.sum()) / 10**6 - table_1e6.pi(10**6)) / table_1e6.pi(10**6)
    ok = worst_rel < 1e-8 and untwisted_rel < 1e-8 and spot_gap < 1e-6
    _report(
        "07",
        ok,
        f"twisted energy identity over all residues mod 30 at n=9240 "
        f"(worst rel {worst_rel:.2e}), spot agreement with twisted counts "
        f"({spot_gap:.2e}), untwisted at n=1e6 (rel {untwisted_rel:.2e}); budget 1e-8",
    )


def test_criterion_08_parity_relation(table_10k):
    worst = 0.0
    worst_n = None
    for n in range(4, 10**4 + 1, 2):
        sub = PrimeTable(n=n, is_prime=table_10k.is_prime[: n + 1])
        residual = half_spectrum_residual(sub) / max(sub.pi(n), 1)
        if residual > worst:
            worst, worst_n = residual, n
    _report(
        "08",
        worst < 1e-6,
        f"half-spectrum parity relation over every even n in [4, 1e4]: "
        f"worst residual/pi(n) = {worst:.2e} at n={worst_n} (budget 1e-6)",
    )


def test_criterion_09_hardy_littlewood_ratio(table_1e6):
    li2_n = li2(10**6)
    ratios = {}
    counts_ok = True
    for two_k in (2, 4, 6):
        count = pair_count_linear(table_1e6, two_k)
        counts_ok &= count == oracles.PAIR_COUNTS_1E6[two_k]
        constant = hl_constant(two_k, 10**7).value
        ratios[two_k] = count / (constant * li2_n)
    in_band = all(0.95 <= r <= 1.05 for r in ratios.values())
    detail = ", ".join(f"2k={k}: {r:.4f}" for k, r in ratios.items())
    _report(
        "09",
        in_band and counts_ok,
        f"sieve count / (C_2k * Li2(1e6)) in [0.95, 1.05]: {detail}; "
        f"counts match frozen enumeration ({counts_ok})",
    )


def test_criterion_10_psi_spectral_identity():
    failures = []
    for n in (30, 1009, 10**5):
        t = build_table(n)
        for two_k in (2, 6):
            gap = abs(psi_pair_via_spectrum(t, two_k) - psi_pair_direct(t, two_k))
            if gap >= 1e-6 * n * math.log(n) ** 2:
                failures.append((n, two_k, gap))
    ratio = psi_pair_via_spectrum(build_table(10**6), 2) / (hl_constant(2, 10**7).value * 10**6)
    _report(
        "10",
        not failures and 0.9 <= ratio <= 1.1,
        f"spectral = direct von Mangoldt pair sums (failures={failures}); "
        f"psi-pair(1e6)/(C_2 * 1e6) = {ratio:.4f} in [0.9, 1.1]",
    )


def test_criterion_11_reproducibility(tmp_path):
    outputs = []
    for sub in ("first", "second"):
        out = tmp_path / sub
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "primepairs.cli",
                "verify",
                "--n",
                "30,120,1009",
                "--two-k",
                "2",
                "--z",
                "5",
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
            cwd=str(Path(__file__).resolve().parent.parent),
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((out / "identity_suite.json").read_bytes())
    _report(
        "11",
        outputs[0] == outputs[1],
        f"two CLI identity-suite runs wrote byte-identical reports "
        f"({len(outputs[0])} bytes)",
    )
