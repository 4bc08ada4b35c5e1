"""Mutation matrix: one-line faults in the package, each of which a named
test selection must fail on.

    python tests/mutation_matrix.py

A mutant is a file under ``src/primepairs``, an exact old text, a new text
and a pytest selection under ``tests``.  For each mutant the script copies
``src`` to a temporary directory, replaces the old text, which must occur
exactly once, and runs the selection on the copy: with ``PYTHONPATH`` on
it, from a temporary working directory and without pytest's cache, after
checking that ``primepairs`` imports from the copy.  It prints ``killed``
when the selection fails and ``SURVIVED`` when it passes, and exits 1 when
a mutant survived.  An old text that does not occur exactly once, or a
selection that does not run (a collection error, no test selected), stops
the script with an error.

The script has no ``test_`` prefix, so tier-1 does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

CRITERION_01 = "test_acceptance.py::test_criterion_01_exact_spectral_identity"
CRITERION_10 = "test_acceptance.py::test_criterion_10_psi_spectral_identity"


class Mutant(NamedTuple):
    name: str
    file: str  # under src/primepairs
    old: str
    new: str
    selection: str  # under tests


MUTANTS = (
    Mutant(
        "unit_phase sign",
        "transform.py",
        "phase = (-2j * np.pi / n)",
        "phase = (2j * np.pi / n)",
        CRITERION_01,
    ),
    Mutant(
        "as_ring slot 0 holds v[0]",
        "transform.py",
        "    out[0] = v[n]\n",
        "    out[0] = v[0]\n",
        CRITERION_01,
    ),
    Mutant(
        "fold_half without its Nyquist term",
        "transform.py",
        "        total -= half[-1]  # the Nyquist bin has no mirror\n",
        "        pass\n",
        CRITERION_01,
    ),
    Mutant(
        "_phase_row scales by t + 1",
        "spectral.py",
        "    k *= t\n",
        "    k *= t + 1\n",
        CRITERION_01,
    ),
    Mutant(
        "_error_spectrum conjugate fill shifted by one",
        "spectral.py",
        "np.conjugate(half[1 : m - half.shape[0] + 1][::-1]",
        "np.conjugate(half[0 : m - half.shape[0]][::-1]",
        "test_spectral.py::TestColumnKernel",
    ),
    Mutant(
        "residue_profile drops x = n",
        "sieve.py",
        "    classes = primes % Q\n",
        "    primes = primes[primes < table.n]\n    classes = primes % Q\n",
        "test_harness.py::TestSuiteChecksAtBoundaries",
    ),
    Mutant(
        "load_table skips its checksum compare",
        "sieve.py",
        "    if fnv1a64(memoryview(blob)[header:end]) != digest:\n",
        "    if False:\n",
        "test_sieve.py::TestCache",
    ),
    Mutant(
        "_pair_shifts accepts 2k = n",
        "spectral.py",
        "if two_k % 2 or not 2 <= two_k < n:",
        "if two_k % 2 or not 2 <= two_k <= n:",
        "test_spectral.py::TestHermitianPaths::test_shifts_checked_before_any_column_rfft",
    ),
    Mutant(
        "impulse spectrum shared regardless of weight",
        "transform.py",
        "            weight = self.impulses.get(a)\n",
        "            weight = self.impulses.get(a) and 1\n",
        CRITERION_10,
    ),
    Mutant(
        "impulse content check skipped",
        "transform.py",
        "            for a in candidates.tolist()\n            if not weights[a + Q : n : Q].any()\n",
        "            for a in candidates.tolist()\n",
        CRITERION_10,
    ),
    Mutant(
        "v energy read from Z + conj Z(-xi)",
        "spectral.py",
        "np.abs(spectra[row] - mirror[row])",
        "np.abs(spectra[row] + mirror[row])",
        "test_harness.py::TestTwistedEnergies",
    ),
    Mutant(
        "fnv1a64 folds FNV_BLOCK - 1 bytes a block",
        "sieve.py",
        "            m = min(FNV_BLOCK, c - start)\n",
        "            m = min(FNV_BLOCK - 1, c - start)\n",
        "test_sieve.py::TestFnv1a64::test_block_boundaries",
    ),
    Mutant(
        "no warning for Q above sqrt(n)",
        "spectral.py",
        '        logger.warning("decomposition at Q=%d above sqrt(n=%d); identity still exact", Q, n)\n',
        "        pass\n",
        "test_spectral.py::TestDecompose::test_oversized_modulus_still_exact",
    ),
    Mutant(
        "save_table always rehashes",
        "sieve.py",
        "    if table._checksum is None:\n        table._checksum = fnv1a64(payload)\n",
        "    table._checksum = fnv1a64(payload)\n",
        "test_sieve.py::TestCache::test_save_reuses_the_table_checksum",
    ),
    Mutant(
        "column kernel transforms a block without a pair",
        "spectral.py",
        "            if lo == hi:\n                continue\n",
        "",
        "test_spectral.py::TestColumnKernel::test_block_without_a_pair_is_not_transformed",
    ),
    Mutant(
        "_class_energies transforms zero rows",
        "spectral.py",
        "    if not held.size:\n        return energies\n",
        "",
        "test_harness.py::TestTwistedEnergies::test_zero_rows_make_no_transform",
    ),
)


def _apply(root: Path, mutant: Mutant) -> None:
    path = root / "primepairs" / mutant.file
    text = path.read_text()
    count = text.count(mutant.old)
    if count != 1:
        sys.exit(f"{mutant.name}: the old text occurs {count} times in {mutant.file}, not once")
    path.write_text(text.replace(mutant.old, mutant.new))


def killed(mutant: Mutant) -> bool:
    """Whether the mutant's selection fails on a mutated copy of src."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        root = work / "src"
        shutil.copytree(SRC, root, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        _apply(root, mutant)
        path = os.pathsep.join(filter(None, [str(root), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        where = subprocess.run(
            [sys.executable, "-c", "import primepairs; print(primepairs.__file__)"],
            env=env, cwd=work, capture_output=True, text=True, check=True,
        ).stdout.strip()
        if Path(where).parent != root / "primepairs":
            sys.exit(f"{mutant.name}: primepairs imports from {where}, not from the copy")
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             str(TESTS / mutant.selection)],
            env=env, cwd=work, capture_output=True, text=True,
        )
    # 0: every test passed, 1: a test failed; any other code means the
    # selection did not run as a test of the mutant
    if result.returncode not in (0, 1):
        sys.exit(f"{mutant.name}: pytest exited {result.returncode}\n{result.stdout}{result.stderr}")
    return result.returncode == 1


def main(mutants=MUTANTS) -> int:
    survivors = 0
    for mutant in mutants:
        start = time.perf_counter()
        dead = killed(mutant)
        survivors += not dead
        verdict = "killed" if dead else "SURVIVED"
        print(f"{verdict:8s} {time.perf_counter() - start:5.1f}s  {mutant.name}  [{mutant.selection}]",
              flush=True)
    print(f"{len(mutants) - survivors} of {len(mutants)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
