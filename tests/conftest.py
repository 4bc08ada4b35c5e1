import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from primepairs import build_table


@pytest.fixture(scope="session")
def table_100():
    return build_table(100)


@pytest.fixture(scope="session")
def table_10k():
    return build_table(10**4)


@pytest.fixture(scope="session")
def table_9240():
    # 9240 = 2310 * 4, the largest multiple of both 30 and 2310 under 1e4
    return build_table(9240)


@pytest.fixture(scope="session")
def table_1e6():
    return build_table(10**6)


@pytest.fixture(scope="session")
def table_10000019():
    # a prime extent over the 1e7 transform cap: pair_count_modulus gives
    # Q = 1, so its one residue column is the whole ring
    return build_table(10000019)


@pytest.fixture
def fnv_calls(monkeypatch):
    """Lengths of the payloads hashed through primepairs.sieve.fnv1a64."""
    from primepairs import sieve

    calls = []
    original = sieve.fnv1a64

    def counted(data, state=sieve.FNV_OFFSET):
        calls.append(len(data))
        return original(data, state)

    monkeypatch.setattr(sieve, "fnv1a64", counted)
    return calls
