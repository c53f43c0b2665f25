import pytest

from latsum import build_sieve


@pytest.fixture(scope="session")
def sieve_10k():
    return build_sieve(10_000)
