import tracemalloc

import pytest

from radseries import FactorSieve, sieve_primes


@pytest.fixture(scope="session")
def sieve_10k():
    return FactorSieve.build(10_000)


@pytest.fixture(scope="session")
def sieve_100k():
    return FactorSieve.build(100_000)


@pytest.fixture(scope="session")
def table_10k():
    return sieve_primes(10_000)


@pytest.fixture(scope="session")
def table_100k():
    return sieve_primes(100_000)


@pytest.fixture
def traced_peak():
    """fn -> the peak of memory traced while fn runs, numpy buffers included.

    numpy reports its data buffers to tracemalloc, so the figure is exact
    and repeatable; what was allocated before fn runs is not counted.
    """
    def peak(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak
