import math
import tracemalloc

import pytest

from radseries import FactorSieve, sieve_primes


def brute_rad(n):
    """Radical by trial division, in Python ints: the tests' one radical oracle."""
    r, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            r *= p
            while n % p == 0:
                n //= p
        p += 1
    return r * n if n > 1 else r


def brute_phi(n):
    """Totient as a gcd count: the tests' one totient oracle."""
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


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
