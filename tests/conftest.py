import math
import tracemalloc

import numpy as np
import pytest

from radseries import FactorSieve, sieve_primes
from radseries.identity import class_masks
from radseries.radical import radical_range

# class names in the order of the masks ``identity.class_masks`` returns
CLASSES = ("below", "equal", "above", "ambiguous")


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


def evaluate(spec, n):
    """M(n) by trial division, calling the spec's rule on Python ints: the
    tests' one M(n) oracle."""
    result, p = 1.0, 2
    while p * p <= n:
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        if k:
            result *= float(spec.value_at_prime_power(p, k))
        p += 1
    return result * float(spec.value_at_prime_power(n, 1)) if n > 1 else result


def reference_class(n, rad_n, low, high):
    """The class of n as scalar math.log comparisons: the tests' one oracle
    for the package's vectorised rule."""
    ln_n, ln_r = math.log(n), math.log(rad_n)
    if ln_n == 0.0 and ln_r == 0.0:
        return "equal"
    if ln_n < low * ln_r:
        return "below"
    if ln_n > high * ln_r:
        return "above"
    return "ambiguous"


def classes(n, rad_n, low, high):
    """The class names ``class_masks`` gives whole arrays of n and R(n)."""
    masks = np.array(class_masks(np.log(np.asarray(n, dtype=np.float64)),
                                 np.log(np.asarray(rad_n, dtype=np.float64)), low, high))
    assert (masks.sum(axis=0) == 1).all(), "every n has exactly one class"
    return [CLASSES[i] for i in np.argmax(masks, axis=0).tolist()]


def scaled_radical_range(sieve, n):
    """A radical table times 10^4 from n = 2 on (certify's a = 1 rows rely
    on rad(1) = 1): rad_abc passes 2^63 for the largest rows below c = 400,
    while rad(a) rad(b) stays below 2^43."""
    rad = radical_range(sieve, n) * 10**4
    rad[:2] = 1
    return rad


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
