import numpy as np
import pytest

from radseries import InvalidArgumentError, OutOfRangeError, nth_prime, primes, sieve_primes
from radseries.primes import _segmented_sieve, prime_mask


def trial_division_primes(limit):
    out = []
    for n in range(2, limit + 1):
        if all(n % d for d in range(2, int(n ** 0.5) + 1)):
            out.append(n)
    return out


def test_smallest_table():
    assert list(sieve_primes(2).primes) == [2]


def test_small_table():
    assert list(sieve_primes(10).primes) == [2, 3, 5, 7]


def test_hundred_against_trial_division():
    table = sieve_primes(100)
    oracle = trial_division_primes(100)
    assert len(table.primes) == 25
    assert int(table.primes[-1]) == 97
    assert list(table.primes) == oracle


def test_agrees_with_trial_division_for_every_limit():
    oracle = np.array(trial_division_primes(10_000), dtype=np.uint64)
    full = sieve_primes(10_000).primes
    assert np.array_equal(full, oracle)
    # every smaller limit is a prefix; exercise the boundary logic directly
    for limit in range(2, 600):
        got = sieve_primes(limit).primes
        cut = int(np.searchsorted(oracle, limit, side="right"))
        assert np.array_equal(got, oracle[:cut]), f"limit={limit}"
    for limit in range(600, 10_001, 97):
        got = sieve_primes(limit).primes
        cut = int(np.searchsorted(oracle, limit, side="right"))
        assert np.array_equal(got, oracle[:cut]), f"limit={limit}"


def test_invariants_increasing_first_two():
    t = sieve_primes(10_000)
    assert int(t.primes[0]) == 2
    assert np.all(np.diff(t.primes.astype(np.int64)) > 0)


def test_nth_prime_small():
    t = sieve_primes(100)
    assert nth_prime(t, 1) == 2
    assert nth_prime(t, 4) == 7
    assert nth_prime(t, 25) == 97


def test_nth_prime_exceeds_index():
    t = sieve_primes(100_000)
    n = np.arange(1, len(t.primes) + 1, dtype=np.int64)
    assert np.all(t.primes.astype(np.int64) > n)


def test_nth_prime_out_of_range():
    t = sieve_primes(10)
    with pytest.raises(OutOfRangeError):
        nth_prime(t, 5)
    with pytest.raises(OutOfRangeError):
        nth_prime(t, 0)


def test_limit_too_small():
    with pytest.raises(InvalidArgumentError):
        sieve_primes(1)


def test_limit_too_large():
    with pytest.raises(OutOfRangeError):
        sieve_primes(2 ** 63)


def test_upto_view():
    t = sieve_primes(100)
    assert list(t.upto(7)) == [2, 3, 5, 7]
    assert list(t.upto(8)) == [2, 3, 5, 7]
    with pytest.raises(OutOfRangeError):
        t.upto(101)
    for no_primes in (1, 0, -5):
        with pytest.raises(OutOfRangeError, match="admits no primes"):
            t.upto(no_primes)


def test_segmented_matches_simple(monkeypatch):
    # tiny segment size forces many segment crossings
    simple = np.flatnonzero(prime_mask(100_000))
    monkeypatch.setattr(primes, "SEGMENT_SIZE", 1_000)
    segmented = _segmented_sieve(100_000)
    assert np.array_equal(simple, segmented)
