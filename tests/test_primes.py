import importlib

import numpy as np
import pytest

from radseries import FactorSieve, InvalidArgumentError, OutOfRangeError, primes, sieve_primes
from radseries.primes import _segmented_sieve

radical_module = importlib.import_module("radseries.radical")


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


@pytest.mark.parametrize("limit", [2, 100, 5_000_000])
def test_primes_are_int64(limit):
    assert sieve_primes(limit).primes.dtype == np.int64


def test_invariants_increasing_first_two():
    t = sieve_primes(10_000)
    assert int(t.primes[0]) == 2
    assert np.all(np.diff(t.primes.astype(np.int64)) > 0)


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
    # tiny segment size forces many segment crossings; the reference is the
    # n >= 2 with spf[n] == n, which shares no segment loop
    spf = FactorSieve.build(100_000).spf
    simple = np.flatnonzero(spf == np.arange(len(spf)))[2:]
    monkeypatch.setattr(primes, "SEGMENT_SIZE", 1_000)
    segmented = _segmented_sieve(100_000)
    assert np.array_equal(simple, segmented)


def test_limit_beyond_memory_names_the_limit(monkeypatch):
    # the base-prime spf sieve is patched to fail as numpy does, so nothing
    # large is allocated, and the memory figure to pass the size bound; the
    # error names the limit, as FactorSieve.build's does
    def no_memory(limit):
        raise MemoryError

    monkeypatch.setattr(primes, "_spf_sieve", no_memory)
    monkeypatch.setattr(radical_module, "_physical_memory", lambda: 2 ** 80)
    with pytest.raises(OutOfRangeError, match="^sieve limit 4611686018427387904 does not fit"):
        sieve_primes(2 ** 62)


def test_table_bound_beyond_memory_is_refused_before_sieving(monkeypatch):
    # pi(1e6) = 78498 primes take 627 984 bytes; the bound 1.25506 L / ln L
    # allows 90 844, or 726 754 bytes
    def sieved(limit):
        raise AssertionError("a refused limit must not be sieved")

    monkeypatch.setattr(radical_module, "_physical_memory", lambda: 726_000)
    with monkeypatch.context() as patch:
        patch.setattr(primes, "_spf_sieve", sieved)
        with pytest.raises(OutOfRangeError, match="^sieve limit 1000000 does not fit in memory$"):
            sieve_primes(10 ** 6)
    monkeypatch.setattr(radical_module, "_physical_memory", lambda: 727_000)
    assert len(sieve_primes(10 ** 6)) == 78498
