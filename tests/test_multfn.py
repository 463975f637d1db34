import math
import random

import numpy as np
import pytest

from radseries import (
    IDENTITY_SPEC,
    RADICAL_SPEC,
    UNIT_SPEC,
    FactorSieve,
    InvalidSpecError,
    MultiplicativeSpec,
    builtin_spec,
    radical,
    range_values,
)
from radseries.multfn import prime_power_values

from conftest import evaluate


def test_radical_spec_matches_radical_module(sieve_10k):
    got = range_values(RADICAL_SPEC, sieve_10k, 10_000)
    assert got[1:].tolist() == [float(radical(sieve_10k, n)) for n in range(1, 10_001)]


def test_identity_spec(sieve_10k):
    ns = [1, 12, 97, 9973]
    assert range_values(IDENTITY_SPEC, sieve_10k, 10_000)[ns].tolist() == [float(n) for n in ns]


def test_unit_spec(sieve_10k):
    ns = [1, 2, 12, 5040]
    assert range_values(UNIT_SPEC, sieve_10k, 10_000)[ns].tolist() == [1.0] * 4


def test_multiplicativity_random_coprime(sieve_10k):
    rng = random.Random(11)
    sqrt_spec = MultiplicativeSpec(name="sqrt", value_at_prime_power=lambda p, k: p ** (k / 2))
    specs = (RADICAL_SPEC, IDENTITY_SPEC, sqrt_spec)
    values = [range_values(spec, sieve_10k, 10_000) for spec in specs]
    done = 0
    while done < 200:
        m = rng.randrange(2, 100)
        n = rng.randrange(2, 100)
        if math.gcd(m, n) != 1:
            continue
        for spec, v in zip(specs, values):
            assert v[m * n] == pytest.approx(v[m] * v[n], rel=1e-12), spec.name
        done += 1


def test_range_values_builtin_hooks(sieve_10k):
    rad_vals = range_values(RADICAL_SPEC, sieve_10k, 500)
    id_vals = range_values(IDENTITY_SPEC, sieve_10k, 500)
    unit_vals = range_values(UNIT_SPEC, sieve_10k, 500)
    for n in range(1, 501):
        assert rad_vals[n] == float(radical(sieve_10k, n))
        assert id_vals[n] == float(n)
        assert unit_vals[n] == 1.0


def test_range_values_generic_stride_path(sieve_10k):
    # a rule with no closed form over a range: M(n) from the spf recurrence
    spec = MultiplicativeSpec(name="sqrt", value_at_prime_power=lambda p, k: p ** (k / 2))
    vals = range_values(spec, sieve_10k, 2_000)
    for n in range(1, 2_001):
        assert vals[n] == pytest.approx(evaluate(spec, n), rel=1e-12)


def test_non_positive_rule_rejected(sieve_10k):
    broken = MultiplicativeSpec(name="broken", value_at_prime_power=lambda p, k: 0.0)
    with pytest.raises(InvalidSpecError):
        range_values(broken, sieve_10k, 10)


def test_builtin_lookup():
    assert builtin_spec("radical") is RADICAL_SPEC
    assert builtin_spec("identity") is IDENTITY_SPEC
    assert builtin_spec("unit") is UNIT_SPEC
    with pytest.raises(InvalidSpecError):
        builtin_spec("mobius")


def test_builtin_rules_take_int64_arrays():
    # a rule is called on int64 arrays of primes and exponents; a scalar
    # result (the unit's 1.0) broadcasts to their shape
    p = np.array([2, 3, 5], dtype=np.int64)
    k = np.array([1, 2, 3], dtype=np.int64)
    for spec, want in [(RADICAL_SPEC, [2.0, 3.0, 5.0]),
                       (IDENTITY_SPEC, [2.0, 9.0, 125.0]),
                       (UNIT_SPEC, [1.0, 1.0, 1.0])]:
        got = prime_power_values(spec, p, k)
        assert got.dtype == np.float64 and got.tolist() == want, spec.name


def test_range_values_calls_the_rule_on_int64_arrays(sieve_10k):
    # the sieve's tables are uint32; a rule still gets int64 p and k, so a
    # rule such as the identity spec's p ** k computes in int64
    seen = set()

    def rule(p, k):
        seen.add((p.dtype, k.dtype))
        return p ** k

    spec = MultiplicativeSpec(name="recording", value_at_prime_power=rule)
    assert sieve_10k.spf.dtype == np.uint32
    got = range_values(spec, sieve_10k, 10_000)
    assert seen == {(np.dtype(np.int64), np.dtype(np.int64))}
    assert got[1:].tolist() == [float(n) for n in range(1, 10_001)]


# Past 2^17 the recurrence runs in chunks of 2^16: end one short of, and one
# past, a chunk edge, and a few past 2^19 (as the sieve tests do).
EDGE_LIMITS = [2 ** 17 - 1, 2 ** 17 + 1, 2 ** 18 - 1, 2 ** 18 + 1, 2 ** 19 + 3]
DIVISOR_COUNT = MultiplicativeSpec(name="d", value_at_prime_power=lambda p, k: k + 1)
# positive and irregular in k: a rule that ignored or misread the exponent
# of p in n would change M(n)
IRREGULAR = MultiplicativeSpec(
    name="irregular",
    value_at_prime_power=lambda p, k: np.sqrt(p) * (1 + (k * k) % 5) / (k + 0.5),
)


@pytest.fixture(scope="module")
def divisor_counts():
    """d(n) for n <= max(EDGE_LIMITS) by brute force: +1 at every multiple of each j."""
    limit = max(EDGE_LIMITS)
    d = np.zeros(limit + 1, dtype=np.int64)
    for j in range(1, limit + 1):
        d[j:: j] += 1
    return d


def chunk_edge_window(limit):
    # n around each chunk start (2^j, then every multiple of 2^16) and the last n
    starts = [2 ** j for j in range(14, 18)] + list(range(2 ** 17, limit + 1, 2 ** 16))
    ns = {n for start in starts for n in range(start - 32, start + 32)}
    ns |= set(range(limit - 64, limit + 1))
    return sorted(n for n in ns if 1 <= n <= limit)


@pytest.mark.parametrize("limit", [10_000] + EDGE_LIMITS)
def test_range_values_divisor_count_is_exact(divisor_counts, limit):
    sieve = FactorSieve.build(limit, cache_values=False)
    got = range_values(DIVISOR_COUNT, sieve, limit)
    assert got[0] == 1.0
    assert np.array_equal(got[1:], divisor_counts[1: limit + 1])


def test_range_values_exponent_rule_matches_evaluate(sieve_10k):
    got = range_values(IRREGULAR, sieve_10k, 10_000)
    want = [evaluate(IRREGULAR, n) for n in range(1, 10_001)]
    np.testing.assert_allclose(got[1:], want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("limit", EDGE_LIMITS)
def test_range_values_exponent_rule_matches_evaluate_at_chunk_edges(limit):
    sieve = FactorSieve.build(limit, cache_values=False)
    got = range_values(IRREGULAR, sieve, limit)
    ns = chunk_edge_window(limit)
    want = [evaluate(IRREGULAR, n) for n in ns]
    np.testing.assert_allclose(got[ns], want, rtol=1e-12, atol=0.0)
