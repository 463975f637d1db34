import math

import numpy as np
import pytest

from radseries import (
    RADICAL_SPEC,
    Classification,
    OutOfRangeError,
    Params,
    classify_interval,
    identity_pass,
    radical,
    series_d_log_m,
    series_d_log_n,
    st_ratio,
)
from radseries.numerics import sum_blocks
from radseries.radical import radical_range

P41 = Params(4, 1)


def test_classify_one_is_equal(sieve_10k):
    assert classify_interval(sieve_10k, 1, 1.03, 1.04) is Classification.EQUAL


def test_classify_squarefree_below(sieve_10k):
    # for squarefree n >= 2 the comparison reduces to T < S
    for n in (2, 3, 30, 9973):
        assert classify_interval(sieve_10k, n, 1.03, 1.04) is Classification.BELOW


def test_classify_prime_power_above(sieve_10k):
    # n = p^k with k >= 2 reduces to k*T vs S with S < 2T <= kT
    for n in (4, 8, 9, 27, 6561, 8192):
        assert classify_interval(sieve_10k, n, 1.03, 1.04) is Classification.ABOVE


def test_classify_validation(sieve_10k):
    with pytest.raises(OutOfRangeError):
        classify_interval(sieve_10k, 0, 1.03, 1.04)


def test_classify_ambiguous_knife_edge(sieve_10k):
    # n = 8 = 2^3 against an interval straddling ln8/ln2 = 3:
    # committed on neither side
    assert classify_interval(sieve_10k, 8, 2.999, 3.001) is Classification.AMBIGUOUS


def test_residual_single_term(sieve_10k, table_10k):
    got = identity_pass(sieve_10k, table_10k, P41, 1, 10_000)
    assert got.residual == 0.0


def test_residual_within_tolerance(sieve_10k, table_10k):
    for s, t in [(4, 1), (2.6, 0.5)]:
        params = Params(s, t)
        got = identity_pass(sieve_10k, table_10k, params, 10_000, 10_000)
        assert got.within_tolerance
        assert got.tolerance > 0


def test_squarefree_restriction_is_positive(sieve_10k, table_10k):
    # restricted to squarefree n the sum is (S - T) * sum ln(n) n^(t-s) > 0
    st = st_ratio(table_10k, P41, 10_000)
    s_p, t_p = st.s_value.value, st.t_value.value
    total = math.fsum(
        (n ** P41.t / n ** P41.s) * (s_p - t_p) * math.log(n)
        for n in range(2, 10_001)
        if radical(sieve_10k, n) == n
    )
    assert total > 0


def test_split_single_term(sieve_10k, table_10k):
    got = identity_pass(sieve_10k, table_10k, P41, 1, 10_000)
    assert got.classification_counts == (0, 1, 0)
    assert got.below == got.above == got.equal == 0.0


def test_split_signs_and_balance(sieve_10k, table_10k):
    for s, t in [(4, 1), (2.6, 0.5), (5, 2.5)]:
        got = identity_pass(sieve_10k, table_10k, Params(s, t), 10_000, 10_000)
        assert got.below > 0
        assert got.above < 0
        assert got.equal == 0.0
        assert got.balance_gap <= got.tolerance
    # tight enclosures commit every n <= 1e4
    for s, t in [(4, 1), (5, 2.5)]:
        got = identity_pass(sieve_10k, table_10k, Params(s, t), 10_000, 10_000)
        assert got.ambiguous_count == 0


def test_ambiguity_shrinks_with_prime_limit(sieve_10k, table_100k):
    # (2.6, 0.5) converges slowly; borderline n resolve as the S/T
    # enclosure tightens
    params = Params(2.6, 0.5)
    coarse = identity_pass(sieve_10k, table_100k, params, 10_000, 10_000)
    fine = identity_pass(sieve_10k, table_100k, params, 10_000, 100_000)
    assert fine.ambiguous_count < coarse.ambiguous_count


def test_split_counts_match_classifier(sieve_10k, table_10k):
    st = st_ratio(table_10k, P41, 10_000)
    lo, hi = st.ratio_interval
    want = {Classification.BELOW: 0, Classification.EQUAL: 0, Classification.ABOVE: 0}
    for n in range(1, 2_001):
        want[classify_interval(sieve_10k, n, lo, hi)] += 1
    got = identity_pass(sieve_10k, table_10k, P41, 2_000, 10_000)
    assert got.classification_counts == (
        want[Classification.BELOW],
        want[Classification.EQUAL],
        want[Classification.ABOVE],
    )


def test_primes_below_squares_above(sieve_10k, table_10k):
    st = st_ratio(table_10k, P41, 10_000)
    lo, hi = st.ratio_interval
    for p in (2, 3, 5, 7, 11, 97):
        assert classify_interval(sieve_10k, p, lo, hi) is Classification.BELOW
        assert classify_interval(sieve_10k, p * p, lo, hi) is Classification.ABOVE


def test_equal_class_is_singleton(sieve_10k, table_10k):
    # over a generic parameter sample only n = 1 lands exactly on the threshold
    for s, t in [(4, 1), (3.1, 1.7), (2.6, 0.5)]:
        got = identity_pass(sieve_10k, table_10k, Params(s, t), 10_000, 10_000)
        assert got.classification_counts[1] == 1


def test_residual_improves_with_limit(sieve_100k, table_100k):
    # empirical monotone improvement, prime truncation held fixed
    r_coarse = identity_pass(sieve_100k, table_100k, P41, 1_000, 100_000)
    r_fine = identity_pass(sieve_100k, table_100k, P41, 100_000, 100_000)
    assert abs(r_fine.residual) / r_fine.tolerance < abs(r_coarse.residual) / r_coarse.tolerance


def reference_identity(sieve, table, params, limit, prime_limit):
    """The residual and split computed the former way: st_ratio once per
    quantity, the residual block by block, the split over whole arrays, and
    the tolerance from separate series_d_log_n / series_d_log_m calls."""
    st = st_ratio(table, params, prime_limit)
    s_p, t_p = st.s_value.value, st.t_value.value
    low, high = st.ratio_interval
    rad = radical_range(sieve, limit).astype(np.float64)
    s, t = params.s, params.t

    def block_sum(lo, hi):
        n = np.arange(lo + 1, hi + 1, dtype=np.float64)
        r = rad[lo + 1: hi + 1]
        a_n = np.power(r, t) * np.power(n, -s)
        return math.fsum(a_n * (s_p * np.log(r) - t_p * np.log(n)))

    residual = sum_blocks(limit, block_sum)

    n = np.arange(1, limit + 1, dtype=np.float64)
    r = rad[1:]
    ln_n, ln_r = np.log(n), np.log(r)
    equal = (ln_n == 0.0) & (ln_r == 0.0)
    below = ln_n < low * ln_r
    above = ln_n > high * ln_r
    ambiguous = ~(below | above | equal)
    w = (np.power(r, t) * np.power(n, -s)) * (s_p * ln_r - t_p * ln_n)

    log_n = series_d_log_n(RADICAL_SPEC, sieve, params, limit)
    log_m = series_d_log_m(RADICAL_SPEC, sieve, params, limit)
    tolerance = (st.s_value.tail_bound * log_m.upper + st.t_value.tail_bound * log_n.upper
                 + s_p * log_m.tail_bound + t_p * log_n.tail_bound)
    return {
        "residual": residual,
        "tolerance": tolerance,
        "below": math.fsum(w[below]),
        "equal": math.fsum(w[equal]),
        "above": math.fsum(w[above]),
        "counts": (int(below.sum()), int(equal.sum()), int(above.sum())),
        "ambiguous_count": int(ambiguous.sum()),
        "ambiguous_sum": math.fsum(w[ambiguous]),
        "st": st,
    }


@pytest.mark.parametrize("s,t,prime_limit", [(4, 1, 100_000), (2.6, 0.5, 10_000), (5, 2.5, 100_000)])
def test_shared_pass_is_bit_identical_to_separate_passes(sieve_100k, table_100k, s, t,
                                                         prime_limit):
    params = Params(s, t)
    # 100_000 terms span two summation blocks of 2^16
    for limit in (1, 65_536, 100_000):
        want = reference_identity(sieve_100k, table_100k, params, limit, prime_limit)
        got = identity_pass(sieve_100k, table_100k, params, limit, prime_limit)
        assert got.st == want["st"]
        assert got.residual == want["residual"]
        assert got.tolerance == want["tolerance"]
        assert got.terms_used == limit
        assert (got.below, got.equal, got.above) == (
            want["below"], want["equal"], want["above"])
        assert got.classification_counts == want["counts"]
        assert got.ambiguous_count == want["ambiguous_count"]
        assert got.ambiguous_sum == want["ambiguous_sum"]
        # a second pass reproduces every field
        assert identity_pass(sieve_100k, table_100k, params, limit, prime_limit) == got


def test_identity_limit_outside_sieve(sieve_10k, table_10k):
    for limit in (0, 10_001):
        with pytest.raises(OutOfRangeError):
            identity_pass(sieve_10k, table_10k, P41, limit, 10_000)
