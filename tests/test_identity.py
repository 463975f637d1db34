import math

import numpy as np
import pytest

from radseries import (
    RADICAL_SPEC,
    FactorSieve,
    OutOfRangeError,
    Params,
    identity_pass,
    radical,
    series_d_log_m,
    series_d_log_n,
    st_ratio,
)
import radseries.identity
from radseries.identity import WINDOW
from radseries.numerics import DEFAULT_BLOCK, sum_blocks
from radseries.radical import radical_range

from conftest import brute_rad, classes, reference_class

P41 = Params(4, 1)


def classes_of(sieve, ns, low, high):
    """``class_masks`` over the whole array ns, with R(n) from the sieve."""
    ns = np.asarray(ns)
    return classes(ns, radical_range(sieve, int(ns.max()))[ns], low, high)


def test_classify_one_is_equal(sieve_10k):
    assert classes_of(sieve_10k, [1], 1.03, 1.04) == ["equal"]


def test_classify_squarefree_below(sieve_10k):
    # for squarefree n >= 2 the comparison reduces to T < S
    assert classes_of(sieve_10k, [2, 3, 30, 9973], 1.03, 1.04) == ["below"] * 4


def test_classify_prime_power_above(sieve_10k):
    # n = p^k with k >= 2 reduces to k*T vs S with S < 2T <= kT
    assert classes_of(sieve_10k, [4, 8, 9, 27, 6561, 8192], 1.03, 1.04) == ["above"] * 6


def test_classify_ambiguous_knife_edge(sieve_10k):
    # n = 8 = 2^3 against an interval straddling ln8/ln2 = 3:
    # committed on neither side
    assert classes_of(sieve_10k, [8], 2.999, 3.001) == ["ambiguous"]


def test_residual_single_term(table_10k):
    got = identity_pass(table_10k, P41, 1, 10_000)
    assert got.residual == 0.0


def test_residual_within_tolerance(table_10k):
    for s, t in [(4, 1), (2.6, 0.5)]:
        params = Params(s, t)
        got = identity_pass(table_10k, params, 10_000, 10_000)
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


def test_split_single_term(table_10k):
    got = identity_pass(table_10k, P41, 1, 10_000)
    assert got.classification_counts == (0, 1, 0)
    assert got.below == got.above == got.equal == 0.0


def test_split_signs_and_balance(table_10k):
    for s, t in [(4, 1), (2.6, 0.5), (5, 2.5)]:
        got = identity_pass(table_10k, Params(s, t), 10_000, 10_000)
        assert got.below > 0
        assert got.above < 0
        assert got.equal == 0.0
        assert got.balance_gap <= got.tolerance
    # tight enclosures commit every n <= 1e4
    for s, t in [(4, 1), (5, 2.5)]:
        got = identity_pass(table_10k, Params(s, t), 10_000, 10_000)
        assert got.ambiguous_count == 0


def test_ambiguity_shrinks_with_prime_limit(table_100k):
    # (2.6, 0.5) converges slowly; borderline n resolve as the S/T
    # enclosure tightens
    params = Params(2.6, 0.5)
    coarse = identity_pass(table_100k, params, 10_000, 10_000)
    fine = identity_pass(table_100k, params, 10_000, 100_000)
    assert fine.ambiguous_count < coarse.ambiguous_count


def test_split_counts_match_classifier(sieve_10k, table_10k):
    st = st_ratio(table_10k, P41, 10_000)
    lo, hi = st.ratio_interval
    ns = np.arange(1, 2_001)
    got_classes = classes_of(sieve_10k, ns, lo, hi)
    assert got_classes == [reference_class(n, brute_rad(n), lo, hi) for n in ns.tolist()]
    got = identity_pass(table_10k, P41, 2_000, 10_000)
    assert got.classification_counts == tuple(
        got_classes.count(name) for name in ("below", "equal", "above"))


def test_primes_below_squares_above(sieve_10k, table_10k):
    st = st_ratio(table_10k, P41, 10_000)
    lo, hi = st.ratio_interval
    primes = np.array([2, 3, 5, 7, 11, 97])
    assert classes_of(sieve_10k, primes, lo, hi) == ["below"] * 6
    assert classes_of(sieve_10k, primes * primes, lo, hi) == ["above"] * 6


def test_equal_class_is_singleton(table_10k):
    # over a generic parameter sample only n = 1 lands exactly on the threshold
    for s, t in [(4, 1), (3.1, 1.7), (2.6, 0.5)]:
        got = identity_pass(table_10k, Params(s, t), 10_000, 10_000)
        assert got.classification_counts[1] == 1


def test_residual_improves_with_limit(table_100k):
    # empirical monotone improvement, prime truncation held fixed
    r_coarse = identity_pass(table_100k, P41, 1_000, 100_000)
    r_fine = identity_pass(table_100k, P41, 100_000, 100_000)
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
    tolerance = (st.s_value.tail_bound * (log_m.value + log_m.tail_bound)
                 + st.t_value.tail_bound * (log_n.value + log_n.tail_bound)
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


@pytest.fixture(scope="module")
def sieve_512k():
    return FactorSieve.build(1 << 19)


# near s = 1 + t the S/T enclosure is wide enough to leave rows of the
# split ambiguous: 2,108 of the first 65,536 n
AMBIGUOUS_POINT = (1.67, 0.001, 10_000)


@pytest.mark.parametrize("s,t,prime_limit", [(4, 1, 100_000), (2.6, 0.5, 10_000), (5, 2.5, 100_000),
                                             AMBIGUOUS_POINT])
def test_shared_pass_is_bit_identical_to_separate_passes(sieve_512k, table_100k, s, t,
                                                         prime_limit):
    params = Params(s, t)
    # the pass walks summation blocks of 2^16 in radical windows of four:
    # part of one block, exactly one, two, three ending inside a fourth, one
    # past a window, and one window and a block ending inside a second window
    for limit in (1, 65_536, 100_000, 3 * DEFAULT_BLOCK + 7, WINDOW + 1,
                  WINDOW + DEFAULT_BLOCK + 7):
        want = reference_identity(sieve_512k, table_100k, params, limit, prime_limit)
        got = identity_pass(table_100k, params, limit, prime_limit)
        assert got.st == want["st"]
        assert got.residual == want["residual"]
        assert got.tolerance == want["tolerance"]
        assert got.terms_used == limit
        assert (got.below, got.equal, got.above) == (
            want["below"], want["equal"], want["above"])
        assert got.classification_counts == want["counts"]
        assert got.ambiguous_count == want["ambiguous_count"]
        assert got.ambiguous_sum == want["ambiguous_sum"]
        if (s, t, prime_limit) == AMBIGUOUS_POINT and limit > 1:
            assert got.ambiguous_count > 0
        # a second pass reproduces every field
        assert identity_pass(table_100k, params, limit, prime_limit) == got


@pytest.mark.parametrize("limit", [1 << 19, 1 << 21])
def test_identity_pass_memory_is_bounded_by_the_block(table_10k, traced_peak, limit):
    # the per-n arrays live one block at a time and n / R(n) one window at a
    # time, so one bound holds at every limit: at most seven float64 blocks
    # (6.5 measured) plus the window's uint32 quotients
    bound = 7 * 8 * DEFAULT_BLOCK + 4 * WINDOW
    assert traced_peak(lambda: identity_pass(table_10k, P41, limit, 10_000)) <= bound


def test_each_weight_is_leveled_once(table_10k, monkeypatch):
    # exact_sum takes the two log-weighted sums and exact_parts the class
    # copies of w, which partition each block; the residual reuses the parts
    seen = {"exact_sum": 0, "exact_parts": 0}
    for name in seen:
        def counted(x, name=name, kernel=getattr(radseries.identity, name)):
            seen[name] += len(x)
            return kernel(x)
        monkeypatch.setattr(radseries.identity, name, counted)
    limit = WINDOW + DEFAULT_BLOCK + 7
    identity_pass(table_10k, P41, limit, 10_000)
    assert seen == {"exact_sum": 2 * limit, "exact_parts": limit}


@pytest.mark.parametrize("s,t", [(2.05, 1), (4, 1), (2.6, 0.5), (60, 50)])
def test_class_weights_stay_far_from_the_overflow_of_exact_parts(table_10k, s, t):
    # identity_pass bounds |w_n| by (S_P + T_P) ln n <= 3 theta(P) ln n; the
    # class sums agree with fsum over the whole masked w only away from 2^1023
    st = st_ratio(table_10k, Params(s, t), 10_000)
    theta = math.fsum(np.log(table_10k.primes.astype(np.float64)))
    assert st.t_value.value <= theta
    assert st.s_value.value + st.t_value.value <= 3 * theta


def test_identity_limit_outside_sieve(table_10k):
    # n runs over uint32 radical windows: refused before any work
    for limit in (0, 2 ** 32):
        with pytest.raises(OutOfRangeError):
            identity_pass(table_10k, P41, limit, 10_000)
