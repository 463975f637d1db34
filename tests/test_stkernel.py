import math

import numpy as np
import pytest

from radseries import (
    IDENTITY_SPEC,
    OutOfRangeError,
    Params,
    RADICAL_SPEC,
    UNIT_SPEC,
    s_function,
    s_general,
    sieve_primes,
    st_ratio,
    t_function,
    t_general,
)
from radseries.stkernel import radical_st_terms, t_tail_coarse

P41 = Params(4, 1)

S_41_P2 = 0.08698317559967941   # (16/15)(2/17)ln2
T_41_P2 = 0.08154672712469944   # (2/17)ln2


def test_s_frozen_single_term(table_10k):
    got = s_function(table_10k, P41, 2)
    assert got.value == pytest.approx(S_41_P2, rel=1e-14)


def test_t_frozen_single_term(table_10k):
    got = t_function(table_10k, P41, 2)
    assert got.value == pytest.approx(T_41_P2, rel=1e-14)


def test_terms_against_direct_formula(table_10k):
    for s, t in [(4.0, 1.0), (2.6, 0.5), (5.0, 2.5)]:
        p = np.array([2.0, 3.0, 101.0])
        want_t = np.array([q ** t / (q ** s - 1 + q ** t) * math.log(q) for q in p])
        want_s = np.array([q ** s / (q ** s - 1) for q in p]) * want_t
        got_t, got_s = radical_st_terms(p, s, t)
        assert got_t == pytest.approx(want_t, rel=1e-13)
        assert got_s == pytest.approx(want_s, rel=1e-13)


def test_termwise_sandwich(table_10k):
    # primes small enough that p^(-s) is representable: strict inequalities
    p = table_10k.upto(1_000).astype(np.float64)
    for s, t in [(4.0, 1.0), (3.5, 1.0), (2.6, 0.5), (5.0, 2.5)]:
        t_terms, s_terms = radical_st_terms(p, s, t)
        assert np.all(t_terms > 0)
        assert np.all(s_terms > t_terms)
        assert np.all(s_terms < 2 * t_terms)


def test_terms_decreasing_from_three(table_10k):
    p = table_10k.upto(10_000).astype(np.float64)
    for s, t in [(4.0, 1.0), (2.6, 0.5)]:
        terms = radical_st_terms(p, s, t)[0]
        from_three = terms[1:]  # p = 3, 5, 7, ...
        assert np.all(np.diff(from_three) < 0)


def test_truncation_sandwich_and_ratio(table_10k):
    for prime_limit in (2, 10, 1_000, 10_000):
        s_val = s_function(table_10k, P41, prime_limit)
        t_val = t_function(table_10k, P41, prime_limit)
        assert t_val.value < s_val.value < 2 * t_val.value
        st = st_ratio(table_10k, P41, prime_limit)
        assert 1.0 < st.ratio < 2.0
        lo, hi = st.ratio_interval
        assert lo < st.ratio < hi
        assert st.in_bound


def test_ratio_single_prime(table_10k):
    st = st_ratio(table_10k, P41, 2)
    assert st.ratio == pytest.approx(16 / 15, rel=1e-14)


def test_ratio_interval_encloses_refined_ratio(table_10k):
    # the enclosure built at P=100 must contain the ratio at P=10000
    st_coarse = st_ratio(table_10k, P41, 100)
    st_fine = st_ratio(table_10k, P41, 10_000)
    lo, hi = st_coarse.ratio_interval
    assert lo <= st_fine.ratio <= hi


def test_ratio_interval_contains_truncated_ratio_under_rounding():
    # At this point the separately rounded low end lands one ulp above the
    # truncated ratio unless the interval is widened by it.
    table = sieve_primes(1_000_000)
    st = st_ratio(table, Params(5.0256410256410255, 1.076923076923077), 1_000_000)
    lo, hi = st.ratio_interval
    assert lo <= st.ratio <= hi
    assert st.in_bound


def test_tail_bounds_cover_refinement(table_10k):
    for fn in (s_function, t_function):
        coarse = fn(table_10k, P41, 100)
        fine = fn(table_10k, P41, 10_000)
        assert fine.value - coarse.value <= coarse.tail_bound


def test_t_below_coarse_majorant_partial_sums(table_10k):
    # term by term, the k-th prime's contribution is under k^-(s-t-1)
    # (needs p_k > k); summing gives T under the matching zeta partial sum.
    # The majorant only converges for s > t + 2, so it is asserted there.
    for s, t in [(4.0, 1.0), (5.0, 2.5), (3.51, 1.5)]:
        params = Params(s, t)
        p = table_10k.upto(10_000).astype(np.float64)
        terms = radical_st_terms(p, s, t)[0]
        k = np.arange(1, len(p) + 1, dtype=np.float64)
        majorant = k ** (t + 1 - s)
        assert np.all(terms < majorant)
        got = t_function(table_10k, params, 10_000)
        assert got.value < math.fsum(majorant)


def test_coarse_tail_cross_check(table_10k):
    # in the sub-region s > t + 2 the coarser majorant also covers the tail
    coarse_bound = t_tail_coarse(P41, 100)
    assert coarse_bound is not None
    t100 = t_function(table_10k, P41, 100)
    t10k = t_function(table_10k, P41, 10_000)
    assert t10k.value - t100.value <= coarse_bound
    # and it is unavailable where its defining sum diverges (s <= t + 2)
    assert t_tail_coarse(Params(2.2, 1.0), 100) is None


def test_general_radical_reduces_to_specialized(table_10k):
    for prime_limit in (2, 100, 10_000):
        assert s_general(RADICAL_SPEC, table_10k, P41, prime_limit).value == \
            s_function(table_10k, P41, prime_limit).value
        assert t_general(RADICAL_SPEC, table_10k, P41, prime_limit).value == \
            t_function(table_10k, P41, prime_limit).value


def test_general_identity_matches_t_function(table_10k):
    # M(p) = p makes ln M(p) = ln p
    got = t_general(IDENTITY_SPEC, table_10k, P41, 10_000)
    want = t_function(table_10k, P41, 10_000)
    assert got.value == want.value


def test_unit_spec_t_vanishes(table_10k):
    for prime_limit in (2, 100, 10_000):
        got = t_general(UNIT_SPEC, table_10k, P41, prime_limit)
        assert got.value == 0.0
        assert got.tail_bound == 0.0


def test_unit_spec_s_frozen_value(table_10k):
    # (4/3)(1/4)ln2 at s=2 with the single prime 2
    got = s_general(UNIT_SPEC, table_10k, Params(2, 0.5), 2)
    assert got.value == pytest.approx(0.23104906018664842, rel=1e-14)


def test_extreme_exponents_stay_finite(table_10k):
    # both p^s and p^t overflow float64 here; the log-space kernel must not
    # produce inf/inf artifacts
    params = Params(401.0, 350.0)
    t_val = t_function(table_10k, params, 10_000)
    s_val = s_function(table_10k, params, 10_000)
    assert math.isfinite(t_val.value) and math.isfinite(s_val.value)
    # dominated by p = 2: ln(2)/2^(s-t) up to tiny corrections
    assert t_val.value == pytest.approx(math.log(2) * 2.0 ** (350 - 401), rel=1e-9)
    # every factor p^s/(p^s - 1) rounds to 1.0 here, so S ties with T at
    # float resolution instead of exceeding it strictly
    assert t_val.value <= s_val.value < 2 * t_val.value


def test_prime_limit_validation(table_10k):
    with pytest.raises(OutOfRangeError):
        t_function(table_10k, P41, 1)
    with pytest.raises(OutOfRangeError):
        s_function(table_10k, P41, 10_001)


def test_derivative_identities_finite_difference(sieve_10k, table_10k):
    # -(d/ds) ln D ~ S and (d/dt) ln D ~ T at matching truncations
    from radseries import series_d, series_d_log_m, series_d_log_n

    s, t, n_limit, p_limit = 4.0, 1.0, 10_000, 10_000
    h = 1e-5 * max(1.0, abs(s))
    params = Params(s, t)

    def ln_d(ss, tt):
        return math.log(series_d(RADICAL_SPEC, sieve_10k, Params(ss, tt), n_limit).value)

    fd_s = -(ln_d(s + h, t) - ln_d(s - h, t)) / (2 * h)
    fd_t = (ln_d(s, t + h) - ln_d(s, t - h)) / (2 * h)

    s_val = s_function(table_10k, params, p_limit)
    t_val = t_function(table_10k, params, p_limit)
    d = series_d(RADICAL_SPEC, sieve_10k, params, n_limit)
    num_s = series_d_log_n(RADICAL_SPEC, sieve_10k, params, n_limit)
    num_t = series_d_log_m(RADICAL_SPEC, sieve_10k, params, n_limit)

    # budget: cubic-term FD error + float rounding + truncated-ratio gap + prime tail
    curvature = h ** 2 / 6 * math.log(n_limit) ** 3
    rounding = 4e-15 / h
    gap_s = (num_s.tail_bound + (num_s.value / d.value) * d.tail_bound) / d.value
    gap_t = (num_t.tail_bound + (num_t.value / d.value) * d.tail_bound) / d.value
    assert abs(fd_s - s_val.value) <= curvature + rounding + gap_s + s_val.tail_bound
    assert abs(fd_t - t_val.value) <= curvature + rounding + gap_t + t_val.tail_bound


def test_threads_bit_identical(table_100k):
    for fn in (s_function, t_function):
        assert fn(table_100k, P41, 100_000, threads=1).value == \
            fn(table_100k, P41, 100_000, threads=3).value


@pytest.mark.parametrize("prime_limit", [2, 3, 100_000])
def test_st_ratio_shares_one_pass_with_s_and_t_functions(table_100k, prime_limit):
    # st_ratio sums radical_st_terms once; s_function / t_function are the
    # reference, compared by repr so every float bit and None must agree
    points = [
        (math.nextafter(2.0, 3.0), 1.0),   # s - t = 1 + 2^-52
        (1.5 + 1e-12, 0.5),
        (2.05, 1.0),
        (4.0, 1.0),
        (9.5, 3.2),
        (40.0, 1.0),
        (60.0, 20.0),
        (400.0, 350.0),
    ]
    for s, t in points:
        params = Params(s, t)
        for threads in (1, 2):
            got = st_ratio(table_100k, params, prime_limit, threads=threads)
            assert repr(got.s_value) == repr(s_function(table_100k, params, prime_limit))
            assert repr(got.t_value) == repr(t_function(table_100k, params, prime_limit))
