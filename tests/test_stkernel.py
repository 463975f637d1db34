import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from radseries import (
    IDENTITY_SPEC,
    MultiplicativeSpec,
    OutOfRangeError,
    Params,
    RADICAL_SPEC,
    TruncatedSum,
    UNIT_SPEC,
    s_general,
    sieve_primes,
    st_ratio,
    t_general,
)
from radseries.numerics import DEFAULT_BLOCK, log_power_tail, power_tail, sum_blocks
from radseries.stkernel import StResult, st_terms

P41 = Params(4, 1)
s_radical = functools.partial(s_general, RADICAL_SPEC)
t_radical = functools.partial(t_general, RADICAL_SPEC)

S_41_P2 = 0.08698317559967941   # (16/15)(2/17)ln2
T_41_P2 = 0.08154672712469944   # (2/17)ln2


def test_s_frozen_single_term(table_10k):
    got = s_radical(table_10k, P41, 2)
    assert got.value == pytest.approx(S_41_P2, rel=1e-14)


def test_t_frozen_single_term(table_10k):
    got = t_radical(table_10k, P41, 2)
    assert got.value == pytest.approx(T_41_P2, rel=1e-14)


def test_terms_against_direct_formula(table_10k):
    for s, t in [(4.0, 1.0), (2.6, 0.5), (5.0, 2.5)]:
        p = np.array([2.0, 3.0, 101.0])
        want_t = np.array([q ** t / (q ** s - 1 + q ** t) * math.log(q) for q in p])
        want_s = np.array([q ** s / (q ** s - 1) for q in p]) * want_t
        got_t, got_s = st_terms(p, p, s, t)
        assert got_t == pytest.approx(want_t, rel=1e-13)
        assert got_s == pytest.approx(want_s, rel=1e-13)


def test_termwise_sandwich(table_10k):
    # primes small enough that p^(-s) is representable: strict inequalities
    p = table_10k.upto(1_000).astype(np.float64)
    for s, t in [(4.0, 1.0), (3.5, 1.0), (2.6, 0.5), (5.0, 2.5)]:
        t_terms, s_terms = st_terms(p, p, s, t)
        assert np.all(t_terms > 0)
        assert np.all(s_terms > t_terms)
        assert np.all(s_terms < 2 * t_terms)


def test_terms_decreasing_from_three(table_10k):
    p = table_10k.upto(10_000).astype(np.float64)
    for s, t in [(4.0, 1.0), (2.6, 0.5)]:
        terms = st_terms(p, p, s, t)[0]
        from_three = terms[1:]  # p = 3, 5, 7, ...
        assert np.all(np.diff(from_three) < 0)


def test_truncation_sandwich_and_ratio(table_10k):
    for prime_limit in (2, 10, 1_000, 10_000):
        s_val = s_radical(table_10k, P41, prime_limit)
        t_val = t_radical(table_10k, P41, prime_limit)
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
    for fn in (s_radical, t_radical):
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
        terms = st_terms(p, p, s, t)[0]
        k = np.arange(1, len(p) + 1, dtype=np.float64)
        majorant = k ** (t + 1 - s)
        assert np.all(terms < majorant)
        got = t_radical(table_10k, params, 10_000)
        assert got.value < math.fsum(majorant)


def test_coarse_tail_cross_check(table_10k):
    # in the sub-region s > t + 2 the coarser majorant sum_{n>P} n^-(s-t-1)
    # (from ln x <= x - 1) also covers the tail
    coarse_bound = power_tail(100, P41.s - P41.t - 1.0)
    t100 = t_radical(table_10k, P41, 100)
    t10k = t_radical(table_10k, P41, 10_000)
    assert t10k.value - t100.value <= coarse_bound
    # and it is unavailable where its defining sum diverges (s <= t + 2)
    with pytest.raises(ValueError):
        power_tail(100, 2.2 - 1.0 - 1.0)


def test_general_radical_reduces_to_specialized(table_10k):
    for prime_limit in (2, 100, 10_000):
        st = st_ratio(table_10k, P41, prime_limit)
        assert s_general(RADICAL_SPEC, table_10k, P41, prime_limit).value == st.s_value.value
        assert t_general(RADICAL_SPEC, table_10k, P41, prime_limit).value == st.t_value.value


def test_general_identity_matches_t_function(table_10k):
    # M(p) = p makes ln M(p) = ln p
    got = t_general(IDENTITY_SPEC, table_10k, P41, 10_000)
    want = st_ratio(table_10k, P41, 10_000).t_value
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
    t_val = t_radical(table_10k, params, 10_000)
    s_val = s_radical(table_10k, params, 10_000)
    assert math.isfinite(t_val.value) and math.isfinite(s_val.value)
    # dominated by p = 2: ln(2)/2^(s-t) up to tiny corrections
    assert t_val.value == pytest.approx(math.log(2) * 2.0 ** (350 - 401), rel=1e-9)
    # every factor p^s/(p^s - 1) rounds to 1.0 here, so S ties with T at
    # float resolution instead of exceeding it strictly
    assert t_val.value <= s_val.value < 2 * t_val.value


def test_prime_limit_validation(table_10k):
    with pytest.raises(OutOfRangeError):
        t_radical(table_10k, P41, 1)
    with pytest.raises(OutOfRangeError):
        s_radical(table_10k, P41, 10_001)


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

    s_val = s_radical(table_10k, params, p_limit)
    t_val = t_radical(table_10k, params, p_limit)
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


@pytest.mark.parametrize("prime_limit", [2, 3, 100_000])
def test_st_ratio_shares_one_pass_with_s_and_t_functions(table_100k, prime_limit):
    # st_ratio and s_general / t_general with the radical spec read the same
    # pass, compared by repr so every float bit and None must agree
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
        got = st_ratio(table_100k, params, prime_limit)
        assert repr(got.s_value) == repr(s_radical(table_100k, params, prime_limit))
        assert repr(got.t_value) == repr(t_radical(table_100k, params, prime_limit))


def test_st_ratio_flags_underflowed_t(table_10k):
    # every term underflows: T = 0.0 and S/T is undefined
    with pytest.raises(OutOfRangeError, match=r"s=1100.0, t=2.0"):
        st_ratio(table_10k, Params(1100.0, 2.0), 10_000)


def test_st_ratio_flags_s_minus_t_rounding_to_one(table_10k):
    # s > 1 + t holds in float64, but s - t rounds to 1.0: no tail bound
    params = Params(1.8942081768689387, 0.8942081768689386)
    assert params.s - params.t == 1.0
    with pytest.raises(OutOfRangeError, match="s - t rounds to 1.0"):
        st_ratio(table_10k, params, 100)


# The S/T arithmetic before st_terms, kept as the reference: a separate
# np.log(M(p)) and a separate division for S, each kernel with its own tail
# rule, and math.fsum per block.

def _reference_sums(spec, primes, params, prime_limit):
    s, t = params.s, params.t
    p = primes.upto(prime_limit).astype(np.float64)
    if spec.prime_values is not None:
        mv = np.asarray(spec.prime_values(p), dtype=np.float64)
    else:
        mv = np.array([spec.value_at_prime_power(int(q), 1) for q in p], dtype=np.float64)

    def denominator(ln_p, ln_m):
        with np.errstate(over="ignore"):
            return np.exp(s * ln_p - t * ln_m) - np.exp(-t * ln_m) + 1.0

    ln_p = np.log(p)
    s_terms = 1.0 / (1.0 - np.power(p, -s)) * (ln_p / denominator(ln_p, np.log(mv)))
    ln_m = np.log(mv)
    t_terms = ln_m / denominator(np.log(p), ln_m)

    def total(terms):
        return sum_blocks(len(p), lambda lo, hi: math.fsum(terms[lo:hi]))

    s_tail = t_tail = None
    g = spec.growth_exponent
    if g is not None and bool(np.all(mv >= 1.0)):
        a = s - g * t
        if a > 1.0:
            s_tail = 2.0 * log_power_tail(prime_limit, a)
        if g == 0.0:
            t_tail = 0.0
        elif a > 1.0:
            t_tail = g * log_power_tail(prime_limit, a)
    return (t_terms, s_terms), (
        TruncatedSum(value=total(s_terms), tail_bound=s_tail, terms_used=len(p)),
        TruncatedSum(value=total(t_terms), tail_bound=t_tail, terms_used=len(p)),
    )


def reference_st_ratio(primes, params, prime_limit):
    _, (s_val, t_val) = _reference_sums(RADICAL_SPEC, primes, params, prime_limit)
    ratio = s_val.value / t_val.value
    tb = t_val.tail_bound
    low = min((s_val.value + tb) / (t_val.value + tb), ratio)
    high = max((s_val.value + 2.0 * tb) / (t_val.value + tb), ratio)
    return StResult(s_value=s_val, t_value=t_val, ratio=ratio, ratio_interval=(low, high))


SQRT_LIST_SPEC = MultiplicativeSpec(   # no prime_values: M(p) from the scalar rule
    name="sqrt-radical", value_at_prime_power=lambda p, k: p ** 0.5, growth_exponent=0.5,
)
HALF_AT_TWO_SPEC = MultiplicativeSpec(  # M(2) = 1/2 < 1: value-only tails
    name="half-at-two",
    value_at_prime_power=lambda p, k: 0.5 if p == 2 else float(p),
    growth_exponent=1.0,
    prime_values=lambda p: np.where(p == 2.0, 0.5, p),
)
REFERENCE_SPECS = [RADICAL_SPEC, IDENTITY_SPEC, UNIT_SPEC, SQRT_LIST_SPEC, HALF_AT_TWO_SPEC]


@settings(max_examples=60, deadline=None)
@given(
    s=hst.floats(min_value=1.5, max_value=1000.0),
    # s - t - 1 as a share of s - 1: tiny shares push s - t to 1+
    share=hst.one_of(
        hst.floats(min_value=2.0 ** -52, max_value=1e-6),
        hst.floats(min_value=1e-6, max_value=1.0 - 1e-9),
    ),
    prime_limit=hst.sampled_from([2, 3, 100_000]),
)
def test_single_pass_equals_reference_bit_for_bit(table_100k, s, share, prime_limit):
    t = (s - 1.0) * (1.0 - share)
    assume(t > 0.0 and s > 1.0 + t)
    params = Params(s, t)
    p = table_100k.upto(prime_limit).astype(np.float64)
    for spec in REFERENCE_SPECS:
        (want_t, want_s), (want_s_val, want_t_val) = _reference_sums(
            spec, table_100k, params, prime_limit)
        m = np.asarray([spec.value_at_prime_power(int(q), 1) for q in p], dtype=np.float64)
        got_t, got_s = st_terms(p, m, s, t)
        assert got_t.tobytes() == want_t.tobytes(), spec.name
        assert got_s.tobytes() == want_s.tobytes(), spec.name
        assert repr(s_general(spec, table_100k, params, prime_limit)) == repr(want_s_val)
        assert repr(t_general(spec, table_100k, params, prime_limit)) == repr(want_t_val)
    if params.s - params.t > 1.0:
        want = reference_st_ratio(table_100k, params, prime_limit)
        assert repr(st_ratio(table_100k, params, prime_limit)) == repr(want)
    else:
        with pytest.raises(OutOfRangeError):
            st_ratio(table_100k, params, prime_limit)


def test_st_ratio_over_two_blocks_equals_reference():
    # 78,498 primes up to 10^6: the sums cross a fixed block boundary
    table = sieve_primes(1_000_000)
    assert DEFAULT_BLOCK < len(table.upto(1_000_000)) <= 2 * DEFAULT_BLOCK
    for params in (P41, Params(2.6, 0.5), Params(5.0, 2.5)):
        want = reference_st_ratio(table, params, 1_000_000)
        assert repr(st_ratio(table, params, 1_000_000)) == repr(want)
