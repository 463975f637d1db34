import functools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hst

from radseries import (
    IDENTITY_SPEC,
    InvalidParamsError,
    InvalidSpecError,
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
import radseries.stkernel as stkernel
from radseries.stkernel import StKernel, StResult

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
        got_t, got_s = StKernel(p, p).terms(s, t)
        assert got_t == pytest.approx(want_t, rel=1e-13)
        assert got_s == pytest.approx(want_s, rel=1e-13)


@pytest.mark.parametrize("s, t", [(1e308, 1e300), (1.7976931348623157e308, 1.6e308)])
def test_terms_at_huge_exponents_underflow_without_a_warning(table_10k, s, t):
    # s ln p overflows (and, at the second point, t ln p too: inf - inf);
    # every term underflows to 0.0 and no RuntimeWarning is raised
    p = table_10k.upto(1_000)
    t_terms, s_terms = StKernel(p, p).terms(s, t)
    assert not t_terms.any() and not s_terms.any()


def test_termwise_sandwich(table_10k):
    # primes small enough that p^(-s) is representable: strict inequalities
    p = table_10k.upto(1_000).astype(np.float64)
    for s, t in [(4.0, 1.0), (3.5, 1.0), (2.6, 0.5), (5.0, 2.5)]:
        t_terms, s_terms = StKernel(p, p).terms(s, t)
        assert np.all(t_terms > 0)
        assert np.all(s_terms > t_terms)
        assert np.all(s_terms < 2 * t_terms)


def test_terms_decreasing_from_three(table_10k):
    p = table_10k.upto(10_000).astype(np.float64)
    for s, t in [(4.0, 1.0), (2.6, 0.5)]:
        terms = StKernel(p, p).terms(s, t)[0]
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
        terms = StKernel(p, p).terms(s, t)[0]
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


def test_st_ratio_flags_s_minus_t_rounding_to_one():
    # s > 1 + t holds in float64, but s - t rounds to 1.0, where no tail
    # exists: Params refuses the point, so no kernel ever sees it
    s, t = 1.8942081768689387, 0.8942081768689386
    assert s > 1.0 + t and s - t == 1.0
    with pytest.raises(InvalidParamsError, match=r"s=1.8942081768689387, t=0.8942081768689386"):
        Params(s, t)


# The S/T arithmetic before StKernel, kept as the reference: a separate
# np.log(M(p)) and a separate division for S, each kernel with its own tail
# rule, and math.fsum per block.

@functools.lru_cache(maxsize=None)
def _reference_values(spec, prime_limit):
    p = sieve_primes(prime_limit).upto(prime_limit).astype(np.float64)
    return p, np.array([spec.value_at_prime_power(int(q), 1) for q in p], dtype=np.float64)


def _reference_sums(spec, primes, params, prime_limit):
    s, t = params.s, params.t
    primes.upto(prime_limit)  # the range check of the kernel's table
    p, mv = _reference_values(spec, prime_limit)

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


SQRT_SPEC = MultiplicativeSpec(
    name="sqrt-radical", value_at_prime_power=lambda p, k: p ** 0.5, growth_exponent=0.5,
)
HALF_AT_TWO_SPEC = MultiplicativeSpec(  # M(2) = 1/2 < 1: value-only tails
    name="half-at-two",
    value_at_prime_power=lambda p, k: np.where(p == 2, 0.5, p),
    growth_exponent=1.0,
)
REFERENCE_SPECS = [RADICAL_SPEC, IDENTITY_SPEC, UNIT_SPEC, SQRT_SPEC, HALF_AT_TWO_SPEC]


@pytest.mark.parametrize("spec, point, cause", [
    (MultiplicativeSpec(name="no-growth", value_at_prime_power=lambda p, k: p),
     (4, 1), "no growth bound"),
    (HALF_AT_TWO_SPEC, (4, 1), r"some M\(p\) < 1"),
    (MultiplicativeSpec(name="square", value_at_prime_power=lambda p, k: p ** 2,
                        growth_exponent=2.0),
     (2.2, 1), r"s - g\*t <= 1 with g=2.0"),
], ids=["no-growth", "half-at-two", "square"])
def test_ratio_names_why_it_has_no_enclosure(table_10k, spec, point, cause):
    # the kernel has no T tail for a reason of its spec, not of float64
    params = Params(*point)
    kernel = StKernel.for_spec(spec, table_10k, 100)
    with pytest.raises(OutOfRangeError, match=rf"s={params.s}, t={params.t}: {cause}$"):
        kernel.ratio(params)


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
    if not s - t > 1.0:  # s - t rounds to 1.0: no point of the region
        with pytest.raises(InvalidParamsError):
            Params(s, t)
        return
    params = Params(s, t)
    p = table_100k.upto(prime_limit).astype(np.float64)
    for spec in REFERENCE_SPECS:
        (want_t, want_s), (want_s_val, want_t_val) = _reference_sums(
            spec, table_100k, params, prime_limit)
        m = np.asarray([spec.value_at_prime_power(int(q), 1) for q in p], dtype=np.float64)
        got_t, got_s = StKernel(p, m).terms(s, t)
        assert got_t.tobytes() == want_t.tobytes(), spec.name
        assert got_s.tobytes() == want_s.tobytes(), spec.name
        assert repr(s_general(spec, table_100k, params, prime_limit)) == repr(want_s_val)
        assert repr(t_general(spec, table_100k, params, prime_limit)) == repr(want_t_val)
    want = reference_st_ratio(table_100k, params, prime_limit)
    assert repr(st_ratio(table_100k, params, prime_limit)) == repr(want)


def test_st_ratio_over_two_blocks_equals_reference():
    # 78,498 primes up to 10^6: the sums cross a fixed block boundary
    table = sieve_primes(1_000_000)
    assert DEFAULT_BLOCK < len(table.upto(1_000_000)) <= 2 * DEFAULT_BLOCK
    for params in (P41, Params(2.6, 0.5), Params(5.0, 2.5)):
        want = reference_st_ratio(table, params, 1_000_000)
        assert repr(st_ratio(table, params, 1_000_000)) == repr(want)


def _in_region(s, t):
    try:
        return Params(s, t)
    except InvalidParamsError:
        return None


# The rectangle the benchmark's ratio-grid walks at its default seed (s 2.2-8,
# t 0.2-2, 10 steps, P = 10^6), by ratio-grid's own axis rule, in region only.
BENCH_GRID = [params for params in (
    _in_region(2.2 + (8.0 - 2.2) * i / 9, 0.2 + (2.0 - 0.2) * j / 9)
    for i in range(10) for j in range(10)) if params is not None]


def test_prepared_sweep_equals_reference_bit_for_bit():
    # One kernel per spec over a grid walked s-major, as ratio-grid walks it:
    # the S factor is kept along a row of repeated s and formed again when s
    # changes or comes back.  78,498 primes cross a fixed block boundary.
    table = sieve_primes(1_000_000)
    assert DEFAULT_BLOCK < len(table.upto(1_000_000)) <= 2 * DEFAULT_BLOCK
    grid = [Params(s, t) for s, t in [
        (2.6, 0.5), (2.6, 1.0), (2.6, 1.5),
        (4.0, 1.0), (4.0, 2.5), (4.0, 0.2), (4, 2),  # an int s hits the float's row
        (2.6, 1.2), (9.5, 3.2), (9.5, 3.2), (3, 1),
    ]]
    kernel = StKernel.for_spec(RADICAL_SPEC, table, 1_000_000)
    for params in grid + BENCH_GRID:
        want = reference_st_ratio(table, params, 1_000_000)
        assert repr(kernel.ratio(params)) == repr(want)
    for spec in (UNIT_SPEC, IDENTITY_SPEC):  # m != p, and m == p
        kernel = StKernel.for_spec(spec, table, 1_000_000)
        for params in grid:
            _, (want_s, want_t) = _reference_sums(spec, table, params, 1_000_000)
            assert repr(kernel.sums(params)) == repr((want_s, want_t)), spec.name
            assert repr(s_general(spec, table, params, 1_000_000)) == repr(want_s)
            assert repr(t_general(spec, table, params, 1_000_000)) == repr(want_t)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
def test_non_positive_prime_value_is_rejected(table_10k, bad):
    # M(3) <= 0 or NaN has no logarithm: the kernel refuses the spec, as
    # range_values does, instead of summing to NaN
    spec = MultiplicativeSpec(
        name="bad-at-three",
        value_at_prime_power=lambda p, k: np.where(p == 3, bad, p),
        growth_exponent=1.0,
    )
    for fn in (s_general, t_general):
        with pytest.raises(InvalidSpecError,
                           match=r"'bad-at-three' returned .* at prime power 3\^1$"):
            fn(spec, table_10k, P41, 10_000)


@pytest.fixture(scope="module")
def table_1m():
    return sieve_primes(1_000_000)


@pytest.fixture(scope="module")
def kernel_1m(table_1m):
    return StKernel.for_spec(RADICAL_SPEC, table_1m, 1_000_000)


@pytest.mark.parametrize("spec, shared", [
    (RADICAL_SPEC, True), (IDENTITY_SPEC, True), (UNIT_SPEC, False), (SQRT_SPEC, False),
], ids=lambda x: getattr(x, "name", x))
def test_ln_m_is_ln_p_where_m_equals_p(table_10k, spec, shared):
    # M(p) = p: one logarithm array serves both, not a second copy
    kernel = StKernel.for_spec(spec, table_10k, 10_000)
    assert np.shares_memory(kernel._ln_m, kernel._ln_p) is shared


def _term_counts(kernel):
    """Record how many primes each evaluation of kernel forms terms for."""
    counts = []
    terms = kernel._terms
    kernel._terms = lambda s, t, n: (counts.append(n), terms(s, t, n))[1]
    return counts


# Points of P = 10^6 whose sums are decided by a prefix inside the first block
# (8, 0.2), (6, 1), (40, 1), (400, 350), inside the second block for one spec
# each (s - g*t near 4.45: (5.45, 1) for g = 1, (4.95, 1) for g = 1/2,
# (4.45, 1) for g = 0), or by no prefix at all (4, 1), (3.5, 0.5), (2.2, 0.2).
PREFIX_POINTS = [(8, 0.2), (6, 1), (40, 1), (400, 350), (5.45, 1.0), (4.95, 1.0),
                 (4.45, 1.0), (4, 1), (3.5, 0.5), (2.2, 0.2)]


@pytest.mark.parametrize("spec", REFERENCE_SPECS, ids=lambda spec: spec.name)
def test_prefix_sums_equal_the_full_table_bit_for_bit(table_1m, spec, monkeypatch):
    decided_sum, tails = stkernel._decided_sum, []

    def recorded(head, total, tail):
        tails.append((len(head), tail))
        return decided_sum(head, total, tail)

    monkeypatch.setattr(stkernel, "_decided_sum", recorded)
    p_count = len(table_1m.upto(1_000_000))
    kernel = StKernel.for_spec(spec, table_1m, 1_000_000)
    counts = _term_counts(kernel)
    prefixes = []
    for s, t in PREFIX_POINTS:
        params = Params(s, t)
        _, want = _reference_sums(spec, table_1m, params, 1_000_000)
        counts.clear()
        tails.clear()
        assert repr(kernel.sums(params)) == repr(want), (s, t)
        assert len(counts) == 1  # a prefix that did not decide would add a full pass
        prefixes.append(counts[0])
        # each tail the kernel decided with covers the terms it did not form
        t_terms, s_terms = (x.copy() for x in kernel.terms(s, t))
        for terms, (k, tail) in zip((s_terms, t_terms), tails):
            assert math.fsum(terms[k:]) <= tail, (s, t, k)
        assert repr(s_general(spec, table_1m, params, 1_000_000)) == repr(want[0])
        assert repr(t_general(spec, table_1m, params, 1_000_000)) == repr(want[1])
        if spec is RADICAL_SPEC:
            want_ratio = reference_st_ratio(table_1m, params, 1_000_000)
            assert repr(kernel.ratio(params)) == repr(want_ratio)
            assert repr(st_ratio(table_1m, params, 1_000_000)) == repr(want_ratio)
    if spec is HALF_AT_TWO_SPEC:  # no tail: every sum uses every prime
        assert set(prefixes) == {p_count}
    else:  # decided inside the first block and inside the second
        assert sum(n < DEFAULT_BLOCK for n in prefixes) >= 4
        assert sum(DEFAULT_BLOCK < n < p_count for n in prefixes) == 1


@settings(max_examples=50, deadline=None)
@given(seed=hst.integers(min_value=0, max_value=2**32 - 1),
       rate=hst.floats(min_value=0.0, max_value=0.1),
       k=hst.integers(min_value=0, max_value=DEFAULT_BLOCK + 4_999))
def test_decided_sum_is_the_blocked_sum_or_undecided(seed, rate, k):
    # terms falling like 2^(-rate i) over two blocks: the terms beyond k range
    # from none at all to most of the sum, and their rounded-up sum is the tail
    total = DEFAULT_BLOCK + 5_000
    terms = np.random.default_rng(seed).random(total) * np.exp2(-rate * np.arange(total))
    rest = math.fsum(terms[k:])
    got = stkernel._decided_sum(terms[:k], total, math.nextafter(rest, math.inf))
    want = sum_blocks(total, lambda lo, hi: math.fsum(terms[lo:hi]))
    assert got is None or got == want
    if rest == 0.0:
        assert got == want


def test_decided_sum_bounds_the_blocks_after_the_one_holding_the_prefix_end():
    # blocks 1.0 | 2^-53 | 2^-110: the first two sum to a tie that rounds to
    # 1.0, and the third block alone lifts the total to 1 + 2^-52, though it
    # cannot move the second block's sum
    terms = np.zeros(2 * DEFAULT_BLOCK + 1)
    terms[[0, DEFAULT_BLOCK, 2 * DEFAULT_BLOCK]] = 1.0, 2.0**-53, 2.0**-110
    assert sum_blocks(len(terms), lambda lo, hi: math.fsum(terms[lo:hi])) == 1.0 + 2.0**-52
    head = terms[:DEFAULT_BLOCK + 1]
    assert stkernel._decided_sum(head, len(terms), 2.0**-110) is None
    assert stkernel._decided_sum(head, len(terms), 0.0) == 1.0  # had the rest been 0


@pytest.mark.parametrize("spec", [RADICAL_SPEC, UNIT_SPEC], ids=lambda spec: spec.name)
def test_undecided_prefix_falls_back_to_the_full_table(table_1m, spec, monkeypatch):
    # a tail 2^40 times the true one cannot decide: the kernel must sum every
    # prime after the prefix, with the same bits
    decided_sum = stkernel._decided_sum
    monkeypatch.setattr(stkernel, "_decided_sum",
                        lambda head, total, tail: decided_sum(head, total, tail * 2.0**40))
    kernel = StKernel.for_spec(spec, table_1m, 1_000_000)
    counts = _term_counts(kernel)
    for s, t in [(8, 0.2), (5.45, 1.0)]:
        params = Params(s, t)
        _, want = _reference_sums(spec, table_1m, params, 1_000_000)
        assert repr(kernel.sums(params)) == repr(want)
    p_count = len(table_1m.upto(1_000_000))
    assert len(counts) == 4 and max(counts[::2]) < p_count and counts[1::2] == [p_count] * 2


MIN_GAP = 0.01  # t2 - t1: ratios of nearer t may round to the same double


@settings(max_examples=200, deadline=None)
@given(s=hst.floats(min_value=1.5, max_value=12.0),
       u=hst.floats(min_value=1e-6, max_value=1.0), v=hst.floats(min_value=0.0, max_value=0.999))
@example(s=8.0, u=0.02, v=0.0)   # both sums decided by a prefix of the primes
@example(s=3.0, u=0.5, v=0.5)    # both sums over the full table
def test_ratio_falls_as_t_rises(kernel_1m, s, u, v):
    # S/T is the T-weighted mean of 1/(1 - p^-s), which falls with p, and
    # raising t moves T-weight toward larger p (ROADMAP item 13): prime by
    # prime, so at every truncation, prefix-decided or not
    span = s - 1.0 - MIN_GAP
    t1 = span * u
    t2 = t1 + MIN_GAP + (span - t1) * v
    low, high = _in_region(s, t1), _in_region(s, t2)
    assume(low is not None and high is not None)
    assert kernel_1m.ratio(high).ratio < kernel_1m.ratio(low).ratio
