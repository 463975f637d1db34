import math

import mpmath
import numpy as np
import pytest

from radseries import (
    InvalidParamsError,
    OutOfRangeError,
    Params,
    RADICAL_SPEC,
    UNIT_SPEC,
    MultiplicativeSpec,
    radical,
    series_d,
    series_d_log_m,
    series_d_log_n,
)
from radseries import multfn
from radseries.numerics import DEFAULT_BLOCK
from radseries.radical import WINDOW, radical_range
from radseries.series import term_kernel

P41 = Params(4, 1)

# frozen from direct term-by-term arithmetic (see the oracle helpers below)
SERIES_41_N4 = 1.169849537037037          # 1 + 2/16 + 3/81 + 2/256
LOG_N_41_N3 = 0.12733274159473795         # (2/16)ln2 + (3/81)ln3
LOG_M_41_N4 = 0.13274795394286254         # (2/16)ln2 + (3/81)ln3 + (2/256)ln2


def naive_series(sieve, s, t, limit, weight=None):
    total = 0.0
    for n in range(1, limit + 1):
        r = radical(sieve, n)
        term = r ** t / n ** s
        if weight == "log_n":
            term *= math.log(n)
        elif weight == "log_m":
            term *= math.log(r)
        total += term
    return total


def test_params_validation():
    Params(4, 1)
    Params(2.2, 1.19)
    with pytest.raises(InvalidParamsError):
        Params(4, 0)
    with pytest.raises(InvalidParamsError):
        Params(4, -1)
    with pytest.raises(InvalidParamsError):
        Params(2, 1)     # s = 1 + t is outside
    with pytest.raises(InvalidParamsError):
        Params(1.5, 1)


def test_params_rejects_an_infinite_s():
    # inf > 1 + t holds, but no sum is computable there
    with pytest.raises(InvalidParamsError):
        Params(math.inf, 1.0)


def test_series_frozen_value(sieve_10k):
    got = series_d(RADICAL_SPEC, sieve_10k, P41, 4)
    assert got.value == pytest.approx(SERIES_41_N4, rel=1e-15)
    assert got.terms_used == 4
    assert got.tail_bound == pytest.approx(4 ** -2 / 2, rel=1e-15)


def test_series_single_term(sieve_10k):
    for spec in (RADICAL_SPEC, UNIT_SPEC):
        assert series_d(spec, sieve_10k, P41, 1).value == 1.0


def test_log_n_frozen_value(sieve_10k):
    assert series_d_log_n(RADICAL_SPEC, sieve_10k, P41, 1).value == 0.0
    got = series_d_log_n(RADICAL_SPEC, sieve_10k, P41, 3)
    assert got.value == pytest.approx(LOG_N_41_N3, rel=1e-15)


def test_log_m_frozen_value(sieve_10k):
    assert series_d_log_m(RADICAL_SPEC, sieve_10k, P41, 1).value == 0.0
    got = series_d_log_m(RADICAL_SPEC, sieve_10k, P41, 4)
    assert got.value == pytest.approx(LOG_M_41_N4, rel=1e-15)


def test_log_weights_monotone(sieve_10k):
    prev = 0.0
    for limit in range(1, 200):
        cur = series_d_log_n(RADICAL_SPEC, sieve_10k, P41, limit).value
        assert cur >= prev
        prev = cur


def test_log_m_equals_log_n_on_squarefree_prefix(sieve_10k):
    # n = 1, 2, 3 are squarefree, so R(n) = n and the two sums coincide
    a = series_d_log_n(RADICAL_SPEC, sieve_10k, P41, 3).value
    b = series_d_log_m(RADICAL_SPEC, sieve_10k, P41, 3).value
    assert a == pytest.approx(b, rel=1e-15)


def test_termwise_domination(sieve_10k):
    # every term R^t/n^s <= n^(t-s), so the sum is below the zeta partial sum
    for s, t in [(4, 1), (2.6, 0.5)]:
        params = Params(s, t)
        lhs = series_d(RADICAL_SPEC, sieve_10k, params, 5_000).value
        rhs = math.fsum(n ** (t - s) for n in range(1, 5_001))
        assert lhs <= rhs


def test_monotone_and_bounded_by_tail(sieve_10k):
    d1 = series_d(RADICAL_SPEC, sieve_10k, P41, 100)
    d2 = series_d(RADICAL_SPEC, sieve_10k, P41, 10_000)
    assert d2.value >= d1.value
    assert d2.value - d1.value <= d1.tail_bound
    assert d2.tail_bound < d1.tail_bound


def test_matches_naive_oracle(sieve_10k):
    for s, t in [(4, 1), (2.6, 0.5), (5, 2.5)]:
        params = Params(s, t)
        for limit in (1, 2, 17, 530, 1000):
            got = series_d(RADICAL_SPEC, sieve_10k, params, limit).value
            want = naive_series(sieve_10k, s, t, limit)
            assert got == pytest.approx(want, rel=1e-12)


def test_log_variants_match_naive_oracle(sieve_10k):
    params = Params(2.6, 0.5)
    for limit in (2, 100, 1000):
        got_n = series_d_log_n(RADICAL_SPEC, sieve_10k, params, limit).value
        got_m = series_d_log_m(RADICAL_SPEC, sieve_10k, params, limit).value
        assert got_n == pytest.approx(naive_series(sieve_10k, 2.6, 0.5, limit, "log_n"), rel=1e-12)
        assert got_m == pytest.approx(naive_series(sieve_10k, 2.6, 0.5, limit, "log_m"), rel=1e-12)


def test_unit_spec_zeta2():
    # zeta(2) = pi^2/6 as closed-form anchor; t is irrelevant for the unit
    # spec, so any t inside the region works.  The unit spec never factors
    # anything, so skip the value caches.
    from radseries import FactorSieve

    sieve = FactorSieve.build(1_000_000, cache_values=False)
    got = series_d(UNIT_SPEC, sieve, Params(2, 0.5), 1_000_000)
    assert abs(math.pi ** 2 / 6 - got.value) <= got.tail_bound
    assert got.tail_bound <= 1.01e-6


def test_unknown_growth_gives_value_only(sieve_10k):
    spec = MultiplicativeSpec(name="sqrt", value_at_prime_power=lambda p, k: p ** (k / 2))
    got = series_d(spec, sieve_10k, P41, 100)
    assert got.tail_bound is None
    assert got.value > 1.0


def test_declared_growth_tightens_rc(sieve_10k):
    # growth 2 at (4, 1): s - g*t = 2 > 1, tail exists; at (2.2, 1): 0.2, none
    spec = MultiplicativeSpec(
        name="square", value_at_prime_power=lambda p, k: p ** (2 * k),
        growth_exponent=2.0,
    )
    assert series_d(spec, sieve_10k, Params(4, 1), 100).tail_bound is not None
    assert series_d(spec, sieve_10k, Params(2.2, 1), 100).tail_bound is None


def test_series_memory_is_one_value_array_plus_chunks(traced_peak):
    # on a lean sieve R(n) is radical_range's one uint32 table, beside one
    # window of n / R(n) while it is formed and block-sized float64
    # temporaries while the terms are summed, not a float64 table of the
    # spf recurrence with a uint8 exponent per n
    from radseries import FactorSieve

    limit = 1_000_000
    sieve = FactorSieve.build(limit, cache_values=False)
    peak = traced_peak(lambda: series_d(RADICAL_SPEC, sieve, P41, limit))
    assert peak <= 4 * (limit + 1) + 4 * WINDOW + 8 * 8 * (1 << 16)


@pytest.fixture(scope="module")
def sieve_past_a_window():
    """A lean sieve to one window plus one summation block plus 7."""
    from radseries import FactorSieve

    return FactorSieve.build(WINDOW + DEFAULT_BLOCK + 7, cache_values=False)


@pytest.mark.parametrize("s, t", [(4, 1), (2.6, 0.5), (2.05, 1.0), (400.0, 350.0)])
def test_radical_series_runs_without_the_recurrence(monkeypatch, sieve_past_a_window, s, t):
    # the radical comes from the window kernel, so the spf recurrence is
    # never run for it; a copy of the spec, which only the recurrence
    # serves, gives the same bits.  Params(4, 1) has an integer t, and at
    # (400, 350) term_kernel takes its exp-log branch
    params = Params(s, t)
    radical_copy = MultiplicativeSpec("radical-copy", lambda p, k: p, growth_exponent=1.0)
    limits = (1, WINDOW, WINDOW + 1, WINDOW + DEFAULT_BLOCK + 7)
    kinds = (series_d, series_d_log_n, series_d_log_m)
    want = [kind(radical_copy, sieve_past_a_window, params, limit)
            for limit in limits for kind in kinds]

    def no_recurrence(*args, **kwargs):
        raise AssertionError("the radical series ran the spf recurrence")

    monkeypatch.setattr(multfn, "multiplicative_values", no_recurrence)
    got = [kind(RADICAL_SPEC, sieve_past_a_window, params, limit)
           for limit in limits for kind in kinds]
    assert [(r.value.hex(), r.tail_bound, r.terms_used) for r in got] == \
        [(r.value.hex(), r.tail_bound, r.terms_used) for r in want]
    threaded = series_d(RADICAL_SPEC, sieve_past_a_window, params, limits[-1], threads=2)
    assert threaded.value.hex() == want[-3].value.hex()


def test_limit_out_of_range(sieve_10k):
    with pytest.raises(OutOfRangeError):
        series_d(RADICAL_SPEC, sieve_10k, P41, 10_001)
    with pytest.raises(OutOfRangeError):
        series_d(RADICAL_SPEC, sieve_10k, P41, 0)


def test_threads_bit_identical(sieve_100k):
    serial = series_d(RADICAL_SPEC, sieve_100k, P41, 100_000, threads=1)
    threaded = series_d(RADICAL_SPEC, sieve_100k, P41, 100_000, threads=4)
    assert serial.value == threaded.value


@pytest.mark.parametrize("s, t", [(400.0, 350.0), (4.0, 1.0), (2.6, 0.5)])
def test_term_kernel_keeps_every_normal_term(sieve_10k, s, t):
    # at (400, 350) n^-s leaves the normal range from n = 7 while R(n)^t is
    # still finite; the plain product lost those terms (n = 8 gave 0.0)
    n = np.arange(1, 1_001, dtype=np.float64)
    r = radical_range(sieve_10k, 1_000)[1:].astype(np.float64)
    got = term_kernel(r, n, Params(s, t))
    tiny = float(np.finfo(np.float64).tiny)
    with np.errstate(over="ignore", invalid="ignore"):
        product = np.power(r, t) * np.power(n, -s)
    normal_n_s = np.power(n, -s) >= tiny
    assert got[normal_n_s].tobytes() == product[normal_n_s].tobytes()
    checked = 0
    with mpmath.workdps(50):
        for ni, ri, ai in zip(n.tolist(), r.tolist(), got.tolist()):
            want = mpmath.mpf(int(ri)) ** t / mpmath.mpf(int(ni)) ** s
            if want >= tiny:
                assert abs(ai - want) <= 1e-12 * want, (ni, ai, want)
                checked += 1
    assert checked >= 700
