import math

import numpy as np
import pytest

from radseries import (
    IDENTITY_SPEC,
    OutOfRangeError,
    Params,
    RADICAL_SPEC,
    UNIT_SPEC,
    MultiplicativeSpec,
    UnsupportedSpecError,
    product_d,
    series_d,
)
from radseries.multfn import _radical_log_factor

P41 = Params(4, 1)


def test_single_factor(table_10k):
    got = product_d(RADICAL_SPEC, table_10k, P41, 2)
    assert got.value == pytest.approx(17 / 15, rel=1e-14)
    assert got.terms_used == 1


def test_two_factors(table_10k):
    got = product_d(RADICAL_SPEC, table_10k, P41, 3)
    assert got.value == pytest.approx((17 / 15) * (83 / 80), rel=1e-14)
    assert got.terms_used == 2


def test_factor_formula_against_direct_quotient(table_10k):
    # (p^s - 1 + p^t)/(p^s - 1) computed naively, for primes small enough
    for s, t in [(4.0, 1.0), (2.6, 0.5), (5.0, 2.5)]:
        for p in (2.0, 3.0, 97.0):
            direct = math.log((p ** s - 1 + p ** t) / (p ** s - 1))
            got = _radical_log_factor(np.array([p]), s, t)[0]
            assert got == pytest.approx(direct, rel=1e-13)


def test_t_to_zero_factor_becomes_zeta_factor():
    # as t -> 0 the local factor tends to p^s/(p^s - 1)
    for p in (2.0, 5.0):
        got = _radical_log_factor(np.array([p]), 4.0, 1e-13)[0]
        assert got == pytest.approx(math.log(p ** 4 / (p ** 4 - 1)), rel=1e-9)


def test_strictly_increasing_in_prime_limit(table_10k):
    prev = 0.0
    for prime_limit in (2, 3, 5, 7, 11, 100, 1_000, 10_000):
        cur = product_d(RADICAL_SPEC, table_10k, P41, prime_limit).value
        assert cur > prev
        prev = cur


def test_product_series_agreement(sieve_10k, table_10k):
    for s, t in [(4, 1), (3.5, 1), (2.6, 0.5), (5, 2.5)]:
        params = Params(s, t)
        d = series_d(RADICAL_SPEC, sieve_10k, params, 10_000)
        pr = product_d(RADICAL_SPEC, table_10k, params, 10_000)
        assert abs(d.value - pr.value) <= d.tail_bound + pr.tail_bound


def test_identity_and_unit_products_agree_with_series(sieve_10k, table_10k):
    # identity collapses to zeta(s-t), unit to zeta(s); cross-check via series
    for spec in (IDENTITY_SPEC, UNIT_SPEC):
        params = Params(3.5, 1)
        d = series_d(spec, sieve_10k, params, 10_000)
        pr = product_d(spec, table_10k, params, 10_000)
        assert abs(d.value - pr.value) <= d.tail_bound + pr.tail_bound


def test_tail_bound_covers_refinement(table_10k):
    coarse = product_d(RADICAL_SPEC, table_10k, P41, 100)
    fine = product_d(RADICAL_SPEC, table_10k, P41, 10_000)
    assert fine.value - coarse.value <= coarse.tail_bound
    assert coarse.tail_bound >= 0


def test_unsupported_spec_refused(table_10k):
    spec = MultiplicativeSpec(name="sqrt", value_at_prime_power=lambda p, k: p ** (k / 2))
    with pytest.raises(UnsupportedSpecError):
        product_d(spec, table_10k, P41, 100)


def test_prime_limit_out_of_range(table_10k):
    with pytest.raises(OutOfRangeError):
        product_d(RADICAL_SPEC, table_10k, P41, 10_001)
    with pytest.raises(OutOfRangeError):
        product_d(RADICAL_SPEC, table_10k, P41, 1)


def test_huge_s_no_overflow(table_10k):
    # p^s alone would overflow float64; the rewritten factor must stay finite
    params = Params(400.0, 1.0)
    got = product_d(RADICAL_SPEC, table_10k, params, 10_000)
    assert got.value == pytest.approx(1.0 + 2.0 ** (1 - 400), abs=1e-15)
    assert math.isfinite(got.tail_bound)


def test_tail_saturates_to_inf_instead_of_overflowing(table_10k):
    # s - t = 1.0001: the log tail is ~1e4, far past what expm1 can return
    got = product_d(RADICAL_SPEC, table_10k, Params(2.0001, 1.0), 10_000)
    assert math.isfinite(got.value)
    assert got.tail_bound == math.inf
