"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance is pinned here, none are tuned at runtime.

Truncation choices documented once: the derivative and identity criteria
run at N = P = 1e5; the monotone-improvement clause of criterion 4 holds
the prime truncation fixed at 1e5 while the n-limit drops to 1e3, matching
the criterion text, which varies only N.
"""

import functools
import math
import random
import time

import numpy as np
import pytest
from scipy.special import zeta

from radseries import (
    FactorSieve,
    IDENTITY_SPEC,
    Params,
    RADICAL_SPEC,
    UNIT_SPEC,
    euler_phi,
    identity_pass,
    product_d,
    radical,
    s_general,
    scan,
    series_d,
    series_d_log_m,
    series_d_log_n,
    sieve_primes,
    st_ratio,
    t_general,
    verify_theorem2,
)
from radseries.radical import radical_range
from radseries.stkernel import StKernel

from conftest import brute_phi, brute_rad, classes

POINTS = [(4.0, 1.0), (3.5, 1.0), (2.6, 0.5), (5.0, 2.5)]


def criterion(label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[ACCEPTANCE] {label}: FAIL")
                raise
            print(f"\n[ACCEPTANCE] {label}: PASS")
        return wrapper
    return deco


@pytest.fixture(scope="module")
def sieve_1m():
    return FactorSieve.build(1_000_000)


@pytest.fixture(scope="module")
def table_1m():
    return sieve_primes(1_000_000)


@criterion("criterion 1 (Euler product agreement, N = P = 1e6)")
def test_criterion_1_product_series_agreement(sieve_1m, table_1m):
    for s, t in POINTS:
        params = Params(s, t)
        start = time.monotonic()
        d = series_d(RADICAL_SPEC, sieve_1m, params, 1_000_000)
        pr = product_d(RADICAL_SPEC, table_1m, params, 1_000_000)
        elapsed = time.monotonic() - start
        gap = abs(d.value - pr.value)
        combined = d.tail_bound + pr.tail_bound
        assert gap <= combined, f"(s={s},t={t}): gap {gap} > {combined}"
        assert elapsed < 30.0, f"(s={s},t={t}): {elapsed:.1f}s"


@criterion("criterion 2 (derivative identities, h = 1e-5, N = P = 1e5)")
def test_criterion_2_derivative_checks(sieve_100k, table_100k):
    n_limit = p_limit = 100_000
    h = 1e-5
    for s, t in POINTS:
        params = Params(s, t)

        def ln_d(ss, tt):
            return math.log(series_d(RADICAL_SPEC, sieve_100k, Params(ss, tt), n_limit).value)

        fd_s = -(ln_d(s + h, t) - ln_d(s - h, t)) / (2 * h)
        fd_t = (ln_d(s, t + h) - ln_d(s, t - h)) / (2 * h)

        s_val = s_general(RADICAL_SPEC, table_100k, params, p_limit)
        t_val = t_general(RADICAL_SPEC, table_100k, params, p_limit)
        d = series_d(RADICAL_SPEC, sieve_100k, params, n_limit)
        num_s = series_d_log_n(RADICAL_SPEC, sieve_100k, params, n_limit)
        num_t = series_d_log_m(RADICAL_SPEC, sieve_100k, params, n_limit)

        # h^2-scaled third-moment bound, float rounding of the quotient,
        # gap between the N-truncated log-derivative and the full one, and
        # the prime-sum truncation itself
        curvature = h ** 2 / 6 * math.log(n_limit) ** 3
        rounding = 4e-15 / h
        gap_s = (num_s.tail_bound + (num_s.value / d.value) * d.tail_bound) / d.value
        gap_t = (num_t.tail_bound + (num_t.value / d.value) * d.tail_bound) / d.value
        tol_s = curvature + rounding + gap_s + s_val.tail_bound
        tol_t = curvature + rounding + gap_t + t_val.tail_bound
        assert abs(fd_s - s_val.value) <= tol_s, f"(s={s},t={t}) d/ds"
        assert abs(fd_t - t_val.value) <= tol_t, f"(s={s},t={t}) d/dt"


@criterion("criterion 3 (ratio bound on 20x20 grid + termwise sandwich, P = 1e5)")
def test_criterion_3_ratio_bound_grid(table_100k):
    prime_limit = 100_000
    p = table_100k.upto(prime_limit).astype(np.float64)
    one_ulp_of_one = math.ulp(1.0)
    for s in np.linspace(2.2, 8.0, 20):
        for t in np.linspace(0.2, s - 1.2, 20):
            params = Params(float(s), float(t))
            st = st_ratio(table_100k, params, prime_limit)
            lo, hi = st.ratio_interval
            assert 1.0 < lo <= hi < 2.0, f"(s={s},t={t}): [{lo},{hi}]"
            assert lo <= st.ratio <= hi  # closed enclosure; ties at float resolution

            t_terms, s_terms = StKernel(p, p).terms(params.s, params.t)
            assert np.all(t_terms > 0.0)
            assert np.all(s_terms < 2.0 * t_terms)
            assert np.all(s_terms >= t_terms)
            # strictness to float64 resolution: where the terms tie, the
            # true factor 1/(1 - p^-s) exceeds 1 by less than one ulp of 1.0
            tied = s_terms == t_terms
            if tied.any():
                assert np.all(np.power(p[tied], -params.s) < one_ulp_of_one)
            else:
                assert np.all(s_terms > t_terms)


@criterion("criterion 4 (zero identity, N = P = 1e5; improvement vs N = 1e3)")
def test_criterion_4_identity_residual(sieve_100k, table_100k):
    for s, t in POINTS:
        params = Params(s, t)
        fine = identity_pass(sieve_100k, table_100k, params, 100_000, 100_000)
        assert abs(fine.residual) <= fine.tolerance, f"(s={s},t={t})"
        coarse = identity_pass(sieve_100k, table_100k, params, 1_000, 100_000)
        norm_fine = abs(fine.residual) / fine.tolerance
        norm_coarse = abs(coarse.residual) / coarse.tolerance
        assert norm_fine < norm_coarse, \
            f"(s={s},t={t}): {norm_fine} !< {norm_coarse}"


def _prime_power_exponent(n):
    # returns k >= 1 if n = p^k, else 0
    d = 2
    while d * d <= n:
        if n % d == 0:
            k = 0
            while n % d == 0:
                n //= d
                k += 1
            return k if n == 1 else 0
        d += 1
    return 1


@criterion("criterion 5 (three-way split, classes over n <= 1e4)")
def test_criterion_5_split(sieve_100k, table_100k):
    ns = np.arange(1, 10_001)
    rad = radical_range(sieve_100k, 10_000)[ns]
    squarefree = [n for n in range(2, 10_001) if brute_rad(n) == n]
    prime_powers = [n for n in range(2, 10_001) if _prime_power_exponent(n) >= 2]
    for s, t in POINTS:
        params = Params(s, t)
        tiny = identity_pass(sieve_100k, table_100k, params, 4, 100_000)
        assert tiny.classification_counts[0] > 0, "Below empty at limit 4"
        assert tiny.classification_counts[2] > 0, "Above empty at limit 4"

        full = identity_pass(sieve_100k, table_100k, params, 10_000, 100_000)
        assert full.balance_gap <= full.tolerance, f"(s={s},t={t})"
        assert full.classification_counts[1] == 1  # exactly n = 1

        st = st_ratio(table_100k, params, 100_000)
        lo, hi = st.ratio_interval
        got = classes(ns, rad, lo, hi)  # got[n - 1] is the class of n
        assert got[0] == "equal"
        for n in squarefree:
            assert got[n - 1] == "below", f"squarefree n={n}: {got[n - 1]}"
        for n in prime_powers:
            assert got[n - 1] == "above", f"prime power n={n}: {got[n - 1]}"


@criterion("criterion 6 (theorem-2 scan c <= 1e4 + phi(c)/2 counts)")
def test_criterion_6_abc_scan(sieve_100k, table_100k):
    start = time.monotonic()
    params = Params(4, 1)
    c_max = 10_000
    # the exact pairs of these c are checked too, the rest by their count
    rng = random.Random(23)
    sample = [3, 4, 5, 6, 12, 30, 9973, 10_000] + [rng.randrange(3, c_max + 1) for _ in range(100)]
    kept = np.zeros(c_max + 1, dtype=bool)
    kept[sample] = True
    counts = np.zeros(c_max + 1, dtype=np.int64)
    a_kept, b_kept, c_kept = [], [], []

    def counted(batches):
        """The batches unchanged, with their rows counted per c on the way."""
        for batch in batches:
            counts[:] += np.bincount(batch.c, minlength=c_max + 1)
            rows = batch.take(kept[batch.c])
            a_kept.append(rows.a)
            b_kept.append(rows.b)
            c_kept.append(rows.c)
            yield batch

    report = verify_theorem2(counted(scan(sieve_100k, table_100k, params, c_max, 100_000)))
    assert report.counterexample_count == 0
    assert report.records_seen == counts.sum() > 0
    assert counts[:3].tolist() == [0, 0, 0]

    a_kept, b_kept, c_kept = (np.concatenate(col) for col in (a_kept, b_kept, c_kept))
    for c in range(3, c_max + 1):
        a = np.arange(1, c // 2 + 1)
        coprime = np.gcd(a, c - a) == 1
        want = int(np.count_nonzero(coprime))
        assert counts[c] == want, f"c={c}"
        assert want == euler_phi(sieve_100k, c) // 2
        if kept[c]:
            rows = c_kept == c
            assert a_kept[rows].tolist() == a[coprime].tolist(), f"c={c}"
            assert b_kept[rows].tolist() == (c - a[coprime]).tolist(), f"c={c}"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"{elapsed:.1f}s"


@criterion("criterion 7 (brute-force oracle equivalence up to 1e3)")
def test_criterion_7_oracles(sieve_100k):
    # radical: product of distinct trial divisors; phi: gcd count
    for n in range(1, 1_001):
        assert radical(sieve_100k, n) == brute_rad(n)
        assert euler_phi(sieve_100k, n) == brute_phi(n)

    for s, t in [(4.0, 1.0), (2.6, 0.5)]:
        params = Params(s, t)
        running = 0.0
        for limit in range(1, 1_001):
            running += radical(sieve_100k, limit) ** t / limit ** s
            got = series_d(RADICAL_SPEC, sieve_100k, params, limit).value
            assert got == pytest.approx(running, rel=1e-12), f"limit={limit}"


@criterion("criterion 8 (unit and identity specs against zeta)")
def test_criterion_8_generalized_sanity(sieve_100k, table_100k):
    n_limit = 100_000
    # float slack: both sides carry a few ulp of rounding the tail bound
    # cannot see; irrelevant wherever the tail dominates
    slack = 1e-12
    for s, t in POINTS:
        params = Params(s, t)

        for prime_limit in (2, 1_000, 100_000):
            tm = t_general(UNIT_SPEC, table_100k, params, prime_limit)
            assert tm.value == 0.0 and tm.tail_bound == 0.0

        unit = series_d(UNIT_SPEC, sieve_100k, params, n_limit)
        partial = math.fsum(1.0 / n ** s for n in range(1, n_limit + 1))
        assert unit.value == pytest.approx(partial, rel=1e-13)
        assert abs(float(zeta(s)) - unit.value) <= unit.tail_bound + slack

        ident = series_d(IDENTITY_SPEC, sieve_100k, params, n_limit)
        partial = math.fsum(n ** (t - s) for n in range(1, n_limit + 1))
        assert ident.value == pytest.approx(partial, rel=1e-13)
        assert abs(float(zeta(s - t)) - ident.value) <= ident.tail_bound + slack
