import heapq
import math
import random
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radseries import (
    AbcBatch,
    AbcRecord,
    Classification,
    FactorSieve,
    InvalidArgumentError,
    OutOfRangeError,
    Params,
    Theorem2Report,
    classify_interval,
    decompositions,
    euler_phi,
    identity_pass,
    radical,
    scan,
    st_ratio,
    verify_theorem2,
)
from radseries import abcscan
from radseries.radical import radical_range

P41 = Params(4, 1)


def brute_force_pairs(c):
    return [(a, c - a) for a in range(1, c // 2 + 1) if math.gcd(a, c - a) == 1]


def brute_rad(n):
    """Radical by trial division, in Python ints."""
    r, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            r *= p
            while n % p == 0:
                n //= p
        p += 1
    return r * n if n > 1 else r


def rows(batches):
    return [rec for batch in batches for rec in batch.records()]


def scanned_c_values(c_max, sample, seed):
    if sample is not None and sample < c_max - 2:
        return sorted(random.Random(seed).sample(range(3, c_max + 1), sample))
    return list(range(3, c_max + 1))


def reference_class(n, rad_n, low, high):
    """The class rule as scalar math.log comparisons: the oracle for the
    package's one vectorised rule."""
    ln_n, ln_r = math.log(n), math.log(rad_n)
    if ln_n == 0.0 and ln_r == 0.0:
        return Classification.EQUAL
    if ln_n < low * ln_r:
        return Classification.BELOW
    if ln_n > high * ln_r:
        return Classification.ABOVE
    return Classification.AMBIGUOUS


def reference_records(sieve, table, params, c_values, prime_limit):
    """Per-record scan: brute-force pairs and radicals in Python ints."""
    low, high = st_ratio(table, params, prime_limit).ratio_interval
    raw = []
    for c in c_values:
        hyp = reference_class(c, brute_rad(c), low, high) is Classification.BELOW
        for a, b in brute_force_pairs(c):
            r = brute_rad(a) * brute_rad(b) * brute_rad(c)
            raw.append((a, b, c, r, hyp, c < r * r))
    # quality's documented arithmetic: math.log(c) / np.log(float64(rad_abc))
    ln_rad = np.log(np.array([row[3] for row in raw], dtype=np.float64)).tolist()
    return [AbcRecord(*row, math.log(row[2]) / lr) for row, lr in zip(raw, ln_rad)]


def test_empty_report_has_empty_lists():
    report = Theorem2Report()
    assert report.counterexamples == [] and report.top_quality == []
    assert report.counterexample_count == 0


def reference_verify(records, *, keep_top=10):
    """Record-at-a-time reducer: the oracle for the batch reducer."""
    report = Theorem2Report(counterexamples=[])
    heap = []
    tie = 0
    best = None
    for rec in records:
        report.records_seen += 1
        if rec.conclusion_holds:
            report.conclusion_true += 1
        if rec.hypothesis_holds:
            report.hypothesis_true += 1
            if not rec.conclusion_holds:
                report.counterexamples.append(rec)
            if best is None or rec.quality > best:
                best = rec.quality
        else:
            report.hypothesis_false += 1
        if len(heap) < keep_top:
            heapq.heappush(heap, (rec.quality, tie, rec))
            tie += 1
        elif rec.quality > heap[0][0]:
            heapq.heapreplace(heap, (rec.quality, tie, rec))
            tie += 1
    report.max_quality_hypothesis = best
    report.top_quality = [r for _, _, r in sorted(heap, reverse=True)]
    return report


def test_small_cases(sieve_10k):
    assert decompositions(sieve_10k, 5).tolist() == [[1, 4], [2, 3]]
    assert decompositions(sieve_10k, 12).tolist() == [[1, 11], [5, 7]]
    assert decompositions(sieve_10k, 3).tolist() == [[1, 2]]
    assert decompositions(sieve_10k, 12).shape == (2, 2)
    assert decompositions(sieve_10k, 12).dtype == np.int64


def test_c_too_small(sieve_10k):
    for c in (0, 1, 2):
        with pytest.raises(OutOfRangeError):
            decompositions(sieve_10k, c)
    with pytest.raises(OutOfRangeError):
        decompositions(sieve_10k, 10_001)


def test_counts_match_phi_and_brute_force(sieve_10k):
    rng = random.Random(23)
    sample = [3, 4, 5, 6, 12, 30, 9973, 10_000] + [rng.randrange(3, 10_001) for _ in range(100)]
    for c in sample:
        pairs = decompositions(sieve_10k, c)
        assert pairs.tolist() == [list(p) for p in brute_force_pairs(c)]
        assert len(pairs) == euler_phi(sieve_10k, c) // 2


def test_record_1_8_9(sieve_10k, table_10k):
    # 9 = 3^2 is a prime power: hypothesis fails (Above class), yet the
    # conclusion 9 < R(72)^2 = 36 still holds
    recs = {(r.a, r.b, r.c): r for r in rows(scan(sieve_10k, table_10k, P41, 9, 10_000))}
    r = recs[(1, 8, 9)]
    assert r.rad_abc == 6
    assert not r.hypothesis_holds
    assert r.conclusion_holds


def test_record_1_2_3(sieve_10k, table_10k):
    recs = {(r.a, r.b, r.c): r for r in rows(scan(sieve_10k, table_10k, P41, 3, 10_000))}
    r = recs[(1, 2, 3)]
    assert r.rad_abc == 6
    assert r.hypothesis_holds      # 3 is squarefree
    assert r.conclusion_holds      # 3 < 36


def test_records_pairwise_coprime_and_multiplicative_radical(sieve_10k, table_10k):
    for r in rows(scan(sieve_10k, table_10k, P41, 60, 10_000)):
        assert r.a + r.b == r.c
        assert r.a <= r.b
        assert math.gcd(r.a, r.b) == 1
        assert math.gcd(r.a, r.c) == 1
        assert math.gcd(r.b, r.c) == 1
        want = radical(sieve_10k, r.a) * radical(sieve_10k, r.b) * radical(sieve_10k, r.c)
        assert r.rad_abc == want
        assert r.conclusion_holds == (r.c < r.rad_abc ** 2)
        assert r.quality == pytest.approx(math.log(r.c) / math.log(r.rad_abc), rel=1e-15)


def test_squarefree_c_hypothesis_true(sieve_10k, table_10k):
    from radseries import is_squarefree
    for r in rows(scan(sieve_10k, table_10k, P41, 100, 10_000)):
        if is_squarefree(sieve_10k, r.c):
            assert r.hypothesis_holds
            assert r.conclusion_holds  # the implication, record by record


def test_high_quality_triple_surfaces(sieve_10k, table_10k):
    report = verify_theorem2(scan(sieve_10k, table_10k, P41, 100, 10_000))
    top = {(r.a, r.b, r.c): r for r in report.top_quality}
    assert (1, 80, 81) in top
    assert top[(1, 80, 81)].quality == pytest.approx(math.log(81) / math.log(30), rel=1e-12)
    assert report.top_quality[0].quality == max(r.quality for r in report.top_quality)


def test_verify_no_counterexamples(sieve_10k, table_10k):
    report = verify_theorem2(scan(sieve_10k, table_10k, P41, 500, 10_000))
    assert report.counterexample_count == 0
    assert report.records_seen == report.hypothesis_true + report.hypothesis_false
    assert report.hypothesis_true > 0
    assert report.hypothesis_false > 0
    assert report.max_quality_hypothesis is not None


def test_verify_empty_records():
    report = verify_theorem2([])
    assert report.records_seen == 0
    assert report.counterexample_count == 0
    assert report.top_quality == []
    assert report.max_quality_hypothesis is None


def test_sample_mode_deterministic(sieve_10k, table_10k):
    a = rows(scan(sieve_10k, table_10k, P41, 2_000, 10_000, sample=25, seed=42))
    b = rows(scan(sieve_10k, table_10k, P41, 2_000, 10_000, sample=25, seed=42))
    assert a == b
    c_values = sorted({r.c for r in a})
    assert len(c_values) == 25
    assert [r.c for r in a] == sorted(r.c for r in a)


def test_scan_bounds(sieve_10k, table_10k):
    with pytest.raises(OutOfRangeError):
        list(scan(sieve_10k, table_10k, P41, 2, 10_000))
    with pytest.raises(OutOfRangeError):
        list(scan(sieve_10k, table_10k, P41, 10_001, 10_000))


def test_scan_rejects_negative_sample_when_called(sieve_10k, table_10k):
    with pytest.raises(InvalidArgumentError, match="sample must be >= 0"):
        scan(sieve_10k, table_10k, P41, 100, 10_000, sample=-1)
    assert list(scan(sieve_10k, table_10k, P41, 100, 10_000, sample=0)) == []


def test_scan_computes_st_when_called(sieve_10k, table_10k):
    # T underflows to 0.0 at s = 1100: the error comes before any batch
    with pytest.raises(OutOfRangeError, match="T underflows"):
        scan(sieve_10k, table_10k, Params(1100.0, 2.0), 100, 10_000)


def test_scan_ascending_order(sieve_10k, table_10k):
    recs = rows(scan(sieve_10k, table_10k, P41, 40, 10_000))
    keys = [(r.c, r.a) for r in recs]
    assert keys == sorted(keys)


def test_batches_are_capped_columns(sieve_10k, table_10k):
    batches = list(scan(sieve_10k, table_10k, P41, 1_000, 10_000))
    assert len(batches) > 1
    for batch in batches:
        n = len(batch.a)
        assert 0 < n <= abcscan.BATCH_PAIRS
        assert all(len(col) == n for col in batch)
        assert batch.rad_abc.dtype == np.int64
        assert batch.hypothesis.dtype == bool and batch.conclusion.dtype == bool
        assert batch.quality.dtype == np.float64
        assert np.array_equal(batch.a + batch.b, batch.c)


def test_progress_once_per_c_before_its_rows(sieve_10k, table_10k):
    calls = []
    seen = set()
    for batch in scan(sieve_10k, table_10k, P41, 700, 10_000,
                      progress=lambda c, c_max: calls.append((c, c_max))):
        seen.update(batch.c.tolist())
        assert seen <= {c for c, _ in calls}
    assert calls == [(c, 700) for c in range(3, 701)]


def test_records_match_brute_force_reference(sieve_10k, table_10k):
    got = rows(scan(sieve_10k, table_10k, P41, 300, 10_000))
    assert got == reference_records(sieve_10k, table_10k, P41, range(3, 301), 10_000)


def test_report_matches_reference_full_scan(sieve_10k, table_10k):
    # ~1M candidate pairs: many batches, most of them ending inside a c
    for params, c_max in ((P41, 2_000), (Params(2.6, 0.5), 1_000)):
        recs = rows(scan(sieve_10k, table_10k, params, c_max, 10_000))
        for keep_top in (10, 1):
            with mock.patch.object(abcscan, "TOP_QUALITY", keep_top):
                got = verify_theorem2(scan(sieve_10k, table_10k, params, c_max, 10_000))
            assert got == reference_verify(recs, keep_top=keep_top)


def test_report_matches_reference_sample(sieve_10k, table_10k):
    recs = rows(scan(sieve_10k, table_10k, P41, 10_000, 10_000, sample=30, seed=5))
    got = verify_theorem2(scan(sieve_10k, table_10k, P41, 10_000, 10_000, sample=30, seed=5))
    assert got == reference_verify(recs)
    assert got.top_quality == reference_verify(recs).top_quality


def test_top_quality_tie_at_the_boundary_keeps_the_earlier_row():
    # a row enters only by beating the lowest kept quality
    a = np.arange(1, 4, dtype=np.int64)
    q = np.full(3, 0.9)
    yes = np.ones(3, dtype=bool)
    batch = AbcBatch(a, 100 - a, np.full(3, 100), 30 * a, yes, yes, q)
    with mock.patch.object(abcscan, "TOP_QUALITY", 1):
        assert [r.a for r in verify_theorem2([batch]).top_quality] == [1]
    with mock.patch.object(abcscan, "TOP_QUALITY", 2):
        assert [r.a for r in verify_theorem2([batch]).top_quality] == [2, 1]


def test_report_matches_reference_on_forced_counterexamples():
    # Hand-built batches: counterexample rows and quality ties, split over batches.
    q = np.array([0.5, 0.9, 0.9, 0.1, 0.9, 0.95, 0.2, 0.95])
    hyp = np.array([True, True, False, True, True, False, True, True])
    concl = np.array([True, False, True, False, True, True, True, False])
    a = np.arange(1, 9, dtype=np.int64)
    full = AbcBatch(a, 100 - a, np.full(8, 100), 30 * a, hyp, concl, q)
    batches = [full.take(slice(0, 3)), full.take(slice(3, 3)), full.take(slice(3, 8))]
    for keep_top in (0, 1, 3, 20):
        with mock.patch.object(abcscan, "TOP_QUALITY", keep_top):
            got = verify_theorem2(batches)
        if keep_top:
            assert got == reference_verify(full.records(), keep_top=keep_top)
        assert got.counterexamples == list(full.take(hyp & ~concl).records())


@settings(max_examples=40, deadline=None)
@given(
    c_max=st.integers(3, 400),
    sample=st.one_of(st.none(), st.integers(0, 60)),
    seed=st.integers(0, 10_000),
    batch_pairs=st.integers(1, 300),
)
def test_scan_and_verify_match_references(sieve_10k, table_10k, c_max, sample, seed, batch_pairs):
    with mock.patch.object(abcscan, "BATCH_PAIRS", batch_pairs):
        batches = list(scan(sieve_10k, table_10k, P41, c_max, 10_000, sample=sample, seed=seed))
    assert all(len(b.a) <= batch_pairs for b in batches)
    want = reference_records(sieve_10k, table_10k, P41,
                             scanned_c_values(c_max, sample, seed), 10_000)
    assert rows(batches) == want
    assert verify_theorem2(batches) == reference_verify(want)


@pytest.fixture(scope="module")
def sieve_2m():
    return FactorSieve.build(2_100_000)


def test_exact_rad_abc_above_int64_safe_cmax(sieve_2m, table_100k):
    # c_max above 2e6: rad_abc is an object column of Python ints; the
    # quality divides by np.log of the integer rounded to float64, as in
    # the int64 path.  The seed is one whose sample holds c > 2e6, asserted
    # below.
    batches = list(scan(sieve_2m, table_100k, P41, 2_100_000, 100_000, sample=3, seed=142))
    c_values = sorted({c for batch in batches for c in batch.c.tolist()})
    assert sum(c > 2_000_000 for c in c_values) >= 2
    assert all(batch.rad_abc.dtype == object for batch in batches)
    rad = radical_range(sieve_2m, 2_100_000).tolist()
    got = [row for batch in batches for row in zip(*(col.tolist() for col in batch))]
    assert [(a, b) for a, b, *_ in got] == [p for c in c_values for p in brute_force_pairs(c)]
    for a, b, c, r, _, conclusion, quality in got:
        want = rad[a] * rad[b] * rad[c]
        assert type(r) is int and r == want
        assert conclusion == (c < want * want)
        assert quality == math.log(c) / float(np.log(float(want)))
    for a, b, c, r, *_ in got[:: len(got) // 50]:
        assert r == brute_rad(a) * brute_rad(b) * brute_rad(c)


def test_batch_quality_does_not_depend_on_rad_abc_column_type(sieve_10k):
    # c_max > 2e6 switches rad_abc to Python ints; a triple must keep its
    # quality.  math.log and np.log differ in the last bit at each rad_abc
    # below: 9170, 19143 and 94869 through a hand-made radical table
    # (rad[1] * rad[2] * rad[3] = r for the row 1 + 2 = 3), 6852494 as the
    # real row 41 + 1136 = 1177.
    cases = [(np.array([0, 1, 1, r], dtype=np.int64), 3, 1) for r in (9170, 19143, 94869)]
    cases.append((radical_range(sieve_10k, 1177), 1177, 41))
    for rad, c, a in cases:
        per_c = (np.array([c]), np.array([True]), np.array([math.log(c)]),
                 np.array([math.isqrt(c)]))
        part = (0, abcscan._coprime_a(abcscan._prime_divisors(sieve_10k, c), a, a + 1))
        exact, fixed = (abcscan._batch(rad, per_c, [part], flag) for flag in (True, False))
        assert exact.rad_abc.dtype == object and fixed.rad_abc.dtype == np.int64
        assert len(fixed.quality) == 1
        assert exact.rad_abc.tolist() == fixed.rad_abc.tolist()
        assert exact.quality.tolist() == fixed.quality.tolist()


@pytest.mark.parametrize("prime_limit", [10_000, 100_000])
@pytest.mark.parametrize("s,t", [(4, 1), (2.6, 0.5), (5, 2.5)])
def test_every_classification_matches_the_scalar_oracle(sieve_100k, table_100k, s, t,
                                                        prime_limit):
    # classify_interval, the identity split and the scan's hypothesis column
    # against the math.log rule for every n <= 1e5; the coarse prime limit
    # leaves many n AMBIGUOUS at (2.6, 0.5)
    params, limit = Params(s, t), 100_000
    low, high = st_ratio(table_100k, params, prime_limit).ratio_interval
    rad = radical_range(sieve_100k, limit).tolist()
    want = [reference_class(n, rad[n], low, high) for n in range(1, limit + 1)]
    assert [classify_interval(sieve_100k, n, low, high) for n in range(1, limit + 1)] == want

    split = identity_pass(sieve_100k, table_100k, params, limit, prime_limit)
    counts = Counter(want)
    assert split.classification_counts == (
        counts[Classification.BELOW], counts[Classification.EQUAL], counts[Classification.ABOVE])
    assert split.ambiguous_count == counts[Classification.AMBIGUOUS]

    # only the always-coprime pair (1, c - 1) per c, in one batch: the scan
    # stays linear in c_max and still classifies every c
    a_is_1 = np.ones(1, dtype=np.int64)
    with mock.patch.object(abcscan, "BATCH_PAIRS", 1 << 40), \
            mock.patch.object(abcscan, "_coprime_a", lambda *_: a_is_1):
        batches = list(scan(sieve_100k, table_100k, params, limit, prime_limit))
    assert np.concatenate([b.c for b in batches]).tolist() == list(range(3, limit + 1))
    hypothesis = np.concatenate([b.hypothesis for b in batches]).tolist()
    assert hypothesis == [w is Classification.BELOW for w in want[2:]]
