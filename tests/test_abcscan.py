import heapq
import math
import random
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from radseries import (
    AbcBatch,
    AbcRecord,
    FactorSieve,
    InvalidArgumentError,
    OutOfRangeError,
    Params,
    Theorem2Report,
    certify,
    factorize,
    identity_pass,
    radical,
    scan,
    st_ratio,
    verify_theorem2,
)
from radseries import abcscan
from radseries.radical import radical_range

from conftest import brute_rad, classes, reference_class, scaled_radical_range

P41 = Params(4, 1)


def brute_force_pairs(c):
    return [(a, c - a) for a in range(1, c // 2 + 1) if math.gcd(a, c - a) == 1]


def rows(batches):
    return [rec for batch in batches for rec in batch.records()]


def scanned_c_values(c_max, sample, seed):
    if sample is not None and sample < c_max - 2:
        return sorted(random.Random(seed).sample(range(3, c_max + 1), sample))
    return list(range(3, c_max + 1))


def reference_records(sieve, table, params, c_values, prime_limit):
    """Per-record scan: brute-force pairs and radicals in Python ints."""
    low, high = st_ratio(table, params, prime_limit).ratio_interval
    raw = []
    for c in c_values:
        hyp = reference_class(c, brute_rad(c), low, high) == "below"
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


def test_small_cases(sieve_10k, table_10k):
    (batch,) = scan(sieve_10k, table_10k, P41, 12, 10_000)

    def pairs(c):
        rows = batch.take(batch.c == c)
        return np.column_stack((rows.a, rows.b))

    assert pairs(5).tolist() == [[1, 4], [2, 3]]
    assert pairs(12).tolist() == [[1, 11], [5, 7]]
    assert pairs(3).tolist() == [[1, 2]]
    assert pairs(12).shape == (2, 2)
    assert batch.a.dtype == batch.b.dtype == np.int64


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
    for c_max in (0, 1, 2):
        with pytest.raises(OutOfRangeError):
            list(scan(sieve_10k, table_10k, P41, c_max, 10_000))
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


@pytest.fixture(scope="module")
def reference_records_400(sieve_10k, table_10k):
    """c -> the reference records of c, for every 3 <= c <= 400 at (4, 1), P = 10^4."""
    by_c = {c: [] for c in range(3, 401)}
    for rec in reference_records(sieve_10k, table_10k, P41, range(3, 401), 10_000):
        by_c[rec.c].append(rec)
    return by_c


@settings(max_examples=40, deadline=None)
@given(
    c_max=st.integers(3, 400),
    sample=st.one_of(st.none(), st.integers(0, 60)),
    seed=st.integers(0, 10_000),
    batch_pairs=st.integers(1, 300),
)
def test_scan_and_verify_match_references(sieve_10k, table_10k, reference_records_400,
                                          c_max, sample, seed, batch_pairs):
    with mock.patch.object(abcscan, "BATCH_PAIRS", batch_pairs):
        batches = list(scan(sieve_10k, table_10k, P41, c_max, 10_000, sample=sample, seed=seed))
    assert all(len(b.a) <= batch_pairs for b in batches)
    want = [rec for c in scanned_c_values(c_max, sample, seed) for rec in reference_records_400[c]]
    assert rows(batches) == want
    assert verify_theorem2(batches) == reference_verify(want)


# the bench's abc points: seed 0 and seed 7 of bench/workloads.draw_point
BENCH_POINTS = [P41, Params(3.589872775503066, 0.929533105933265)]


def full_scan_report(*args, **kwargs):
    """The report of every row: what certify must equal, field for field."""
    return verify_theorem2(scan(*args, **kwargs))


@settings(max_examples=60, deadline=None)
@given(
    params=st.sampled_from([P41, Params(1.67, 0.001), Params(100, 1)]),
    c_max=st.integers(3, 400),
    sample=st.one_of(st.none(), st.integers(0, 60)),
    seed=st.integers(0, 10_000),
    top=st.integers(1, 12),
)
# the best a = 1 row sets the threshold; without the pad its own bound
# rounds below it and it drops out of the top list
@example(params=P41, c_max=33, sample=None, seed=0, top=1)
def test_certify_equals_the_full_scan(sieve_10k, table_10k, params, c_max, sample, seed, top):
    # near the S/T supremum almost every c is hypothesis-true; at s = 100
    # the enclosure is [1, 1] and none is; small top lists put ties at the
    # boundary of the top-quality heap
    args = (sieve_10k, table_10k, params, c_max, 10_000)
    with mock.patch.object(abcscan, "TOP_QUALITY", top):
        got = certify(*args, sample=sample, seed=seed)
        assert got == full_scan_report(*args, sample=sample, seed=seed)
    assert len(got.top_quality) == min(top, got.records_seen)


@pytest.mark.parametrize("c_max", [2_000, 10_000])
@pytest.mark.parametrize("params", BENCH_POINTS, ids=["seed0", "seed7"])
def test_certify_equals_the_full_scan_at_the_bench_points(sieve_10k, table_100k, params, c_max):
    args = (sieve_10k, table_100k, params, c_max, 100_000)
    got = certify(*args)
    assert got == full_scan_report(*args)
    assert got.conclusion_true == got.records_seen and got.counterexamples == []


@pytest.mark.parametrize("c_max,sample", [(6, None), (5_000, 3), (5_000, 10), (5_000, 0)])
def test_certify_with_at_most_top_quality_c(sieve_10k, table_10k, c_max, sample):
    # 5 rows at c_max = 6; a sample of at most TOP_QUALITY c puts every row
    # in reach of the top list
    args = (sieve_10k, table_10k, P41, c_max, 10_000)
    got = certify(*args, sample=sample, seed=2)
    assert got == full_scan_report(*args, sample=sample, seed=2)
    assert len(got.top_quality) == min(abcscan.TOP_QUALITY, got.records_seen)


@pytest.mark.parametrize("all_below", [False, True])
def test_certify_on_a_doctored_radical_table(sieve_10k, table_10k, all_below):
    # spf in place of the radical gives rows whose conclusion fails, more of
    # them than the top list holds; with every c hypothesis-true they are
    # counterexamples too
    with mock.patch.object(abcscan, "radical_range", lambda sieve, n: sieve.spf[: n + 1]), \
            mock.patch.object(abcscan, "class_masks",
                              lambda ln_n, *_: (np.full(len(ln_n), all_below),) * 4):
        for sample in (None, 40):
            args = (sieve_10k, table_10k, P41, 400, 10_000)
            got = certify(*args, sample=sample)
            assert got == full_scan_report(*args, sample=sample)
            assert got.records_seen - got.conclusion_true > abcscan.TOP_QUALITY
            assert (got.counterexample_count > 0) == all_below


def test_certify_progress_once_per_c(sieve_10k, table_10k):
    for sample in (None, 30):
        calls = []
        certify(sieve_10k, table_10k, P41, 700, 10_000, sample=sample, seed=3,
                progress=lambda c, c_max: calls.append((c, c_max)))
        assert calls == [(c, 700) for c in scanned_c_values(700, sample, 3)]


def test_certify_checks_its_arguments(sieve_10k, table_10k):
    with pytest.raises(OutOfRangeError):
        certify(sieve_10k, table_10k, P41, 2, 10_000)
    with pytest.raises(OutOfRangeError):
        certify(sieve_10k, table_10k, P41, 10_001, 10_000)
    with pytest.raises(InvalidArgumentError, match="sample must be >= 0"):
        certify(sieve_10k, table_10k, P41, 100, 10_000, sample=-1)


def test_cmax_past_int64_radicals_is_refused_before_the_sieve(sieve_10k, table_10k):
    # 3037000500 is the largest c with c(c - 1) < 2^63, so certify's a = 1
    # product rad(c - 1) * rad(c) fits int64 up to it; past it the refusal
    # comes before the sieve's own range check
    c_max = 3_037_000_500
    assert c_max * (c_max - 1) < 2**63 <= (c_max + 1) * c_max
    for fn in (scan, certify):
        with pytest.raises(OutOfRangeError, match="must be <= 3037000500"):
            fn(sieve_10k, table_10k, P41, c_max + 1, 10_000)
        with pytest.raises(OutOfRangeError, match="sieve limit 10000"):
            fn(sieve_10k, table_10k, P41, c_max, 10_000)


@pytest.fixture(scope="module")
def sieve_2m():
    return FactorSieve.build(2_100_000)


def test_rad_abc_at_cmax_2_1e6_is_exact_int64(sieve_2m, table_100k):
    # rad(a) rad(b) rad(c) <= c^3 / 4 < 2^63 here, so every batch is int64.
    # The seed is one whose sample holds c > 2e6, asserted below.
    batches = list(scan(sieve_2m, table_100k, P41, 2_100_000, 100_000, sample=3, seed=142))
    c_values = sorted({c for batch in batches for c in batch.c.tolist()})
    assert sum(c > 2_000_000 for c in c_values) >= 2
    assert all(batch.rad_abc.dtype == np.int64 for batch in batches)
    # the brute-force pairs by np.gcd, one c at a time
    want_a = [np.arange(1, c // 2 + 1) for c in c_values]
    want_a = [a[np.gcd(a, c - a) == 1] for a, c in zip(want_a, c_values)]
    counts = [len(a) for a in want_a]
    want_c = np.repeat(c_values, counts)
    want_a = np.concatenate(want_a)
    a, b, c, r, _, conclusion, quality = (np.concatenate(col) for col in zip(*batches))
    assert np.array_equal(a, want_a) and np.array_equal(b, want_c - want_a)
    assert np.array_equal(c, want_c)
    rad = radical_range(sieve_2m, 2_100_000).astype(np.int64)  # the table is uint32
    want = rad[a] * rad[b] * rad[c]
    assert np.array_equal(r, want)
    # exact: float64 holds want below 2^53, and above it want^2 is far past c
    assert np.array_equal(conclusion, c < want.astype(np.float64) ** 2)
    ln_c = np.repeat([math.log(x) for x in c_values], counts)
    assert np.array_equal(quality, ln_c / np.log(want.astype(np.float64)))
    step = len(a) // 50
    for a, b, c, r in zip(*(col[::step].tolist() for col in (a, b, c, r))):
        assert r == brute_rad(a) * brute_rad(b) * brute_rad(c)


@pytest.mark.parametrize("top", [2, 10])
def test_certify_at_cmax_2_1e6(sieve_2m, table_100k, top):
    # the sample of test_rad_abc_at_cmax_2_1e6_is_exact_int64: three c, so
    # with a top list of 10 every row is in reach, and with 2 only the
    # candidate rows are formed
    args = (sieve_2m, table_100k, P41, 2_100_000, 100_000)
    with mock.patch.object(abcscan, "TOP_QUALITY", top):
        got = certify(*args, sample=3, seed=142)
        assert got == full_scan_report(*args, sample=3, seed=142)


def test_certify_where_neighbour_radicals_pass_uint32(table_10k):
    # three c above 2^17, two of them with c - 1 and c squarefree: each a = 1
    # product rad(c - 1) rad(c) passes 2^32 - 1, the uint32 tables' range, so
    # certify must form it in int64 to find the threshold q0
    args = (FactorSieve.build(200_000), table_10k, P41, 200_000, 10_000)
    c_values = [143_192, 157_238, 195_434]
    assert scanned_c_values(200_000, 3, 116) == c_values
    assert all(brute_rad(c - 1) * brute_rad(c) > 2**32 - 1 for c in c_values)
    assert sum(brute_rad(c - 1) * brute_rad(c) == (c - 1) * c for c in c_values) == 2
    with mock.patch.object(abcscan, "TOP_QUALITY", 2):
        assert certify(*args, sample=3, seed=116) == full_scan_report(*args, sample=3, seed=116)


def test_certify_forms_only_rows_that_reach_their_threshold(table_10k):
    # certify's candidate filter compares rad(x) rad(y) with B_c, and some of
    # the products it forms here pass 2^32 - 1: formed in uint32 they would
    # wrap, and this sample would form a row below its threshold theta_c
    sieve = FactorSieve.build(3_000_000, cache_values=False)
    args = (sieve, table_10k, P41, 3_000_000, 10_000)
    formed, batch = [], abcscan._batch

    def recording_batch(*batch_args):
        formed.append(batch(*batch_args))
        return formed[-1]

    with mock.patch.object(abcscan, "_batch", recording_batch):
        certify(*args, sample=40, seed=1)
    # theta_c from the a = 1 rows, as certify defines it
    a_is_1 = np.ones(1, dtype=np.int64)
    with mock.patch.object(abcscan, "BATCH_PAIRS", 1 << 40), \
            mock.patch.object(abcscan, "_coprime_a", lambda *_: a_is_1):
        (first,) = scan(*args, sample=40, seed=1)
    q0 = np.sort(first.quality)[-abcscan.TOP_QUALITY]
    q0_below = min(q0, first.quality[first.hypothesis].max(initial=-np.inf))
    theta = dict(zip(first.c.tolist(), np.minimum(np.where(first.hypothesis, q0_below, q0), 2)))
    assert formed
    for rows in formed:
        assert all(q >= theta[c] * (1 - 2**-28) for c, q in zip(rows.c.tolist(),
                                                                 rows.quality.tolist()))


def test_batch_quality_does_not_depend_on_rad_abc_column_type(sieve_10k):
    # A triple keeps its quality in a batch of Python ints.  math.log and
    # np.log differ in the last bit at each rad_abc below: 9170, 19143 and
    # 94869 through a hand-made radical table (rad[1] * rad[2] * rad[3] = r
    # for the row 1 + 2 = 3), 6852494 as the real row 41 + 1136 = 1177.
    # Appending the row 1 + n = n + 1 with rad(n) = rad(n + 1) = 2^32 makes
    # the batch's products pass 2^63, so it holds Python ints.
    cases = [(np.array([0, 1, 1, r], dtype=np.int64), 3, 1) for r in (9170, 19143, 94869)]
    cases.append((radical_range(sieve_10k, 1177), 1177, 41))
    for rad, c, a in cases:
        a = abcscan._coprime_a([p for p, _ in factorize(sieve_10k, c)], a, a + 1)
        assert len(a) == 1
        cs = [c, len(rad) + 1]
        per_c = (np.array(cs), np.array([True, True]), np.array([math.log(x) for x in cs]),
                 np.array([math.isqrt(x) for x in cs]))
        fixed = abcscan._batch(rad, per_c, np.array([0]), a)
        wide = abcscan._batch(np.append(rad, [2**32, 2**32]), per_c, np.array([0, 1]),
                              np.append(a, 1))
        assert fixed.rad_abc.dtype == np.int64 and wide.rad_abc.dtype == object
        assert wide.rad_abc.tolist()[1] == 2**64
        assert wide.rad_abc.tolist()[:1] == fixed.rad_abc.tolist()
        assert wide.quality.tolist()[:1] == fixed.quality.tolist()


def test_rad_abc_past_int64_is_exact_python_ints(sieve_10k, table_10k):
    # batches of 4096 pairs: the early ones fit int64, the later ones pass
    # 2^63 and hold Python ints; certify's report is that of the mixed scan
    args = (sieve_10k, table_10k, P41, 400, 10_000)
    with mock.patch.object(abcscan, "radical_range", scaled_radical_range), \
            mock.patch.object(abcscan, "BATCH_PAIRS", 4096):
        batches = list(scan(*args))
        assert certify(*args) == verify_theorem2(batches)
    rad = scaled_radical_range(sieve_10k, 400).tolist()
    widths = []
    for batch in batches:
        a, b, c, r = (col.tolist() for col in batch[:4])
        want = [rad[x] * rad[y] * rad[z] for x, y, z in zip(a, b, c)]
        fits = max(rad[x] * rad[y] for x, y in zip(a, b)) * max(rad[z] for z in c) < 2**63
        assert batch.rad_abc.dtype == (np.int64 if fits else object)
        assert r == want and {type(x) for x in r} == {int}
        assert batch.conclusion.tolist() == [z < w * w for z, w in zip(c, want)]
        assert batch.quality.tolist() == [
            math.log(z) / float(np.log(np.float64(w))) for z, w in zip(c, want)]
        widths.append(fits)
    assert True in widths and False in widths
    assert max(batches[-1].rad_abc.tolist()) >= 2**63


@pytest.mark.parametrize("prime_limit", [10_000, 100_000])
@pytest.mark.parametrize("s,t", [(4, 1), (2.6, 0.5), (5, 2.5)])
def test_every_classification_matches_the_scalar_oracle(sieve_100k, table_100k, s, t,
                                                        prime_limit):
    # class_masks over the whole range, the identity split and the scan's
    # hypothesis column against the math.log rule for every n <= 1e5; the
    # coarse prime limit leaves many n ambiguous at (2.6, 0.5)
    params, limit = Params(s, t), 100_000
    low, high = st_ratio(table_100k, params, prime_limit).ratio_interval
    rad = radical_range(sieve_100k, limit).tolist()
    want = [reference_class(n, rad[n], low, high) for n in range(1, limit + 1)]
    assert classes(np.arange(1, limit + 1), rad[1:], low, high) == want

    split = identity_pass(sieve_100k, table_100k, params, limit, prime_limit)
    counts = Counter(want)
    assert split.classification_counts == (counts["below"], counts["equal"], counts["above"])
    assert split.ambiguous_count == counts["ambiguous"]

    # only the always-coprime pair (1, c - 1) per c, in one batch: the scan
    # stays linear in c_max and still classifies every c
    a_is_1 = np.ones(1, dtype=np.int64)
    with mock.patch.object(abcscan, "BATCH_PAIRS", 1 << 40), \
            mock.patch.object(abcscan, "_coprime_a", lambda *_: a_is_1):
        batches = list(scan(sieve_100k, table_100k, params, limit, prime_limit))
    assert np.concatenate([b.c for b in batches]).tolist() == list(range(3, limit + 1))
    hypothesis = np.concatenate([b.hypothesis for b in batches]).tolist()
    assert hypothesis == [w == "below" for w in want[2:]]
