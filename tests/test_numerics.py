import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radseries import RADICAL_SPEC, sieve_primes
from radseries.numerics import (
    DEFAULT_BLOCK,
    _level_sums,
    block_bounds,
    exact_parts,
    exact_sum,
    log_power_tail,
    power_tail,
    sum_blocks,
)
from radseries.stkernel import StKernel


def test_power_tail_covers_partial_tails():
    # the bound must exceed any finite continuation of the series
    for a in (1.1, 2.0, 3.0, 6.5):
        for limit in (1, 2, 10, 1_000):
            partial = math.fsum(n ** -a for n in range(limit + 1, 200_000))
            assert power_tail(limit, a) > partial


def test_log_power_tail_covers_partial_tails():
    # exercise the explicit-term patch at limit < 3 as well
    for a in (1.1, 2.0, 3.0):
        for limit in (1, 2, 3, 10, 1_000):
            partial = math.fsum(math.log(n) * n ** -a for n in range(limit + 1, 200_000))
            assert log_power_tail(limit, a) > partial


@pytest.mark.parametrize("limit", [1, 2, 10, 10 ** 6])
@pytest.mark.parametrize("a", [1.5e154, 1e160, 1.7976931348623157e308])
def test_log_power_tail_is_zero_where_the_power_underflows(limit, a):
    # (a - 1)^2 overflows past ~1.34e154, where max(limit, 3)^(1 - a) and the
    # explicit terms at n = 2, 3 are already 0.0
    assert log_power_tail(limit, a) == 0.0


def test_tails_shrink_with_limit():
    for fn in (power_tail, log_power_tail):
        values = [fn(limit, 2.5) for limit in (10, 100, 1_000, 10_000)]
        assert values == sorted(values, reverse=True)
        assert values[-1] > 0


def test_divergent_exponent_rejected():
    with pytest.raises(ValueError):
        power_tail(10, 1.0)
    with pytest.raises(ValueError):
        log_power_tail(10, 0.9)
    with pytest.raises(ValueError):
        power_tail(0, 2.0)
    with pytest.raises(ValueError):
        log_power_tail(0, 2.0)


def test_sum_blocks_matches_fsum():
    rng = np.random.default_rng(5)
    data = rng.normal(scale=1e6, size=300_001) + rng.normal(size=300_001)

    def block_sum(lo, hi):
        return math.fsum(data[lo:hi])

    want = math.fsum(math.fsum(data[lo:lo + (1 << 16)]) for lo in range(0, len(data), 1 << 16))
    assert sum_blocks(len(data), block_sum) == want


def test_sum_blocks_thread_count_invariant():
    data = np.linspace(0, 1, 200_000) ** 3

    def block_sum(lo, hi):
        return math.fsum(data[lo:hi])

    serial = sum_blocks(len(data), block_sum, threads=1)
    for threads in (2, 3, 8):
        assert sum_blocks(len(data), block_sum, threads=threads) == serial


def test_sum_blocks_empty():
    assert sum_blocks(0, lambda lo, hi: 1.0) == 0.0


def bits(x):
    return struct.pack("<d", x)


def outcome(fn, x):
    """The float's bits, or the exception type and message."""
    try:
        return bits(fn(x))
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


def assert_matches_fsum(x):
    x = np.asarray(x, dtype=np.float64)
    assert outcome(exact_sum, x) == outcome(math.fsum, x.tolist())


@st.composite
def float_arrays(draw):
    """Arrays of up to 3 blocks + 1 terms with a drawn exponent range and sign rule."""
    edges = [1, DEFAULT_BLOCK - 1, DEFAULT_BLOCK, DEFAULT_BLOCK + 1, 3 * DEFAULT_BLOCK + 1]
    n = draw(st.sampled_from(edges) | st.integers(0, 3 * DEFAULT_BLOCK + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo = draw(st.integers(-1080, 1023))
    hi = draw(st.integers(lo, 1023))
    mantissa = rng.uniform(1.0, 2.0, size=n)
    x = np.ldexp(mantissa, rng.integers(lo, hi, size=n, endpoint=True))
    signs = draw(st.sampled_from(["positive", "mixed", "negative", "zeros"]))
    if signs == "mixed":
        x *= rng.choice([-1.0, 1.0], size=n)
    elif signs == "negative":
        x = -x
    elif signs == "zeros":
        x = rng.choice([-0.0, 0.0], size=n) if draw(st.booleans()) else np.full(n, -0.0)
    if draw(st.booleans()):  # exact cancellations: pairs (v, -v), shuffled
        half = x[: n // 2]
        x = rng.permutation(np.concatenate([half, -half, x[2 * len(half):]]))
    return x


@settings(max_examples=60, deadline=None)
@given(float_arrays())
def test_exact_sum_equals_fsum_bitwise(x):
    assert_matches_fsum(x)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=64))
def test_exact_sum_equals_fsum_on_any_finite_floats(values):
    assert_matches_fsum(values)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(), min_size=1, max_size=16),
    st.integers(0, 2 * DEFAULT_BLOCK),
    st.integers(0, 2**32 - 1),
)
def test_exact_sum_non_finite_like_fsum(values, n, seed):
    # NaN / inf terms dropped at random places of a finite array, some in a later chunk
    x = np.random.default_rng(seed).normal(scale=1e300, size=n + len(values))
    where = np.random.default_rng(seed + 1).choice(len(x), size=len(values), replace=False)
    x[where] = values
    assert_matches_fsum(x)


def test_exact_sum_signed_zeros_and_empty():
    for x in ([], [-0.0], [-0.0] * 5, [0.0, -0.0], [1.0, -1.0, -0.0], [2.0**-1074, -(2.0**-1074)]):
        assert_matches_fsum(x)


def test_exact_sum_sigma_overflow_falls_back_to_fsum():
    # sigma = 2^(m + e) would pass 2^1023 for terms this large
    assert exact_sum(np.array([2.0**1023, 1.0, -(2.0**1023)])) == 1.0
    with pytest.raises(OverflowError):
        exact_sum(np.array([1e308, 1e308, -1e308]))
    assert_matches_fsum([1e308, 1e308, -1e308])
    with pytest.raises(ValueError):
        exact_sum(np.array([math.inf, 1.0, -math.inf]))


def test_exact_sum_across_a_chunk_boundary():
    # 2^60 closes the first block of terms and -2^60 opens the second:
    # rounding either block's total would lose the ones
    x = np.ones(DEFAULT_BLOCK + 1)
    x[DEFAULT_BLOCK - 1] = 2.0**60
    x[DEFAULT_BLOCK] = -(2.0**60)
    assert exact_sum(x) == DEFAULT_BLOCK - 1
    assert_matches_fsum(x)


def test_level_sums_stop_on_an_array_longer_than_a_block():
    # the stop decides fsum of the whole array, not of its first block
    rng = np.random.default_rng(7)
    n = 3 * DEFAULT_BLOCK + 1
    for x in (rng.uniform(0.0, 1.0, n), rng.uniform(-1.0, 1.0, n), np.ones(n)):
        want = math.fsum(x.tolist())
        assert _level_sums(x, True)[1] == want
        assert exact_sum(x) == want
    x = np.ldexp(rng.uniform(1.0, 2.0, n), rng.integers(-60, 60, n)) * rng.choice([-1.0, 1.0], n)
    assert _level_sums(x, True)[1] in (math.fsum(x.tolist()), None)
    assert_matches_fsum(x)


@settings(max_examples=40, deadline=None)
@given(float_arrays(), st.sampled_from(["contiguous", "strided", "reversed"]))
def test_exact_sum_leaves_its_input_unchanged(x, layout):
    # levels are peeled off in work buffers, never in the caller's array
    if layout == "contiguous":
        base = view = x
    else:
        base = np.empty(2 * len(x))
        base[1::2] = np.arange(len(x))
        base[::2] = x
        view = base[::2] if layout == "strided" else base[::-2]
    before = base.tobytes()
    assert outcome(exact_sum, view) == outcome(math.fsum, view.tolist())
    assert base.tobytes() == before


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.integers(0, 2 * DEFAULT_BLOCK),
    st.integers(0, 2**32 - 1),
)
def test_exact_sum_non_finite_behind_larger_terms_like_fsum(value, where, seed):
    # positive finite terms up to 1e300, so max(x) is finite and a -inf
    # shows only through min(x); the non-finite term may sit in a later chunk
    x = np.random.default_rng(seed).uniform(1e299, 1e300, size=2 * DEFAULT_BLOCK + 1)
    x[where] = value
    assert_matches_fsum(x)


@st.composite
def slices(draw):
    """A slice for exact_parts: empty, only signed zeros, or terms of magnitude
    2^-1074 (subnormal) up to 2^1000, with optional exact (v, -v)
    cancellations and optional NaN / inf terms."""
    kind = draw(st.sampled_from(["empty", "zeros", "terms"]))
    if kind == "empty":
        return np.empty(0)
    n = draw(st.integers(1, 300) | st.sampled_from([DEFAULT_BLOCK - 1, DEFAULT_BLOCK]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "zeros":
        return rng.choice([-0.0, 0.0], size=n) if draw(st.booleans()) else np.full(n, -0.0)
    lo = draw(st.integers(-1074, 999))
    hi = draw(st.integers(lo, 999))
    x = np.ldexp(rng.uniform(1.0, 2.0, size=n), rng.integers(lo, hi, size=n, endpoint=True))
    x *= rng.choice([-1.0, 1.0], size=n)
    if draw(st.booleans()):
        half = x[: n // 2]
        x = rng.permutation(np.concatenate([half, -half, x[2 * len(half):]]))
    special = draw(st.lists(st.sampled_from([math.nan, math.inf, -math.inf]), max_size=3))
    x[rng.choice(n, size=min(len(special), n), replace=False)] = special[:n]
    return x


@settings(max_examples=100, deadline=None)
@given(slices(), slices(), st.integers(0, 2**32 - 1))
def test_exact_parts_of_two_slices_sum_like_their_concatenation(a, b, seed):
    # the identity's class sums add the parts of one block after another
    joined = np.concatenate([a, b]).tolist()
    assert outcome(math.fsum, exact_parts(a) + exact_parts(b)) == outcome(math.fsum, joined)
    # and its block residual adds the parts of four classes interleaved in a
    label = np.random.default_rng(seed).integers(0, 4, size=len(a))
    classes = [part for i in range(4) for part in exact_parts(a[label == i])]
    assert outcome(math.fsum, classes) == outcome(math.fsum, a.tolist())


MIDPOINT_SIZES = [2, 3, 4, DEFAULT_BLOCK - 1, DEFAULT_BLOCK]


def midpoint_arrays(n):
    """Length-n arrays whose exact total is on, just above or just below
    1 + 2^-53, the midpoint between 1 and its successor, padded with zeros.
    Level 1 takes only the 1.0: the half ulp and the nudge that decide the
    rounding are all in its remainder."""
    half = 2.0**-53
    heads = [[1.0, half], [1.0, half + 2.0**-105], [1.0, half - 2.0**-106]]
    if n >= 3:
        heads += [[1.0, half, 2.0**-200], [1.0, half, -(2.0**-200)]]
    for head in heads:
        x = np.zeros(n)
        x[: len(head)] = head
        for scale in (1.0, -1.0, 2.0**-800, -(2.0**900)):
            yield x * scale
        yield x[::-1].copy()


@pytest.mark.parametrize("n", MIDPOINT_SIZES)
def test_exact_sum_at_a_rounding_midpoint(n):
    for x in midpoint_arrays(n):
        levels, decided = _level_sums(x, True)
        assert decided is None or len(levels) > 1  # level 1 left it open
        assert_matches_fsum(x)


@pytest.mark.parametrize("n", MIDPOINT_SIZES)
def test_exact_sum_of_an_exact_zero_total_keeps_fsums_sign(n):
    for head in ([-0.0], [1.0, -1.0], [1.0, 2.0**-60, -1.0, -(2.0**-60)], [2.0**-1074, -(2.0**-1074)]):
        if len(head) > n:
            continue
        for pad in (0.0, -0.0):
            x = np.full(n, pad)
            x[: len(head)] = head
            assert_matches_fsum(x)
            assert_matches_fsum(-x)


@st.composite
def midpoint_cases(draw):
    """Terms whose exact total is 0 or lies on, just above or just below the
    midpoint between a float v and its successor, shuffled among cancelling
    pairs (w, -w) and signed zeros.  The half ulp and the nudge lie below the
    first level's grid, so only its remainder decides the rounding."""
    n = draw(st.sampled_from(MIDPOINT_SIZES) | st.integers(2, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = draw(st.floats(2.0**-900, 2.0**900) | st.just(0.0))
    half = math.ulp(v) / 2 if v else 0.0
    shift = draw(st.integers(1, 52 if n == 2 else 200))
    nudge = draw(st.sampled_from([0.0, 1.0, -1.0])) * math.ldexp(half, -shift)
    head = [v, half + nudge] if n == 2 else [v, half, nudge]
    pairs = (n - len(head)) // 2
    spread = math.frexp(v)[1] + rng.integers(-60, 61, size=pairs) if v else rng.integers(-1000, 900, size=pairs)
    w = np.ldexp(rng.uniform(1.0, 2.0, size=pairs), spread)
    zeros = rng.choice([-0.0, 0.0], size=n - len(head) - 2 * pairs)
    x = rng.permutation(np.concatenate([head, w, -w, zeros]))
    return -x if draw(st.booleans()) else x


@settings(max_examples=80, deadline=None)
@given(midpoint_cases())
def test_exact_sum_equals_fsum_around_rounding_midpoints(x):
    assert_matches_fsum(x)


def test_st_blocks_stop_after_one_level():
    # the S/T sums of the benchmark point decide fsum's rounding on level 1
    limit = 1_000_000
    kernel = StKernel.for_spec(RADICAL_SPEC, sieve_primes(limit), limit)
    blocks = [terms[lo:hi] for terms in kernel.terms(4.0, 1.0) for lo, hi in block_bounds(len(terms))]
    once = 0
    for block in blocks:
        levels, decided = _level_sums(block, True)
        assert decided == math.fsum(block.tolist()) or decided is None
        once += decided is not None and len(levels) == 1
    assert once >= 0.9 * len(blocks)
