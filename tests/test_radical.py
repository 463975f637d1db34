import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radseries import (
    FactorSieve,
    InvalidArgumentError,
    OutOfRangeError,
    euler_phi,
    factorize,
    is_squarefree,
    radical,
)
from radseries.radical import _spf_sieve, radical_range

from conftest import brute_phi, brute_rad


def strided_rad(spf):
    """Radical by one strided multiply per prime (the former sieve kernel)."""
    rad = np.ones(len(spf), dtype=np.int64)
    for p in np.flatnonzero(spf[2:] == np.arange(2, len(spf))) + 2:
        rad[p:: p] *= p
    return rad


def strided_phi(spf):
    """Totient by one strided phi -= phi // p per prime (the former sieve kernel)."""
    phi = np.arange(len(spf), dtype=np.int64)
    for p in np.flatnonzero(spf[2:] == np.arange(2, len(spf))) + 2:
        sl = phi[p:: p]
        sl -= sl // int(p)
    return phi


def assert_values_match_strided(sieve):
    assert sieve.spf.dtype == sieve.rad.dtype == sieve.phi.dtype == np.uint32
    assert np.array_equal(sieve.rad, strided_rad(sieve.spf)), sieve.limit
    assert np.array_equal(sieve.phi, strided_phi(sieve.spf)), sieve.limit


def test_radical_small(sieve_10k):
    assert radical(sieve_10k, 1) == 1
    assert radical(sieve_10k, 12) == 6
    assert radical(sieve_10k, 360) == 30
    assert radical(sieve_10k, 30) == 30


def test_phi_small(sieve_10k):
    assert euler_phi(sieve_10k, 1) == 1
    assert euler_phi(sieve_10k, 12) == 4
    for p in (2, 3, 5, 7, 97, 9973):
        assert euler_phi(sieve_10k, p) == p - 1


def test_squarefree_small(sieve_10k):
    assert is_squarefree(sieve_10k, 1)
    assert not is_squarefree(sieve_10k, 4)
    assert is_squarefree(sieve_10k, 30)


def test_out_of_range(sieve_10k):
    for bad in (0, -3, 10_001):
        with pytest.raises(OutOfRangeError):
            radical(sieve_10k, bad)
        with pytest.raises(OutOfRangeError):
            euler_phi(sieve_10k, bad)
        with pytest.raises(OutOfRangeError):
            is_squarefree(sieve_10k, bad)


def test_agrees_with_oracles_up_to_1e4(sieve_10k):
    for n in range(1, 10_001):
        r = radical(sieve_10k, n)
        assert r == brute_rad(n), f"radical({n})"
        assert (r == n) == is_squarefree(sieve_10k, n)
        assert r <= n
    # phi oracle is quadratic; sample densely below 2000, sparsely above
    for n in list(range(1, 2001)) + list(range(2001, 10_001, 127)):
        assert euler_phi(sieve_10k, n) == brute_phi(n), f"phi({n})"


def test_scalar_queries_match_strided_kernels_up_to_1e4():
    # the scalar queries factor n, so this check reads no cached value array
    lean = FactorSieve.build(10_000, cache_values=False)
    rad, phi = strided_rad(lean.spf).tolist(), strided_phi(lean.spf).tolist()
    for n in range(1, 10_001):
        assert radical(lean, n) == rad[n], n
        assert euler_phi(lean, n) == phi[n], n


def test_multiplicative_on_coprime_pairs(sieve_10k):
    rng = random.Random(7)
    done = 0
    while done < 300:
        m = rng.randrange(2, 100)
        n = rng.randrange(2, 100)
        if math.gcd(m, n) != 1:
            continue
        assert radical(sieve_10k, m * n) == radical(sieve_10k, m) * radical(sieve_10k, n)
        assert euler_phi(sieve_10k, m * n) == euler_phi(sieve_10k, m) * euler_phi(sieve_10k, n)
        done += 1


def test_factorize(sieve_10k):
    assert factorize(sieve_10k, 1) == []
    assert factorize(sieve_10k, 360) == [(2, 3), (3, 2), (5, 1)]
    assert factorize(sieve_10k, 9973) == [(9973, 1)]
    for n in range(2, 500):
        prod = 1
        for p, k in factorize(sieve_10k, n):
            prod *= p ** k
        assert prod == n


def test_uncached_queries_match(sieve_10k):
    lean = FactorSieve.build(2_000, cache_values=False)
    assert lean.rad is None and lean.phi is None
    for n in range(1, 2_001):
        assert radical(lean, n) == radical(sieve_10k, n)
        assert euler_phi(lean, n) == euler_phi(sieve_10k, n)
        assert is_squarefree(lean, n) == is_squarefree(sieve_10k, n)


def test_radical_range(sieve_10k):
    arr = radical_range(sieve_10k, 1_000)
    for n in range(1, 1_001):
        assert int(arr[n]) == radical(sieve_10k, n)
    with pytest.raises(OutOfRangeError):
        radical_range(sieve_10k, 10_001)


def test_dump_load_roundtrip(tmp_path, sieve_10k):
    path = tmp_path / "sieve.bin"
    small = FactorSieve.build(5_000)
    small.dump(path)
    loaded = FactorSieve.load(path)
    assert loaded.limit == 5_000
    assert np.array_equal(loaded.spf, small.spf)
    for n in (1, 12, 4999, 5000):
        assert radical(loaded, n) == radical(sieve_10k, n)


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"not a sieve dump at all")
    with pytest.raises(InvalidArgumentError):
        FactorSieve.load(path)
    path.write_bytes(b"")
    with pytest.raises(InvalidArgumentError):
        FactorSieve.load(path)


@pytest.mark.parametrize("limit", [0, -1])
def test_build_rejects_a_limit_below_1(limit):
    with pytest.raises(InvalidArgumentError, match=f"sieve limit must be >= 1, got {limit}"):
        FactorSieve.build(limit)


def test_load_rejects_truncated_payload(tmp_path):
    path = tmp_path / "cut.bin"
    FactorSieve.build(100).dump(path)
    data = path.read_bytes()
    path.write_bytes(data[:-16])
    with pytest.raises(InvalidArgumentError):
        FactorSieve.load(path)


def test_spf_invariants(sieve_10k):
    spf = sieve_10k.spf
    for n in range(2, 3_000):
        p = int(spf[n])
        assert n % p == 0
        assert int(spf[p]) == p  # p prime iff fixed point


def test_value_sieves_match_strided_kernels_for_every_small_limit():
    for limit in range(1, 301):
        assert_values_match_strided(FactorSieve.build(limit))


@pytest.mark.parametrize("k", range(1, 18))
def test_value_sieves_match_strided_kernels_at_block_edges(k):
    # the recurrence runs over blocks [2^j, 2^(j+1)); cut the last block
    # one short of, at, and one past a power of two
    for limit in (2 ** k - 1, 2 ** k, 2 ** k + 1):
        if limit >= 1:
            assert_values_match_strided(FactorSieve.build(limit))


@pytest.mark.parametrize("limit", [
    2 ** 17 + 2 ** 16 - 1, 2 ** 17 + 2 ** 16 + 1, 2 ** 18 - 1, 2 ** 18 + 1, 2 ** 19 + 3,
])
def test_value_sieves_match_strided_kernels_at_chunk_edges(limit):
    # past 2^17 the blocks are cut into chunks of 2^16: end one short of,
    # and one past, a chunk edge, and a few past 2^19
    assert_values_match_strided(FactorSieve.build(limit))


@pytest.mark.parametrize("cache_values, kept_arrays", [(True, 3), (False, 1)])
def test_build_memory_is_the_kept_arrays_plus_chunks(traced_peak, cache_values, kept_arrays):
    # spf is kept, and rad and phi when cached, at 4 bytes per n; the value
    # passes add a few chunk-sized temporaries at a time, however large the limit
    limit = 1_000_000
    kept = kept_arrays * 4 * (limit + 1)
    peak = traced_peak(lambda: FactorSieve.build(limit, cache_values=cache_values))
    assert peak <= kept + 8 * 8 * (1 << 16)


def test_dump_writes_the_table_without_a_copy(tmp_path, traced_peak):
    sieve = FactorSieve.build(1_000_000, cache_values=False)
    path = tmp_path / "sieve.bin"
    assert traced_peak(lambda: sieve.dump(path)) < sieve.spf.nbytes // 8
    assert path.read_bytes()[24:] == sieve.spf.astype("<i8").tobytes()


@pytest.mark.parametrize("spf", [
    np.arange(101, dtype=">i8"), np.arange(101, dtype=np.int32), np.arange(202)[::2] // 2,
], ids=["big-endian", "int32", "strided"])
def test_dump_converts_any_table_to_little_endian_int64(tmp_path, spf):
    path = tmp_path / "sieve.bin"
    FactorSieve(limit=100, spf=spf).dump(path)
    assert path.read_bytes()[24:] == np.arange(101, dtype="<i8").tobytes()


# numpy addresses 8 (limit + 1) <= intp max bytes, and np.arange rounds its
# length to float64 first; from half that on, 8 (limit + 1) bytes are 4 EiB
# or more, past any physical memory
LARGEST = (np.iinfo(np.intp).max + 1) // 16 - 1


@pytest.mark.parametrize("limit", [
    LARGEST + 1, 2 ** 60 - 2, 2 ** 60 - 1, 2 ** 61 - 1, 2 ** 62, 2 ** 63 - 1, 2 ** 64,
])
def test_build_rejects_a_table_numpy_cannot_allocate(traced_peak, limit):
    def build():
        with pytest.raises(OutOfRangeError, match=f"sieve limit {limit} does not fit in memory"):
            FactorSieve.build(limit)
    assert traced_peak(build) < 2 ** 16


def test_largest_allowed_limit_is_refused_as_memory():
    # 4 EiB: past any physical memory, refused before anything is allocated
    with pytest.raises(OutOfRangeError, match=f"sieve limit {LARGEST} does not fit in memory"):
        FactorSieve.build(LARGEST)


def test_limit_past_uint32_is_refused_after_the_memory_check(monkeypatch, traced_peak):
    # with memory for its 48 GiB of tables, 2^32 is refused because uint32
    # cannot hold n = 2^32, before any table is allocated
    monkeypatch.setattr(sys.modules["radseries.radical"], "_physical_memory", lambda: 2 ** 40)

    def build():
        with pytest.raises(OutOfRangeError,
                           match=f"^sieve limit {2 ** 32} must be <= {2 ** 32 - 1} for uint32"):
            FactorSieve.build(2 ** 32)
    assert traced_peak(build) < 2 ** 16


@pytest.mark.parametrize("limit", [1, 1_000, 65_537])
def test_tables_take_4_bytes_per_n(limit):
    sieve = FactorSieve.build(limit)
    assert sieve.spf.nbytes == sieve.rad.nbytes == sieve.phi.nbytes == 4 * (limit + 1)


@pytest.mark.parametrize("cache_values, per_n", [(True, 12), (False, 4)])
def test_size_rule_counts_4_bytes_per_kept_table(monkeypatch, cache_values, per_n):
    limit = 1_000
    radical_module = sys.modules["radseries.radical"]
    monkeypatch.setattr(radical_module, "_physical_memory", lambda: per_n * (limit + 1))
    assert FactorSieve.build(limit, cache_values=cache_values).limit == limit
    monkeypatch.setattr(radical_module, "_physical_memory", lambda: per_n * (limit + 1) - 1)
    with pytest.raises(OutOfRangeError, match=f"^sieve limit {limit} does not fit in memory$"):
        FactorSieve.build(limit, cache_values=cache_values)


@pytest.mark.parametrize("cache_values", [True, False])
def test_load_memory_is_a_build_plus_a_chunk(tmp_path, traced_peak, cache_values):
    # the payload is read and compared a chunk at a time after the build
    path = tmp_path / "sieve.bin"
    FactorSieve.build(1_000_000, cache_values=False).dump(path)
    build = traced_peak(lambda: FactorSieve.build(1_000_000, cache_values=cache_values))
    load = traced_peak(lambda: FactorSieve.load(path, cache_values=cache_values))
    assert load <= build + 2 * 2 ** 20


def test_lean_radical_range_equals_cached_rad():
    cached = FactorSieve.build(70_000)
    lean = FactorSieve.build(70_000, cache_values=False)
    for n_max in (0, 1, 2, 3, 4, 65_535, 65_536, 65_537, 70_000):
        got = radical_range(lean, n_max)
        assert got.dtype == np.uint32
        assert np.array_equal(got, cached.rad[: n_max + 1]), n_max


def test_spf_sieve_matches_trial_division():
    spf = _spf_sieve(3_000)
    for n in range(2, 3_001):
        assert int(spf[n]) == next(d for d in range(2, n + 1) if n % d == 0)


def corrupt_dump(path, limit, edits):
    # an int64 copy, so an edit may hold any value a dump can
    spf = FactorSieve.build(limit, cache_values=False).spf.astype(np.int64)
    for n, p in edits.items():
        spf[n] = p
    FactorSieve(limit=limit, spf=spf).dump(path)


@pytest.mark.parametrize("edits", [
    {10: 3},            # wrong divisor: 3 does not divide 10
    {9: 9},             # composite marked prime
    {15: 5},            # a prime divisor, but not the smallest one
    {20: 4},            # divides 20 and is below spf[5], but composite
    {30: 30},           # composite fixed point
    {7: 1},             # below 2
    {0: 1},             # sentinel
    {1: 0},             # sentinel
    {99_999: 99_999},   # last entry (3 * 33333)
])
def test_load_rejects_corrupt_spf(tmp_path, edits):
    path = tmp_path / "corrupt.bin"
    corrupt_dump(path, 99_999, edits)
    for cache_values in (True, False):
        with pytest.raises(InvalidArgumentError, match="corrupt sieve dump"):
            FactorSieve.load(path, cache_values=cache_values)


def test_load_checks_every_chunk(tmp_path, monkeypatch):
    monkeypatch.setattr(sys.modules["radseries.radical"], "_CHUNK", 7)
    path = tmp_path / "sieve.bin"
    FactorSieve.build(1_000).dump(path)
    assert np.array_equal(FactorSieve.load(path).rad, FactorSieve.build(1_000).rad)
    corrupt_dump(path, 1_000, {999: 37})
    with pytest.raises(InvalidArgumentError, match=r"spf\[999\] = 37"):
        FactorSieve.load(path)


@st.composite
def corruptions(draw):
    """(limit, index, value): one entry of the spf table of limit made wrong."""
    limit = draw(st.integers(1, 2_000))
    index = draw(st.integers(0, limit))
    true = int(FactorSieve.build(limit, cache_values=False).spf[index])
    value = draw(st.one_of(st.integers(-3, limit + 3), st.integers(-2 ** 63, 2 ** 63 - 1))
                 .filter(lambda v: v != true))
    return limit, index, value


@settings(max_examples=150, deadline=None)
@given(corruptions(), st.booleans())
def test_any_single_entry_corruption_is_rejected_at_its_index(
        tmp_path_factory, corruption, cache_values):
    limit, index, value = corruption
    path = tmp_path_factory.mktemp("dump") / "corrupt.bin"
    corrupt_dump(path, limit, {index: value})
    with pytest.raises(InvalidArgumentError,
                       match=rf"corrupt sieve dump: spf\[{index}\] = {value} is not"):
        FactorSieve.load(path, cache_values=cache_values)


@pytest.mark.parametrize("cache_values", [True, False])
def test_load_returns_the_sieve_build_returns(tmp_path, cache_values):
    path = tmp_path / "sieve.bin"
    built = FactorSieve.build(70_000, cache_values=cache_values)
    built.dump(path)
    loaded = FactorSieve.load(path, cache_values=cache_values)
    assert loaded.limit == built.limit
    for name in ("spf", "rad", "phi"):
        got, want = getattr(loaded, name), getattr(built, name)
        if want is None:
            assert got is None, name
        else:
            assert got.dtype == want.dtype == np.uint32 and np.array_equal(got, want), name


@pytest.fixture
def no_build(monkeypatch):
    monkeypatch.setattr(FactorSieve, "build", classmethod(
        lambda cls, *a, **k: pytest.fail("build ran before the payload was checked")))


def test_header_limit_is_checked_against_the_payload_before_build(tmp_path, no_build):
    # the header claims 2^62 entries: a build from it could never be allocated
    path = tmp_path / "claims.bin"
    FactorSieve(limit=100, spf=np.arange(101, dtype=np.int64)).dump(path)
    data = bytearray(path.read_bytes())
    data[16:24] = (2 ** 62).to_bytes(8, "little")
    path.write_bytes(bytes(data))
    with pytest.raises(InvalidArgumentError, match=f"payload holds 808 bytes, expected {8 * (2 ** 62 + 1)}"):
        FactorSieve.load(path)


@pytest.mark.parametrize("extra_bytes", [3, 8])
def test_load_rejects_a_partial_or_extra_entry(tmp_path, no_build, extra_bytes):
    path = tmp_path / "long.bin"
    FactorSieve(limit=100, spf=np.arange(101, dtype=np.int64)).dump(path)
    path.write_bytes(path.read_bytes() + bytes(extra_bytes))
    with pytest.raises(InvalidArgumentError, match=f"payload holds {808 + extra_bytes} bytes, "
                                                   "expected 808 for limit 100"):
        FactorSieve.load(path)


def test_load_rejects_limit_zero(tmp_path):
    path = tmp_path / "zero.bin"
    FactorSieve(limit=0, spf=np.zeros(1, dtype=np.int64)).dump(path)
    with pytest.raises(InvalidArgumentError, match=f"{path}: sieve limit must be >= 1"):
        FactorSieve.load(path)
