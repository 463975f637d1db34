"""Smallest-prime-factor sieve: radical, totient, squarefree test, factorization.

One O(limit) pass builds the spf array; each scalar query then factors n
in O(log n) divisions.  With ``cache_values`` on (the default), the radical
and totient are also stored as parallel arrays, but only ``radical_range``
reads one: a lean sieve (``cache_values=False``) forms the radical of a
whole range from spf on demand.  The CLI builds and loads lean sieves
only.  Every entry of the three tables is at most n, so each is uint32, 4
bytes per n, and a limit past 2^32 - 1 is refused; a caller widens to
int64 before it multiplies two entries.  ``multiplicative_values`` is the
one kernel for a multiplicative function over a range: a recurrence over
spf, in chunked vectorized passes whose temporaries are bounded by the
chunk, not by limit.  It gives rad and phi (in one pass when both are
cached) and every spec's M(n) (``multfn.range_values``).  A loaded dump is
checked exactly against the sieve built for its limit (each limit has one
spf table), reading the payload _CHUNK entries at a time after the build.
A dump holds spf as little-endian int64, whatever the table's own dtype.
The sieve is immutable after construction and all queries are pure.
``table_fits`` is the one size rule for this table and the prime table,
and ``FactorSieve.build`` is the one place a sieve limit is refused.
``radical_window`` needs no sieve: it forms the radicals of one window of
consecutive n from the primes up to sqrt(n), and ``radical_range`` stays
its reference.
"""

from __future__ import annotations

import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, OutOfRangeError

_DUMP_MAGIC = b"RADSIEVE"
_DUMP_VERSION = 1
_DUMP_HEADER = struct.Struct("<8sIIQ")  # magic, version, reserved, limit
_CHUNK = 1 << 16  # entries per vectorized pass over spf, and per dump read
_WRITE_CHUNK = 1 << 14  # entries per dump write, converted to int64 one piece at a time
_SPF_MAX = np.iinfo(np.uint32).max  # the largest limit whose tables hold every n


def _physical_memory() -> int:
    """Bytes of physical memory on this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


@contextmanager
def table_fits(limit: int, nbytes: int):
    """The block that builds the table of sieve limit ``limit``, nbytes long:
    refused before it runs when nbytes exceeds physical memory, and on a
    MemoryError in it."""
    message = f"sieve limit {limit} does not fit in memory"
    if nbytes > _physical_memory():
        raise OutOfRangeError(message)
    try:
        yield
    except MemoryError:
        raise OutOfRangeError(message) from None


@dataclass(frozen=True)
class FactorSieve:
    """Factor oracle for 1 <= n <= limit.

    spf[n] is the smallest prime factor of n (spf[p] = p exactly for
    primes; spf[0] = 0 and spf[1] = 1 are sentinels).
    """

    limit: int
    spf: np.ndarray  # uint32, as are rad and phi
    rad: np.ndarray | None = field(default=None, repr=False)
    phi: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def build(cls, limit: int, *, cache_values: bool = True) -> "FactorSieve":
        """The sieve to ``limit``.  Its refusals come before any table is
        allocated, in this order: a limit below 1, tables beyond physical
        memory (``table_fits``), a limit past 2^32 - 1."""
        if limit < 1:
            raise InvalidArgumentError(f"sieve limit must be >= 1, got {limit}")
        with table_fits(limit, (12 if cache_values else 4) * (limit + 1)):
            if limit > _SPF_MAX:
                raise OutOfRangeError(f"sieve limit {limit} must be <= {_SPF_MAX} for uint32 tables")
            spf = _spf_sieve(limit)
            rad, phi = multiplicative_values(spf, _RAD, _PHI) if cache_values else (None, None)
        return cls(limit=limit, spf=spf, rad=rad, phi=phi)

    def check_range(self, n: int) -> None:
        if n < 1 or n > self.limit:
            raise OutOfRangeError(f"n={n} outside [1, sieve limit {self.limit}]")

    def dump(self, path) -> None:
        """Write a versioned binary image (magic, limit, spf payload as
        little-endian int64, converted _WRITE_CHUNK entries at a time)."""
        try:
            with open(path, "wb") as fh:
                fh.write(_DUMP_HEADER.pack(_DUMP_MAGIC, _DUMP_VERSION, 0, self.limit))
                for lo in range(0, len(self.spf), _WRITE_CHUNK):
                    fh.write(self.spf[lo:lo + _WRITE_CHUNK].astype("<i8"))
        except OSError as exc:
            raise InvalidArgumentError(f"cannot write sieve dump {path}: {exc}") from None

    @classmethod
    def load(cls, path, *, cache_values: bool = True) -> "FactorSieve":
        """The sieve of the dump's limit, if the dump holds exactly its spf table; the
        header and payload length are checked before the build, the payload streamed after."""
        try:
            with open(path, "rb") as fh:
                header = fh.read(_DUMP_HEADER.size)
                if len(header) < _DUMP_HEADER.size:
                    raise InvalidArgumentError(f"{path}: truncated sieve header")
                magic, version, _reserved, limit = _DUMP_HEADER.unpack(header)
                if magic != _DUMP_MAGIC:
                    raise InvalidArgumentError(f"{path}: not a sieve dump")
                if version != _DUMP_VERSION:
                    raise InvalidArgumentError(f"{path}: unsupported version {version}")
                if limit < 1:
                    raise InvalidArgumentError(f"{path}: sieve limit must be >= 1, got {limit}")
                size = os.fstat(fh.fileno()).st_size - _DUMP_HEADER.size
                if size != 8 * (limit + 1):
                    raise InvalidArgumentError(f"{path}: payload holds {size} bytes, "
                                               f"expected {8 * (limit + 1)} for limit {limit}")
                sieve = cls.build(limit, cache_values=cache_values)
                for lo in range(0, limit + 1, _CHUNK):
                    spf = sieve.spf[lo:lo + _CHUNK]
                    payload = np.frombuffer(fh.read(8 * len(spf)), dtype="<i8")
                    if not np.array_equal(payload, spf):
                        bad = lo + int(np.argmin(payload == spf))
                        raise InvalidArgumentError(
                            f"{path}: corrupt sieve dump: spf[{bad}] = {int(payload[bad - lo])} "
                            f"is not the smallest prime factor of {bad}")
        except OSError as exc:
            raise InvalidArgumentError(f"cannot read sieve dump {path}: {exc}") from None
        return sieve


def _spf_sieve(limit: int) -> np.ndarray:
    spf = np.arange(limit + 1, dtype=np.uint32)
    for p in range(2, int(limit ** 0.5) + 1):
        if spf[p] == p:
            sl = spf[p * p:: p]
            np.minimum(sl, p, out=sl)
    return spf


def multiplicative_values(spf: np.ndarray, *rules) -> list[np.ndarray]:
    """A multiplicative f over n = 0..len(spf)-1 for each (dtype, f0, extend) rule.

    With p = spf[n], m = n // p and k the exponent of p in n,

        f[n] = extend(f[m], p, k),

    called on arrays of f[m] (a fresh copy the rule may overwrite), of the
    primes p in spf's dtype and of the exponents k as uint8.  k is 1 unless
    spf[m] == p, and then the exponent of p in m plus one, kept in one uint8
    per n.  Every m <= n // 2 lies below a chunk [lo, hi) with hi <= 2 lo,
    so each chunk is one vectorized pass over finished values (the
    recurrence of Gries & Misra's linear sieve, CACM 1978).  The chunks
    double up to _CHUNK entries and then stay at that size, so the passes
    number ~log2(_CHUNK) + limit / _CHUNK and their temporaries stay
    cache-sized.
    f[1] = 1, and f[0] = f0 is a sentinel.
    """
    size = len(spf)
    values = []
    for dtype, f0, _ in rules:
        f = np.empty(size, dtype=dtype)
        f[:2] = 1
        f[:1] = f0
        values.append(f)
    exponent = np.zeros(size, dtype=np.uint8)
    lo = 2
    while lo < size:
        hi = min(2 * lo, lo + _CHUNK, size)
        p = spf[lo:hi]
        m = np.arange(lo, hi, dtype=np.int64) // p
        k = exponent[m]
        k *= spf[m] == p
        k += 1
        exponent[lo:hi] = k
        for f, (_, _, extend) in zip(values, rules):
            f[lo:hi] = extend(f[m], p, k)
        lo = hi
    return values


# rad(p^k) = p and phi(p^k) = (p - 1) p^(k-1); index 0 holds rad 1, phi 0.
# Both stay in uint32: each value is at most n
_RAD = (np.uint32, 1, lambda rad, p, k: rad * np.where(k == 1, p, 1))
_PHI = (np.uint32, 0, lambda phi, p, k: phi * np.where(k == 1, p - 1, p))


def factorize(sieve: FactorSieve, n: int) -> list[tuple[int, int]]:
    """Prime factorization of n as (prime, exponent) pairs, ascending."""
    sieve.check_range(n)
    out: list[tuple[int, int]] = []
    spf = sieve.spf
    m = n
    while m > 1:
        p = int(spf[m])
        k = 0
        while m % p == 0:
            m //= p
            k += 1
        out.append((p, k))
    return out


def radical(sieve: FactorSieve, n: int) -> int:
    """Product of the distinct primes dividing n; radical(1) = 1."""
    return math.prod(p for p, _ in factorize(sieve, n))


def euler_phi(sieve: FactorSieve, n: int) -> int:
    """Count of 1 <= k <= n coprime to n."""
    return math.prod((p - 1) * p ** (k - 1) for p, k in factorize(sieve, n))


def is_squarefree(sieve: FactorSieve, n: int) -> bool:
    """True iff no prime divides n twice; equivalently radical(n) == n."""
    return radical(sieve, n) == n


def radical_window(base, lo: int, hi: int) -> np.ndarray:
    """radical(n) for lo <= n < hi as uint32, 1 <= lo <= hi <= 2^32, from
    ``base``: the primes up to some B with B^2 >= hi - 1.

    No table over [1, hi): each prime p of base multiplies ``rad`` by p along
    the p-stride and ``extra`` by p along each p^k stride with k >= 2, so
    rad * extra is the B-smooth part of n.  The cofactor n // (rad * extra)
    has no prime factor up to B and is at most n <= B^2, so it is 1 or a
    single prime, and rad * cofactor is radical(n).  Every value is at most
    n, so uint32 holds it, and memory is three arrays of the window's
    length, whatever hi is.
    """
    size = hi - lo
    rad = np.ones(size, dtype=np.uint32)
    extra = np.ones(size, dtype=np.uint32)
    for p in np.asarray(base).tolist():
        rad[-lo % p:: p] *= p
        pk = p * p
        while pk < hi:
            start = -lo % pk
            if start < size:  # most p^k above the window's length miss it
                extra[start:: pk] *= p
            pk *= p
    extra *= rad  # the B-smooth part of n
    cofactor = np.arange(lo, hi, dtype=np.uint32)
    cofactor //= extra
    rad *= cofactor
    return rad


def radical_range(sieve: FactorSieve, n_max: int) -> np.ndarray:
    """radical(n) for n = 0..n_max as uint32 (index 0 is a 1-sentinel);
    widen to int64 before multiplying two of them."""
    sieve.check_range(max(n_max, 1))
    if sieve.rad is not None:
        return sieve.rad[: n_max + 1]
    return multiplicative_values(sieve.spf[: n_max + 1], _RAD)[0]
