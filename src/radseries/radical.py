"""Smallest-prime-factor sieve: radical, totient, squarefree test, factorization.

One O(limit) pass builds the spf array; each scalar query then factors n
in O(log n) divisions.  With ``cache_values`` on (the default), the radical
and totient are also stored as parallel arrays, which no package code
reads: the CLI builds and loads lean sieves only (``cache_values=False``).
Every entry of the three tables is at most n, so each is uint32, 4 bytes
per n, and a limit past 2^32 - 1 is refused; a caller widens to int64
before it multiplies two entries.

A range of radicals has one kernel, ``radical_quotient_window``.  It needs
no sieve: it forms e(n) = n / radical(n) for one window of consecutive n
from the prime-power strides of the primes up to sqrt(n).  The identity
pass divides n by it, and so does ``radical_range``, one WINDOW at a time;
the cached radical and the radical series' R(n) are ``radical_range``'s
output.  ``multiplicative_values`` is the one spf recurrence, for the
totient (``_PHI``) and the M(n) of every other spec
(``multfn.range_values``), in chunked vectorized passes whose temporaries
are bounded by the chunk, not by limit.

A loaded dump is checked exactly against the sieve built for its limit
(each limit has one spf table), reading the payload _CHUNK entries at a
time after the build.  A dump holds spf as little-endian int64, whatever
the table's own dtype.  The sieve is immutable after construction and all
queries are pure.  ``table_fits`` is the one size rule for this table and
the prime table, and ``FactorSieve.build`` is the one place a sieve limit
is refused.
"""

from __future__ import annotations

import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, OutOfRangeError
from .numerics import DEFAULT_BLOCK

_DUMP_MAGIC = b"RADSIEVE"
_DUMP_VERSION = 1
_DUMP_HEADER = struct.Struct("<8sIIQ")  # magic, version, reserved, limit
_CHUNK = 1 << 16  # entries per vectorized pass over spf, and per dump read
_WRITE_CHUNK = 1 << 14  # entries per dump write, converted to int64 one piece at a time
_SPF_MAX = np.iinfo(np.uint32).max  # the largest limit whose tables hold every n
WINDOW = 4 * DEFAULT_BLOCK  # n per radical window: four summation blocks


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
            rad = radical_range(cls(limit=limit, spf=spf), limit) if cache_values else None
            phi = multiplicative_values(spf, _PHI) if cache_values else None
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


def multiplicative_values(spf: np.ndarray, rule) -> np.ndarray:
    """A multiplicative f over n = 0..len(spf)-1 by one (dtype, f0, extend) rule.

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
    dtype, f0, extend = rule
    f = np.ones(len(spf), dtype=dtype)
    f[:1] = f0
    exponent = np.zeros(len(f), dtype=np.uint8)
    lo = 2
    while lo < len(f):
        hi = min(2 * lo, lo + _CHUNK, len(f))
        p = spf[lo:hi]
        m = np.arange(lo, hi, dtype=np.int64) // p
        k = exponent[m]
        k *= spf[m] == p
        k += 1
        exponent[lo:hi] = k
        f[lo:hi] = extend(f[m], p, k)
        lo = hi
    return f


# phi(p^k) = (p - 1) p^(k-1), and index 0 holds 0; uint32 holds it, as phi(n) <= n
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


def radical_quotient_window(base, lo: int, hi: int) -> np.ndarray:
    """n / radical(n) for lo <= n < hi as uint32, 1 <= lo <= hi <= 2^32, from
    ``base``: the primes up to some B >= isqrt(hi - 1), that is with
    (B + 1)^2 > hi - 1.

    The quotient is e(n) = prod over p^k || n of p^(k-1), so it is 1 exactly
    at squarefree n, and no table over [1, hi) is needed: each prime p of
    base multiplies e by p along each p^k stride with k >= 2 that meets the
    window.  A prime above B is at least B + 1, so its square is past
    hi - 1 and it divides n < hi at most once: it adds p^0 = 1 to e(n) and
    needs no stride.  Every value is at most n, so uint32 holds it, and
    memory is one array of the window's length, whatever hi is.  radical(n)
    is n / e(n) exactly, in integers and in float64 alike (n < 2^53, and
    e(n) divides n).
    """
    size = hi - lo
    e = np.ones(size, dtype=np.uint32)
    for p in np.asarray(base).tolist():
        pk = p * p
        while pk < hi:
            start = -lo % pk
            if start < size:  # most p^k above the window's length miss it
                e[start:: pk] *= p
            pk *= p
    return e


def radical_range(sieve: FactorSieve, n_max: int) -> np.ndarray:
    """radical(n) for n = 0..n_max as uint32 (index 0 is a 1-sentinel);
    widen to int64 before multiplying two of them.

    Each WINDOW of n is divided by its ``radical_quotient_window``, from the
    primes up to isqrt(n_max), read off the sieve's spf table, so scratch
    memory is one window, whatever n_max is.
    """
    sieve.check_range(max(n_max, 1))
    spf = sieve.spf[: math.isqrt(n_max) + 1]
    base = np.flatnonzero(spf == np.arange(len(spf)))[2:]  # spf[0] = 0, spf[1] = 1
    rad = np.arange(n_max + 1, dtype=np.uint32)
    rad[0] = 1
    for lo in range(1, n_max + 1, WINDOW):
        rad[lo:lo + WINDOW] //= radical_quotient_window(base, lo, min(lo + WINDOW, n_max + 1))
    return rad
