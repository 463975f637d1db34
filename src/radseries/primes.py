"""Prime enumeration via a segmented sieve of Eratosthenes.

The table is the substrate for every Euler product and prime sum in the
package.  Primes are stored as int64, like the factor sieve's tables;
limits at or above 2^63 are rejected outright instead of risking a silent
wrap.  The base primes up to sqrt(limit) are read off the factor sieve's
spf table (``radical._spf_sieve``); every larger prime is sieved in
fixed-size segments, so the sieve's scratch memory stays bounded by the
segment, not the limit.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, OutOfRangeError
from .radical import _spf_sieve

SEGMENT_SIZE = 1 << 22
MAX_LIMIT = 2 ** 63 - 1


@dataclass(frozen=True)
class PrimeTable:
    """All primes up to ``limit``, strictly increasing, starting at 2.

    Immutable after construction; safe to share across concurrent readers.
    """

    limit: int
    primes: np.ndarray  # int64, sorted ascending

    def __len__(self) -> int:
        return len(self.primes)

    def upto(self, prime_limit: int) -> np.ndarray:
        """View of the primes <= prime_limit.

        Raises OutOfRangeError when prime_limit admits no primes (below 2)
        or exceeds the sieved limit (the table cannot certify completeness
        beyond it).
        """
        if prime_limit < 2:
            raise OutOfRangeError(f"prime_limit={prime_limit} admits no primes")
        if prime_limit > self.limit:
            raise OutOfRangeError(
                f"prime_limit {prime_limit} exceeds sieved limit {self.limit}"
            )
        cut = int(np.searchsorted(self.primes, prime_limit, side="right"))
        return self.primes[:cut]


def _segmented_sieve(limit: int) -> np.ndarray:
    """Primes <= limit as int64: the base primes up to sqrt(limit) + 1 are
    the n >= 2 with spf[n] == n in the factor sieve's spf table, the rest
    are sieved one segment at a time."""
    spf = _spf_sieve(int(limit ** 0.5) + 1)
    base = np.flatnonzero(spf == np.arange(len(spf)))[2:]  # spf[0] = 0, spf[1] = 1
    chunks = [base]
    low = int(base[-1]) + 1
    while low <= limit:
        high = min(low + SEGMENT_SIZE, limit + 1)  # exclusive
        mask = np.ones(high - low, dtype=bool)
        for p in base:
            start = max(p * p, ((low + p - 1) // p) * p)
            mask[start - low:: p] = False  # empty once start >= high
        chunks.append(np.flatnonzero(mask) + low)
        low = high
    return np.concatenate(chunks)


def _physical_memory() -> int:
    """Bytes of physical memory on this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def sieve_primes(limit: int) -> PrimeTable:
    """Sieve all primes <= limit into a PrimeTable.

    Raises InvalidArgumentError for limit < 2 and OutOfRangeError for
    limits that do not fit a signed 64-bit integer, or memory.  A table
    whose size bound exceeds physical memory is refused before any segment
    is sieved: pi(L) < 1.25506 L / ln L (Rosser & Schoenfeld, 1962) primes
    of 8 bytes each.
    """
    if limit < 2:
        raise InvalidArgumentError(f"sieve limit must be >= 2, got {limit}")
    if limit > MAX_LIMIT:
        raise OutOfRangeError(f"sieve limit {limit} exceeds 2^63 - 1")
    try:
        if 8 * 1.25506 * limit / math.log(limit) > _physical_memory():
            raise MemoryError
        return PrimeTable(limit=limit, primes=_segmented_sieve(limit))
    except MemoryError:
        raise OutOfRangeError(f"sieve limit {limit} does not fit in memory") from None

