"""Prime enumeration via a segmented sieve of Eratosthenes.

The table is the substrate for every Euler product and prime sum in the
package.  Primes are stored as int64, under the factor sieve's size rule
(``radical.table_fits``).  The base primes up to sqrt(limit) are read off
its spf table (``radical._spf_sieve``); every larger prime is sieved in
fixed-size segments, so the scratch memory stays bounded by the segment,
not the limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, OutOfRangeError
from .radical import _spf_sieve, table_fits

SEGMENT_SIZE = 1 << 22


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


def sieve_primes(limit: int) -> PrimeTable:
    """Sieve all primes <= limit into a PrimeTable.

    Raises InvalidArgumentError for limit < 2 and OutOfRangeError for a
    table that does not fit in memory.  Its size bound is pi(L) <
    1.25506 L / ln L (Rosser & Schoenfeld, 1962) primes of 8 bytes each,
    taken in integers so that any limit has one.
    """
    if limit < 2:
        raise InvalidArgumentError(f"sieve limit must be >= 2, got {limit}")
    with table_fits(limit, 8 * 125_506 * limit // int(100_000 * math.log(limit))):
        return PrimeTable(limit=limit, primes=_segmented_sieve(limit))

