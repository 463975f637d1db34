"""Prime enumeration via a segmented sieve of Eratosthenes.

The table is the substrate for every Euler product and prime sum in the
package.  Primes are stored as unsigned 64-bit integers; limits at or above
2^63 are rejected outright instead of risking a silent wrap.  Every limit
is sieved in fixed-size segments, so the sieve's scratch memory stays
bounded by the segment, not the limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, OutOfRangeError

SEGMENT_SIZE = 1 << 22
MAX_LIMIT = 2 ** 63 - 1


@dataclass(frozen=True)
class PrimeTable:
    """All primes up to ``limit``, strictly increasing, starting at 2.

    Immutable after construction; safe to share across concurrent readers.
    """

    limit: int
    primes: np.ndarray  # uint64, sorted ascending

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


def prime_mask(limit: int) -> np.ndarray:
    """Boolean-array Eratosthenes: mask[n] is True iff n <= limit is prime."""
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, int(limit ** 0.5) + 1):
        if is_prime[p]:
            is_prime[p * p:: p] = False
    return is_prime


def _segmented_sieve(limit: int) -> np.ndarray:
    """Primes <= limit as uint64: the base primes up to sqrt(limit) + 1 from
    one flat prime_mask, the rest one segment at a time."""
    base = np.flatnonzero(prime_mask(int(limit ** 0.5) + 1)).astype(np.uint64)
    base_int = base.astype(np.int64)
    chunks = [base]
    low = int(base[-1]) + 1
    while low <= limit:
        high = min(low + SEGMENT_SIZE, limit + 1)  # exclusive
        mask = np.ones(high - low, dtype=bool)
        for p in base_int:
            start = max(p * p, ((low + p - 1) // p) * p)
            if start >= high:
                continue
            mask[start - low:: p] = False
        chunks.append((np.flatnonzero(mask) + low).astype(np.uint64))
        low = high
    return np.concatenate(chunks)


def sieve_primes(limit: int) -> PrimeTable:
    """Sieve all primes <= limit into a PrimeTable.

    Raises InvalidArgumentError for limit < 2 and OutOfRangeError for
    limits that do not fit a signed 64-bit integer.
    """
    if limit < 2:
        raise InvalidArgumentError(f"sieve limit must be >= 2, got {limit}")
    if limit > MAX_LIMIT:
        raise OutOfRangeError(f"sieve limit {limit} exceeds 2^63 - 1")
    return PrimeTable(limit=limit, primes=_segmented_sieve(limit))


def nth_prime(table: PrimeTable, n: int) -> int:
    """The n-th prime, 1-indexed: nth_prime(table, 1) == 2.

    p_n > n holds for every n the table can answer.
    """
    if n < 1 or n > len(table.primes):
        raise OutOfRangeError(
            f"table holds {len(table.primes)} primes, cannot answer n={n}"
        )
    return int(table.primes[n - 1])
