"""Coprime decompositions c = a + b and the implication
"c below its radical-power threshold implies a + b < R(abc)^2".

c = 2 is excluded throughout: its single decomposition 1 + 1 is the one
case where phi(c)/2 is not an integer and where R(ab) = 1 breaks the
radical-product chain.  For every c >= 3 the unordered coprime pairs
number exactly phi(c)/2.

The scan is columnar.  ``scan`` yields ``AbcBatch`` column batches of
numpy arrays, at most ``BATCH_PAIRS`` candidate pairs each, in ascending
c and then ascending a; ``batch.records()`` turns a batch into
``AbcRecord`` rows.  ``verify_theorem2(scan(...))`` reduces the batches
with numpy and builds records only for counterexamples and top-quality
candidates.  ``decompositions`` returns the coprime pairs of one c as a
(k, 2) array from the same coprime-pair kernel.

The conclusion test is exact integer arithmetic: c < rad_abc^2 is
evaluated as rad(a)*rad(b) > isqrt(c) // rad(c), which needs no product
beyond c^2/4 and so stays exact in int64 for every c below 6e9.  The
hypothesis test is the identity module's one classification rule, applied
once to all scanned c, so a c is only flagged hypothesis-true when the
entire S/T enclosure certifies c < R(c)^(S/T), exactly as the identity
split and ``classify_interval`` classify it.  A scan never proves the
implication; it hunts for counterexamples, and finding one indicates an
implementation bug.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import InvalidArgumentError, OutOfRangeError
from .identity import class_masks
from .primes import PrimeTable
from .radical import FactorSieve, factorize, radical_range
from .series import Params
from .stkernel import st_ratio

# Candidate pairs (before the coprimality filter) per AbcBatch: bounds peak
# memory independently of c_max.
BATCH_PAIRS = 1 << 16

# Rows kept in Theorem2Report.top_quality.
TOP_QUALITY = 10

# rad(a)*rad(b)*rad(c) <= c^3 fits int64 up to here; above it rad_abc is a
# column of exact Python ints.
_INT64_RAD_ABC_CMAX = 2_000_000


class AbcRecord(NamedTuple):
    a: int
    b: int
    c: int
    rad_abc: int
    hypothesis_holds: bool   # c < R(c)^(S/T), committed over the S/T enclosure
    conclusion_holds: bool   # c < rad_abc^2, exact integer comparison
    quality: float           # ln(c) / ln(rad_abc)


class AbcBatch(NamedTuple):
    """Equal-length columns of consecutive AbcRecords.

    ``rad_abc`` is int64, or object (Python ints) when the scan's c_max
    exceeds the int64-safe range.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    rad_abc: np.ndarray
    hypothesis: np.ndarray   # bool
    conclusion: np.ndarray   # bool
    quality: np.ndarray      # float64

    def take(self, rows) -> AbcBatch:
        """The sub-batch selected by an index array, mask or slice."""
        return AbcBatch(*(col[rows] for col in self))

    def records(self) -> Iterator[AbcRecord]:
        """The rows as AbcRecords of Python scalars, in batch order."""
        return map(AbcRecord._make, zip(*(col.tolist() for col in self)))


@dataclass
class Theorem2Report:
    records_seen: int = 0
    hypothesis_true: int = 0
    hypothesis_false: int = 0
    conclusion_true: int = 0
    counterexamples: list[AbcRecord] = field(default_factory=list)
    max_quality_hypothesis: float | None = None
    top_quality: list[AbcRecord] = field(default_factory=list)

    @property
    def counterexample_count(self) -> int:
        return len(self.counterexamples)


def _prime_divisors(sieve: FactorSieve, c: int) -> list[int]:
    return [p for p, _ in factorize(sieve, c)]


def _coprime_a(primes: list[int], a_lo: int, a_hi: int) -> np.ndarray:
    """The a in [a_lo, a_hi) divisible by none of ``primes``, ascending, int64.

    With the prime divisors of c these are the a with gcd(a, c) = 1: one
    strided clear per prime instead of a gcd per candidate.
    """
    keep = np.ones(a_hi - a_lo, dtype=bool)
    for p in primes:
        keep[-a_lo % p :: p] = False
    return a_lo + np.flatnonzero(keep)


def decompositions(sieve: FactorSieve, c: int) -> np.ndarray:
    """All unordered pairs {a, b} with a <= b, a + b = c, gcd(a, b) = 1.

    A (k, 2) int64 array of rows (a, b), ascending in a.
    """
    if c < 3:
        raise OutOfRangeError(f"c={c} must be >= 3 (phi(2)/2 is not a pair count)")
    a = _coprime_a(_prime_divisors(sieve, c), 1, c // 2 + 1)
    return np.column_stack((a, c - a))


def _batch(rad: np.ndarray, per_c: tuple[np.ndarray, ...],
           parts: list[tuple[int, np.ndarray]], exact_objects: bool) -> AbcBatch:
    """The rows of ``parts`` in order: (i, coprime a of the i-th c) pairs,
    whose c, hypothesis, ln(c) and isqrt(c) are gathered from the per-c
    columns by index."""
    rows = np.repeat([i for i, _ in parts], [len(a) for _, a in parts])
    c, hypothesis, ln_c, isqrt_c = (col[rows] for col in per_c)
    a = np.concatenate([a for _, a in parts])
    b = c - a
    rad_ab = rad[a] * rad[b]
    rad_c = rad[c]
    conclusion = rad_ab > isqrt_c // rad_c
    if exact_objects:
        rad_abc = rad_ab.astype(object) * rad_c.astype(object)
    else:
        rad_abc = rad_ab * rad_c
    # float(int) rounds correctly, so both columns give the same quality
    ln_rad = np.log(rad_abc.astype(np.float64))
    return AbcBatch(a, b, c, rad_abc, hypothesis, conclusion, ln_c / ln_rad)


def scan(
    sieve: FactorSieve,
    primes: PrimeTable,
    params: Params,
    c_max: int,
    prime_limit: int,
    *,
    sample: int | None = None,
    seed: int = 0,
    progress=None,
) -> Iterator[AbcBatch]:
    """Stream AbcBatches covering every coprime decomposition of 3 <= c <= c_max.

    Rows run in ascending c, then ascending a; a batch holds the coprime
    rows of at most BATCH_PAIRS candidate pairs and may end inside one c.
    ``sample`` draws that many c values uniformly without replacement
    instead of scanning all of them (the full scan is quadratic in c_max);
    order is still ascending.  ``progress`` is an optional callback invoked
    once per c with (c, c_max), before any row of that c is yielded.
    The arguments are checked and S/T is computed when scan is called,
    before the first batch.
    """
    if c_max < 3:
        raise OutOfRangeError(f"c_max={c_max} must be >= 3")
    sieve.check_range(c_max)
    if sample is not None and sample < 0:
        raise InvalidArgumentError(f"sample must be >= 0, got {sample}")
    st = st_ratio(primes, params, prime_limit)
    return _scan(sieve, st.ratio_interval, c_max, sample, seed, progress)


def _scan(sieve, ratio_interval, c_max, sample, seed, progress) -> Iterator[AbcBatch]:
    """The batches of ``scan``.  The per-c columns (c, hypothesis, ln(c),
    isqrt(c)) are built once for all scanned c; each batch is a list of
    (index into them, coprime a) parts, cut at BATCH_PAIRS candidates."""
    low, high = ratio_interval
    rad = radical_range(sieve, c_max)
    exact_objects = c_max > _INT64_RAD_ABC_CMAX

    c_values = np.arange(3, c_max + 1)
    if sample is not None and sample < c_max - 2:
        rng = random.Random(seed)
        c_values = np.array(sorted(rng.sample(range(3, c_max + 1), sample)), dtype=np.int64)
    below = class_masks(np.log(c_values.astype(np.float64)),
                        np.log(rad[c_values].astype(np.float64)), low, high)[0]
    # math.log, not np.log: quality keeps the bits of ln(c) / ln(rad_abc)
    per_c = (c_values, below, np.array([math.log(c) for c in c_values.tolist()]),
             np.array([math.isqrt(c) for c in c_values.tolist()], dtype=np.int64))

    parts: list[tuple[int, np.ndarray]] = []
    room = BATCH_PAIRS
    for i, c in enumerate(c_values.tolist()):
        if progress is not None:
            progress(c, c_max)
        primes_of_c = _prime_divisors(sieve, c)
        a_lo, a_end = 1, c // 2 + 1
        while a_lo < a_end:
            a_hi = min(a_end, a_lo + room)
            parts.append((i, _coprime_a(primes_of_c, a_lo, a_hi)))
            room -= a_hi - a_lo
            a_lo = a_hi
            if room == 0:
                yield _batch(rad, per_c, parts, exact_objects)
                parts, room = [], BATCH_PAIRS
    if parts:
        yield _batch(rad, per_c, parts, exact_objects)


def verify_theorem2(batches: Iterable[AbcBatch]) -> Theorem2Report:
    """Check hypothesis => conclusion on every row; collect statistics.

    Counterexamples are collected, not raised.  ``top_quality`` lists the
    TOP_QUALITY rows with the smallest conclusion margin (highest quality),
    highest first.  A row enters only by beating the lowest quality kept, so
    on a tie at that boundary the earlier row stays; among the rows kept,
    equal qualities list the later row first.
    """
    report = Theorem2Report()
    heap: list[tuple[float, int, AbcRecord]] = []
    tie = 0
    best: float | None = None
    for batch in batches:
        n = len(batch.quality)
        hyp_true = int(np.count_nonzero(batch.hypothesis))
        report.records_seen += n
        report.conclusion_true += int(np.count_nonzero(batch.conclusion))
        report.hypothesis_true += hyp_true
        report.hypothesis_false += n - hyp_true
        report.counterexamples.extend(batch.take(batch.hypothesis & ~batch.conclusion).records())
        if hyp_true:
            q = float(batch.quality[batch.hypothesis].max())
            if best is None or q > best:
                best = q

        # Top-k in row order: fill the heap, then replay only the rows that
        # beat its current minimum (the minimum only rises, so every other
        # row would have been a no-op).
        fill = min(max(TOP_QUALITY - len(heap), 0), n)
        for rec in batch.take(slice(0, fill)).records():
            heapq.heappush(heap, (rec.quality, tie, rec))
            tie += 1
        if heap:
            rows = fill + np.flatnonzero(batch.quality[fill:] > heap[0][0])
            for rec in batch.take(rows).records():
                if rec.quality > heap[0][0]:
                    heapq.heapreplace(heap, (rec.quality, tie, rec))
                    tie += 1
    report.max_quality_hypothesis = best
    report.top_quality = [r for _, _, r in sorted(heap, reverse=True)]
    return report
