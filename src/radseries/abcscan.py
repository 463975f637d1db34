"""Coprime triples a + b = c and the implication
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
candidates.  The coprime pairs of one c are that c's rows of ``scan``.
``certify`` returns the same report without the quadratic scan: its counts
are sums of phi(c)/2, and it forms only the rows that can reach the top
quality list or the best hypothesis-true quality, or fail the conclusion.
``abc --verify`` runs it; ``scan`` gives the CSV rows and is its oracle.

The conclusion test is exact integer arithmetic: c < rad_abc^2 is
evaluated as rad(a)*rad(b) > isqrt(c) // rad(c), which needs no product
beyond c^2/4; certify's a = 1 quality forms rad(c - 1)*rad(c) <= c(c - 1),
so c_max is at most 3,037,000,500, the largest c with c(c - 1) < 2^63
(``check_cmax``).  The radical table is uint32, so each product of two
radicals is formed after widening one factor to int64.  The
hypothesis test is the identity module's one classification rule, applied
once to all scanned c, so a c is only flagged hypothesis-true when the
entire S/T enclosure certifies c < R(c)^(S/T), exactly as the identity
split classifies it.  A scan never proves the implication; it hunts for
counterexamples, and finding one indicates an implementation bug.
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
from .radical import _PHI, FactorSieve, factorize, multiplicative_values, radical_range
from .series import Params
from .stkernel import st_ratio

# Candidate pairs (before the coprimality filter) per AbcBatch: bounds peak
# memory independently of c_max.
BATCH_PAIRS = 1 << 16

# Rows kept in Theorem2Report.top_quality.
TOP_QUALITY = 10

# certify's quality bounds carry a factor e^_PAD against rounding; it
# searches _C_CHUNK values of c at a time
_PAD = 2.0 ** -30
_C_CHUNK = 1 << 14


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

    ``rad_abc`` reaches c^3/4.  It is int64 when the largest rad(a)*rad(b)
    times the largest rad(c) of the batch fits, else object (exact ints).
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


def _coprime_a(primes: list[int], a_lo: int, a_hi: int) -> np.ndarray:
    """The a in [a_lo, a_hi) divisible by none of ``primes``, ascending, int64.

    With the prime divisors of c these are the a with gcd(a, c) = 1: one
    strided clear per prime instead of a gcd per candidate.
    """
    keep = np.ones(a_hi - a_lo, dtype=bool)
    for p in primes:
        keep[-a_lo % p :: p] = False
    return a_lo + np.flatnonzero(keep)


def _batch(rad: np.ndarray, per_c: tuple[np.ndarray, ...], rows: np.ndarray,
           a: np.ndarray) -> AbcBatch:
    """The rows (per_c[rows], a): each a is coprime to its c, whose
    hypothesis, ln(c) and isqrt(c) are gathered from the per-c columns."""
    c, hypothesis, ln_c, isqrt_c = (col[rows] for col in per_c)
    b = c - a
    rad_ab = rad[a].astype(np.int64) * rad[b]
    rad_c = rad[c]
    conclusion = rad_ab > isqrt_c // rad_c
    wide = int(rad_ab.max(initial=0)) * int(rad_c.max(initial=0)) > np.iinfo(np.int64).max
    rad_abc = rad_ab.astype(object) * rad_c.astype(object) if wide else rad_ab * rad_c
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
    The arguments are checked, and S/T and the radical table are computed,
    when scan is called, before the first batch.
    """
    rad, ratio_interval, c_values = _setup(sieve, primes, params, c_max, prime_limit,
                                           sample, seed)
    return _scan(sieve, rad, ratio_interval, c_values, c_max, progress)


def check_cmax(c_max: int) -> None:
    """Refuse a c_max below 3, or past 3,037,000,500: so rad(c - 1) * rad(c)
    fits int64.  The one c_max rule of scan and certify; the CLI runs it
    before it builds the sieve."""
    if c_max < 3:
        raise OutOfRangeError(f"c_max={c_max} must be >= 3")
    if c_max * (c_max - 1) > np.iinfo(np.int64).max:
        raise OutOfRangeError(f"c_max={c_max} must be <= 3037000500 for int64 radicals")


def _setup(sieve, primes, params, c_max, prime_limit, sample, seed):
    """The checked arguments of scan and certify: the radical table, the
    S/T enclosure, and the scanned c (all of 3..c_max, or ``sample`` of them
    drawn by random.Random(seed)), ascending."""
    check_cmax(c_max)
    if sample is not None and sample < 0:
        raise InvalidArgumentError(f"sample must be >= 0, got {sample}")
    rad = radical_range(sieve, c_max)  # checks c_max against the sieve
    st = st_ratio(primes, params, prime_limit)
    c_values = np.arange(3, c_max + 1)
    if sample is not None and sample < c_max - 2:
        rng = random.Random(seed)
        c_values = np.array(sorted(rng.sample(range(3, c_max + 1), sample)), dtype=np.int64)
    return rad, st.ratio_interval, c_values


def _below(ln_c: np.ndarray, rad_c: np.ndarray, ratio_interval) -> np.ndarray:
    """The hypothesis of each c: the identity module's rule, c < R(c)^(S/T)."""
    return class_masks(ln_c, np.log(rad_c.astype(np.float64)), *ratio_interval)[0]


def _per_c(c_values: np.ndarray, below: np.ndarray) -> tuple[np.ndarray, ...]:
    """The per-c columns _batch gathers: c, hypothesis, ln(c), isqrt(c)."""
    # math.log, not np.log: quality keeps the bits of ln(c) / ln(rad_abc)
    return (c_values, below, np.array([math.log(c) for c in c_values.tolist()]),
            np.array([math.isqrt(c) for c in c_values.tolist()], dtype=np.int64))


def _scan(sieve, rad, ratio_interval, c_values, c_max, progress) -> Iterator[AbcBatch]:
    """The batches of ``scan``.  The per-c columns are built once for all
    scanned c; each batch is a list of (index into them, coprime a) parts,
    cut at BATCH_PAIRS candidates."""
    per_c = _per_c(c_values, _below(np.log(c_values.astype(np.float64)), rad[c_values],
                                    ratio_interval))

    def batch(parts: list[tuple[int, np.ndarray]]) -> AbcBatch:
        rows = np.repeat([i for i, _ in parts], [len(a) for _, a in parts])
        return _batch(rad, per_c, rows, np.concatenate([a for _, a in parts]))

    parts: list[tuple[int, np.ndarray]] = []
    room = BATCH_PAIRS
    for i, c in enumerate(c_values.tolist()):
        if progress is not None:
            progress(c, c_max)
        primes_of_c = [p for p, _ in factorize(sieve, c)]
        a_lo, a_end = 1, c // 2 + 1
        while a_lo < a_end:
            a_hi = min(a_end, a_lo + room)
            parts.append((i, _coprime_a(primes_of_c, a_lo, a_hi)))
            room -= a_hi - a_lo
            a_lo = a_hi
            if room == 0:
                yield batch(parts)
                parts, room = [], BATCH_PAIRS
    if parts:
        yield batch(parts)


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


def certify(
    sieve: FactorSieve,
    primes: PrimeTable,
    params: Params,
    c_max: int,
    prime_limit: int,
    *,
    sample: int | None = None,
    seed: int = 0,
    progress=None,
) -> Theorem2Report:
    """``verify_theorem2(scan(...))`` with the same arguments, field for
    field, without forming every row.

    The counts come from phi: c has phi(c)/2 rows.  Rows are formed, by
    ``_batch``, and reduced, by ``verify_theorem2``, only where their
    quality can reach a threshold theta_c:

    * q0, the TOP_QUALITY-th best quality of the a = 1 rows.  These are
      real rows, so every top row has quality >= q0.  A row below q0 only
      holds a heap slot that a row at or above q0 takes from it, so the
      reduction over the candidates keeps the same top rows in the same
      order.
    * for a hypothesis-true c, also the best a = 1 quality among those c,
      which the best hypothesis-true row reaches.
    * 2 at most: the conclusion fails exactly where rad_abc <= isqrt(c),
      that is where rad_abc <= c^(1/2).  The conclusion count is the rows
      less the candidates where it fails.

    Quality >= theta_c means rad(a) rad(b) <= B_c = c^(1/theta_c) / rad(c),
    so the side x of the pair with the smaller radical has rad(x) <= B_c^(1/2).
    These x are read off one argsort of the radicals, c by c in chunks of
    _C_CHUNK.  B_c is evaluated in float64 as exp(ln(c) / theta_c + 2^-30)
    / rad(c): the thresholds, ln(c), the quality division, exp and sqrt each
    carry a relative error below 1e-14 for any c below 2^63, far inside the
    pad e^(2^-30) - 1 ~ 9.3e-10, so no row whose float quality reaches
    theta_c lies above B_c.

    With at most TOP_QUALITY scanned c, every row can be a top row, and
    the rows are those of ``scan``.  ``progress`` is called once per c with
    (c, c_max), ascending, as the candidate search reaches that c's chunk.
    """
    rad, ratio_interval, c_values = _setup(sieve, primes, params, c_max, prime_limit,
                                           sample, seed)
    if len(c_values) <= TOP_QUALITY:
        return verify_theorem2(_scan(sieve, rad, ratio_interval, c_values, c_max, progress))
    chunks = [slice(lo, lo + _C_CHUNK) for lo in range(0, len(c_values), _C_CHUNK)]

    # counts, hypotheses and the a = 1 qualities, c by c
    phi = multiplicative_values(sieve.spf[: c_max + 1], _PHI)
    below, q_a1 = np.empty(len(c_values), bool), np.empty(len(c_values))
    seen = hypothesis_true = 0
    for chunk in chunks:
        c = c_values[chunk]
        ln_c, rad_c, phi_c = np.log(c.astype(np.float64)), rad[c], phi[c]
        below[chunk] = _below(ln_c, rad_c, ratio_interval)
        q_a1[chunk] = ln_c / np.log((rad[c - 1].astype(np.int64) * rad_c).astype(np.float64))
        seen += int(phi_c.sum()) // 2
        hypothesis_true += int(phi_c[below[chunk]].sum()) // 2
    del phi
    q0 = np.partition(q_a1, -TOP_QUALITY)[-TOP_QUALITY]
    q0_below = min(q0, q_a1[below].max()) if below.any() else q0
    del q_a1

    # candidate rows (a, c - a) = (x, c - x) or (c - x, x), found from the side
    # x with the smaller radical (coprime sides have equal radicals only at
    # 1 + 1); order lists x by radical
    order = np.argsort(rad[1:c_max]) + 1
    rad_sorted = rad[order]
    found = [(np.empty(0, np.int64), np.empty(0, np.int64))]
    for chunk in chunks:
        c = c_values[chunk]
        if progress is not None:
            for c_i in c.tolist():
                progress(c_i, c_max)
        theta = np.minimum(np.where(below[chunk], q0_below, q0), 2.0)
        bound = np.exp(np.log(c.astype(np.float64)) / theta + _PAD) / rad[c]
        # in rad's own dtype, so searchsorted does not convert rad_sorted
        top = np.minimum(np.sqrt(bound), rad_sorted[-1]).astype(rad_sorted.dtype)
        count = np.searchsorted(rad_sorted, top, side="right")
        end = np.cumsum(count)
        total = int(end[-1])
        for lo in range(0, total, BATCH_PAIRS):
            pos = np.arange(lo, min(lo + BATCH_PAIRS, total))
            j = np.searchsorted(end, pos, side="right")
            x = order[pos - end[j] + count[j]]
            keep = np.flatnonzero(x < c[j])
            j, x = j[keep], x[keep]
            y = c[j] - x
            rad_x, rad_y = rad[x], rad[y]
            keep = (rad_x.astype(np.int64) * rad_y <= bound[j]) & (rad_x < rad_y)
            j, x, y = j[keep], x[keep], y[keep]
            keep = np.gcd(x, y) == 1
            found.append((chunk.start + j[keep], np.minimum(x, y)[keep]))
    i, a = (np.concatenate(col) for col in zip(*found))
    rank = np.lexsort((a, i))
    cand, rows = np.unique(i[rank], return_inverse=True)
    a = a[rank]

    per_c = _per_c(c_values[cand], below[cand])
    report = verify_theorem2(
        _batch(rad, per_c, rows[lo : lo + BATCH_PAIRS], a[lo : lo + BATCH_PAIRS])
        for lo in range(0, len(a), BATCH_PAIRS))
    failed = report.records_seen - report.conclusion_true
    report.records_seen, report.hypothesis_true = seen, hypothesis_true
    report.hypothesis_false, report.conclusion_true = seen - hypothesis_true, seen - failed
    return report
