"""Deterministic compensated summation and integral tail bounds.

Summation strategy: terms are produced in fixed-size index blocks, each
block is reduced with ``exact_sum``, and the per-block totals are combined
with ``math.fsum`` in block order.  Block boundaries depend only on the term
count, so every run of a sum returns the same bits.

``exact_sum`` returns the bits ``math.fsum`` returns, at a few whole-array
numpy operations per level instead of one boxed scalar per term.  It uses
the error-free extraction of Rump, Ogita & Oishi ("Accurate floating-point
summation", SIAM J. Sci. Comput. 31(1), 2008): for n terms p with
max|p| < 2^e and sigma = 2^(m+e), 2^m >= n + 2, every q = (p + sigma) - sigma
is a multiple of 2^(m+e-53) and every partial sum of the q stays below
2^(m+e), so the q sum exactly in any order, numpy's pairwise order
included, and p - q is exact too.  Repeating on p - q until it is zero
splits the terms into a few exact level sums whose total is the exact
total.  ``math.fsum`` rounds that total correctly, as it would the terms
themselves, so the two results agree bit for bit.  The levels are peeled
off in place, in two buffers of the input's length, so a sum allocates no
temporary per level and never writes into the caller's array.

``exact_sum`` stops once the rounding is decided, at any length: the stop
test of AccSum/NearSum (Rump, Ogita & Oishi, parts I-II of the paper
above, SIAM J. Sci. Comput. 31, 2008).  After a level with
sigma = 2^(m+e), every remainder term has |p - q| <= 2^-53 sigma, so
numpy's sum r of the n remainders lies within b = gamma_(n-1) n 2^-53 sigma
of their exact total, in any summation order (Higham, "Accuracy and
Stability of Numerical Algorithms", 2nd ed., 2002, ch. 4; gamma_k =
k 2^-53 / (1 - k 2^-53), rounded up).  Rounding to nearest is monotone, so
when ``math.fsum`` of the levels plus r - b and of the levels plus r + b
(each rounded outward) agree, that is ``math.fsum`` of the terms; otherwise
the next level is peeled.  Two different exact totals never both round to
zero, so an agreed value is never a signed zero.  ``exact_parts`` returns
the level sums unrounded and still peels every level, so a sum whose terms
come one block at a time (the identity's class sums) is one ``math.fsum``
over the parts of its blocks.

Tail bounds compare a series with non-negative, eventually decreasing
terms against the integral of its continuous majorant:

    sum_{n>N} n^(-a)        <= N^(1-a) / (a-1)                    (a > 1)
    sum_{n>N} ln(n) n^(-a)  <= (ln(N)(a-1) + 1) N^(1-a) / (a-1)^2 (a > 1)

The log-weighted comparison needs x^(-a) ln x decreasing, which holds for
x >= e; small cutoffs are patched with explicit terms.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

DEFAULT_BLOCK = 1 << 16


def exact_sum(x) -> float:
    """``math.fsum(x)`` bit for bit, signed zero included, for a float array.

    Peels exact levels off the whole array and stops at the first level
    that decides the rounding, else rounds all levels with one
    ``math.fsum``.  Non-finite input, and terms that could add up past
    2^1023, take ``math.fsum`` itself, so NaN, inf and its errors
    (inf - inf, intermediate overflow) are those of ``math.fsum``.
    """
    x = np.asarray(x, dtype=np.float64)
    levels, decided = _level_sums(x, True)
    return decided if decided is not None else math.fsum(levels or x.tolist())


def exact_parts(x) -> list[float]:
    """Floats whose exact total is the exact total of the float array x.

    The exact level sums of x, or, where ``math.fsum`` must decide (non-finite
    or huge terms, or only zeros, whose sign is fsum's), the terms of x
    themselves.  So one ``math.fsum`` over the parts of consecutive slices
    returns ``math.fsum`` of their concatenation bit for bit, signed zero,
    NaN, inf and inf - inf included, except near overflow: fsum's
    intermediate-overflow error depends on the order in which finite terms
    are added, which level sums do not keep, so the two can disagree once
    running sums approach 2^1024.  (A slice holding a finite term of
    2^(1023 - bit_length(len + 1)) or more is always passed as its terms.)
    """
    x = np.asarray(x, dtype=np.float64)
    return _level_sums(x, False)[0] or x.tolist()


def _level_sums(x: np.ndarray, stop: bool) -> tuple[list[float], float | None]:
    """Exact level sums of x ([] where math.fsum must sum x), and
    ``math.fsum(x)`` if ``stop`` and a level decided it, else None.

    Levels are extracted in place, in two buffers of len(x) reused over
    every level; x itself is only read.
    """
    n = len(x)
    m = (n + 1).bit_length()  # 2^m >= n + 2
    top = _max_abs(x) if n else 0.0
    if not math.isfinite(top):
        return [], None
    p, q, rest = x, np.empty(n), np.empty(n)
    levels: list[float] = []
    while top != 0.0:
        e = math.frexp(top)[1]  # top < 2^e
        if e + m > 1023:  # keeps sigma and sum |x| below 2^1023
            return [], None
        sigma = math.ldexp(1.0, m + e)
        np.add(p, sigma, out=q)
        q -= sigma
        levels.append(float(q.sum()))
        p = np.subtract(p, q, out=rest)
        if stop:
            r, b = float(p.sum()), _sum_error(n, sigma)
            low = math.fsum(levels + [math.nextafter(r - b, -math.inf)])
            if low == math.fsum(levels + [math.nextafter(r + b, math.inf)]):
                return levels, low
        top = _max_abs(p)
    return levels, None


def _sum_error(n: int, sigma: float) -> float:
    """gamma_(n-1) n 2^-53 sigma rounded up: bounds the error of any float sum
    of n terms of magnitude at most 2^-53 sigma."""
    k = (n - 1) * 2.0**-53
    gamma = math.nextafter(k / (1.0 - k), math.inf)
    return math.nextafter(gamma * (n * math.ldexp(sigma, -53)), math.inf)


def _max_abs(p: np.ndarray) -> float:
    """max|p| without an |p| temporary; NaN when p holds a NaN."""
    return max(float(p.max()), -float(p.min()))


def block_bounds(total: int) -> list[tuple[int, int]]:
    """The fixed summation blocks [lo, hi) of DEFAULT_BLOCK indices over [0, total)."""
    return [(lo, min(lo + DEFAULT_BLOCK, total)) for lo in range(0, total, DEFAULT_BLOCK)]


def sum_blocks(
    total: int,
    block_sum: Callable[[int, int], float],
    *,
    threads: int = 1,
) -> float:
    """Sum ``block_sum(lo, hi)`` over [0, total) split at fixed boundaries.

    ``block_sum`` must return the compensated sum of its half-open index
    range.  With ``threads > 1`` the blocks are evaluated in a thread pool;
    the final reduction always runs in block order, so the result does not
    depend on the thread count.  Only the benchmark's per-layer timings pass
    ``threads`` (here and through ``series.series_d``); the package sums
    serially.
    """
    bounds = block_bounds(total)
    if threads <= 1 or len(bounds) <= 1:
        partials = [block_sum(lo, hi) for lo, hi in bounds]
    else:
        # imported here: only the benchmark's per-layer timings start a pool
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            partials = list(pool.map(lambda b: block_sum(*b), bounds))
    return math.fsum(partials)


def tail_exponent(s: float, t: float, growth: float | None) -> float | None:
    """a = s - g*t of the tail majorant n^(-a) for M(n) <= n^g; None when no
    tail exists: g is undeclared, or a <= 1 and the majorant diverges."""
    if growth is None:
        return None
    a = s - growth * t
    return a if a > 1.0 else None


def power_tail(limit: int, exponent: float) -> float:
    """Upper bound on sum_{n>limit} n^(-exponent), requires exponent > 1."""
    if exponent <= 1.0:
        raise ValueError(f"power tail diverges for exponent {exponent} <= 1")
    if limit < 1:
        raise ValueError("limit must be >= 1")
    return limit ** (1.0 - exponent) / (exponent - 1.0)


def log_power_tail(limit: int, exponent: float) -> float:
    """Upper bound on sum_{n>limit} ln(n) n^(-exponent), requires exponent > 1.

    Integral comparison is valid from max(limit, 3); for limit < 3 the
    integers 2, 3 inside the gap are added explicitly.
    """
    if exponent <= 1.0:
        raise ValueError(f"log power tail diverges for exponent {exponent} <= 1")
    if limit < 1:
        raise ValueError("limit must be >= 1")
    a = exponent
    start = max(limit, 3)
    power = start ** (1.0 - a)
    # (a - 1)^2 overflows only where the power has underflowed to 0.0
    tail = 0.0 if power == 0.0 else (math.log(start) * (a - 1.0) + 1.0) * power / (a - 1.0) ** 2
    for n in range(limit + 1, start + 1):
        tail += math.log(n) * n ** (-a)
    return tail
