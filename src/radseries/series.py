"""Truncated evaluation of D(s,t) = sum_{n<=N} M(n)^t / n^s and its
log-weighted companions, each paired with a rigorous tail bound.

Terms are non-negative, so a truncation is always a lower bound and the
true sum lies in [value, value + tail_bound].  The tail bounds come from
the integral comparison of the majorant sum n^(g*t - s), where g is the
spec's declared growth exponent (g = 1 for the radical: every term
R(n)^t/n^s is at most n^(t-s), with equality exactly at squarefree n).
Specs without a declared growth bound, or with one where s - g*t <= 1,
still give values; their truncations carry tail_bound = None.

One kernel, ``term_kernel``, forms every term a_n as
np.power(M(n), t) * np.power(n, -s) in float64 (the spec framework
guarantees M(n) > 0), or as exp(t ln M(n) - s ln n) where that product is
not finite or n^-s is below the least normal float, summed over the
fixed blocks of ``numerics.sum_blocks``; one rule, ``tail_bound``, gives the
tail of plain and log-weighted sums and of the prime sums S and T.  The zero
identity takes its a_n and the tails of its two log-weighted sums from the
same pair, in its own block walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParamsError
from .multfn import MultiplicativeSpec, range_values
from .numerics import exact_sum, log_power_tail, power_tail, sum_blocks, tail_exponent
from .radical import FactorSieve


@dataclass(frozen=True)
class Params:
    """A point (s, t) of the region t > 0, s > 1 + t, whose tails need
    a = s - t > 1.  Both tests run in float64: (2.2, 1.2) fails only the first."""

    s: float
    t: float

    def __post_init__(self) -> None:
        # a finite t follows from a finite s > 1 + t
        if not (self.t > 0.0 and self.s > 1.0 + self.t and self.s - self.t > 1.0
                and math.isfinite(self.s)):
            raise InvalidParamsError(
                f"(s={self.s}, t={self.t}) outside region of convergence: "
                "requires t > 0 and a finite s > 1 + t with s - t > 1"
            )


@dataclass(frozen=True)
class TruncatedSum:
    """A truncation value with its tail bound.

    tail_bound is None (a value-only result) when the spec declares no
    growth bound g, or declares one with s - g*t <= 1, where the majorant
    diverges; otherwise the true infinite sum lies in [value, value + tail_bound].
    """

    value: float
    tail_bound: float | None
    terms_used: int


def term_kernel(m: np.ndarray, n: np.ndarray, params: Params) -> np.ndarray:
    """a_n = M(n)^t * n^-s over float64 arrays of M(n) and n: the one term kernel.

    Where M(n)^t overflows (inf * 0 or inf * tiny) or n^-s is not a normal
    float, that a_n alone is formed as exp(t ln M(n) - s ln n); every finite
    product with a normal n^-s keeps its bits.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        a = np.power(m, params.t)
        n_s = np.power(n, -params.s)
        a *= n_s
        bad = ~np.isfinite(a) | (n_s < np.finfo(np.float64).tiny)
        if bad.any():
            a[bad] = np.exp(params.t * np.log(m[bad]) - params.s * np.log(n[bad]))
    return a


def tail_bound(limit: int, params: Params, growth: float | None,
               log_bound: float | None = None) -> float | None:
    """The integral tail of the majorant of sum_{n>limit} a_n: the one tail rule.

    The terms are a_n with M(n) <= n^growth, so the plain majorant is
    n^(g*t - s).  With ``log_bound`` f each term also carries a logarithm
    at most f ln n (f = 1 for ln n, f = g for ln M(n)), and so does the
    majorant.  None where ``numerics.tail_exponent`` finds no tail.
    """
    a = tail_exponent(params.s, params.t, growth)
    if a is None:
        return None
    if log_bound is None:
        return power_tail(limit, a)
    return log_bound * log_power_tail(limit, a)


def _series(spec, sieve, params, limit, log_of=None, log_bound=None, threads=1) -> TruncatedSum:
    """The series of spec, each term weighted by ln(log_of(n, M(n))) if given."""
    sieve.check_range(limit)
    values = range_values(spec, sieve, limit)

    def block_sum(lo: int, hi: int) -> float:
        n = np.arange(lo + 1, hi + 1, dtype=np.float64)  # block over n-1
        m = values[lo + 1: hi + 1]
        a = term_kernel(m, n, params)
        if log_of is not None:
            a *= np.log(log_of(n, m))
        return exact_sum(a)

    value = sum_blocks(limit, block_sum, threads=threads)
    return TruncatedSum(value, tail_bound(limit, params, spec.growth_exponent, log_bound), limit)


def series_d(
    spec: MultiplicativeSpec,
    sieve: FactorSieve,
    params: Params,
    limit: int,
    *,
    threads: int = 1,
) -> TruncatedSum:
    """sum_{n<=limit} M(n)^t / n^s with compensated summation."""
    return _series(spec, sieve, params, limit, threads=threads)


def series_d_log_n(
    spec: MultiplicativeSpec,
    sieve: FactorSieve,
    params: Params,
    limit: int,
) -> TruncatedSum:
    """sum_{n<=limit} M(n)^t ln(n) / n^s."""
    return _series(spec, sieve, params, limit, lambda n, m: n, 1.0)


def series_d_log_m(
    spec: MultiplicativeSpec,
    sieve: FactorSieve,
    params: Params,
    limit: int,
) -> TruncatedSum:
    """sum_{n<=limit} M(n)^t ln(M(n)) / n^s; ln M(n) <= g ln n."""
    return _series(spec, sieve, params, limit, lambda n, m: m, spec.growth_exponent)
