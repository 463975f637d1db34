"""Truncated evaluation of D(s,t) = sum_{n<=N} M(n)^t / n^s and its
log-weighted companions, each paired with a rigorous tail bound.

Terms are non-negative, so a truncation is always a lower bound and the
true sum lies in [value, value + tail_bound].  The tail bounds come from
the integral comparison of the majorant sum n^(g*t - s), where g is the
spec's declared growth exponent (g = 1 for the radical: every term
R(n)^t/n^s is at most n^(t-s), with equality exactly at squarefree n).
Specs without a declared growth bound still evaluate; their truncations
carry tail_bound = None.

Each term is evaluated as np.power(M(n), t) * np.power(n, -s), in float64;
the spec framework guarantees M(n) > 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParamsError, OutOfRangeError
from .multfn import MultiplicativeSpec, range_values
from .numerics import exact_sum, log_power_tail, power_tail, sum_blocks
from .radical import FactorSieve


@dataclass(frozen=True)
class Params:
    """A point (s, t) inside the region of convergence t > 0, s > 1 + t."""

    s: float
    t: float

    def __post_init__(self) -> None:
        if not (self.t > 0.0 and self.s > 1.0 + self.t):
            raise InvalidParamsError(
                f"(s={self.s}, t={self.t}) outside region of convergence: "
                "requires t > 0 and s > 1 + t"
            )


@dataclass(frozen=True)
class TruncatedSum:
    """A truncation value with its tail bound.

    tail_bound is None when the spec declares no growth bound (value-only
    result); otherwise the true infinite sum lies in
    [value, value + tail_bound].
    """

    value: float
    tail_bound: float | None
    terms_used: int

    @property
    def upper(self) -> float:
        if self.tail_bound is None:
            raise ValueError("no tail bound available for this truncation")
        return self.value + self.tail_bound


_WEIGHT_PLAIN = "plain"
_WEIGHT_LOG_N = "log_n"
_WEIGHT_LOG_M = "log_m"


def _series_sum(
    spec: MultiplicativeSpec,
    sieve: FactorSieve,
    params: Params,
    limit: int,
    weight: str,
    threads: int = 1,
) -> float:
    values = range_values(spec, sieve, limit)
    s, t = params.s, params.t

    def block_sum(lo: int, hi: int) -> float:
        n = np.arange(lo + 1, hi + 1, dtype=np.float64)  # block over n-1
        m = values[lo + 1: hi + 1]
        terms = np.power(m, t) * np.power(n, -s)
        if weight == _WEIGHT_LOG_N:
            terms *= np.log(n)
        elif weight == _WEIGHT_LOG_M:
            terms *= np.log(m)
        return exact_sum(terms)

    return sum_blocks(limit, block_sum, threads=threads)


def _tail_bound(params: Params, limit: int, weight: str, growth: float | None) -> float | None:
    """Integral tail of the majorant; None when no growth bound is declared.

    For M(n) <= n^g the plain tail majorant is sum n^(g*t-s); the two
    log-weighted variants pick up a factor ln n (and ln M(n) <= g ln n).
    """
    if growth is None:
        return None
    a = params.s - growth * params.t
    if a <= 1.0:
        return None
    if weight == _WEIGHT_PLAIN:
        return power_tail(limit, a)
    if weight == _WEIGHT_LOG_N:
        return log_power_tail(limit, a)
    if growth == 0.0:  # ln M(n) == 0 identically
        return 0.0
    return growth * log_power_tail(limit, a)


def _checked(sieve: FactorSieve, limit: int) -> None:
    if limit < 1 or limit > sieve.limit:
        raise OutOfRangeError(f"limit={limit} outside sieve range [1, {sieve.limit}]")


def series_d(
    spec: MultiplicativeSpec,
    sieve: FactorSieve,
    params: Params,
    limit: int,
    *,
    threads: int = 1,
) -> TruncatedSum:
    """sum_{n<=limit} M(n)^t / n^s with compensated summation."""
    _checked(sieve, limit)
    value = _series_sum(spec, sieve, params, limit, _WEIGHT_PLAIN, threads)
    tail = _tail_bound(params, limit, _WEIGHT_PLAIN, spec.growth_exponent)
    return TruncatedSum(value=value, tail_bound=tail, terms_used=limit)


def series_d_log_n(
    spec: MultiplicativeSpec,
    sieve: FactorSieve,
    params: Params,
    limit: int,
) -> TruncatedSum:
    """sum_{n<=limit} M(n)^t ln(n) / n^s."""
    _checked(sieve, limit)
    value = _series_sum(spec, sieve, params, limit, _WEIGHT_LOG_N)
    tail = _tail_bound(params, limit, _WEIGHT_LOG_N, spec.growth_exponent)
    return TruncatedSum(value=value, tail_bound=tail, terms_used=limit)


def series_d_log_m(
    spec: MultiplicativeSpec,
    sieve: FactorSieve,
    params: Params,
    limit: int,
) -> TruncatedSum:
    """sum_{n<=limit} M(n)^t ln(M(n)) / n^s."""
    _checked(sieve, limit)
    value = _series_sum(spec, sieve, params, limit, _WEIGHT_LOG_M)
    tail = _tail_bound(params, limit, _WEIGHT_LOG_M, spec.growth_exponent)
    return TruncatedSum(value=value, tail_bound=tail, terms_used=limit)
