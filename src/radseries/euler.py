"""Truncated Euler product over primes, accumulated in log space.

For the radical the per-prime factor is (p^s - 1 + p^t)/(p^s - 1), i.e.
1 + p^t/(p^s - 1); summing ln(factor) instead of multiplying factors avoids
drift in long products, and ln(1+x) is taken with log1p since x shrinks
like p^(t-s).  Writing x = p^(t-s)/(1 - p^(-s)) keeps every intermediate
finite for arbitrarily large p and s (the naive p^s overflows near 1e308;
in that regime the rewrite degrades gracefully to the 1 + p^(t-s) form with
relative error below 1e-15).

The product tail uses ln(1+x) <= x: the omitted log mass is at most
sum_{p>P} sum_k M(p^k)^t p^(-ks) <= power_tail(P, s - g*t) / (1 - (P+1)^(g*t-s)),
so the true product exceeds the truncation by at most value * expm1(that).
That bound saturates to inf when expm1 overflows (s - g*t close to 1).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import OutOfRangeError, UnsupportedSpecError
from .multfn import MultiplicativeSpec
from .numerics import exact_sum, power_tail, sum_blocks
from .primes import PrimeTable
from .series import Params, TruncatedSum


def product_d(
    spec: MultiplicativeSpec,
    primes: PrimeTable,
    params: Params,
    prime_limit: int,
) -> TruncatedSum:
    """prod_{p<=prime_limit} (local Euler factor) as a TruncatedSum.

    Raises UnsupportedSpecError for specs without a registered closed-form
    local factor: truncating the per-prime inner series would introduce an
    error the tail bound cannot account for.
    """
    if spec.log_local_factor is None:
        raise UnsupportedSpecError(
            f"spec {spec.name!r} declares no closed-form Euler factor"
        )
    if prime_limit < 2:
        raise OutOfRangeError(f"prime_limit={prime_limit} admits no primes")
    p = primes.upto(prime_limit).astype(np.float64)

    def block_sum(lo: int, hi: int) -> float:
        return exact_sum(spec.log_local_factor(p[lo:hi], params.s, params.t))

    log_sum = sum_blocks(len(p), block_sum)
    value = math.exp(log_sum)

    tail = None
    g = spec.growth_exponent
    if g is not None:
        a = params.s - g * params.t
        if a > 1.0:
            slack = 1.0 / -math.expm1((g * params.t - params.s) * math.log(prime_limit + 1))
            log_tail = slack * power_tail(prime_limit, a)
            try:
                tail = value * math.expm1(log_tail)
            except OverflowError:
                tail = math.inf
    return TruncatedSum(value=value, tail_bound=tail, terms_used=len(p))
