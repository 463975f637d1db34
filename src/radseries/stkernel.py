"""The prime sums S(s,t) and T(s,t), their generalized forms, and the
bounded ratio S/T.

    S(s,t) = sum_p [p^s/(p^s-1)] * [p^t/(p^s-1+p^t)] * ln p
    T(s,t) = sum_p [p^t/(p^s-1+p^t)] * ln p

Every term of S is its T counterpart times p^s/(p^s-1), a factor strictly
between 1 and 2, so T-term < S-term < 2*T-term holds prime by prime and
1 < S/T < 2 holds at every truncation, not only in the limit.

Tail bounds: each T term is below ln(p) p^(t-s) (the denominator exceeds
p^s because p^t > 1), and the primes above P are a subset of the integers
above P, so the omitted mass is at most sum_{n>P} ln(n) n^(t-s), bounded by
its integral.  This majorant converges on the whole region s > 1 + t; the
coarser majorant sum n^-(s-t-1), obtained via ln x <= x - 1, needs
s > t + 2 and is kept only as a cross-check there (t_tail_coarse).  The
S tail is twice the T tail via the factor bound.

The ratio interval exploits the termwise sandwich: the discarded tails
sigma_S and sigma_T themselves satisfy sigma_T <= sigma_S <= 2*sigma_T
with sigma_T <= tail_T, so the true ratio (S+sigma_S)/(T+sigma_T) is
enclosed by

    [(S + tail_T)/(T + tail_T), (S + 2*tail_T)/(T + tail_T)],

which both contains the plain truncated ratio and lies strictly inside
(1, 2) whenever the truncated sums do.  This enclosure is far tighter than
dividing worst-case numerator and denominator bounds, whose width blows up
as s - t approaches 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OutOfRangeError
from .multfn import RADICAL_SPEC, MultiplicativeSpec
from .numerics import exact_sum, log_power_tail, power_tail, sum_blocks
from .primes import PrimeTable
from .series import Params, TruncatedSum


@dataclass(frozen=True)
class StResult:
    """Paired S and T truncations with an enclosure of the true ratio."""

    s_value: TruncatedSum
    t_value: TruncatedSum
    ratio: float
    ratio_interval: tuple[float, float]

    @property
    def in_bound(self) -> bool:
        """True when the enclosing interval lies strictly inside (1, 2)."""
        low, high = self.ratio_interval
        return 1.0 < low and high < 2.0


def _prime_view(primes: PrimeTable, prime_limit: int) -> np.ndarray:
    if prime_limit < 2:
        raise OutOfRangeError(f"prime_limit={prime_limit} admits no primes")
    return primes.upto(prime_limit).astype(np.float64)


def _s_factor(p: np.ndarray, s: float) -> np.ndarray:
    # p^s/(p^s - 1) = 1/(1 - p^(-s)), strictly inside (1, 2) for p^s > 2
    return 1.0 / (1.0 - np.power(p, -s))


def _st_denominator(ln_p: np.ndarray, ln_m: np.ndarray, s: float, t: float) -> np.ndarray:
    # (p^s - 1 + M^t) / M^t in log space: neither p^s nor M^t is ever
    # formed, so huge exponents degrade to an inf denominator (term 0.0,
    # where the true term underflows) instead of inf/inf.
    with np.errstate(over="ignore"):
        return np.exp(s * ln_p - t * ln_m) - np.exp(-t * ln_m) + 1.0


def radical_st_terms(p: np.ndarray, s: float, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-prime (T-term, S-term) pairs for the radical kernel.

    The S terms are returned as factor * T-term so the termwise sandwich
    T-term < S-term < 2*T-term is transparent in the arithmetic itself.
    Matches the arithmetic of t_general/s_general with the radical spec,
    where M(p) = p; st_ratio sums these.
    """
    ln_p = np.log(p)
    t_terms = ln_p / _st_denominator(ln_p, ln_p, s, t)
    return t_terms, _s_factor(p, s) * t_terms


def t_function(primes: PrimeTable, params: Params, prime_limit: int, *, threads: int = 1) -> TruncatedSum:
    """Truncated T(s,t) with its integral tail bound.

    Bit-identical to t_general with the radical spec by construction.
    """
    return t_general(RADICAL_SPEC, primes, params, prime_limit, threads=threads)


def s_function(primes: PrimeTable, params: Params, prime_limit: int, *, threads: int = 1) -> TruncatedSum:
    """Truncated S(s,t); tail bound is twice the T tail."""
    return s_general(RADICAL_SPEC, primes, params, prime_limit, threads=threads)


def t_tail_coarse(params: Params, prime_limit: int) -> float | None:
    """The coarser tail majorant sum_{n>P} n^-(s-t-1).

    Converges only on the sub-region s > t + 2; None elsewhere.  Kept as a
    cross-check against the primary log-weighted tail.
    """
    a = params.s - params.t - 1.0
    if a <= 1.0:
        return None
    return power_tail(prime_limit, a)


def st_ratio(primes: PrimeTable, params: Params, prime_limit: int, *, threads: int = 1) -> StResult:
    """S, T, their ratio, and the sandwich-aware enclosure of the true ratio.

    One per-prime pass (radical_st_terms) feeds both sums; S and T equal
    s_function and t_function field for field.
    """
    p = _prime_view(primes, prime_limit)
    t_terms, s_terms = radical_st_terms(p, params.s, params.t)

    def total(terms: np.ndarray) -> float:
        return sum_blocks(len(p), lambda lo, hi: exact_sum(terms[lo:hi]), threads=threads)

    a = params.s - params.t
    t_tail = log_power_tail(prime_limit, a) if a > 1.0 else None
    s_tail = None if t_tail is None else 2.0 * t_tail
    t_val = TruncatedSum(value=total(t_terms), tail_bound=t_tail, terms_used=len(p))
    s_val = TruncatedSum(value=total(s_terms), tail_bound=s_tail, terms_used=len(p))
    ratio = s_val.value / t_val.value
    tb = t_val.tail_bound
    # low and high are rounded apart from ratio; widening by ratio keeps the
    # promised containment of the truncated ratio under rounding
    low = min((s_val.value + tb) / (t_val.value + tb), ratio)
    high = max((s_val.value + 2.0 * tb) / (t_val.value + tb), ratio)
    return StResult(s_value=s_val, t_value=t_val, ratio=ratio, ratio_interval=(low, high))


def _prime_m_values(spec: MultiplicativeSpec, p: np.ndarray) -> np.ndarray:
    if spec.prime_values is not None:
        return np.asarray(spec.prime_values(p), dtype=np.float64)
    return np.array([spec.value_at_prime_power(int(q), 1) for q in p], dtype=np.float64)


def s_general(
    spec: MultiplicativeSpec,
    primes: PrimeTable,
    params: Params,
    prime_limit: int,
    *,
    threads: int = 1,
) -> TruncatedSum:
    """Generalized S: sum_p [p^s/(p^s-1)] * [M(p)^t/(p^s-1+M(p)^t)] * ln p."""
    p = _prime_view(primes, prime_limit)
    mv = _prime_m_values(spec, p)
    ln_p = np.log(p)
    terms = _s_factor(p, params.s) * (
        ln_p / _st_denominator(ln_p, np.log(mv), params.s, params.t)
    )
    value = sum_blocks(len(p), lambda lo, hi: exact_sum(terms[lo:hi]), threads=threads)
    tail = None
    # tail bound needs M(p) >= 1 so the local denominator dominates p^s
    if spec.growth_exponent is not None and bool(np.all(mv >= 1.0)):
        a = params.s - spec.growth_exponent * params.t
        if a > 1.0:
            tail = 2.0 * log_power_tail(prime_limit, a)
    return TruncatedSum(value=value, tail_bound=tail, terms_used=len(p))


def t_general(
    spec: MultiplicativeSpec,
    primes: PrimeTable,
    params: Params,
    prime_limit: int,
    *,
    threads: int = 1,
) -> TruncatedSum:
    """Generalized T: sum_p [M(p)^t/(p^s-1+M(p)^t)] * ln M(p).

    The weight is ln M(p), not ln p; for the unit spec every term is 0.
    Specs with some M(p) < 1 have non-positive terms, for which the
    non-negative-tail machinery does not apply: those get value-only.
    """
    p = _prime_view(primes, prime_limit)
    mv = _prime_m_values(spec, p)
    ln_m = np.log(mv)
    terms = ln_m / _st_denominator(np.log(p), ln_m, params.s, params.t)
    value = sum_blocks(len(p), lambda lo, hi: exact_sum(terms[lo:hi]), threads=threads)
    tail = None
    g = spec.growth_exponent
    if g is not None and bool(np.all(mv >= 1.0)):
        if g == 0.0:
            tail = 0.0
        else:
            a = params.s - g * params.t
            if a > 1.0:
                tail = g * log_power_tail(prime_limit, a)
    return TruncatedSum(value=value, tail_bound=tail, terms_used=len(p))
