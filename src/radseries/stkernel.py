"""The prime sums S(s,t) and T(s,t), their generalized forms, and the
bounded ratio S/T.

    S(s,t) = sum_p [p^s/(p^s-1)] * [p^t/(p^s-1+p^t)] * ln p
    T(s,t) = sum_p [p^t/(p^s-1+p^t)] * ln p

Every term of S is its T counterpart times p^s/(p^s-1), a factor strictly
between 1 and 2, so T-term < S-term < 2*T-term holds prime by prime and
1 < S/T < 2 holds at every truncation, not only in the limit.

One per-prime kernel, ``st_terms``, yields both term arrays for any M(p)
(M(p) = p for the radical), and one pass sums them and attaches both tails;
``st_ratio``, ``s_general`` and ``t_general`` all read that pass.

Tail bounds: each T term is below ln(p) p^(t-s) (the denominator exceeds
p^s because p^t > 1), and the primes above P are a subset of the integers
above P, so the omitted mass is at most sum_{n>P} ln(n) n^(t-s), bounded by
its integral.  This majorant converges on the whole region s > 1 + t.  The
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
from .numerics import exact_sum, log_power_tail, sum_blocks
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


def _st_denominator(ln_p: np.ndarray, ln_m: np.ndarray, s: float, t: float) -> np.ndarray:
    # (p^s - 1 + M^t) / M^t in log space: neither p^s nor M^t is ever
    # formed, so huge exponents degrade to an inf denominator (term 0.0,
    # where the true term underflows) instead of inf/inf.
    with np.errstate(over="ignore"):
        return np.exp(s * ln_p - t * ln_m) - np.exp(-t * ln_m) + 1.0


def st_terms(p: np.ndarray, m: np.ndarray, s: float, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-prime (T-terms, S-terms) for M(p) = m.

    When m equals p (radical and identity specs) one logarithm serves both
    weights and each S-term is the factor times its T-term, so the termwise
    sandwich is transparent in the arithmetic itself.
    """
    ln_p = np.log(p)
    same = np.array_equal(m, p)
    ln_m = ln_p if same else np.log(m)
    den = _st_denominator(ln_p, ln_m, s, t)
    t_terms = ln_m / den
    # S weight ln p / den: the T-term when m = p, else den's buffer.  den goes
    # first and the factor p^s/(p^s-1) = 1/(1-p^-s), in (1, 2) for p^s > 2,
    # stays unnamed so numpy reuses its temporaries (fewer fresh pages a call).
    s_weight = t_terms if same else np.divide(ln_p, den, out=den)
    del den
    return t_terms, (1.0 / (1.0 - np.power(p, -s))) * s_weight


def _st_sums(
    spec: MultiplicativeSpec, primes: PrimeTable, params: Params, prime_limit: int, threads: int
) -> tuple[TruncatedSum, TruncatedSum]:
    """(S, T) truncations from one st_terms pass.

    The tails need a growth bound g, every M(p) >= 1 (so the local
    denominator dominates p^s) and s - g*t > 1; otherwise a sum is
    value-only.
    """
    if prime_limit < 2:
        raise OutOfRangeError(f"prime_limit={prime_limit} admits no primes")
    p = primes.upto(prime_limit).astype(np.float64)
    if spec.prime_values is not None:
        m = np.asarray(spec.prime_values(p), dtype=np.float64)
    else:
        m = np.array([spec.value_at_prime_power(int(q), 1) for q in p], dtype=np.float64)
    t_terms, s_terms = st_terms(p, m, params.s, params.t)

    def total(terms: np.ndarray) -> float:
        return sum_blocks(len(p), lambda lo, hi: exact_sum(terms[lo:hi]), threads=threads)

    s_tail = t_tail = None
    g = spec.growth_exponent
    if g is not None and bool(m.min() >= 1.0):
        a = params.s - g * params.t
        if a > 1.0:  # always for g = 0, where the T tail g * lpt is 0.0
            lpt = log_power_tail(prime_limit, a)
            s_tail, t_tail = 2.0 * lpt, g * lpt
    return (
        TruncatedSum(value=total(s_terms), tail_bound=s_tail, terms_used=len(p)),
        TruncatedSum(value=total(t_terms), tail_bound=t_tail, terms_used=len(p)),
    )


def st_ratio(primes: PrimeTable, params: Params, prime_limit: int, *, threads: int = 1) -> StResult:
    """S, T, their ratio, and the sandwich-aware enclosure of the true ratio.

    Raises OutOfRangeError where the ratio is undefined in float64: T
    underflows to 0.0 (huge s), or s - t rounds to 1.0 and no tail bound
    exists.
    """
    s_val, t_val = _st_sums(RADICAL_SPEC, primes, params, prime_limit, threads)
    tb = t_val.tail_bound
    if t_val.value == 0.0 or tb is None:
        why = "T underflows to 0.0" if t_val.value == 0.0 else "s - t rounds to 1.0"
        raise OutOfRangeError(f"S/T is undefined in float64 at s={params.s}, t={params.t}: {why}")
    ratio = s_val.value / t_val.value
    # low and high are rounded apart from ratio; widening by ratio keeps the
    # promised containment of the truncated ratio under rounding
    low = min((s_val.value + tb) / (t_val.value + tb), ratio)
    high = max((s_val.value + 2.0 * tb) / (t_val.value + tb), ratio)
    return StResult(s_value=s_val, t_value=t_val, ratio=ratio, ratio_interval=(low, high))


def s_general(
    spec: MultiplicativeSpec,
    primes: PrimeTable,
    params: Params,
    prime_limit: int,
    *,
    threads: int = 1,
) -> TruncatedSum:
    """Generalized S: sum_p [p^s/(p^s-1)] * [M(p)^t/(p^s-1+M(p)^t)] * ln p."""
    return _st_sums(spec, primes, params, prime_limit, threads)[0]


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
    return _st_sums(spec, primes, params, prime_limit, threads)[1]
