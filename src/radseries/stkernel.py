"""The prime sums S(s,t) and T(s,t), their generalized forms, and the
bounded ratio S/T.

    S(s,t) = sum_p [p^s/(p^s-1)] * [p^t/(p^s-1+p^t)] * ln p
    T(s,t) = sum_p [p^t/(p^s-1+p^t)] * ln p

Every term of S is its T counterpart times p^s/(p^s-1), a factor strictly
between 1 and 2, so T-term < S-term < 2*T-term holds prime by prime and
1 < S/T < 2 holds at every truncation, not only in the limit.

One prepared per-prime kernel, ``StKernel``, yields both term arrays for
any M(p) (M(p) = p for the radical), sums them and attaches both tails.  It
is built once per (prime table, prime limit, spec): p, ln p, ln M(p) and its
work buffers are made once, and the S factor p^s/(p^s-1) is formed once per
value of s, so a grid walked s-major pays for p^-s once per row.
``st_terms``, ``st_ratio``, ``s_general`` and ``t_general`` are one-point
uses of it; ``ratio-grid`` keeps one kernel for its whole grid.

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

from .errors import InvalidSpecError, OutOfRangeError
from .multfn import RADICAL_SPEC, MultiplicativeSpec
from .numerics import exact_sum, log_power_tail, sum_blocks, tail_exponent
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


class StKernel:
    """S and T over fixed primes p with values m = M(p), prepared once and
    evaluated at any number of points (s, t).

    Holds p as given (``for_spec`` passes the prime table's own uint64 array,
    which every ufunc reads as the float64 values a copy would hold), ln p,
    ln M(p), two work buffers of len(p), and the S factor 1/(1 - p^-s) of
    the last s evaluated: a grid walked s-major forms p^-s once per row.  Every
    evaluation runs the same ufuncs in the same order, only into reused
    buffers, so its bits do not depend on what the kernel evaluated before.
    Each evaluation overwrites those buffers, so a kernel serves one caller
    at a time.

    ``tail`` is (g, P): a growth bound g with every M(p) >= 1 and the prime
    limit P; without it both sums are value-only.
    """

    def __init__(self, p: np.ndarray, m: np.ndarray, tail: tuple[float, int] | None = None):
        self._p = p
        self._ln_p = np.log(p)
        self._ln_m = np.log(m)
        self._tail = tail
        self._work = (np.empty(len(p)), np.empty(len(p)))
        self._factor = np.empty(len(p))
        self._factor_s: float | None = None

    @classmethod
    def for_spec(
        cls, spec: MultiplicativeSpec, primes: PrimeTable, prime_limit: int
    ) -> "StKernel":
        """The kernel of spec over the primes <= prime_limit.

        Raises InvalidSpecError unless every M(p) is > 0.  The tails need a
        growth bound g, every M(p) >= 1 (so the local denominator dominates
        p^s) and, at each point, s - g*t > 1.
        """
        p = primes.upto(prime_limit)
        if spec.prime_values is not None:
            m = np.asarray(spec.prime_values(p.astype(np.float64)), dtype=np.float64)
        else:
            m = np.array([spec.value_at_prime_power(int(q), 1) for q in p], dtype=np.float64)
        bad = np.flatnonzero(~(m > 0.0))
        if len(bad):
            i = bad[0]
            raise InvalidSpecError(f"spec {spec.name!r} returned {m[i]} at prime {p[i]}")
        g = spec.growth_exponent
        tail = (g, prime_limit) if g is not None and bool(m.min() >= 1.0) else None
        return cls(p, m, tail)

    def _s_factor(self, s: float) -> np.ndarray:
        # p^s/(p^s-1) = 1/(1-p^-s), in (1, 2) for p^s > 2; kept for the next
        # point with the same s.  The exponent goes in as a float, since an
        # integer s does not cast to the uint64 of a prime table's p.
        if self._factor_s != s:
            f = np.power(self._p, -float(s), out=self._factor)
            np.subtract(1.0, f, out=f)
            np.divide(1.0, f, out=f)
            self._factor_s = s
        return self._factor

    def terms(self, s: float, t: float) -> tuple[np.ndarray, np.ndarray]:
        """(T-terms, S-terms) at (s, t), in buffers the next call overwrites."""
        ln_p, ln_m = self._ln_p, self._ln_m
        den, other = self._work
        # (p^s - 1 + M^t) / M^t in log space: neither p^s nor M^t is ever
        # formed, so huge exponents degrade to an inf denominator (term 0.0,
        # where the true term underflows) instead of inf/inf.
        np.multiply(s, ln_p, out=den)
        np.multiply(t, ln_m, out=other)
        np.subtract(den, other, out=den)
        np.multiply(-t, ln_m, out=other)
        with np.errstate(over="ignore"):
            np.exp(den, out=den)
            np.exp(other, out=other)
        np.subtract(den, other, out=den)
        np.add(den, 1.0, out=den)
        factor = self._s_factor(s)
        # where m equals p, ln m and ln p are the same bits, so each S-term is
        # exactly the factor times its T-term: the termwise sandwich is in the
        # arithmetic
        t_terms = np.divide(ln_m, den, out=other)
        s_weight = np.divide(ln_p, den, out=den)
        return t_terms, np.multiply(factor, s_weight, out=s_weight)

    def sums(self, params: Params) -> tuple[TruncatedSum, TruncatedSum]:
        """(S, T) truncations at params, each with its tail when one exists."""
        t_terms, s_terms = self.terms(params.s, params.t)
        s_tail = t_tail = None
        if self._tail is not None:
            g, prime_limit = self._tail
            a = tail_exponent(params.s, params.t, g)
            if a is not None:  # always for g = 0, where the T tail g * lpt is 0.0
                lpt = log_power_tail(prime_limit, a)
                s_tail, t_tail = 2.0 * lpt, g * lpt
        n = len(self._p)
        return (
            TruncatedSum(value=_total(s_terms), tail_bound=s_tail, terms_used=n),
            TruncatedSum(value=_total(t_terms), tail_bound=t_tail, terms_used=n),
        )

    def ratio(self, params: Params) -> StResult:
        """S, T, their ratio, and the sandwich-aware enclosure of the true ratio.

        Raises OutOfRangeError where the ratio is undefined in float64: T
        underflows to 0.0 (huge s), or s - t rounds to 1.0 and no tail bound
        exists.
        """
        s_val, t_val = self.sums(params)
        tb = t_val.tail_bound
        if t_val.value == 0.0 or tb is None:
            why = "T underflows to 0.0" if t_val.value == 0.0 else "s - t rounds to 1.0"
            raise OutOfRangeError(
                f"S/T is undefined in float64 at s={params.s}, t={params.t}: {why}")
        ratio = s_val.value / t_val.value
        # low and high are rounded apart from ratio; widening by ratio keeps the
        # promised containment of the truncated ratio under rounding
        low = min((s_val.value + tb) / (t_val.value + tb), ratio)
        high = max((s_val.value + 2.0 * tb) / (t_val.value + tb), ratio)
        return StResult(s_value=s_val, t_value=t_val, ratio=ratio, ratio_interval=(low, high))


def _total(terms: np.ndarray) -> float:
    return sum_blocks(len(terms), lambda lo, hi: exact_sum(terms[lo:hi]))


def st_terms(p: np.ndarray, m: np.ndarray, s: float, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-prime (T-terms, S-terms) for M(p) = m, from a kernel used once."""
    return StKernel(p, m).terms(s, t)


def st_ratio(primes: PrimeTable, params: Params, prime_limit: int) -> StResult:
    """S, T, their ratio and its enclosure for the radical at one point.

    A kernel used once (see ``StKernel.ratio``); raises OutOfRangeError where
    the ratio is undefined in float64.
    """
    return StKernel.for_spec(RADICAL_SPEC, primes, prime_limit).ratio(params)


def s_general(
    spec: MultiplicativeSpec,
    primes: PrimeTable,
    params: Params,
    prime_limit: int,
) -> TruncatedSum:
    """Generalized S: sum_p [p^s/(p^s-1)] * [M(p)^t/(p^s-1+M(p)^t)] * ln p."""
    return StKernel.for_spec(spec, primes, prime_limit).sums(params)[0]


def t_general(
    spec: MultiplicativeSpec,
    primes: PrimeTable,
    params: Params,
    prime_limit: int,
) -> TruncatedSum:
    """Generalized T: sum_p [M(p)^t/(p^s-1+M(p)^t)] * ln M(p).

    The weight is ln M(p), not ln p; for the unit spec every term is 0.
    Specs with some M(p) < 1 have non-positive terms, for which the
    non-negative-tail machinery does not apply: those get value-only.
    """
    return StKernel.for_spec(spec, primes, prime_limit).sums(params)[1]
