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
``st_ratio``, ``s_general`` and ``t_general`` are one-point uses of it;
``ratio-grid`` keeps one kernel for its whole grid.

Prefix rule: the tail rule below bounds the terms beyond any prime p_k, not
only beyond P.  ``sums`` forms the terms of the primes below the first p_k
whose tails at p_k - 1, inflated for rounding (``_rounding_slack``), lie far
below both sums, and keeps the result only where those tails cannot move its
rounding (``_decided_sum``): then it is ``blocked_sum`` over every prime
<= P, bit for bit.  Otherwise, and for specs without a tail, it sums every
prime.  Either way ``terms_used`` counts every prime <= P and the tails are
those at P.

Tail bounds: with 1 <= M(p) <= p^g, each T term is below g ln(p) p^(g*t-s)
(the denominator exceeds p^s as M(p)^t >= 1) and each S term below
2 ln(p) p^(g*t-s) (the factor bound), and the primes above P are a subset of
the integers above P.  So both tails are ``series.tail_bound`` at P with log
bounds g and 2; for the radical (g = 1) they exist wherever ``Params``
admits (s, t), since it requires s - t > 1 in float64.

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

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfRangeError
from .multfn import RADICAL_SPEC, MultiplicativeSpec, prime_power_values
from .numerics import DEFAULT_BLOCK, block_bounds, blocked_sum, exact_parts, exact_sum, tail_exponent
from .primes import PrimeTable
from .series import Params, TruncatedSum, tail_bound


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

    Holds p as given (``for_spec`` passes the prime table's own int64 array,
    which every ufunc reads as the float64 values a copy would hold), ln p,
    ln M(p) (the same array as ln p where M(p) = p, as for the radical and
    identity specs), two work buffers of len(p), and the S factor
    1/(1 - p^-s) of the last s evaluated, over as many primes as were
    needed: a grid walked s-major forms p^-s once per row.  Every evaluation
    runs the same ufuncs in the same order on each element, only into reused
    buffers, so its bits do not depend on what the kernel evaluated before or
    on how many primes it formed.  Each evaluation overwrites those buffers,
    so a kernel serves one caller at a time.

    ``tail`` is (g, P): a growth bound g with every M(p) >= 1 and the prime
    limit P; without it both sums are value-only and always use every prime.
    """

    def __init__(self, p: np.ndarray, m: np.ndarray, tail: tuple[float, int] | None = None):
        self._p = p
        self._ln_p = np.log(p)
        # np.log reads int64 p as the float64 values m holds where they are equal
        self._ln_m = self._ln_p if np.array_equal(m, p) else np.log(m)
        # the largest ln p and ln M(p): a NaN needs both products to overflow
        self._ln_max = (float(self._ln_p.max(initial=0.0)), float(self._ln_m.max(initial=0.0)))
        self._tail = tail
        self._work = (np.empty(len(p)), np.empty(len(p)))
        self._factor = np.empty(len(p))
        self._factor_s: float | None = None
        self._factor_n = 0  # primes the factor of _factor_s covers

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
        m = prime_power_values(spec, p, np.ones_like(p))
        g = spec.growth_exponent
        tail = (g, prime_limit) if g is not None and bool(m.min() >= 1.0) else None
        return cls(p, m, tail)

    def _s_factor(self, s: float, n: int) -> np.ndarray:
        # p^s/(p^s-1) = 1/(1-p^-s), in (1, 2) for p^s > 2, over the first n
        # primes; kept for the next point with the same s, and extended when
        # it needs more primes.  The exponent goes in as a float, since numpy
        # refuses an integer array to a negative integer power.
        lo = self._factor_n if self._factor_s == s else 0
        if lo < n:
            f = np.power(self._p[lo:n], -float(s), out=self._factor[lo:n])
            np.subtract(1.0, f, out=f)
            np.divide(1.0, f, out=f)
            self._factor_s, self._factor_n = s, n
        return self._factor[:n]

    def terms(self, s: float, t: float) -> tuple[np.ndarray, np.ndarray]:
        """(T-terms, S-terms) at (s, t), in buffers the next call overwrites."""
        return self._terms(s, t, len(self._p))

    def _terms(self, s: float, t: float, n: int) -> tuple[np.ndarray, np.ndarray]:
        """(T-terms, S-terms) of the first n primes at (s, t)."""
        ln_p, ln_m = self._ln_p[:n], self._ln_m[:n]
        den, other = (w[:n] for w in self._work)
        # (p^s - 1 + M^t) / M^t in log space: neither p^s nor M^t is ever
        # formed, so huge exponents degrade to an inf denominator (term 0.0,
        # where the true term underflows) instead of inf/inf.  -t ln M is
        # formed once: s ln p + (-t ln M) is s ln p - t ln M bit for bit.
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(-t, ln_m, out=other)
            np.multiply(s, ln_p, out=den)
            np.add(den, other, out=den)
            if math.isinf(float(s) * self._ln_max[0]) and math.isinf(float(t) * self._ln_max[1]):
                nan = np.isnan(den)  # s ln p and t ln M(p) both overflowed: inf - inf
                den[nan] = (s - t * (ln_m[nan] / ln_p[nan])) * ln_p[nan]
            np.exp(den, out=den)
            np.exp(other, out=other)
        np.subtract(den, other, out=den)
        np.add(den, 1.0, out=den)
        factor = self._s_factor(s, n)
        t_terms = np.divide(ln_m, den, out=other)
        # where M(p) = p, ln p / den is the T-term itself, so each S-term is
        # the factor times its T-term: the termwise sandwich is in the
        # arithmetic, at one divide
        s_weight = t_terms if self._ln_m is self._ln_p else np.divide(ln_p, den, out=den)
        return t_terms, np.multiply(factor, s_weight, out=den)

    def sums(self, params: Params) -> tuple[TruncatedSum, TruncatedSum]:
        """(S, T) truncations at params, each with its tail when one exists.

        The values are those of every prime <= P, summed by ``blocked_sum``;
        where the tail beyond a prefix of the primes already decides both
        roundings they come from that prefix (``_prefix_sums``).
        """
        g, prime_limit = self._tail or (None, 1)  # no growth bound, no tail
        values = self._prefix_sums(params)
        if values is None:
            t_terms, s_terms = self.terms(params.s, params.t)
            values = blocked_sum(s_terms), blocked_sum(t_terms)
        n = len(self._p)
        return (
            TruncatedSum(values[0], tail_bound(prime_limit, params, g, 2.0), n),
            TruncatedSum(values[1], tail_bound(prime_limit, params, g, g), n),
        )

    def ratio(self, params: Params) -> StResult:
        """S, T, their ratio, and the sandwich-aware enclosure of the true ratio.

        Raises OutOfRangeError naming the cause where the ratio is undefined
        in float64 (T underflows to 0.0, huge s) or has no enclosure: the
        spec declares no growth bound, has some M(p) < 1, or s - g*t <= 1.
        """
        s_val, t_val = self.sums(params)
        tb = t_val.tail_bound
        if t_val.value == 0.0 or tb is None:
            why = ("T underflows to 0.0" if t_val.value == 0.0
                   else f"s - g*t <= 1 with g={self._tail[0]}" if self._tail
                   else "some M(p) < 1" if self._ln_m.min() < 0.0 else "no growth bound")
            raise OutOfRangeError(
                f"S/T has no enclosure in float64 at s={params.s}, t={params.t}: {why}")
        ratio = s_val.value / t_val.value
        # low and high are rounded apart from ratio; widening by ratio keeps the
        # promised containment of the truncated ratio under rounding
        low = min((s_val.value + tb) / (t_val.value + tb), ratio)
        high = max((s_val.value + 2.0 * tb) / (t_val.value + tb), ratio)
        return StResult(s_value=s_val, t_value=t_val, ratio=ratio, ratio_interval=(low, high))

    def _prefix_sums(self, params: Params) -> tuple[float, float] | None:
        """``blocked_sum`` of the S- and T-terms of every prime, formed only
        for the primes below the first p_k whose tail cannot move either
        rounding, or None where no such k < len(p) is found or the tail does
        move it.

        Each computed term is at most ``_rounding_slack`` times its majorant
        f ln(p) p^(g*t-s) (f = 2 for S, g for T), so the computed terms of
        the primes >= p_k sum to at most the slack times the tail rule at
        p_k - 1, plus f 2^-1060 for a majorant power that underflowed.
        """
        if self._tail is None or len(self._p) < 2:
            return None
        g, s, t = self._tail[0], params.s, params.t
        slack = _rounding_slack(s, t, g, self._ln_max[0])
        if slack is None:
            return None
        p = self._p

        def bounds(k: int) -> tuple[float, float]:
            limit = int(p[k]) - 1
            return (tail_bound(limit, params, g, 2.0) * slack + 2.0 * 2.0**-1060,
                    tail_bound(limit, params, g, g) * slack + g * 2.0**-1060)

        # aim each tail 2^-60 below the majorant term of p = 2 (without its S
        # factor, which is below 2), so that it rarely reaches a rounding
        # boundary; M(2) <= 2^g keeps the exponent negative
        ln_2, ln_m2 = float(self._ln_p[0]), float(self._ln_m[0])
        first = math.exp(min(t * ln_m2 - s * ln_2, 0.0)) * 2.0**-60
        aims = (first * ln_2, first * ln_m2)

        def on_aim(k: int) -> bool:
            return all(b <= aim for b, aim in zip(bounds(k), aims))

        if not on_aim(len(p) - 1):
            return None
        k = bisect.bisect_left(range(1, len(p)), True, key=on_aim) + 1
        t_terms, s_terms = self._terms(s, t, k)
        tail_s, tail_t = bounds(k)
        s_sum = _decided_sum(s_terms, len(p), tail_s)
        t_sum = _decided_sum(t_terms, len(p), tail_t) if s_sum is not None else None
        return None if t_sum is None else (s_sum, t_sum)


def _rounding_slack(s: float, t: float, g: float, ln_p_max: float) -> float | None:
    """A factor by which the tail rule, evaluated in float64 at any limit
    below e^ln_p_max, bounds the computed terms beyond it; None where no tail
    exists or the factor exceeds 1 + 2^-18.

    With u = 2^-53 and a budget of 4 ulps (8u) for each np.log, np.exp,
    np.power, math.log and pow result:
      * The log-space exponent s ln p - t ln M(p) of a term (ln M(p) in
        [0, g ln p]) is formed with an absolute error of at most
        16u (s + g*t) ln p; every other step of the term adds at most 40u
        relative, so each computed term is at most e^eta (1 + 40u) times its
        majorant, eta = 16u (s + g*t) ln P.
      * The tail rule reads a = s - g*t with an error of at most
        1.01u (s + g*t), which moves ln of the integral bound by at most
        ln N + 4/(a - 1) per unit of a (ln N + 2/(a - 1) at a, doubled
        while the error stays below (a - 1)/2); its own evaluation adds at
        most 30u + 2u a ln N relative.
    So the factor e^kappa with kappa = u ((s + g*t)(20 ln P + 5/(a - 1)) + 70)
    covers both, and 1 + 4 kappa covers e^kappa and the rounding of the
    product for kappa <= 2^-20.
    """
    a = tail_exponent(s, t, g)
    if a is None:
        return None
    kappa = 2.0**-53 * ((s + g * t) * (20.0 * ln_p_max + 5.0 / (a - 1.0)) + 70.0)
    return 1.0 + 4.0 * kappa if kappa <= 2.0**-20 else None


def _decided_sum(head: np.ndarray, total: int, tail: float) -> float | None:
    """``blocked_sum`` of ``total`` terms whose first len(head) are head and
    whose others are >= 0 with a sum of at most tail, or None where the tail
    can move its rounding.

    The blocks wholly inside head are summed as ``blocked_sum`` sums them.
    The block holding the rest lies between the rounded sums of its level
    sums and of its level sums plus tail.  Each later block rounds its exact
    sum, together at most tail, up by at most 2^-53 of it (an exact sum
    below 2^-1022 is a multiple of 2^-1074, so it is a double).  Rounding to
    nearest is monotone, so where both ends round to one double, that is the
    sum of all the terms.
    """
    k = len(head)
    bounds = block_bounds(total)
    whole = [exact_sum(head[lo:hi]) for lo, hi in bounds if hi <= k]
    parts = exact_parts(head[len(whole) * DEFAULT_BLOCK:])
    later = len(bounds) - len(whole) - 1
    later_bound = [tail, tail * 2.0**-52] if later else []
    low = math.fsum(whole + [math.fsum(parts)])
    high = math.fsum(whole + [math.fsum(parts + [tail])] + later_bound)
    return low if low == high else None


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
