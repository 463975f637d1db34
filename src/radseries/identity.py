"""Verification of the zero identity and its three-way split.

With a_n = R(n)^t / n^s and S, T the prime sums, the exact statement is

    sum_n a_n (S ln R(n) - T ln n) = 0,

and splitting by the sign of the log factor balances the class with
n < R(n)^(S/T) exactly against the class with n > R(n)^(S/T); members of
the boundary class contribute ln 1 = 0 each.

In a truncated computation the residual is not exactly zero: the n-sum
stops at N and S, T are themselves truncations.  Writing the residual as
S_P * L_R(N) - T_P * L_N(N) and comparing with the exact identity gives

    |residual| <= tail_S * L_R_full + tail_T * L_N_full
                  + S_P * tail(L_R) + T_P * tail(L_N),

all four pieces computable from the TruncatedSums; that is the tolerance
reported next to every residual.  The same S_P, T_P are used for every n,
since mixing truncations would bias the sum in a way the tolerance cannot
absorb.

Classification never forms R(n)^(S/T): it compares T ln n with S ln R(n)
in log space.  A comparison is committed only when the whole S/T enclosure
lands on one side; borderline cases are reported as AMBIGUOUS rather than
misclassified.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfRangeError
from .multfn import RADICAL_SPEC
from .numerics import exact_sum, sum_blocks
from .primes import PrimeTable
from .radical import FactorSieve, radical, radical_range
from .series import _WEIGHT_LOG_M, _WEIGHT_LOG_N, Params, TruncatedSum, _checked, _tail_bound
from .stkernel import StResult, st_ratio


class Classification(enum.Enum):
    BELOW = "below"    # n < R(n)^(S/T)
    EQUAL = "equal"    # exact equality (n = 1 in practice)
    ABOVE = "above"    # n > R(n)^(S/T)
    AMBIGUOUS = "ambiguous"


@dataclass(frozen=True)
class SplitSums:
    """Signed class sums of a_n (S ln R(n) - T ln n) over n <= limit.

    below >= 0 and above <= 0 by construction; equal is exactly 0.0; the
    magnitudes |below| and |above| agree within ``tolerance``.
    """

    below: float
    equal: float
    above: float
    classification_counts: tuple[int, int, int]  # (below, equal, above)
    ambiguous_count: int
    ambiguous_sum: float
    tolerance: float

    @property
    def balance_gap(self) -> float:
        return abs(self.below + self.above)


@dataclass(frozen=True)
class IdentityResidual:
    residual: float
    tolerance: float
    st: StResult
    terms_used: int

    @property
    def within_tolerance(self) -> bool:
        return abs(self.residual) <= self.tolerance


def classify_interval(
    sieve: FactorSieve, n: int, ratio_low: float, ratio_high: float
) -> Classification:
    """Classification committed over a whole S/T enclosure [low, high]."""
    if n < 1:
        raise OutOfRangeError(f"n={n} must be >= 1")
    ln_n = math.log(n)
    ln_r = math.log(radical(sieve, n))
    if ln_n == 0.0 and ln_r == 0.0:
        return Classification.EQUAL
    if ln_n < ratio_low * ln_r:
        return Classification.BELOW
    if ln_n > ratio_high * ln_r:
        return Classification.ABOVE
    return Classification.AMBIGUOUS


def _residual_tolerance(st: StResult, log_n_sum: TruncatedSum, log_m_sum: TruncatedSum) -> float:
    return (
        st.s_value.tail_bound * log_m_sum.upper
        + st.t_value.tail_bound * log_n_sum.upper
        + st.s_value.value * log_m_sum.tail_bound
        + st.t_value.value * log_n_sum.tail_bound
    )


def identity_pass(
    sieve: FactorSieve,
    primes: PrimeTable,
    params: Params,
    limit: int,
    prime_limit: int,
) -> tuple[IdentityResidual, SplitSums]:
    """Residual and class split of the identity from one per-n pass.

    S/T, the term arrays a_n, ln n, ln R(n) and the weights
    w = a_n (S ln R(n) - T ln n) are computed once; the residual, the two
    log-weighted series behind the tolerance (sum a_n ln n and
    sum a_n ln R(n), summed over the same fixed blocks as ``series_d_log_n``
    and ``series_d_log_m``) and the class sums all read those arrays.
    """
    _checked(sieve, limit)
    st = st_ratio(primes, params, prime_limit)
    s_p, t_p = st.s_value.value, st.t_value.value
    low, high = st.ratio_interval

    n = np.arange(1, limit + 1, dtype=np.float64)
    r = radical_range(sieve, limit)[1:].astype(np.float64)
    ln_n = np.log(n)
    ln_r = np.log(r)
    a_n = np.power(r, params.t)
    a_n *= np.power(n, -params.s)
    del n, r
    w = s_p * ln_r
    w -= t_p * ln_n
    w *= a_n

    def log_sum(ln: np.ndarray, weight: str) -> TruncatedSum:
        value = sum_blocks(limit, lambda lo, hi: exact_sum(a_n[lo:hi] * ln[lo:hi]))
        tail = _tail_bound(params, limit, weight, RADICAL_SPEC.growth_exponent)
        return TruncatedSum(value=value, tail_bound=tail, terms_used=limit)

    residual = sum_blocks(limit, lambda lo, hi: exact_sum(w[lo:hi]))
    tolerance = _residual_tolerance(
        st, log_sum(ln_n, _WEIGHT_LOG_N), log_sum(ln_r, _WEIGHT_LOG_M)
    )

    equal = (ln_n == 0.0) & (ln_r == 0.0)
    below = ln_n < low * ln_r
    above = ln_n > high * ln_r
    ambiguous = ~(below | above | equal)
    split = SplitSums(
        below=exact_sum(w[below]),
        equal=exact_sum(w[equal]),
        above=exact_sum(w[above]),
        classification_counts=(
            int(below.sum()), int(equal.sum()), int(above.sum())
        ),
        ambiguous_count=int(ambiguous.sum()),
        ambiguous_sum=exact_sum(w[ambiguous]),
        tolerance=tolerance,
    )
    res = IdentityResidual(residual=residual, tolerance=tolerance, st=st, terms_used=limit)
    return res, split


def identity_residual(
    sieve: FactorSieve,
    primes: PrimeTable,
    params: Params,
    limit: int,
    prime_limit: int,
) -> IdentityResidual:
    """sum_{n<=limit} a_n (S ln R(n) - T ln n) with its tolerance."""
    return identity_pass(sieve, primes, params, limit, prime_limit)[0]


def split_identity(
    sieve: FactorSieve,
    primes: PrimeTable,
    params: Params,
    limit: int,
    prime_limit: int,
) -> SplitSums:
    """Partition the identity sum by classification and balance the sides."""
    return identity_pass(sieve, primes, params, limit, prime_limit)[1]
