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

The terms a_n and the sums L_N, L_R with their tails come from the series
module's one term kernel and one truncated-sum rule.

Classification never forms R(n)^(S/T): it compares T ln n with S ln R(n)
in log space.  A comparison is committed only when the whole S/T enclosure
lands on one side; borderline cases are reported as AMBIGUOUS rather than
misclassified.  One vectorised rule, ``class_masks``, classifies for the
split, ``classify_interval`` and the abc scan alike.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import OutOfRangeError
from .multfn import RADICAL_SPEC, range_values
from .numerics import exact_sum, sum_blocks
from .primes import PrimeTable
from .radical import FactorSieve, radical
from .series import Params, TruncatedSum, term_kernel, truncated_sum
from .stkernel import StResult, st_ratio


class Classification(enum.Enum):
    BELOW = "below"    # n < R(n)^(S/T)
    EQUAL = "equal"    # exact equality (n = 1 in practice)
    ABOVE = "above"    # n > R(n)^(S/T)
    AMBIGUOUS = "ambiguous"


@dataclass(frozen=True)
class IdentityResult:
    """The identity over n <= limit: its residual and its class split, both
    decided by one tolerance.

    below >= 0 and above <= 0 by construction; equal is exactly 0.0.  The
    residual and the balance gap |below + above| are each judged against the
    one ``tolerance``.
    """

    residual: float
    tolerance: float
    st: StResult
    terms_used: int
    below: float
    equal: float
    above: float
    classification_counts: tuple[int, int, int]  # (below, equal, above)
    ambiguous_count: int
    ambiguous_sum: float

    @property
    def within_tolerance(self) -> bool:
        return abs(self.residual) <= self.tolerance

    @property
    def balance_gap(self) -> float:
        return abs(self.below + self.above)


def class_masks(
    ln_n: np.ndarray, ln_r: np.ndarray, ratio_low: float, ratio_high: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(below, equal, above, ambiguous) masks over ln n and ln R(n), arrays or
    numpy scalars, in the order of ``Classification``.

    The one classification rule, committed over a whole S/T enclosure
    [low, high]: n < R(n)^(S/T) for every ratio in it exactly when
    ln n < low ln R(n), and n > R(n)^(S/T) exactly when ln n > high ln R(n).
    """
    equal = (ln_n == 0.0) & (ln_r == 0.0)
    below = ln_n < ratio_low * ln_r
    above = ln_n > ratio_high * ln_r
    return below, equal, above, ~(below | above | equal)


def classify_interval(
    sieve: FactorSieve, n: int, ratio_low: float, ratio_high: float
) -> Classification:
    """Classification committed over a whole S/T enclosure [low, high]."""
    if n < 1:
        raise OutOfRangeError(f"n={n} must be >= 1")
    ln_n, ln_r = np.log(float(n)), np.log(float(radical(sieve, n)))
    masks = class_masks(ln_n, ln_r, ratio_low, ratio_high)
    return next(c for c, mask in zip(Classification, masks) if mask)


def identity_pass(
    sieve: FactorSieve,
    primes: PrimeTable,
    params: Params,
    limit: int,
    prime_limit: int,
) -> IdentityResult:
    """Residual and class split of the identity from one per-n pass.

    S/T, the term arrays a_n, ln n, ln R(n) and the weights
    w = a_n (S ln R(n) - T ln n) are computed once; the residual, the two
    log-weighted series behind the tolerance (sum a_n ln n and
    sum a_n ln R(n), by the rule of ``series_d_log_n`` and
    ``series_d_log_m``) and the class sums all read those arrays.
    """
    sieve.check_range(limit)
    st = st_ratio(primes, params, prime_limit)
    s_p, t_p = st.s_value.value, st.t_value.value
    g = RADICAL_SPEC.growth_exponent

    n = np.arange(1, limit + 1, dtype=np.float64)
    r = range_values(RADICAL_SPEC, sieve, limit)[1:]
    ln_n = np.log(n)
    ln_r = np.log(r)
    a_n = term_kernel(r, n, params)
    del n, r
    w = s_p * ln_r
    w -= t_p * ln_n
    w *= a_n

    def log_sum(ln: np.ndarray, log_bound: float) -> TruncatedSum:
        return truncated_sum(lambda lo, hi: a_n[lo:hi] * ln[lo:hi], limit, params, g, log_bound)

    residual = sum_blocks(limit, lambda lo, hi: exact_sum(w[lo:hi]))
    log_n, log_r = log_sum(ln_n, 1.0), log_sum(ln_r, g)
    tolerance = (st.s_value.tail_bound * log_r.upper + st.t_value.tail_bound * log_n.upper
                 + s_p * log_r.tail_bound + t_p * log_n.tail_bound)
    below, equal, above, ambiguous = class_masks(ln_n, ln_r, *st.ratio_interval)
    return IdentityResult(
        residual=residual,
        tolerance=tolerance,
        st=st,
        terms_used=limit,
        below=exact_sum(w[below]),
        equal=exact_sum(w[equal]),
        above=exact_sum(w[above]),
        classification_counts=(
            int(below.sum()), int(equal.sum()), int(above.sum())
        ),
        ambiguous_count=int(ambiguous.sum()),
        ambiguous_sum=exact_sum(w[ambiguous]),
    )


# The benchmark calls and traces these two names.  Tracing wraps functions by
# identity, so each stays a function of its own rather than an alias.
def identity_residual(
    sieve: FactorSieve,
    primes: PrimeTable,
    params: Params,
    limit: int,
    prime_limit: int,
) -> IdentityResult:
    """``identity_pass`` under a name the benchmark calls and traces."""
    return identity_pass(sieve, primes, params, limit, prime_limit)


def split_identity(
    sieve: FactorSieve,
    primes: PrimeTable,
    params: Params,
    limit: int,
    prime_limit: int,
) -> IdentityResult:
    """``identity_pass`` under a name the benchmark calls and traces."""
    return identity_pass(sieve, primes, params, limit, prime_limit)
