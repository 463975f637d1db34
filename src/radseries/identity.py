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
module's one term kernel and one truncated-sum rule.  The pass walks n over
the fixed summation blocks, with e(n) = n / R(n) formed one window of blocks
at a time from the prime-power strides of the primes up to sqrt(N)
(``radical.radical_quotient_window``), and each block's R(n) as the float64
quotient n / e(n), which is exact.  So its per-n memory is one window, not
N, and every sum keeps the bits of a whole-array pass (see
``identity_pass``).  Each weight of the identity is leveled once, into the
exact parts of its class; a block's residual is the fsum of its four
classes' parts, which partition the block.

The class split never forms R(n)^(S/T): it compares T ln n with S ln R(n)
in log space.  A comparison is committed only when the whole S/T enclosure
lands on one side; borderline cases are reported as ambiguous rather than
misclassified.  One vectorised rule, ``class_masks``, classifies for the
split and the abc scan alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfRangeError
from .multfn import RADICAL_SPEC
from .numerics import DEFAULT_BLOCK, block_bounds, exact_parts, exact_sum
from .primes import PrimeTable, sieve_primes
from .radical import _SPF_MAX, FactorSieve, radical_quotient_window
from .series import Params, tail_bound, term_kernel
from .stkernel import StResult, st_ratio

WINDOW = 4 * DEFAULT_BLOCK  # n per radical window: four summation blocks


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
    """(below, equal, above, ambiguous) masks over ln n and ln R(n) arrays:
    n < R(n)^(S/T), n = 1, n > R(n)^(S/T), and committed to neither side.

    The one classification rule, committed over a whole S/T enclosure
    [low, high]: n < R(n)^(S/T) for every ratio in it exactly when
    ln n < low ln R(n), and n > R(n)^(S/T) exactly when ln n > high ln R(n).
    """
    equal = (ln_n == 0.0) & (ln_r == 0.0)
    below = ln_n < ratio_low * ln_r
    above = ln_n > ratio_high * ln_r
    return below, equal, above, ~(below | above | equal)


def check_limit(limit: int) -> None:
    """Refuse an n-sum limit below 1 or past 2^32 - 1, before any work."""
    if not 1 <= limit <= _SPF_MAX:  # the largest n a uint32 window holds
        raise OutOfRangeError(f"identity limit {limit} is outside [1, {_SPF_MAX}]")


def identity_pass(
    primes: PrimeTable,
    params: Params,
    limit: int,
    prime_limit: int,
) -> IdentityResult:
    """Residual and class split of the identity from one per-n pass.

    S/T is computed once.  n then walks the fixed blocks of
    ``numerics.sum_blocks``; each block forms a_n, ln n, ln R(n) and the
    weights w = a_n (S ln R(n) - T ln n) once, and keeps only what the sums
    need: the block sums of the two log-weighted series behind the tolerance
    (sum a_n ln n and sum a_n ln R(n), by the rule of ``series_d_log_n`` and
    ``series_d_log_m``), the exact parts of its w in each class, and its
    residual, the ``math.fsum`` of those parts over the four classes.  As
    the classes partition the block and the parts keep each class's exact
    total, that is ``math.fsum(w)`` bit for bit, with no second pass over w.
    e(n) = n / R(n) comes from ``radical_quotient_window`` over WINDOW n at
    a time, from the primes up to sqrt(limit) whatever prime_limit is, and
    each block's R(n) is n / e(n) over a slice of its window: exact in
    float64, as e(n) divides n < 2^53, so R(n) has the bits of the integer
    radical.  Memory is one window of e(n) and one block of each float
    array, whatever the limit.

    Each class sum is one ``math.fsum`` over its blocks' ``exact_parts``,
    and each block residual one over the parts of the block's four classes;
    either equals ``math.fsum`` of the same w bit for bit away from
    overflow.  w stays far from it: a_n <= n^(t-s) <= 1, and each T-term is
    below ln p and each S-term below twice its T-term, so
    |w_n| <= 3 theta(P) ln n < 4 P ln n, below 2^72 for any int64 P and n.
    A non-finite a_n (R(n)^t overflowing) keeps fsum's own NaN and inf.
    """
    check_limit(limit)
    st = st_ratio(primes, params, prime_limit)
    s_p, t_p = st.s_value.value, st.t_value.value
    g = RADICAL_SPEC.growth_exponent

    base = sieve_primes(max(math.isqrt(limit), 2)).primes
    residual, log_n, log_r = [], [], []  # block sums
    parts = ([], [], [], [])  # each block's exact parts of w, by class
    counts = [0, 0, 0, 0]
    for lo, hi in block_bounds(limit):
        if lo % WINDOW == 0:  # the next window, with the last one freed first
            start, e = lo + 1, None  # e[i] = (start + i) / R(start + i)
            e = radical_quotient_window(base, start, min(lo + WINDOW, limit) + 1)
        # ln n and ln R(n) overwrite n and R(n), and w holds each product in
        # turn: every element meets the same operations in the same order
        n = np.arange(lo + 1, hi + 1, dtype=np.float64)
        r = np.divide(n, e[lo + 1 - start: hi + 1 - start])
        a_n = term_kernel(r, n, params)
        ln_n, ln_r = np.log(n, out=n), np.log(r, out=r)
        w = np.multiply(a_n, ln_n)
        log_n.append(exact_sum(w))
        log_r.append(exact_sum(np.multiply(a_n, ln_r, out=w)))
        np.multiply(s_p, ln_r, out=w)
        w -= t_p * ln_n
        w *= a_n
        del a_n
        masks = class_masks(ln_n, ln_r, *st.ratio_interval)
        del n, r, ln_n, ln_r
        for i, mask in enumerate(masks):
            # the same copy as w[mask], gathered by index: ~3x faster on
            # masks that mix the classes
            members = np.compress(mask, w)
            parts[i].append(exact_parts(members))
            counts[i] += len(members)
        residual.append(math.fsum([x for p in parts for x in p[-1]]))  # the classes partition w

    tail_n, tail_r = tail_bound(limit, params, g, 1.0), tail_bound(limit, params, g, g)
    tolerance = (st.s_value.tail_bound * (math.fsum(log_r) + tail_r)
                 + st.t_value.tail_bound * (math.fsum(log_n) + tail_n)
                 + s_p * tail_r + t_p * tail_n)
    below, equal, above, ambiguous = (math.fsum([x for b in p for x in b]) for p in parts)
    return IdentityResult(
        residual=math.fsum(residual),
        tolerance=tolerance,
        st=st,
        terms_used=limit,
        below=below,
        equal=equal,
        above=above,
        classification_counts=tuple(counts[:3]),
        ambiguous_count=counts[3],
        ambiguous_sum=ambiguous,
    )


# The benchmark calls and traces these two names, with a sieve first.
# Tracing wraps functions by identity, so each stays a function of its own
# rather than an alias.
def identity_residual(
    sieve: FactorSieve,
    primes: PrimeTable,
    params: Params,
    limit: int,
    prime_limit: int,
) -> IdentityResult:
    """``identity_pass`` under a name the benchmark calls and traces; the
    sieve is unused."""
    return identity_pass(primes, params, limit, prime_limit)


def split_identity(
    sieve: FactorSieve,
    primes: PrimeTable,
    params: Params,
    limit: int,
    prime_limit: int,
) -> IdentityResult:
    """``identity_pass`` under a name the benchmark calls and traces; the
    sieve is unused."""
    return identity_pass(primes, params, limit, prime_limit)
