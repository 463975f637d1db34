"""Positive multiplicative functions defined by their prime-power values.

A spec induces M(n) = prod value(p, k) over the prime powers p^k exactly
dividing n, so M(1) = 1 and M(mn) = M(m)M(n) for coprime m, n hold by
construction.  The radical is the canonical instance; identity and unit are
shipped as closed-form sanity anchors (their series reduce to zeta(s - t)
and zeta(s)).

The rule value(p, k) is called only on int64 arrays of primes and
exponents; a scalar result broadcasts.  ``range_values`` forms M(n) over a
range from the one spf recurrence, ``radical.multiplicative_values``:
M(n) = M(m) / value(p, k-1) * value(p, k) with p = spf[n] and m = n / p.

Optional declarations unlock extra machinery:

* ``growth_exponent`` g certifies 1 <= M(n) <= n^g and is what the series
  module needs to attach rigorous tail bounds (the majorant becomes
  sum n^(g*t - s)).  Specs without it still give values, but truncations are
  reported value-only.
* ``log_local_factor`` is the closed form of ln(1 + sum_k M(p^k)^t p^(-ks)),
  vectorized over a float64 prime array; the Euler-product module refuses
  specs that do not declare one rather than truncate an inner series of
  unknown error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidSpecError
from .radical import FactorSieve, multiplicative_values


@dataclass(frozen=True)
class MultiplicativeSpec:
    name: str
    value_at_prime_power: Callable[[np.ndarray, np.ndarray], np.ndarray | float]
    growth_exponent: float | None = None
    log_local_factor: Callable[[np.ndarray, float, float], np.ndarray] | None = None


def prime_power_values(spec: MultiplicativeSpec, p, k) -> np.ndarray:
    """value(p, k) as float64 in the shape of p; raises InvalidSpecError
    unless every value is > 0."""
    v = np.empty(np.shape(p))
    v[...] = spec.value_at_prime_power(p, k)
    bad = np.flatnonzero(~(v > 0.0))
    if len(bad):
        i = bad[0]
        raise InvalidSpecError(f"spec {spec.name!r} returned {v.flat[i]} at prime power "
                               f"{np.ravel(p)[i]}^{np.ravel(k)[i]}")
    return v


def range_values(spec: MultiplicativeSpec, sieve: FactorSieve, n_max: int) -> np.ndarray:
    """M(n) for n = 0..n_max as float64 (index 0 is a 1.0 sentinel)."""
    sieve.check_range(max(n_max, 1))

    def extend(m_values: np.ndarray, p: np.ndarray, k: np.ndarray) -> np.ndarray:
        # M(n) = M(m) / value(p, k-1) * value(p, k): the division undoes
        # m's own factor, so integer values below 2^53 stay exact.  The rule
        # gets int64 p and k, whatever the sieve's own dtypes
        p, k = p.astype(np.int64), k.astype(np.int64)
        deep = np.flatnonzero(k > 1)
        m_values[deep] /= prime_power_values(spec, p[deep], k[deep] - 1)
        m_values *= prime_power_values(spec, p, k)
        return m_values

    return multiplicative_values(sieve.spf[: n_max + 1], (np.float64, 1.0, extend))[0]


def _radical_log_factor(p: np.ndarray, s: float, t: float) -> np.ndarray:
    # factor (p^s - 1 + p^t)/(p^s - 1) written as 1 + p^(t-s)/(1 - p^(-s)):
    # both powers stay finite for any s > t, so no overflow branch is needed.
    return np.log1p(np.power(p, t - s) / (1.0 - np.power(p, -s)))


def _identity_log_factor(p: np.ndarray, s: float, t: float) -> np.ndarray:
    # geometric inner series: factor = 1/(1 - p^(t-s)), the zeta(s-t) factor
    return -np.log1p(-np.power(p, t - s))


def _unit_log_factor(p: np.ndarray, s: float, t: float) -> np.ndarray:
    return -np.log1p(-np.power(p, -s))


RADICAL_SPEC = MultiplicativeSpec(
    name="radical",
    value_at_prime_power=lambda p, k: p,
    growth_exponent=1.0,
    log_local_factor=_radical_log_factor,
)

IDENTITY_SPEC = MultiplicativeSpec(
    name="identity",
    value_at_prime_power=lambda p, k: p ** k,
    growth_exponent=1.0,
    log_local_factor=_identity_log_factor,
)

UNIT_SPEC = MultiplicativeSpec(
    name="unit",
    value_at_prime_power=lambda p, k: 1.0,
    growth_exponent=0.0,
    log_local_factor=_unit_log_factor,
)

BUILTIN_SPECS = {
    "radical": RADICAL_SPEC,
    "identity": IDENTITY_SPEC,
    "unit": UNIT_SPEC,
}


def builtin_spec(name: str) -> MultiplicativeSpec:
    try:
        return BUILTIN_SPECS[name]
    except KeyError:
        raise InvalidSpecError(
            f"unknown spec {name!r}; built-ins: {sorted(BUILTIN_SPECS)}"
        ) from None
