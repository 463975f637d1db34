"""Positive multiplicative functions defined by their prime-power values.

A spec induces M(n) = prod value(p, k) over the prime powers p^k exactly
dividing n, so M(1) = 1 and M(mn) = M(m)M(n) for coprime m, n hold by
construction.  The radical is the canonical instance; identity and unit are
shipped as closed-form sanity anchors (their series reduce to zeta(s - t)
and zeta(s)).

Optional declarations unlock extra machinery:

* ``growth_exponent`` g certifies 1 <= M(n) <= n^g and is what the series
  module needs to attach rigorous tail bounds (the majorant becomes
  sum n^(g*t - s)).  Specs without it still evaluate, but truncations are
  reported value-only.
* ``log_local_factor`` is the closed form of ln(1 + sum_k M(p^k)^t p^(-ks)),
  vectorized over a float64 prime array; the Euler-product module refuses
  specs that do not declare one rather than truncate an inner series of
  unknown error.
* ``prime_values`` vectorizes M(p) for the generalized prime sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidSpecError
from .radical import FactorSieve, factorize, radical_range


@dataclass(frozen=True)
class MultiplicativeSpec:
    name: str
    value_at_prime_power: Callable[[int, int], float]
    growth_exponent: float | None = None
    log_local_factor: Callable[[np.ndarray, float, float], np.ndarray] | None = None
    prime_values: Callable[[np.ndarray], np.ndarray] | None = None
    range_hook: Callable[[FactorSieve, int], np.ndarray] | None = None


def _value(spec: MultiplicativeSpec, p: int, k: int) -> float:
    """value(p, k) as a float; raises InvalidSpecError unless it is > 0."""
    v = float(spec.value_at_prime_power(p, k))
    if not v > 0.0:
        raise InvalidSpecError(f"spec {spec.name!r} returned {v} at prime power {p}^{k}")
    return v


def evaluate(spec: MultiplicativeSpec, sieve: FactorSieve, n: int) -> float:
    """M(n) as a positive float; raises InvalidSpecError on a bad rule."""
    result = 1.0
    for p, k in factorize(sieve, n):
        result *= _value(spec, p, k)
    return result


def range_values(spec: MultiplicativeSpec, sieve: FactorSieve, n_max: int) -> np.ndarray:
    """M(n) for n = 0..n_max as float64 (index 0 is a 1.0 sentinel).

    Generic path: one strided multiply per prime power p^k <= n_max, scaling
    the multiples of p^k by value(p,k)/value(p,k-1), which leaves every n
    with p^e || n carrying exactly value(p,e).
    """
    if spec.range_hook is not None:
        return spec.range_hook(sieve, n_max)
    sieve.check_range(max(n_max, 1))
    vals = np.ones(n_max + 1, dtype=np.float64)
    if n_max < 2:
        return vals
    spf = sieve.spf[: n_max + 1]
    is_prime = spf == np.arange(n_max + 1, dtype=np.int64)
    is_prime[:2] = False
    for p in np.flatnonzero(is_prime):
        p = int(p)
        prev = 1.0
        pk = p
        k = 1
        while pk <= n_max:
            v = _value(spec, p, k)
            vals[pk:: pk] *= v / prev
            prev = v
            pk *= p
            k += 1
    return vals


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
    value_at_prime_power=lambda p, k: float(p),
    growth_exponent=1.0,
    log_local_factor=_radical_log_factor,
    prime_values=lambda p: p,
    range_hook=lambda sieve, n_max: radical_range(sieve, n_max).astype(np.float64),
)

IDENTITY_SPEC = MultiplicativeSpec(
    name="identity",
    value_at_prime_power=lambda p, k: float(p ** k),
    growth_exponent=1.0,
    log_local_factor=_identity_log_factor,
    prime_values=lambda p: p,
    range_hook=lambda sieve, n_max: np.maximum(
        np.arange(n_max + 1, dtype=np.float64), 1.0
    ),
)

UNIT_SPEC = MultiplicativeSpec(
    name="unit",
    value_at_prime_power=lambda p, k: 1.0,
    growth_exponent=0.0,
    log_local_factor=_unit_log_factor,
    prime_values=lambda p: np.ones_like(p),
    range_hook=lambda sieve, n_max: np.ones(n_max + 1, dtype=np.float64),
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
