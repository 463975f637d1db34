"""Numeric verification toolkit for the radical generating series
D(s,t) = sum_{n>=1} R(n)^t / n^s, its Euler product, the prime sums
S(s,t) and T(s,t) with the bound 1 < S/T < 2, the zero identity and its
three-way split, and scanning of coprime triples a + b = c against the
criterion c < R(c)^(S/T)  =>  a + b < R(abc)^2.
"""

from .abcscan import AbcBatch, AbcRecord, Theorem2Report, certify, scan, verify_theorem2
from .errors import (
    InvalidArgumentError,
    InvalidParamsError,
    InvalidSpecError,
    OutOfRangeError,
    RadseriesError,
    UnsupportedSpecError,
)
from .euler import product_d
from .identity import (
    IdentityResult,
    identity_pass,
    identity_residual,
    split_identity,
)
from .multfn import (
    BUILTIN_SPECS,
    IDENTITY_SPEC,
    RADICAL_SPEC,
    UNIT_SPEC,
    MultiplicativeSpec,
    builtin_spec,
    range_values,
)
from .primes import PrimeTable, sieve_primes
from .radical import FactorSieve, euler_phi, factorize, is_squarefree, radical
from .series import Params, TruncatedSum, series_d, series_d_log_m, series_d_log_n
from .stkernel import StResult, s_general, st_ratio, t_general

__version__ = "0.1.0"

__all__ = [
    "AbcBatch",
    "AbcRecord",
    "BUILTIN_SPECS",
    "FactorSieve",
    "IDENTITY_SPEC",
    "IdentityResult",
    "InvalidArgumentError",
    "InvalidParamsError",
    "InvalidSpecError",
    "MultiplicativeSpec",
    "OutOfRangeError",
    "Params",
    "PrimeTable",
    "RADICAL_SPEC",
    "RadseriesError",
    "StResult",
    "Theorem2Report",
    "TruncatedSum",
    "UNIT_SPEC",
    "UnsupportedSpecError",
    "builtin_spec",
    "certify",
    "euler_phi",
    "factorize",
    "identity_pass",
    "identity_residual",
    "is_squarefree",
    "product_d",
    "radical",
    "range_values",
    "s_general",
    "scan",
    "series_d",
    "series_d_log_m",
    "series_d_log_n",
    "sieve_primes",
    "split_identity",
    "st_ratio",
    "t_general",
    "verify_theorem2",
]
