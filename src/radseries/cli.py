"""Command-line frontend.

Every command is deterministic for fixed arguments and config: summation
runs serially over fixed block boundaries, so every run reproduces the
same bits.  Single results print as one JSON object on stdout, holding a
result dataclass's own fields in their order; grids and scans print CSV;
progress and diagnostics go to stderr only.  abc rows are formatted one
columnar pass per batch, no Python formatting per row, into the same bytes
as csv.writer with a %.17g quality.

Exit codes: 0 success, 2 invalid input (any (s, t) that Params refuses) or
a table that does not fit in memory, 3 verification failure.  A JSON result
with a NaN or infinite field is a verification failure too: nothing goes
to stdout and stderr names the field.

Each command refuses its own input before it sizes any table.  The
commands that use a factor sieve (radical, series, abc) build it exactly as
large as their input needs (n, --limit, --cmax), unless --sieve-file gives
one; radical alone also takes --sieve-limit.  identity forms its radicals
one window at a time from the primes up to the square root of --limit,
with no sieve.  A config file supplies only defaults for --prime-limit and
--spec.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from .abcscan import AbcBatch, certify, check_cmax, scan
from .config import Config, load_config
from .errors import InvalidParamsError, RadseriesError
from .euler import product_d
from .identity import check_limit, identity_pass
from .multfn import BUILTIN_SPECS, RADICAL_SPEC, builtin_spec
from .primes import sieve_primes
from .radical import FactorSieve, euler_phi, is_squarefree, radical
from .series import Params, series_d
from .stkernel import StKernel, st_ratio

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_VERIFICATION = 3


def _fmt(x: float) -> str:
    """17 significant digits: round-trips exactly to the same float64."""
    return format(x, ".17g")


class NonFiniteResult(Exception):
    """A result field is NaN or infinite, which strict JSON cannot carry."""


def _non_finite_field(obj, path: str = "") -> str | None:
    """Dotted path of the first NaN or infinite float in obj, else None."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else path
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, (list, tuple)):
        items = enumerate(obj)
    else:
        return None
    for key, value in items:
        found = _non_finite_field(value, f"{path}.{key}" if path else str(key))
        if found is not None:
            return found
    return None


def _emit_json(obj) -> None:
    try:
        text = json.dumps({"schema_version": SCHEMA_VERSION, **obj}, allow_nan=False)
    except ValueError:
        field = _non_finite_field(obj)
        raise NonFiniteResult(f"result field {field!r} is not finite") from None
    sys.stdout.write(text + "\n")


def _limit(value: int | None, default: int | None, flag: str, least: int) -> int | None:
    """The flag's value, or the default when the flag is absent.

    An explicit value below ``least`` is invalid input, never a request for
    the default.
    """
    if value is None:
        return default
    if value < least:
        raise RadseriesError(f"{flag} must be >= {least}, got {value}")
    return value


def _prime_limit(args, cfg: Config) -> int:
    return _limit(args.prime_limit, cfg.prime_limit, "--prime-limit", 2)


def _sieve(args, limit: int) -> FactorSieve:
    """The --sieve-file dump, else a sieve to limit: spf-only, as no command
    reads a cached value array.  The library rejects a sieve too small for
    the command's input."""
    if args.sieve_file:
        return FactorSieve.load(args.sieve_file, cache_values=False)
    return FactorSieve.build(limit, cache_values=False)


def cmd_radical(args, cfg: Config) -> int:
    n = _limit(args.n, None, "n", 1)  # n is required
    sieve = _sieve(args, _limit(args.sieve_limit, n, "--sieve-limit", 1))
    _emit_json({
        "n": n,
        "radical": radical(sieve, n),
        "phi": euler_phi(sieve, n),
        "squarefree": is_squarefree(sieve, n),
    })
    return EXIT_OK


def cmd_sieve(args, cfg: Config) -> int:
    limit = _limit(args.limit, None, "--limit", 1)  # --limit is required
    sieve = FactorSieve.build(limit, cache_values=False)
    sieve.dump(args.out)
    _emit_json({
        "limit": limit,
        "path": args.out,
    })
    return EXIT_OK


def cmd_series(args, cfg: Config) -> int:
    params = Params(s=args.s, t=args.t)
    spec = builtin_spec(args.spec or cfg.spec)
    limit = _limit(args.limit, None, "--limit", 1)  # --limit is required
    sieve = _sieve(args, limit)
    result = series_d(spec, sieve, params, limit)
    payload = {
        "command": "series",
        "spec": spec.name,
        **asdict(params),
        "limit": limit,
        **asdict(result),
    }
    if args.compare:
        prime_limit = _prime_limit(args, cfg)
        table = sieve_primes(prime_limit)
        prod = product_d(spec, table, params, prime_limit)
        gap = abs(result.value - prod.value)
        tolerance = result.tail_bound + prod.tail_bound
        payload["product"] = {**asdict(prod), "prime_limit": prime_limit}
        payload["gap"] = gap
        payload["combined_tolerance"] = tolerance
        payload["agrees"] = gap <= tolerance
    _emit_json(payload)
    return EXIT_OK if payload.get("agrees", True) else EXIT_VERIFICATION


def cmd_product(args, cfg: Config) -> int:
    params = Params(s=args.s, t=args.t)
    spec = builtin_spec(args.spec or cfg.spec)
    prime_limit = _prime_limit(args, cfg)
    table = sieve_primes(prime_limit)
    result = product_d(spec, table, params, prime_limit)
    _emit_json({
        "command": "product",
        "spec": spec.name,
        **asdict(params),
        "prime_limit": prime_limit,
        **asdict(result),
    })
    return EXIT_OK


def cmd_st(args, cfg: Config) -> int:
    params = Params(s=args.s, t=args.t)
    prime_limit = _prime_limit(args, cfg)
    table = sieve_primes(prime_limit)
    st = st_ratio(table, params, prime_limit)
    _emit_json({
        "command": "st",
        **asdict(params),
        "prime_limit": prime_limit,
        "s_value": asdict(st.s_value),
        "t_value": asdict(st.t_value),
        "ratio": st.ratio,
        "ratio_low": st.ratio_interval[0],
        "ratio_high": st.ratio_interval[1],
        "in_bound": st.in_bound,
    })
    return EXIT_OK


def _grid_axis(lo: float, hi: float, steps: int) -> list[float]:
    if steps == 1:
        return [lo]
    n = steps - 1
    if math.isfinite(hi - lo):
        return [lo + (hi - lo) * i / n for i in range(steps)]
    # a width that is infinite or overflows: weigh the ends, keeping both exactly
    return [lo, *(lo * ((n - i) / n) + hi * (i / n) for i in range(1, n)), hi]


def cmd_ratio_grid(args, cfg: Config) -> int:
    prime_limit = _prime_limit(args, cfg)
    steps = _limit(args.steps, None, "--steps", 1)  # --steps has a default
    kernel = StKernel.for_spec(RADICAL_SPEC, sieve_primes(prime_limit), prime_limit)
    # every point is computed before any row is written, so a point the
    # kernel rejects leaves stdout empty instead of a truncated CSV
    rows = []
    in_bound = []  # per point inside the region
    for s in _grid_axis(args.s_min, args.s_max, steps):
        for t in _grid_axis(args.t_min, args.t_max, steps):
            try:
                params = Params(s=s, t=t)
            except InvalidParamsError:
                rows.append(f"{SCHEMA_VERSION},{_fmt(s)},{_fmt(t)},,,,,,outside_rc\n")
                continue
            st = kernel.ratio(params)
            values = (s, t, st.s_value.value, st.t_value.value, st.ratio, *st.ratio_interval)
            rows.append(f"{SCHEMA_VERSION},{','.join(map(_fmt, values))},ok\n")
            in_bound.append(st.in_bound)
    if not in_bound:
        raise RadseriesError("no grid point lies inside the region of convergence "
                             "(t > 0, s > 1 + t)")
    sys.stdout.write("schema_version,s,t,S,T,ratio,ratio_low,ratio_high,status\n")
    sys.stdout.write("".join(rows))
    out_of_bound = in_bound.count(False)
    if args.check_bounds and out_of_bound:
        print(f"ratio-grid: {out_of_bound} enclosing interval(s) leave (1, 2)",
              file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


def cmd_identity(args, cfg: Config) -> int:
    params = Params(s=args.s, t=args.t)
    prime_limit = _prime_limit(args, cfg)
    limit = args.limit
    check_limit(limit)
    table = sieve_primes(prime_limit)
    r = identity_pass(table, params, limit, prime_limit)
    _emit_json({
        "command": "identity",
        **asdict(params),
        "limit": limit,
        "prime_limit": prime_limit,
        "residual": r.residual,
        "tolerance": r.tolerance,
        "within_tolerance": r.within_tolerance,
        "split": {
            "below": r.below,
            "equal": r.equal,
            "above": r.above,
            "counts": list(r.classification_counts),
            "ambiguous_count": r.ambiguous_count,
            "balance_gap": r.balance_gap,
            "tolerance": r.tolerance,
        },
    })
    return EXIT_OK


# Text columns: a field of n rows is a (width, n) uint8 matrix of ASCII
# codes, one row per character position.  NUL marks a position the row does
# not print, so fields of varying length line up and one NUL deletion over
# the row-major bytes yields the CSV text.
_NUL, _ZERO, _POINT = np.uint8(0), np.uint8(ord("0")), np.uint8(ord("."))
_BOOLS = np.frombuffer(b"falsetrue\0", np.uint8).reshape(2, 5).T
_POW10 = 10.0 ** np.arange(23)  # exact doubles
_VELTKAMP = 2.0 ** 27 + 1


def _digit_cols(v: np.ndarray, width: int) -> np.ndarray:
    """Decimal digits of non-negative int64 values below 10^width as text
    columns, zero-padded to width positions."""
    text = np.empty((width, len(v)), np.uint8)
    for end in range(width, 0, -9):  # nine digits at a time, in int32
        high = v // 10 ** 9 if end > 9 else 0
        part = (v - high * 10 ** 9).astype(np.int32)
        for row in range(end - 1, max(end - 9, 0) - 1, -1):
            quotient = part // 10
            text[row] = part - quotient * 10
            part = quotient
        v = high
    text += _ZERO
    return text


def _int_cols(v: np.ndarray) -> np.ndarray:
    """Decimal text of a non-empty column of non-negative integers; an object
    column of exact ints goes through str."""
    if v.dtype == object:
        return v.astype("S").view(np.uint8).reshape(len(v), -1).T
    text = _digit_cols(v, len(str(int(v.max()))))
    significant = np.zeros(len(v), bool)
    for row in text[:-1]:  # leading zeros print nothing
        significant |= row != _ZERO
        row *= significant
    return text


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp: x = hi + lo exactly, each half of at most 26 significant bits."""
    t = x * _VELTKAMP
    hi = t - (t - x)
    return hi, x - hi


def _scaled_round(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """round(x * 10^k) as int64, ties to even, for 0 <= k <= 22 and a
    product of at least 2^53 (Dekker's TwoProduct: x * 10^k = p + e exactly).
    A smaller product gives a result below 2^53 + 1 all the same."""
    y = _POW10[k]
    p = x * y
    xh, xl = _split(x)
    yh, yl = _split(y)
    e = ((xh * yh - p) + xh * yl + xl * yh) + xl * yl
    # p >= 2^53 is an even integer, so rint(e) also rounds a tie to even
    return p.astype(np.int64) + np.rint(e).astype(np.int64)


def _g17_cols(x: np.ndarray) -> np.ndarray:
    """format(x, ".17g") of each float64 as text columns.

    A row in [1e-4, 1e16) prints in fixed notation, built from the correctly
    rounded 17-digit integer D = round(x * 10^(16 - E)) in [10^16, 10^17),
    where E is the decimal exponent; any other row goes through format.
    """
    fixed = np.isfinite(x) & (x >= 1e-4) & (x < 1e16)
    y = np.where(fixed, x, 1.0)
    exp = np.floor(np.log10(y)).astype(np.int64)
    while True:  # log10 is not correctly rounded: E may be one off
        d = _scaled_round(y, 16 - exp)
        shift = (d >= 10 ** 17).astype(np.int64) - (d < 10 ** 16)
        if not shift.any():
            break
        exp += shift
    digits = _digit_cols(d, 17)
    # a digit prints unless it is a trailing zero after the decimal point
    kept = np.zeros(len(x), bool)
    for k in range(16, -1, -1):
        kept |= (digits[k] != _ZERO) | (exp >= k)
        digits[k] *= kept
    cols = []
    low, high = int(exp.min()), int(exp.max())
    if low < 0:  # "0." and the zeros between it and the first digit
        cols.append(np.where(exp < 0, _ZERO, _NUL)[None])
        cols.append(np.where(exp < 0, _POINT, _NUL)[None])
        cols.append(np.where(np.arange(-low - 1)[:, None] < -1 - exp, _ZERO, _NUL))
    start = 0
    for k in range(high + 1):  # a point slot after each integer digit
        cols.append(digits[start:k + 1])
        cols.append(np.where((exp == k) & (digits[k + 1] != _NUL), _POINT, _NUL)[None])
        start = k + 1
    cols.append(digits[start:])
    text = np.concatenate(cols)
    if not fixed.all():
        other = np.array([_fmt(v) for v in x[~fixed].tolist()], "S")
        other = other.view(np.uint8).reshape(len(other), -1).T
        text = np.vstack([text, np.zeros((max(len(other) - len(text), 0), len(x)), np.uint8)])
        text[:, ~fixed] = _NUL
        text[:len(other), ~fixed] = other
    return text


def _abc_csv_rows(batch: AbcBatch) -> str:
    """The batch's CSV rows, as csv.writer would print them, with a %.17g
    quality: one columnar pass, no per-row formatting."""
    n = len(batch.a)
    if n == 0:
        return ""

    def const(text: str) -> np.ndarray:
        return np.broadcast_to(np.frombuffer(text.encode(), np.uint8)[:, None], (len(text), n))

    comma = const(",")
    text = np.concatenate([
        const(f"{SCHEMA_VERSION},"), _int_cols(batch.a), comma, _int_cols(batch.b), comma,
        _int_cols(batch.c), comma, _int_cols(batch.rad_abc), comma,
        _BOOLS[:, batch.hypothesis.view(np.uint8)], comma,
        _BOOLS[:, batch.conclusion.view(np.uint8)], comma,
        _g17_cols(batch.quality), const("\n"),
    ])
    return text.T.tobytes().translate(None, b"\0").decode("ascii")


def cmd_abc(args, cfg: Config) -> int:
    params = Params(s=args.s, t=args.t)
    prime_limit = _prime_limit(args, cfg)
    check_cmax(args.cmax)
    sieve = _sieve(args, args.cmax)
    table = sieve_primes(prime_limit)

    progress = None
    if args.progress:
        def progress(c: int, c_max: int) -> None:
            if c % 500 == 0 or c == c_max:
                print(f"abc: c={c}/{c_max}", file=sys.stderr)

    if args.verify:
        report = certify(sieve, table, params, args.cmax, prime_limit,
                         sample=args.sample, seed=args.seed, progress=progress)
        _emit_json({
            "command": "abc-verify",
            **asdict(params),
            "cmax": args.cmax,
            "prime_limit": prime_limit,
            **asdict(report),  # its AbcRecord rows print as JSON arrays
        })
        return EXIT_VERIFICATION if report.counterexample_count else EXIT_OK
    batches = scan(sieve, table, params, args.cmax, prime_limit,
                   sample=args.sample, seed=args.seed, progress=progress)
    sys.stdout.write("schema_version,a,b,c,rad_abc,hypothesis_holds,conclusion_holds,quality\n")
    for batch in batches:
        sys.stdout.write(_abc_csv_rows(batch))
    return EXIT_OK


def _add_params(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--s", type=float, required=True, help="exponent s (needs s > 1 + t)")
    parser.add_argument("--t", type=float, required=True, help="exponent t (needs t > 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radseries",
        description="Numeric toolkit for the radical generating series, its "
                    "Euler product, the S/T prime sums, and abc-triple scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("radical", help="radical, totient and squarefree flag of n")
    p.add_argument("n", type=int)
    p.add_argument("--sieve-limit", type=int, help="factor sieve limit, at least n (default n)")
    p.set_defaults(func=cmd_radical)

    p = sub.add_parser("sieve", help="build a factor sieve and dump it to disk")
    p.add_argument("--limit", type=int, required=True, help="sieve limit")
    p.add_argument("--out", required=True, help="output path for the binary dump")
    p.set_defaults(func=cmd_sieve)

    p = sub.add_parser("series", help="truncated series sum_{n<=N} M(n)^t/n^s")
    _add_params(p)
    p.add_argument("--limit", type=int, required=True, help="truncation N")
    p.add_argument("--spec", choices=sorted(BUILTIN_SPECS),
                   help="built-in multiplicative spec (default from config)")
    p.add_argument("--compare", action="store_true",
                   help="also run the Euler product and report the gap")
    p.add_argument("--prime-limit", type=int, help="prime truncation for --compare")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("product", help="truncated Euler product over primes <= P")
    _add_params(p)
    p.add_argument("--prime-limit", type=int, help="prime truncation P")
    p.add_argument("--spec", choices=sorted(BUILTIN_SPECS),
                   help="built-in multiplicative spec (default from config)")
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("st", help="prime sums S(s,t), T(s,t) and their ratio")
    _add_params(p)
    p.add_argument("--prime-limit", type=int)
    p.set_defaults(func=cmd_st)

    p = sub.add_parser("ratio-grid", help="CSV grid of S/T over an (s,t) rectangle")
    p.add_argument("--s-min", type=float, required=True)
    p.add_argument("--s-max", type=float, required=True)
    p.add_argument("--t-min", type=float, required=True)
    p.add_argument("--t-max", type=float, required=True)
    p.add_argument("--steps", type=int, default=20, help="grid points per axis")
    p.add_argument("--prime-limit", type=int)
    p.add_argument("--check-bounds", action="store_true",
                   help="exit 3 if any enclosing interval leaves (1, 2)")
    p.set_defaults(func=cmd_ratio_grid)

    p = sub.add_parser("identity", help="zero-identity residual and class split")
    _add_params(p)
    p.add_argument("--limit", type=int, required=True, help="n-sum truncation")
    p.add_argument("--prime-limit", type=int)
    p.set_defaults(func=cmd_identity)

    p = sub.add_parser("abc", help="scan coprime triples a + b = c <= cmax")
    _add_params(p)
    p.add_argument("--cmax", type=int, required=True)
    p.add_argument("--prime-limit", type=int)
    p.add_argument("--verify", action="store_true",
                   help="print the report of every row instead of CSV rows, formed from "
                        "phi(c)/2 counts and the rows that can reach the top quality "
                        "list or fail the conclusion; exit 3 on any counterexample")
    p.add_argument("--sample", type=int, help="scan a random subset of c values")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--progress", action="store_true", help="progress lines on stderr")
    p.set_defaults(func=cmd_abc)

    # every command takes --config; only those that use a factor sieve take --sieve-file
    for name, p in sub.choices.items():
        p.add_argument("--config", help="path to key=value config file")
        if name in ("radical", "series", "abc"):
            p.add_argument("--sieve-file", help="load the factor sieve from a dump")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        return args.func(args, cfg)
    except (RadseriesError, MemoryError) as exc:  # a bare MemoryError has no text
        print(f"radseries: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_INVALID
    except NonFiniteResult as exc:
        print(f"radseries: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
