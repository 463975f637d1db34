"""Command-line frontend.

Every command is deterministic for fixed arguments and config: summation
runs serially over fixed block boundaries, so every run reproduces the
same bits.  Single results print as one JSON object on stdout; grids
and scans print CSV; progress and diagnostics go to stderr only.

Exit codes: 0 success, 2 invalid input, 3 verification failure.  A JSON
result with a NaN or infinite field is a verification failure too: nothing
goes to stdout and stderr names the field.

The commands that use a factor sieve (radical, series, identity, abc) build
it exactly as large as their input needs (n, --limit, --limit, --cmax),
unless --sieve-limit or --sieve-file gives one.  A config file supplies
only defaults for --prime-limit and --spec.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .abcscan import AbcBatch, scan, verify_theorem2
from .config import Config, load_config
from .errors import InvalidParamsError, RadseriesError
from .euler import product_d
from .identity import identity_pass
from .multfn import BUILTIN_SPECS, RADICAL_SPEC, builtin_spec
from .primes import sieve_primes
from .radical import FactorSieve, euler_phi, is_squarefree, radical
from .series import Params, TruncatedSum, series_d
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
        text = json.dumps(obj, allow_nan=False)
    except ValueError:
        field = _non_finite_field(obj)
        raise NonFiniteResult(f"result field {field!r} is not finite") from None
    sys.stdout.write(text + "\n")


def _sum_fields(ts: TruncatedSum) -> dict:
    return {"value": ts.value, "tail_bound": ts.tail_bound, "terms_used": ts.terms_used}


def _params(args) -> Params:
    return Params(s=args.s, t=args.t)


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


def _sieve(args, needed: int) -> FactorSieve:
    """The --sieve-file dump, else a sieve to --sieve-limit, else one to needed.

    The library rejects a sieve too small for the command's input; a need
    below 1 gets a one-entry sieve, whose range check rejects it the same way.
    """
    if args.sieve_file:
        return FactorSieve.load(args.sieve_file)
    return FactorSieve.build(_limit(args.sieve_limit, max(needed, 1), "--sieve-limit", 1))


def cmd_radical(args, cfg: Config) -> int:
    sieve = _sieve(args, args.n)
    _emit_json({
        "schema_version": SCHEMA_VERSION,
        "n": args.n,
        "radical": radical(sieve, args.n),
        "phi": euler_phi(sieve, args.n),
        "squarefree": is_squarefree(sieve, args.n),
    })
    return EXIT_OK


def cmd_sieve(args, cfg: Config) -> int:
    limit = _limit(args.limit, None, "--limit", 1)  # --limit is required
    sieve = FactorSieve.build(limit, cache_values=False)
    sieve.dump(args.out)
    _emit_json({
        "schema_version": SCHEMA_VERSION,
        "limit": limit,
        "path": args.out,
    })
    return EXIT_OK


def cmd_series(args, cfg: Config) -> int:
    params = _params(args)
    spec = builtin_spec(args.spec or cfg.spec)
    limit = args.limit
    sieve = _sieve(args, limit)
    result = series_d(spec, sieve, params, limit)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "series",
        "spec": spec.name,
        "s": args.s,
        "t": args.t,
        "limit": limit,
        **_sum_fields(result),
    }
    if args.compare:
        prime_limit = _prime_limit(args, cfg)
        table = sieve_primes(prime_limit)
        prod = product_d(spec, table, params, prime_limit)
        gap = abs(result.value - prod.value)
        tolerance = result.tail_bound + prod.tail_bound
        payload["product"] = {**_sum_fields(prod), "prime_limit": prime_limit}
        payload["gap"] = gap
        payload["combined_tolerance"] = tolerance
        payload["agrees"] = gap <= tolerance
        _emit_json(payload)
        return EXIT_OK if gap <= tolerance else EXIT_VERIFICATION
    _emit_json(payload)
    return EXIT_OK


def cmd_product(args, cfg: Config) -> int:
    params = _params(args)
    spec = builtin_spec(args.spec or cfg.spec)
    prime_limit = _prime_limit(args, cfg)
    table = sieve_primes(prime_limit)
    result = product_d(spec, table, params, prime_limit)
    _emit_json({
        "schema_version": SCHEMA_VERSION,
        "command": "product",
        "spec": spec.name,
        "s": args.s,
        "t": args.t,
        "prime_limit": prime_limit,
        **_sum_fields(result),
    })
    return EXIT_OK


def cmd_st(args, cfg: Config) -> int:
    params = _params(args)
    prime_limit = _prime_limit(args, cfg)
    table = sieve_primes(prime_limit)
    st = st_ratio(table, params, prime_limit)
    _emit_json({
        "schema_version": SCHEMA_VERSION,
        "command": "st",
        "s": args.s,
        "t": args.t,
        "prime_limit": prime_limit,
        "s_value": _sum_fields(st.s_value),
        "t_value": _sum_fields(st.t_value),
        "ratio": st.ratio,
        "ratio_low": st.ratio_interval[0],
        "ratio_high": st.ratio_interval[1],
        "in_bound": st.in_bound,
    })
    return EXIT_OK


def _grid_axis(lo: float, hi: float, steps: int) -> list[float]:
    if steps < 1:
        raise RadseriesError(f"steps must be >= 1, got {steps}")
    if steps == 1:
        return [lo]
    return [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]


def cmd_ratio_grid(args, cfg: Config) -> int:
    prime_limit = _prime_limit(args, cfg)
    kernel = StKernel.for_spec(RADICAL_SPEC, sieve_primes(prime_limit), prime_limit)
    # every point is computed before any row is written, so a point the
    # kernel rejects leaves stdout empty instead of a truncated CSV
    rows = []
    evaluated = 0
    out_of_bound = 0
    for s in _grid_axis(args.s_min, args.s_max, args.steps):
        for t in _grid_axis(args.t_min, args.t_max, args.steps):
            try:
                params = Params(s=s, t=t)
            except InvalidParamsError:
                rows.append(f"{SCHEMA_VERSION},{_fmt(s)},{_fmt(t)},,,,,,outside_rc\n")
                continue
            st = kernel.ratio(params)
            values = (s, t, st.s_value.value, st.t_value.value, st.ratio, *st.ratio_interval)
            rows.append(f"{SCHEMA_VERSION},{','.join(map(_fmt, values))},ok\n")
            evaluated += 1
            if not st.in_bound:
                out_of_bound += 1
    if evaluated == 0:
        print("ratio-grid: no grid point lies inside the region of convergence "
              "(t > 0, s > 1 + t)", file=sys.stderr)
        return EXIT_INVALID
    sys.stdout.write("schema_version,s,t,S,T,ratio,ratio_low,ratio_high,status\n")
    sys.stdout.write("".join(rows))
    if args.check_bounds and out_of_bound:
        print(f"ratio-grid: {out_of_bound} enclosing interval(s) leave (1, 2)",
              file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


def cmd_identity(args, cfg: Config) -> int:
    params = _params(args)
    prime_limit = _prime_limit(args, cfg)
    limit = args.limit
    sieve = _sieve(args, limit)
    table = sieve_primes(prime_limit)
    r = identity_pass(sieve, table, params, limit, prime_limit)
    _emit_json({
        "schema_version": SCHEMA_VERSION,
        "command": "identity",
        "s": args.s,
        "t": args.t,
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


# One abc CSV row; %.17g is _fmt's format.
_ABC_ROW = f"{SCHEMA_VERSION},%d,%d,%d,%d,%s,%s,%.17g\n"


def _abc_csv_rows(batch: AbcBatch) -> str:
    """The batch's CSV rows, as csv.writer would print them."""
    hyp = np.where(batch.hypothesis, "true", "false").tolist()
    concl = np.where(batch.conclusion, "true", "false").tolist()
    return "".join([_ABC_ROW % row for row in zip(
        batch.a.tolist(), batch.b.tolist(), batch.c.tolist(), batch.rad_abc.tolist(),
        hyp, concl, batch.quality.tolist())])


def cmd_abc(args, cfg: Config) -> int:
    params = _params(args)
    prime_limit = _prime_limit(args, cfg)
    sieve = _sieve(args, args.cmax)
    table = sieve_primes(prime_limit)

    progress = None
    if args.progress:
        def progress(c: int, c_max: int) -> None:
            if c % 500 == 0 or c == c_max:
                print(f"abc: c={c}/{c_max}", file=sys.stderr)

    batches = scan(sieve, table, params, args.cmax, prime_limit,
                   sample=args.sample, seed=args.seed, progress=progress)
    if args.verify:
        report = verify_theorem2(batches)
        _emit_json({
            "schema_version": SCHEMA_VERSION,
            "command": "abc-verify",
            "s": args.s,
            "t": args.t,
            "cmax": args.cmax,
            "prime_limit": prime_limit,
            "records_seen": report.records_seen,
            "hypothesis_true": report.hypothesis_true,
            "hypothesis_false": report.hypothesis_false,
            "conclusion_true": report.conclusion_true,
            "counterexamples": [list(r) for r in report.counterexamples],
            "max_quality_hypothesis": report.max_quality_hypothesis,
            "top_quality": [list(r) for r in (report.top_quality or [])],
        })
        return EXIT_VERIFICATION if report.counterexample_count else EXIT_OK
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
                   help="print a verification report instead of CSV rows; "
                        "exit 3 on any counterexample")
    p.add_argument("--sample", type=int, help="scan a random subset of c values")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--progress", action="store_true", help="progress lines on stderr")
    p.set_defaults(func=cmd_abc)

    # every command takes --config; only those that use a factor sieve take its flags
    for name, p in sub.choices.items():
        p.add_argument("--config", help="path to key=value config file")
        if name in ("radical", "series", "identity", "abc"):
            p.add_argument("--sieve-limit", type=int, help="factor sieve limit")
            p.add_argument("--sieve-file", help="load the factor sieve from a dump")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        return args.func(args, cfg)
    except RadseriesError as exc:
        print(f"radseries: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except NonFiniteResult as exc:
        print(f"radseries: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
