"""Command-line frontend.

Every command is deterministic for fixed arguments and config: summation
runs serially over fixed block boundaries, so every run reproduces the
same bits.  Single results print as one JSON object on stdout; grids
and scans print CSV; progress and diagnostics go to stderr only.

Exit codes: 0 success, 2 invalid input, 3 verification failure.  A JSON
result with a NaN or infinite field is a verification failure too: nothing
goes to stdout and stderr names the field.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from .abcscan import AbcBatch, scan, verify_theorem2
from .config import Config, load_config
from .errors import RadseriesError
from .euler import product_d
from .identity import identity_pass
from .multfn import BUILTIN_SPECS, builtin_spec
from .primes import sieve_primes
from .radical import FactorSieve, euler_phi, is_squarefree, radical
from .series import Params, TruncatedSum, series_d
from .stkernel import st_ratio

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


def _sieve(args, cfg: Config, needed: int | None = None) -> FactorSieve:
    if args.sieve_file:
        return FactorSieve.load(args.sieve_file)
    limit = args.sieve_limit or cfg.sieve_limit
    if needed is not None and needed > limit:
        raise RadseriesError(
            f"n={needed} exceeds configured sieve limit {limit}; "
            "raise --sieve-limit or point --sieve-file at a larger dump"
        )
    return FactorSieve.build(limit)


def cmd_radical(args, cfg: Config) -> int:
    if args.n < 1:
        raise RadseriesError(f"n must be >= 1, got {args.n}")
    sieve = _sieve(args, cfg, needed=args.n)
    _emit_json({
        "schema_version": SCHEMA_VERSION,
        "n": args.n,
        "radical": radical(sieve, args.n),
        "phi": euler_phi(sieve, args.n),
        "squarefree": is_squarefree(sieve, args.n),
    })
    return EXIT_OK


def cmd_sieve(args, cfg: Config) -> int:
    limit = args.limit or cfg.sieve_limit
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
    if args.sieve_limit is None and not args.sieve_file and limit > cfg.sieve_limit:
        args.sieve_limit = limit  # a series over n <= N needs a sieve that far
    sieve = _sieve(args, cfg, needed=limit)
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
        prime_limit = args.prime_limit or cfg.prime_limit
        table = sieve_primes(prime_limit)
        prod = product_d(spec, table, params, prime_limit)
        gap = abs(result.value - prod.value)
        tolerance = cfg.tolerance_scale * (result.tail_bound + prod.tail_bound)
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
    prime_limit = args.prime_limit or cfg.prime_limit
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
    prime_limit = args.prime_limit or cfg.prime_limit
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
    prime_limit = args.prime_limit or cfg.prime_limit
    table = sieve_primes(prime_limit)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["schema_version", "s", "t", "S", "T",
                     "ratio", "ratio_low", "ratio_high", "status"])
    evaluated = 0
    out_of_bound = 0
    for s in _grid_axis(args.s_min, args.s_max, args.steps):
        for t in _grid_axis(args.t_min, args.t_max, args.steps):
            if not (t > 0.0 and s > 1.0 + t):
                writer.writerow([SCHEMA_VERSION, _fmt(s), _fmt(t),
                                 "", "", "", "", "", "outside_rc"])
                continue
            st = st_ratio(table, Params(s=s, t=t), prime_limit)
            writer.writerow([
                SCHEMA_VERSION, _fmt(s), _fmt(t),
                _fmt(st.s_value.value), _fmt(st.t_value.value), _fmt(st.ratio),
                _fmt(st.ratio_interval[0]), _fmt(st.ratio_interval[1]), "ok",
            ])
            evaluated += 1
            if not st.in_bound:
                out_of_bound += 1
    if evaluated == 0:
        print("ratio-grid: no grid point lies inside the region of convergence "
              "(t > 0, s > 1 + t)", file=sys.stderr)
        return EXIT_INVALID
    if args.check_bounds and out_of_bound:
        print(f"ratio-grid: {out_of_bound} enclosing interval(s) leave (1, 2)",
              file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


def cmd_identity(args, cfg: Config) -> int:
    params = _params(args)
    prime_limit = args.prime_limit or cfg.prime_limit
    limit = args.limit
    if args.sieve_limit is None and not args.sieve_file and limit > cfg.sieve_limit:
        args.sieve_limit = limit
    sieve = _sieve(args, cfg, needed=limit)
    table = sieve_primes(prime_limit)
    res, split = identity_pass(sieve, table, params, limit, prime_limit)
    tolerance = cfg.tolerance_scale * res.tolerance
    _emit_json({
        "schema_version": SCHEMA_VERSION,
        "command": "identity",
        "s": args.s,
        "t": args.t,
        "limit": limit,
        "prime_limit": prime_limit,
        "residual": res.residual,
        "tolerance": tolerance,
        "within_tolerance": abs(res.residual) <= tolerance,
        "split": {
            "below": split.below,
            "equal": split.equal,
            "above": split.above,
            "counts": list(split.classification_counts),
            "ambiguous_count": split.ambiguous_count,
            "balance_gap": split.balance_gap,
            "tolerance": cfg.tolerance_scale * split.tolerance,
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
    prime_limit = args.prime_limit or cfg.prime_limit
    if args.sieve_limit is None and not args.sieve_file and args.cmax > cfg.sieve_limit:
        args.sieve_limit = args.cmax
    sieve = _sieve(args, cfg, needed=args.cmax)
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


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="path to key=value config file")
    parser.add_argument("--sieve-limit", type=int, help="factor sieve limit")
    parser.add_argument("--sieve-file", help="load the factor sieve from a dump")


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
    _add_common(p)
    p.set_defaults(func=cmd_radical)

    p = sub.add_parser("sieve", help="build a factor sieve and dump it to disk")
    p.add_argument("--limit", type=int, help="sieve limit (default from config)")
    p.add_argument("--out", required=True, help="output path for the binary dump")
    _add_common(p)
    p.set_defaults(func=cmd_sieve)

    p = sub.add_parser("series", help="truncated series sum_{n<=N} M(n)^t/n^s")
    _add_params(p)
    p.add_argument("--limit", type=int, required=True, help="truncation N")
    p.add_argument("--spec", choices=sorted(BUILTIN_SPECS),
                   help="built-in multiplicative spec (default from config)")
    p.add_argument("--compare", action="store_true",
                   help="also run the Euler product and report the gap")
    p.add_argument("--prime-limit", type=int, help="prime truncation for --compare")
    _add_common(p)
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("product", help="truncated Euler product over primes <= P")
    _add_params(p)
    p.add_argument("--prime-limit", type=int, help="prime truncation P")
    p.add_argument("--spec", choices=sorted(BUILTIN_SPECS),
                   help="built-in multiplicative spec (default from config)")
    _add_common(p)
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("st", help="prime sums S(s,t), T(s,t) and their ratio")
    _add_params(p)
    p.add_argument("--prime-limit", type=int)
    _add_common(p)
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
    _add_common(p)
    p.set_defaults(func=cmd_ratio_grid)

    p = sub.add_parser("identity", help="zero-identity residual and class split")
    _add_params(p)
    p.add_argument("--limit", type=int, required=True, help="n-sum truncation")
    p.add_argument("--prime-limit", type=int)
    _add_common(p)
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
    _add_common(p)
    p.set_defaults(func=cmd_abc)

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
