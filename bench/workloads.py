"""Benchmark workloads: seeded inputs, radseries CLI commands, output checks.

Each workload is a short sequence of CLI commands run one after another
(closed loop, one client).  Every command's output is checked against the
command's own verdict and against facts the benchmark computes itself, so a
fast but wrong program fails the run.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Callable, NamedTuple

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Point:
    """Seeded inputs: a point (s, t) and a shift of the ratio-grid rectangle."""

    s: float
    t: float
    grid_ds: float
    grid_dt: float


def draw_point(seed: int) -> Point:
    """The default seed gives (s, t) = (4, 1) and the unshifted grid.

    Other seeds draw t in [0.8, 1.2] and s - t in [2.6, 3.0], inside the
    region t > 0, s > 1 + t and near the default point.  The tail bounds
    that set each check's tolerance shrink like N^(1 - (s - t)); keeping
    s - t at most 3 keeps them well above float rounding.
    """
    if seed == DEFAULT_SEED:
        return Point(s=4.0, t=1.0, grid_ds=0.0, grid_dt=0.0)
    rng = random.Random(seed)
    t = rng.uniform(0.8, 1.2)
    s = t + rng.uniform(2.6, 3.0)
    return Point(s=s, t=t, grid_ds=rng.uniform(-0.1, 0.1), grid_dt=rng.uniform(-0.05, 0.05))


@dataclass(frozen=True)
class Sizes:
    identity_limit: int
    grid_prime_limit: int
    grid_steps: int
    abc_verify_cmax: int
    abc_csv_cmax: int
    # layer suite of the traced run
    layer_sieve: int
    layer_n: int
    fsum_terms: int


FULL = Sizes(
    identity_limit=1_000_000,
    grid_prime_limit=1_000_000, grid_steps=10,
    abc_verify_cmax=2000, abc_csv_cmax=800,
    layer_sieve=10_000_000, layer_n=1_000_000, fsum_terms=10_000_000,
)
SMOKE = Sizes(
    identity_limit=10_000,
    grid_prime_limit=10_000, grid_steps=4,
    abc_verify_cmax=200, abc_csv_cmax=100,
    layer_sieve=100_000, layer_n=10_000, fsum_terms=100_000,
)

# radseries' built-in config default, used by `abc` for both its sieve
# (cmax is below it) and its prime limit.
CLI_DEFAULT_LIMIT = 100_000


class Outcome(NamedTuple):
    ok: bool
    items: int          # work units: n-terms, in-region grid points or records
    margin: float | None  # largest gap/tolerance of the command's checks
    note: str = ""


@dataclass(frozen=True)
class Command:
    args: list[str]
    check: Callable[[int, bytes], Outcome]


@dataclass(frozen=True)
class Workload:
    name: str
    commands: list[Command]
    sieve_limit: int    # FactorSieve the CLI builds (0: none)
    prime_limit: int    # PrimeTable the CLI sieves
    item_unit: str


def _num(x: float) -> str:
    return repr(float(x))


def coprime_pairs(c_max: int) -> int:
    """Unordered coprime pairs a + b = c over 3 <= c <= c_max: sum phi(c)/2."""
    phi = list(range(c_max + 1))
    for p in range(2, c_max + 1):
        if phi[p] == p:
            for k in range(p, c_max + 1, p):
                phi[k] -= phi[k] // p
    return sum(phi[3:]) // 2


def _fail(note: str) -> Outcome:
    return Outcome(False, 0, None, note)


def _json(rc: int, out: bytes):
    if rc != 0:
        return None, f"exit code {rc}"
    try:
        return json.loads(out), ""
    except ValueError as exc:
        return None, f"stdout is not JSON: {exc}"


def _check_identity(limit: int):
    def check(rc: int, out: bytes) -> Outcome:
        doc, err = _json(rc, out)
        if doc is None:
            return _fail(err)
        split = doc["split"]
        margin = max(abs(doc["residual"]) / doc["tolerance"],
                     split["balance_gap"] / split["tolerance"])
        ok = (doc["within_tolerance"] is True and margin <= 1.0
              and sum(split["counts"]) + split["ambiguous_count"] == limit)
        return Outcome(ok, limit, margin, "" if ok else "identity check failed")
    return check


GRID_HEADER = ["schema_version", "s", "t", "S", "T", "ratio", "ratio_low", "ratio_high", "status"]


def _check_grid(steps: int):
    def check(rc: int, out: bytes) -> Outcome:
        if rc != 0:
            return _fail(f"exit code {rc}")
        rows = list(csv.reader(io.StringIO(out.decode())))
        if rows[:1] != [GRID_HEADER] or len(rows) != steps * steps + 1:
            return _fail("ratio-grid CSV has the wrong header or row count")
        inside = 0
        for row in rows[1:]:
            s, t = float(row[1]), float(row[2])
            if t > 0.0 and s > 1.0 + t:
                # The CLI's verdict: the enclosure of the true ratio lies in
                # (1, 2).  The truncated ratio is checked on its own, since it
                # and the enclosure ends are rounded separately.
                ratio, low, high = float(row[5]), float(row[6]), float(row[7])
                if row[8] != "ok" or not (1.0 < low <= high < 2.0 and 1.0 < ratio < 2.0):
                    return _fail(f"ratio-grid row {row} leaves (1, 2)")
                inside += 1
            elif row[8] != "outside_rc":
                return _fail(f"ratio-grid row {row} should be outside_rc")
        return Outcome(inside > 0, inside, None)
    return check


def _check_abc_verify(c_max: int):
    pairs = coprime_pairs(c_max)

    def check(rc: int, out: bytes) -> Outcome:
        doc, err = _json(rc, out)
        if doc is None:
            return _fail(err)
        ok = (doc["records_seen"] == pairs and doc["counterexamples"] == []
              and doc["hypothesis_true"] + doc["hypothesis_false"] == pairs)
        return Outcome(ok, pairs, None, "" if ok else "abc verify report is wrong")
    return check


ABC_HEADER = b"schema_version,a,b,c,rad_abc,hypothesis_holds,conclusion_holds,quality"


def _check_abc_csv(c_max: int):
    pairs = coprime_pairs(c_max)

    def check(rc: int, out: bytes) -> Outcome:
        if rc != 0:
            return _fail(f"exit code {rc}")
        lines = out.split(b"\n")
        if lines[0] != ABC_HEADER or lines[-1] != b"" or len(lines) != pairs + 2:
            return _fail("abc CSV has the wrong header or row count")
        for line in lines[1:-1]:
            _, a, b, c, rad_abc, _hyp, concl, _q = line.split(b",")
            a, b, c, rad_abc = int(a), int(b), int(c), int(rad_abc)
            if a + b != c or math.gcd(a, b) != 1 or not 3 <= c <= c_max:
                return _fail(f"abc CSV row {line!r} is not a coprime triple")
            if (concl == b"true") != (rad_abc > math.isqrt(c)):
                return _fail(f"abc CSV row {line!r} has the wrong conclusion")
        return Outcome(True, pairs, None)
    return check


def make_workload(name: str, point: Point, sizes: Sizes) -> Workload:
    st = ["--s", _num(point.s), "--t", _num(point.t)]
    if name == "identity":
        n = sizes.identity_limit
        return Workload(name, [Command(
            ["identity", *st, "--limit", str(n), "--prime-limit", str(n)],
            _check_identity(n))], sieve_limit=n, prime_limit=n, item_unit="n-terms")
    if name == "ratio-grid":
        p, k = sizes.grid_prime_limit, sizes.grid_steps
        rect = ["--s-min", _num(2.2 + point.grid_ds), "--s-max", _num(8.0 + point.grid_ds),
                "--t-min", _num(0.2 + point.grid_dt), "--t-max", _num(2.0 + point.grid_dt)]
        return Workload(name, [Command(
            ["ratio-grid", *rect, "--steps", str(k), "--prime-limit", str(p), "--check-bounds"],
            _check_grid(k))], sieve_limit=0, prime_limit=p, item_unit="grid points")
    if name == "abc":
        return Workload(name, [
            Command(["abc", *st, "--cmax", str(sizes.abc_verify_cmax), "--verify"],
                    _check_abc_verify(sizes.abc_verify_cmax)),
            Command(["abc", *st, "--cmax", str(sizes.abc_csv_cmax)],
                    _check_abc_csv(sizes.abc_csv_cmax)),
        ], sieve_limit=CLI_DEFAULT_LIMIT, prime_limit=CLI_DEFAULT_LIMIT, item_unit="records")
    raise ValueError(f"unknown workload {name!r}")
