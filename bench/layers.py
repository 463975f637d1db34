"""Per-layer suite of the traced run: each module's public function, timed in
process at fixed sizes, inside a span named after its metric.

The suite calls the package-level names (``radseries.identity_residual``
...), which ``spans.instrument`` leaves unwrapped, so a measured call's own
span is the ``layer:`` span, and the traced calls nested inside it become its
children.  A layer's self time is that span minus its children.

Sizes: the sieve layers at 1e7 (out of cache: spf + rad + phi are 240 MB of
int64), the per-n and per-prime layers at 1e6, fsum over a fixed 1e7-term
array, and the abc scan at the abc workload's sizes.  ``radical.load`` reads
the spf dump only (``cache_values=False``), so it times the read path, not a
rebuild of the value arrays.  Computed bytes are array sizes (bytes written
or read once per pass); they ignore cache misses and are labelled as
computed.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import statistics
import subprocess
import sys
from collections import deque

import numpy as np

from spans import Tracer, self_times
from workloads import CLI_DEFAULT_LIMIT, Point, Sizes, coprime_pairs

IMPORT_CODE = "import time; t = time.perf_counter(); import radseries; print(time.perf_counter() - t)"


def import_ms(env: dict, cwd, reps: int = 5) -> float:
    """Median time of `import radseries` in a fresh interpreter."""
    times = []
    for _ in range(reps):
        out = subprocess.run([sys.executable, "-c", IMPORT_CODE], env=env, cwd=cwd,
                             capture_output=True, check=True, timeout=60).stdout
        times.append(1e3 * float(out))
    return statistics.median(times)


def sqrt_radical_spec():
    from radseries import MultiplicativeSpec
    return MultiplicativeSpec(
        name="sqrt-radical",
        value_at_prime_power=lambda p, k: p ** 0.5,
        growth_exponent=0.5,
    )


class Suite:
    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.metrics: dict[str, float] = {}
        self.failures: list[str] = []
        self.checks = 0

    def measure(self, name: str, fn, reps: int = 1):
        """Run fn reps times in `layer:name` spans; record the median as name_ms."""
        for _ in range(reps):
            with self.tracer.span(f"layer:{name}"):
                result = fn()
        self.metrics[f"{name}_ms"] = self.median_ms(name)
        return result

    def median_ms(self, name: str) -> float:
        return statistics.median(1e3 * (sp.end - sp.start) for sp in self.tracer.spans
                                 if sp.name == f"layer:{name}")

    def self_ms(self, name: str) -> float:
        selfs = self_times(self.tracer.spans)
        return statistics.median(1e3 * selfs[sp.id] for sp in self.tracer.spans
                                 if sp.name == f"layer:{name}")

    def expect(self, ok: bool, what: str) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(what)


def run_layers(tracer: Tracer, point: Point, sizes: Sizes, workdir, env: dict) -> Suite:
    import radseries as rs
    from radseries import cli

    suite = Suite(tracer)
    m = suite.metrics
    params = rs.Params(s=point.s, t=point.t)

    m["cli.import_ms"] = import_ms(env, workdir)

    big = sizes.layer_sieve
    table = suite.measure("primes.sieve_primes", lambda: rs.sieve_primes(big), 3)
    m["primes.count"] = len(table)

    spf_only = suite.measure("radical.spf", lambda: rs.FactorSieve.build(big, cache_values=False), 3)
    sieve = suite.measure("radical.build", lambda: rs.FactorSieve.build(big), 1)
    m["radical.bytes_computed"] = sieve.spf.nbytes + sieve.rad.nbytes + sieve.phi.nbytes
    is_prime = spf_only.spf[2:] == np.arange(2, big + 1)
    suite.expect(int(np.count_nonzero(is_prime)) == len(table), "prime sieve and spf sieve disagree")
    radical_range = importlib.import_module("radseries.radical").radical_range
    rad = suite.measure("radical.rad_range", lambda: radical_range(spf_only, big), 1)
    suite.expect(np.array_equal(rad, sieve.rad), "uncached radical_range differs from the cached one")
    del rad, is_prime

    path = workdir / "sieve.bin"
    suite.measure("radical.dump", lambda: spf_only.dump(path), 3)
    m["radical.dump_bytes"] = path.stat().st_size
    loaded = suite.measure("radical.load", lambda: rs.FactorSieve.load(path, cache_values=False), 3)
    suite.expect(np.array_equal(loaded.spf, spf_only.spf), "sieve dump/load round trip changed spf")
    path.unlink()
    del loaded, spf_only

    n = sizes.layer_n
    vals = suite.measure("multfn.range_values",
                         lambda: rs.range_values(sqrt_radical_spec(), sieve, n), 1)
    suite.expect(np.allclose(vals[1:], np.sqrt(sieve.rad[1:n + 1]), rtol=1e-12, atol=0.0),
                 "sqrt-radical values differ from sqrt(rad)")
    del vals

    terms = 1.0 / np.arange(1, sizes.fsum_terms + 1, dtype=np.float64)

    def block(lo: int, hi: int) -> float:
        return math.fsum(terms[lo:hi])

    sum_blocks = importlib.import_module("radseries.numerics").sum_blocks
    one = suite.measure("numerics.sum_blocks", lambda: sum_blocks(len(terms), block), 3)
    two = suite.measure("numerics.sum_blocks_t2", lambda: sum_blocks(len(terms), block, threads=2), 3)
    suite.expect(one == two, "sum_blocks differs between threads=1 and threads=2")
    del terms

    spec = rs.RADICAL_SPEC
    d = suite.measure("series.series_d", lambda: rs.series_d(spec, sieve, params, n), 5)
    d2 = suite.measure("series.series_d_t2", lambda: rs.series_d(spec, sieve, params, n, threads=2), 5)
    suite.expect(d == d2, "series_d differs between threads=1 and threads=2")
    suite.measure("series.series_d_log_n", lambda: rs.series_d_log_n(spec, sieve, params, n), 5)
    suite.measure("series.series_d_log_m", lambda: rs.series_d_log_m(spec, sieve, params, n), 5)
    m["series.terms"] = d.terms_used
    # one float64 M(n) array, then four float64 temporaries per term
    # (n, M^t, n^-s, their product)
    m["series.bytes_computed"] = 8 * (n + 1) + 4 * 8 * n

    prod = suite.measure("euler.product_d", lambda: rs.product_d(spec, table, params, n), 5)
    m["euler.primes"] = prod.terms_used
    m["euler.margin"] = abs(d.value - prod.value) / (d.tail_bound + prod.tail_bound)
    suite.expect(m["euler.margin"] <= 1.0, "series and Euler product disagree")

    st = suite.measure("stkernel.st_ratio", lambda: rs.st_ratio(table, params, n), 5)
    suite.expect(st.in_bound, "S/T enclosure leaves (1, 2)")

    res = suite.measure("identity.identity_residual",
                        lambda: rs.identity_residual(sieve, table, params, n, n), 3)
    split = suite.measure("identity.split_identity",
                          lambda: rs.split_identity(sieve, table, params, n, n), 3)
    for name in ("identity.identity_residual", "identity.split_identity"):
        m[f"{name}_self_ms"] = suite.self_ms(name)
    m["identity.ambiguous_count"] = split.ambiguous_count
    m["identity.margin"] = max(abs(res.residual) / res.tolerance,
                               split.balance_gap / split.tolerance)
    suite.expect(m["identity.margin"] <= 1.0, "identity residual or split outside tolerance")

    c_max = sizes.abc_verify_cmax
    pairs = coprime_pairs(c_max)

    def records():
        return rs.scan(sieve, table, params, c_max, CLI_DEFAULT_LIMIT)

    suite.measure("abcscan.scan", lambda: deque(records(), maxlen=0), 1)
    report = suite.measure("abcscan.scan_verify", lambda: rs.verify_theorem2(records()), 1)
    m["abcscan.verify_ms"] = m.pop("abcscan.scan_verify_ms") - m["abcscan.scan_ms"]
    m["abcscan.records"] = report.records_seen
    m["abcscan.hypothesis_true_share"] = report.hypothesis_true / report.records_seen
    suite.expect(report.records_seen == pairs and report.counterexample_count == 0,
                 "abc verify report is wrong")

    argv = ["abc", "--s", repr(point.s), "--t", repr(point.t), "--cmax", str(sizes.abc_csv_cmax)]

    def abc_csv() -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        return rc, buf.getvalue()

    rc, text = suite.measure("cli.abc_csv", abc_csv, 1)
    m["cli.abc_csv_self_ms"] = suite.self_ms("cli.abc_csv")
    suite.expect(rc == 0 and text.count("\n") == coprime_pairs(sizes.abc_csv_cmax) + 1,
                 "abc CSV from cli.main is wrong")
    return suite
