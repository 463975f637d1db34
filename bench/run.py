"""radseries benchmark: whole CLI commands, closed loop, one client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the package is run from ``src/``
(nothing is installed).  Every command starts only after the previous one
has exited, in a fresh interpreter, from a scratch directory under
``.bench_work/`` that holds no ``radseries.conf``, with ``RADSERIES_CONFIG``
unset and the default ``threads``.

--trace 0 (end to end, tracing off):
  1. a warm-up command, so .pyc compilation is not timed;
  2. set-up: fresh interpreters that import radseries and build the
     workload's FactorSieve and PrimeTable at its limits, several times;
  3. the workload's commands in a loop for --seconds, each output checked.
  Prints wall_s (median over iterations, first spawn to last exit),
  items_per_s (work units of an iteration over its wall time, median),
  setup_s (median) and peak_rss_mb (the largest ru_maxrss of any workload
  command).

  The three timings are scaled to a fixed host speed.  The shared host
  alternates between its normal speed and states up to ~1.5x slower that
  last from seconds to minutes, which moves every raw timing together.  A
  fixed reference probe (REFERENCE_CODE, no radseries code) runs before
  and after each timed sample, and the sample is multiplied by
  REFERENCE_S over the mean of the two probe times.  The measured times
  (median, minimum, tail percentile, samples) and the probe times are in
  the report line.

--trace 1 (per layer):
  the workload's commands once untraced and once under ``traced_cli.py``
  (spans around every traced call; the difference is the tracing
  overhead), then the in-process layer suite of ``layers.py``.

Lines before the last one are JSON reports: provenance, the per-iteration
samples, the tail percentile, margins and span summaries.  The last line is
the result object.  Exit code 1 if the checkout has no ``src/radseries``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import NamedTuple

from workloads import DEFAULT_SEED, FULL, SMOKE, Workload, draw_point, make_workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DIGESTS = BENCH_DIR / "digests.json"

SETUP_CODE = """\
import json, sys
import radseries
sieve_limit, prime_limit = int(sys.argv[1]), int(sys.argv[2])
sieve_bytes = 0
if sieve_limit:
    sieve = radseries.FactorSieve.build(sieve_limit)
    sieve_bytes = sieve.spf.nbytes + sieve.rad.nbytes + sieve.phi.nbytes
table = radseries.sieve_primes(prime_limit)
print(json.dumps({"sieve_bytes": sieve_bytes, "prime_bytes": table.primes.nbytes}))
"""
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 3, 7, 4.0

# Fixed host-speed probe run in a fresh interpreter next to every timed
# sample.  It pays what every command pays (interpreter start, numpy
# import) and mixes the kinds of work the workloads do: numpy passes over an
# 8 MB and a 0.5 MB array, then Python-level records, a top-k heap and text
# formatting.  It uses no radseries code, so a change to the package cannot
# move it.
REFERENCE_CODE = """\
import heapq
import math
from collections import namedtuple
import numpy as np
x = np.arange(1.0, 1 << 20)
math.fsum(np.power(x, -1.5) * np.log(x))
y = x[: 1 << 16]
for _ in range(20):
    math.fsum(np.exp(-y / 7.0))
Row = namedtuple("Row", "a b c q")
heap = []
for i in range(1, 150_000):
    row = Row(i, i + 1, 2 * i + 1, math.log(i + 2) / math.log(i + 1))
    if len(heap) < 10:
        heapq.heappush(heap, (row.q, row))
    elif row.q > heap[0][0]:
        heapq.heapreplace(heap, (row.q, row))
rows = map(Row._make, zip(range(50_000), range(50_000), range(50_000), x[:50_000].tolist()))
text = "\\n".join(f"{r.a},{r.b},{r.c},{r.q:.17g}" for r in rows)
"""
# The probe's wall time on the host the benchmark was defined on (2-vCPU
# Xeon, 105 MB L3, in its fast state): timings are scaled by REFERENCE_S
# over the probe's time around each sample, so they read as seconds at
# that host speed.
REFERENCE_S = 0.7


@dataclass
class Proc:
    rc: int
    out: bytes
    err: bytes
    wall_s: float
    rss_mb: float


class Runner:
    """Starts children in the scratch directory and waits for each one."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.env = {k: v for k, v in os.environ.items() if k != "RADSERIES_CONFIG"}
        self.env["PYTHONPATH"] = str(ROOT / "src")

    def python(self, *args: str) -> Proc:
        err_path = self.workdir / "stderr.txt"
        with open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                                    stderr=err, stdin=subprocess.DEVNULL,
                                    cwd=self.workdir, env=self.env)
            try:
                out = proc.stdout.read()
                # wait4 reaps the child and gives its own rusage
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            proc.stdout.close()
        return Proc(proc.returncode, out, err_path.read_bytes(), wall, usage.ru_maxrss / 1024.0)

    def radseries(self, args: list[str]) -> Proc:
        return self.python("-m", "radseries", *args)

    def reference(self) -> float:
        proc = self.python("-c", REFERENCE_CODE)
        if proc.rc != 0:
            raise RuntimeError("reference probe failed: " + proc.err.decode(errors="replace"))
        return proc.wall_s


class Normalizer:
    """Scales a timed sample by the reference probe run before and after it."""

    def __init__(self, runner: Runner) -> None:
        self.runner = runner
        self.before = runner.reference()
        self.probes = [self.before]

    def __call__(self, raw_s: float) -> float:
        after = self.runner.reference()
        self.probes.append(after)
        scale = REFERENCE_S / (0.5 * (self.before + after))
        self.before = after
        return raw_s * scale


class Tally:
    """Attempted and failed commands, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def provenance() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        l3 = int(subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                                text=True, timeout=10).stdout)
    except (OSError, ValueError, subprocess.SubprocessError):
        l3 = 0
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "l3_mb": round(l3 / 2 ** 20, 1) if l3 > 0 else None,
    }


def recorded_digests(prov: dict) -> dict | None:
    """Stdout digests for the default seed, if recorded on this numpy and machine.

    Vector math kernels may round differently on another numpy build or
    CPU, so digests are only compared where they were recorded.
    """
    doc = json.loads(DIGESTS.read_text())
    if (doc["numpy"], doc["machine"]) != (prov["numpy"], prov["machine"]):
        return None
    return doc["workloads"]


def digest(out: bytes) -> str:
    return hashlib.sha256(out).hexdigest()


def tail_percentile(samples: list[float]) -> dict:
    """Highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    for per_mille in (999, 990, 900, 500):
        if len(samples) * (1000 - per_mille) >= 10 * 1000:
            cut = statistics.quantiles(samples, n=1000, method="inclusive")
            return {"percentile": per_mille / 10, "value": cut[per_mille - 1]}
    return {"percentile": None, "value": None}


def run_commands(runner: Runner, wl: Workload, tally: Tally, expected: list[str] | None):
    """One workload iteration: each command in turn, then the checks.

    Returns the processes, the iteration's wall time (first spawn to last
    exit), the work units of the commands that passed, and their margins.
    """
    t0 = time.perf_counter()
    procs = [runner.radseries(cmd.args) for cmd in wl.commands]
    wall = time.perf_counter() - t0
    items, margins = 0, []
    for i, (cmd, proc) in enumerate(zip(wl.commands, procs)):
        outcome = cmd.check(proc.rc, proc.out)
        ok = outcome.ok
        note = outcome.note or proc.err.decode(errors="replace")[-300:]
        if ok and expected is not None and digest(proc.out) != expected[i]:
            ok, note = False, "stdout digest differs from the recorded one"
        if tally.record(ok, f"{' '.join(cmd.args)}: {note}"):
            items += outcome.items
            if outcome.margin is not None:
                margins.append(outcome.margin)
    return procs, wall, items, margins


def warm_up(runner: Runner, tally: Tally) -> None:
    proc = runner.radseries(["radical", "12", "--sieve-limit", "100"])
    ok = proc.rc == 0 and json.loads(proc.out or b"{}").get("radical") == 6
    tally.record(ok, "warm-up: radical 12")


def measure_setup(runner: Runner, wl: Workload, tally: Tally, norm: Normalizer):
    raw, scaled, sizes = [], [], {}
    start = time.perf_counter()
    while len(raw) < MIN_SETUPS or (len(raw) < MAX_SETUPS
                                    and time.perf_counter() - start < SETUP_BUDGET_S):
        proc = runner.python("-c", SETUP_CODE, str(wl.sieve_limit), str(wl.prime_limit))
        if tally.record(proc.rc == 0, "set-up: " + proc.err.decode(errors="replace")[-300:]):
            sizes = json.loads(proc.out)
        raw.append(proc.wall_s)
        scaled.append(norm(proc.wall_s))
    return raw, scaled, sizes


class Iteration(NamedTuple):
    ok: bool
    wall_s: float       # as measured
    scaled_s: float     # at the reference host speed
    items: int
    rss_mb: float
    margins: list[float]


def end_to_end(runner: Runner, wl: Workload, seconds: float, tally: Tally,
               expected: list[str] | None, report: dict) -> dict:
    warm_up(runner, tally)
    norm = Normalizer(runner)
    setups, scaled_setups, sizes = measure_setup(runner, wl, tally, norm)
    iterations = []
    start = time.perf_counter()
    while not iterations or time.perf_counter() - start < seconds:
        failed = len(tally.failures)
        procs, wall, items, margins = run_commands(runner, wl, tally, expected)
        iterations.append(Iteration(len(tally.failures) == failed, wall, norm(wall), items,
                                    max(p.rss_mb for p in procs), margins))
    # A failed command can end early: time only the iterations that passed.
    timed = [it for it in iterations if it.ok] or iterations
    walls = [it.wall_s for it in timed]
    margins = [m for it in iterations for m in it.margins]
    report.update({
        "iterations": len(iterations),
        "wall_s_measured": {"median": statistics.median(walls), "min": min(walls),
                            "tail": tail_percentile(walls), "samples": walls},
        "wall_s_scaled": [it.scaled_s for it in timed],
        "setup_s_measured": setups,
        "setup_s_scaled": scaled_setups,
        "reference_probe_s": norm.probes,
        "items_per_iteration": timed[0].items,
        "item_unit": wl.item_unit,
        "margin": max(margins) if margins else None,
        "working_set_mb_computed": (sizes.get("sieve_bytes", 0) + sizes.get("prime_bytes", 0)) / 1e6,
    })
    return {
        "wall_s": statistics.median(it.scaled_s for it in timed),
        "items_per_s": statistics.median(it.items / it.scaled_s for it in timed),
        "setup_s": statistics.median(scaled_setups),
        "peak_rss_mb": max(it.rss_mb for it in timed),
    }


def per_layer(runner: Runner, wl: Workload, point, sizes, tally: Tally,
              expected: list[str] | None, report: dict) -> dict:
    from spans import Tracer, instrument, load_spans, summarize

    warm_up(runner, tally)
    _, untraced, _, _ = run_commands(runner, wl, tally, expected)
    summary, traced = {}, 0.0
    for cmd in wl.commands:
        spans_path = runner.workdir / "spans.json"
        proc = runner.python(str(BENCH_DIR / "traced_cli.py"), str(spans_path), *cmd.args)
        outcome = cmd.check(proc.rc, proc.out)
        tally.record(outcome.ok, f"traced {' '.join(cmd.args)}: {outcome.note}")
        traced += proc.wall_s
        if proc.rc != 0:
            continue
        # span ids are per process: summarize each command, then add up
        for name, row in summarize(load_spans(json.loads(spans_path.read_text()))).items():
            total = summary.setdefault(name, dict.fromkeys(row, 0))
            for key, value in row.items():
                total[key] += value

    sys.path.insert(0, str(ROOT / "src"))
    tracer = Tracer()
    instrument(tracer)
    from layers import run_layers

    suite = run_layers(tracer, point, sizes, runner.workdir, runner.env)
    for what in suite.failures:
        tally.record(False, f"layer check: {what}")
    tally.attempted += suite.checks - len(suite.failures)
    report.update({
        "untraced_wall_s": untraced,
        "traced_wall_s": traced,
        "workload_spans": summary,
        "layer_spans": summarize(tracer.spans),
    })
    metrics = dict(suite.metrics)
    metrics["stkernel.calls"] = summary.get("stkernel.st_ratio", {}).get("calls", 0)
    metrics["trace.overhead_ms"] = 1e3 * (traced - untraced)
    metrics["trace.spans"] = sum(row["calls"] for row in summary.values())
    return metrics


def record_digests(runner: Runner, prov: dict, names: list[str]) -> None:
    """Write digests.json from the default seed's commands at full size."""
    point = draw_point(DEFAULT_SEED)
    table = {}
    for name in names:
        wl = make_workload(name, point, FULL)
        tally = Tally()
        procs, _, _, _ = run_commands(runner, wl, tally, None)
        if tally.failures:
            raise SystemExit(f"bench: {name} failed its checks: {tally.failures}")
        table[name] = [digest(p.out) for p in procs]
    DIGESTS.write_text(json.dumps({"numpy": prov["numpy"], "machine": prov["machine"],
                                   "workloads": table}, indent=2) + "\n")


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(why))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes, for the benchmark's own tests")
    parser.add_argument("--record-digests", action="store_true",
                        help="record the default seed's stdout digests and exit")
    args = parser.parse_args(argv)
    if not args.record_digests and args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "radseries" / "__init__.py").is_file():
        print(f"bench: no src/radseries package under {ROOT}", file=sys.stderr)
        return 1

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_root))
    try:
        runner = Runner(workdir)
        prov = provenance()
        if args.record_digests:
            record_digests(runner, prov, list(why))
            return 0
        sizes = SMOKE if args.smoke else FULL
        point = draw_point(args.seed)
        wl = make_workload(args.workload, point, sizes)
        expected = None
        if args.seed == DEFAULT_SEED and not args.smoke:
            table = recorded_digests(prov)
            expected = table[wl.name] if table else None
        tally = Tally()
        report = {"workload": wl.name, "why": why[wl.name], "seed": args.seed, "point": asdict(point),
                  "commands": [" ".join(c.args) for c in wl.commands],
                  "digests_checked": expected is not None, "provenance": prov}
        if args.trace:
            values = per_layer(runner, wl, point, sizes, tally, expected, report)
        else:
            values = end_to_end(runner, wl, args.seconds, tally, expected, report)
        declared = spec["per_layer" if args.trace else "end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
        report["failed_share"] = len(tally.failures) / tally.attempted
        report["failures"] = tally.failures
        print(json.dumps({"report": report}))
        print(json.dumps({"correct": not tally.failures, "attempted": tally.attempted,
                          "failed": len(tally.failures), "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
