"""Tests of the benchmark itself: span arithmetic, inputs, and reduced-size runs.

    python -m pytest bench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import REFERENCE_S, Normalizer, tail_percentile
from spans import Span, Tracer, self_times, summarize
from workloads import DEFAULT_SEED, coprime_pairs, draw_point

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_subtracts_merged_clipped_children():
    spans = [
        Span(1, None, "parent", 0.0, 10.0),
        Span(2, 1, "a", 1.0, 3.0),
        Span(3, 1, "b", 2.0, 4.0),     # overlaps a: [1, 4] counted once
        Span(4, 1, "c", 5.0, 6.0),
        Span(5, 1, "d", 9.0, 12.0),    # clipped to the parent's end
        Span(6, 2, "grandchild", 1.5, 2.0),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 3.0 - 1.0 - 1.0)
    assert selfs[2] == pytest.approx(2.0 - 0.5)
    assert selfs[4] == pytest.approx(1.0)
    assert selfs[6] == pytest.approx(0.5)


def test_tracer_records_parents_and_summary():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    outer = next(sp for sp in tracer.spans if sp.name == "outer")
    inner = [sp for sp in tracer.spans if sp.name == "inner"]
    assert outer.parent is None and all(sp.parent == outer.id for sp in inner)
    summary = summarize(tracer.spans)
    assert summary["inner"]["calls"] == 2
    assert summary["outer"]["self_ms"] == pytest.approx(
        summary["outer"]["total_ms"] - summary["inner"]["total_ms"], abs=1e-9)


def test_default_seed_gives_the_documented_point():
    p = draw_point(DEFAULT_SEED)
    assert (p.s, p.t, p.grid_ds, p.grid_dt) == (4.0, 1.0, 0.0, 0.0)


@pytest.mark.parametrize("seed", [1, 2, 17, 12345])
def test_seeded_points_are_deterministic_and_in_region(seed):
    p = draw_point(seed)
    assert p == draw_point(seed)
    assert 0.8 <= p.t <= 1.2 and 2.6 <= p.s - p.t <= 3.0


def test_coprime_pairs_matches_brute_force():
    brute = sum(1 for c in range(3, 61) for a in range(1, c // 2 + 1) if math.gcd(a, c) == 1)
    assert coprime_pairs(60) == brute


@pytest.mark.parametrize("n,percentile", [(19, None), (20, 50.0), (100, 90.0), (1000, 99.0)])
def test_tail_percentile_keeps_ten_samples_beyond(n, percentile):
    assert tail_percentile([float(i) for i in range(n)])["percentile"] == percentile


def test_normalizer_scales_by_the_probes_around_each_sample():
    class Probes:
        times = iter([0.5 * REFERENCE_S, 1.5 * REFERENCE_S, 2.5 * REFERENCE_S])

        def reference(self):
            return next(self.times)

    norm = Normalizer(Probes())
    assert norm(2.0) == pytest.approx(2.0)   # probes 0.5 and 1.5: mean 1.0
    assert norm(2.0) == pytest.approx(1.0)   # probes 1.5 and 2.5: mean 2.0
    assert len(norm.probes) == 3


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def check_metrics(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_end_to_end_metric(workload):
    report, result = result_of(run_bench("--workload", workload, "--seed", "1",
                                         "--seconds", "0.5", "--trace", "0", "--smoke"))
    check_metrics(result, SPEC["end_to_end"])
    assert all(result["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])
    assert report["failed_share"] == 0.0 and report["iterations"] >= 1


def test_smoke_traced_run_reports_every_per_layer_metric_with_nested_spans():
    report, result = result_of(run_bench("--workload", "identity", "--seed", "1",
                                         "--seconds", "0.5", "--trace", "1", "--smoke"))
    check_metrics(result, SPEC["per_layer"])
    spans = report["workload_spans"]
    assert spans["stkernel.st_ratio"]["calls"] == 2 == result["metrics"]["stkernel.calls"]["value"]
    residual = spans["identity.identity_residual"]
    assert 0.0 < residual["self_ms"] < residual["total_ms"]


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "identity", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
