import contextlib
import csv
import functools
import importlib
import io
import itertools
import json
import math
import os
import runpy
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

BASE = [sys.executable, "-m", "radseries"]


def run_cli(*args, env_extra=None, cwd=None):
    """``radseries *args`` run in-process through ``cli.main``.

    Returns a CompletedProcess with the exit code, stdout and stderr;
    argparse's SystemExit becomes its code.  RADSERIES_CONFIG is unset,
    ``env_extra`` is set and ``cwd`` entered for the call, and all three are
    restored after it.  An exception escaping ``main`` fails the test.
    """
    from radseries import cli

    out, err = io.StringIO(), io.StringIO()
    saved_env, saved_cwd = dict(os.environ), os.getcwd()
    os.environ.pop("RADSERIES_CONFIG", None)
    os.environ.update(env_extra or {})
    try:
        if cwd is not None:
            os.chdir(cwd)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(args))
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(saved_cwd)
        os.environ.clear()
        os.environ.update(saved_env)
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def process_env(unbuffered: bool | None = None) -> dict[str, str]:
    """The environment of a child process: RADSERIES_CONFIG unset, and
    PYTHONUNBUFFERED set (every stdout write reaches the pipe at once) or
    unset (the last writes wait for the final flush), or left as it is."""
    env = dict(os.environ)
    env.pop("RADSERIES_CONFIG", None)
    if unbuffered is not None:
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
    return env


def run_cli_process(*args, unbuffered=None):
    """``python -m radseries *args`` in a child process: for what only a
    process shows, such as its entry point and the warnings it prints."""
    return subprocess.run(BASE + list(args), capture_output=True, text=True,
                          env=process_env(unbuffered))


def first_difference(got: str, want: str):
    """None if the texts are equal, else (line number, got line, wanted line)
    of the first line where they differ: a short message where a diff of
    the whole texts would take minutes."""
    pairs = itertools.zip_longest(got.splitlines(), want.splitlines())
    return next(((i, g, w) for i, (g, w) in enumerate(pairs) if g != w), None)


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_radical_12():
    r = run_cli("radical", "12", "--sieve-limit", "100")
    assert r.returncode == 0
    assert json.loads(r.stdout) == {
        "schema_version": 1, "n": 12, "radical": 6, "phi": 4, "squarefree": False,
    }


def test_radical_1():
    r = run_cli("radical", "1", "--sieve-limit", "100")
    assert r.returncode == 0
    assert json.loads(r.stdout) == {
        "schema_version": 1, "n": 1, "radical": 1, "phi": 1, "squarefree": True,
    }


def test_radical_0_exits_2():
    # refused as input, before any sieve is sized
    r = run_cli("radical", "0")
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == "radseries: n must be >= 1, got 0\n"


def test_radical_beyond_sieve_limit_exits_2():
    r = run_cli("radical", "101", "--sieve-limit", "100")
    assert r.returncode == 2
    assert "sieve limit" in r.stderr


def test_radical_sieve_sized_by_n():
    # 100003 is prime; with no flag the sieve reaches exactly n
    r = run_cli("radical", "100003")
    assert r.returncode == 0
    assert json.loads(r.stdout) == {
        "schema_version": 1, "n": 100003, "radical": 100003, "phi": 100002, "squarefree": True,
    }


@pytest.mark.parametrize("value", [2 ** 61 - 1, 2 ** 62, 2 ** 63 - 1])
@pytest.mark.parametrize("argv", [
    ("radical", "{}"),
    ("series", "--s", "4", "--t", "1", "--limit", "{}"),
    ("identity", "--s", "4", "--t", "1", "--limit", "{}", "--prime-limit", "100"),
    ("abc", "--s", "4", "--t", "1", "--cmax", "{}", "--prime-limit", "100"),
], ids=["radical", "series", "identity", "abc"])
def test_sieve_numpy_cannot_allocate_exits_2(argv, value):
    # refused by the size rule before numpy is asked for the table; identity
    # allocates no table, and its limit rule refuses n past uint32 at once;
    # abc's c_max rule refuses its input before any table is sized
    r = run_cli(*(arg.format(value) for arg in argv))
    assert r.returncode == 2
    assert r.stdout == ""
    if argv[0] == "identity":
        assert r.stderr == f"radseries: identity limit {value} is outside [1, 4294967295]\n"
    elif argv[0] == "abc":
        assert r.stderr == f"radseries: c_max={value} must be <= 3037000500 for int64 radicals\n"
    else:
        assert r.stderr == f"radseries: sieve limit {value} does not fit in memory\n"
    assert r.stderr.count("\n") == 1


def test_radical_sieve_beyond_memory_exits_2():
    # 8 * 10^15 bytes of spf exceed any address space: refused at once, never touched
    r = run_cli("radical", str(10 ** 15))
    assert r.returncode == 2
    assert r.stdout == ""
    assert "sieve limit" in r.stderr and "Traceback" not in r.stderr


@pytest.mark.parametrize("argv, need", [
    (("radical", "360"), 360),
    (("radical", "12", "--sieve-limit", "100"), 100),
    (("series", "--s", "4", "--t", "1", "--limit", "300"), 300),
    (("abc", "--s", "4", "--t", "1", "--cmax", "800", "--prime-limit", "1000", "--verify"), 800),
], ids=["radical", "radical-sieve-limit", "series", "abc"])
def test_sieve_sized_by_need(argv, need, monkeypatch, tmp_path, capsys):
    from radseries import FactorSieve, cli

    built, loaded = [], []
    build, load = FactorSieve.build.__func__, FactorSieve.load.__func__

    def recording_build(cls, limit, **kwargs):
        built.append(build(cls, limit, **kwargs))
        return built[-1]

    def recording_load(cls, path, **kwargs):
        loaded.append(load(cls, path, **kwargs))
        return loaded[-1]

    monkeypatch.setattr(FactorSieve, "build", classmethod(recording_build))
    monkeypatch.setattr(FactorSieve, "load", classmethod(recording_load))
    monkeypatch.delenv("RADSERIES_CONFIG", raising=False)
    monkeypatch.chdir(tmp_path)
    assert cli.main(list(argv)) == 0
    # every sieve the CLI builds or loads is spf-only: no command reads rad or phi
    assert [(s.limit, s.rad is None, s.phi is None) for s in built] == [(need, True, True)]
    out = capsys.readouterr().out
    assert out
    built[0].dump("sieve.bin")
    argv = list(argv)
    if "--sieve-limit" in argv:  # the dump takes its place
        i = argv.index("--sieve-limit")
        del argv[i:i + 2]
    assert cli.main(argv + ["--sieve-file", "sieve.bin"]) == 0
    assert [(s.limit, s.rad is None, s.phi is None) for s in loaded] == [(need, True, True)]
    assert capsys.readouterr().out == out


@pytest.mark.parametrize("n", [1, 2, 12, 65537, 196608, 720720, 9999991])
def test_radical_json_equals_a_cached_sieve(n, monkeypatch, tmp_path, capsys):
    # the CLI factors n on a lean sieve; a cached sieve reads its arrays
    from radseries import FactorSieve, cli, euler_phi, is_squarefree, radical

    monkeypatch.delenv("RADSERIES_CONFIG", raising=False)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["radical", str(n)]) == 0
    got = json.loads(capsys.readouterr().out)
    cached = FactorSieve.build(n)
    assert got == {
        "schema_version": 1,
        "n": n,
        "radical": radical(cached, n),
        "phi": euler_phi(cached, n),
        "squarefree": is_squarefree(cached, n),
    }


def test_series_four_terms():
    r = run_cli("series", "--s", "4", "--t", "1", "--limit", "4")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["schema_version"] == 1
    assert out["value"] == pytest.approx(1.169849537037037, rel=1e-15)
    assert out["terms_used"] == 4
    assert out["tail_bound"] > 0


def test_series_outside_rc_exits_2():
    r = run_cli("series", "--s", "1.5", "--t", "1", "--limit", "10")
    assert r.returncode == 2
    assert "region of convergence" in r.stderr


def test_series_compare():
    r = run_cli("series", "--s", "4", "--t", "1", "--limit", "10000",
                "--compare", "--prime-limit", "10000")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["agrees"] is True
    assert out["gap"] <= out["combined_tolerance"]


def test_product_two_factors():
    r = run_cli("product", "--s", "4", "--t", "1", "--prime-limit", "3")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["value"] == pytest.approx((17 / 15) * (83 / 80), rel=1e-13)
    assert out["terms_used"] == 2


def test_st_single_prime():
    r = run_cli("st", "--s", "4", "--t", "1", "--prime-limit", "2")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["ratio"] == pytest.approx(16 / 15, rel=1e-14)
    assert out["ratio_low"] < out["ratio"] < out["ratio_high"]
    assert out["in_bound"] is True


def test_ratio_grid_csv():
    r = run_cli("ratio-grid", "--s-min", "2.5", "--s-max", "4", "--t-min", "0.5",
                "--t-max", "2.5", "--steps", "4", "--prime-limit", "1000")
    assert r.returncode == 0
    rows = parse_csv(r.stdout)
    assert len(rows) == 16
    statuses = {row["status"] for row in rows}
    assert statuses == {"ok", "outside_rc"}
    for row in rows:
        assert row["schema_version"] == "1"
        if row["status"] == "ok":
            lo, hi = float(row["ratio_low"]), float(row["ratio_high"])
            assert 1 < lo < hi < 2
            # 17 significant digits round-trip exactly
            assert float(row["ratio"]) == float(format(float(row["ratio"]), ".17g"))
        else:
            assert row["ratio"] == ""


def test_ratio_grid_all_outside_exits_2():
    r = run_cli("ratio-grid", "--s-min", "1.1", "--s-max", "1.2", "--t-min", "1",
                "--t-max", "2", "--steps", "3", "--prime-limit", "100")
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == ("radseries: no grid point lies inside the region of convergence "
                        "(t > 0, s > 1 + t)\n")


@pytest.mark.parametrize("bounds, points", [
    (("3", "inf", "1", "1"), [("3", "1"), ("3", "1"), ("inf", "1"), ("inf", "1")]),
    (("3", "3", "1", "inf"), [("3", "1"), ("3", "inf"), ("3", "1"), ("3", "inf")]),
], ids=["s-max", "t-max"])
def test_ratio_grid_keeps_the_finite_end_of_an_infinite_axis(bounds, points):
    # inf * 0 would make the finite end NaN and leave no point inside
    s_min, s_max, t_min, t_max = bounds
    r = run_cli("ratio-grid", "--s-min", s_min, "--s-max", s_max, "--t-min", t_min,
                "--t-max", t_max, "--steps", "2", "--prime-limit", "100")
    assert r.returncode == 0
    rows = parse_csv(r.stdout)
    assert [(row["s"], row["t"]) for row in rows] == points
    st = json.loads(run_cli("st", "--s", "3", "--t", "1", "--prime-limit", "100").stdout)
    for row in rows:
        if row["t"] == "inf" or row["s"] == "inf":
            assert row["status"] == "outside_rc"
        else:
            assert row["status"] == "ok"
            assert float(row["S"]) == st["s_value"]["value"]
            assert float(row["ratio"]) == st["ratio"]


def test_grid_axis_keeps_both_ends_where_the_width_is_not_finite():
    from radseries.cli import _grid_axis

    assert _grid_axis(-1e308, 1e308, 3) == [-1e308, 0.0, 1e308]
    wide = _grid_axis(-1.7e308, 1.7e308, 11)
    assert wide[0] == -1.7e308 and wide[-1] == 1.7e308 and wide[5] == 0.0
    assert all(math.isfinite(x) for x in wide) and wide == sorted(wide)
    assert _grid_axis(3.0, math.inf, 3) == [3.0, math.inf, math.inf]
    assert _grid_axis(-math.inf, 0.5, 2) == [-math.inf, 0.5]
    # a finite width keeps its formula, and so its bits
    assert _grid_axis(2.2, 8.0, 10) == [2.2 + (8.0 - 2.2) * i / 9 for i in range(10)]


def test_ratio_grid_check_bounds_ok():
    r = run_cli("ratio-grid", "--s-min", "3", "--s-max", "4", "--t-min", "0.5",
                "--t-max", "1", "--steps", "3", "--prime-limit", "1000",
                "--check-bounds")
    assert r.returncode == 0


def test_ratio_grid_check_bounds_failure_exits_3_after_the_full_csv(monkeypatch):
    # no real grid point leaves (1, 2) by more than rounding, so the kernel
    # widens the enclosures at t = 1 to reach 2
    from dataclasses import replace

    from radseries.stkernel import StKernel

    ratio = StKernel.ratio

    def widened_at_t_1(self, params):
        st = ratio(self, params)
        return replace(st, ratio_interval=(st.ratio_interval[0], 2.0)) if params.t == 1.0 else st

    monkeypatch.setattr(StKernel, "ratio", widened_at_t_1)
    grid = ("ratio-grid", "--s-min", "3", "--s-max", "4", "--t-min", "0.5", "--t-max", "1",
            "--steps", "3", "--prime-limit", "1000")
    full = run_cli(*grid)
    assert (full.returncode, full.stderr) == (0, "")
    rows = parse_csv(full.stdout)
    assert len(rows) == 9 and [row["ratio_high"] == "2" for row in rows].count(True) == 3
    r = run_cli(*grid, "--check-bounds")
    assert r.returncode == 3
    assert r.stdout == full.stdout
    assert r.stderr == "ratio-grid: 3 enclosing interval(s) leave (1, 2)\n"


# identity --s 4 --t 1 --limit 300000 --prime-limit 1000 as printed when R(n)
# came from a whole-range factor sieve: two radical windows of 2^18.  numpy
# picks its float64 exp, log and power loops by CPU feature, and the last
# digits of the residual follow it, so each dispatch level has its residual:
# with AVX512 loops, and without them, as recorded on the same host under
# NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"
AVX512 = np._core._multiarray_umath.__cpu_features__.get("AVX512_SKX", False)
IDENTITY_300K_RESIDUAL = {True: "3.5202788056462255e-09", False: "3.5202788056462395e-09"}
IDENTITY_300K = (
    '{"schema_version": 1, "command": "identity", "s": 4.0, "t": 1.0, "limit": 300000, '
    '"prime_limit": 1000, "residual": RESIDUAL, '
    '"tolerance": 1.9394732729194935e-06, "within_tolerance": true, '
    '"split": {"below": 0.0009820898397662617, "equal": 0.0, '
    '"above": -0.000982086319487456, "counts": [182377, 1, 117622], '
    '"ambiguous_count": 0, "balance_gap": 3.520278805653823e-09, '
    '"tolerance": 1.9394732729194935e-06}}\n')


def test_identity_builds_and_loads_no_sieve(monkeypatch):
    from radseries import FactorSieve

    def no_sieve(cls, *args, **kwargs):
        raise AssertionError("identity must not build or load a factor sieve")

    monkeypatch.setattr(FactorSieve, "build", classmethod(no_sieve))
    monkeypatch.setattr(FactorSieve, "load", classmethod(no_sieve))
    r = run_cli("identity", "--s", "4", "--t", "1", "--limit", "300000",
                "--prime-limit", "1000")
    assert (r.returncode, r.stderr) == (0, "")
    assert r.stdout == IDENTITY_300K.replace("RESIDUAL", IDENTITY_300K_RESIDUAL[AVX512])


def test_identity_within_tolerance():
    r = run_cli("identity", "--s", "4", "--t", "1", "--limit", "10000",
                "--prime-limit", "10000")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["within_tolerance"] is True
    assert abs(out["residual"]) <= out["tolerance"]
    assert out["split"]["counts"][1] == 1
    assert out["split"]["balance_gap"] <= out["split"]["tolerance"]


def test_abc_small_scan():
    r = run_cli("abc", "--cmax", "5", "--s", "4", "--t", "1", "--prime-limit", "1000")
    assert r.returncode == 0
    rows = parse_csv(r.stdout)
    by_c = {}
    for row in rows:
        by_c.setdefault(int(row["c"]), []).append(row)
    assert {c: len(v) for c, v in by_c.items()} == {3: 1, 4: 1, 5: 2}
    first = rows[0]
    assert (first["a"], first["b"], first["c"]) == ("1", "2", "3")
    assert first["rad_abc"] == "6"
    assert first["conclusion_holds"] == "true"
    assert float(first["quality"]) == pytest.approx(math.log(3) / math.log(6), rel=1e-12)


def abc_csv(batches) -> str:
    """The rows of ``batches`` as ``abc`` prints them, by csv.writer."""
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(["schema_version", "a", "b", "c", "rad_abc",
                     "hypothesis_holds", "conclusion_holds", "quality"])
    for batch in batches:
        for rec in batch.records():
            writer.writerow([
                1, rec.a, rec.b, rec.c, rec.rad_abc,
                str(rec.hypothesis_holds).lower(), str(rec.conclusion_holds).lower(),
                format(rec.quality, ".17g"),
            ])
    return want.getvalue()


def test_abc_csv_matches_csv_writer(capsys, monkeypatch):
    from radseries import FactorSieve, Params, abcscan, scan, sieve_primes
    from radseries.cli import main
    from conftest import scaled_radical_range

    cases = [  # (c_max, abcscan patches, sample and seed)
        (400, {}, None),
        # int64 batches, then batches whose rad_abc passes 2^63 as Python ints
        (400, {"radical_range": scaled_radical_range, "BATCH_PAIRS": 4096}, None),
        (60, {"BATCH_PAIRS": 1}, None),  # batches of 0 or 1 rows
        (5000, {}, (20, 7)),
    ]
    for c_max, patches, sampled in cases:
        with monkeypatch.context() as patch:
            for name, value in patches.items():
                patch.setattr(abcscan, name, value)
            extra = ["--sample", str(sampled[0]), "--seed", str(sampled[1])] if sampled else []
            assert main(["abc", "--cmax", str(c_max), "--s", "4", "--t", "1",
                         "--prime-limit", "1000", *extra]) == 0
            got = capsys.readouterr().out
            sample = dict(zip(("sample", "seed"), sampled or ()))
            batches = list(scan(FactorSieve.build(c_max), sieve_primes(1000), Params(4, 1),
                                c_max, 1000, **sample))

        assert first_difference(got, abc_csv(batches)) is None, (c_max, patches, sampled)
        if "radical_range" in patches:
            widths = {batch.rad_abc.dtype for batch in batches}
            assert widths == {np.dtype(np.int64), np.dtype(object)}
        if patches.get("BATCH_PAIRS") == 1:
            assert {len(batch.a) for batch in batches} == {0, 1}
        if sampled:
            assert len({rec.c for batch in batches for rec in batch.records()}) == sampled[0]


def test_abc_rows_whose_radical_products_pass_uint32():
    # c = 198696 has 19,534 coprime rows whose rad(a) rad(b) passes 2^32 - 1,
    # the range of the uint32 radical table, so the scan forms it in int64
    from radseries import FactorSieve, Params, scan, sieve_primes
    from conftest import brute_rad

    r = run_cli("abc", "--cmax", "200000", "--s", "4", "--t", "1", "--prime-limit", "1000",
                "--sample", "2", "--seed", "0")
    assert r.returncode == 0
    batches = list(scan(FactorSieve.build(200_000), sieve_primes(1000), Params(4, 1),
                        200_000, 1000, sample=2, seed=0))
    records = [rec for batch in batches for rec in batch.records()]
    rad = functools.lru_cache(maxsize=None)(brute_rad)
    assert sorted({rec.c for rec in records}) == [100_992, 198_696]
    assert sum(rec.c == 198_696 and rad(rec.a) * rad(rec.b) > 2**32 - 1
               for rec in records) == 19_534
    assert [rec.rad_abc for rec in records] == [
        rad(rec.a) * rad(rec.b) * rad(rec.c) for rec in records]
    assert first_difference(r.stdout, abc_csv(batches)) is None


def test_abc_cmax_past_its_bound_is_refused_before_the_sieve(monkeypatch, tmp_path):
    # with memory for the sieve of 3037000501, the c_max rule refuses it, and
    # no sieve is built or read; with --sieve-file too
    from radseries import FactorSieve

    def refused(cls, *args, **kwargs):
        raise AssertionError("a refused c_max must not get a sieve")

    monkeypatch.setattr(importlib.import_module("radseries.radical"), "_physical_memory",
                        lambda: 2 ** 40)
    monkeypatch.setattr(FactorSieve, "build", classmethod(refused))
    monkeypatch.setattr(FactorSieve, "load", classmethod(refused))
    for extra in ([], ["--sieve-file", "missing.bin"]):
        r = run_cli("abc", "--s", "4", "--t", "1", "--cmax", "3037000501", "--prime-limit", "100",
                    *extra, cwd=tmp_path)
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr == "radseries: c_max=3037000501 must be <= 3037000500 for int64 radicals\n"


def g17_lines(values) -> str:
    """The abc writer's quality text for each value, one line each."""
    from radseries.cli import _g17_cols

    text = _g17_cols(np.asarray(values, dtype=np.float64))
    lines = np.vstack([text, np.full((1, text.shape[1]), ord("\n"), np.uint8)])
    return lines.T.tobytes().replace(b"\0", b"").decode("ascii")


def format_lines(values) -> str:
    return "".join(format(v, ".17g") + "\n" for v in np.asarray(values, dtype=np.float64).tolist())


QUALITY_EDGES = [
    1234567890123456.25,  # an exact tie at the 17th digit: rounds to the even ...2
    9.9999999999999998,  # parses to 10.0: a carry to the next power of ten
    0.1, 1e-4, 1e16,  # each with both neighbours
    *(np.nextafter(v, direction) for v in (0.1, 1e-4, 1e16) for direction in (0, np.inf)),
    # the double below each power of ten prints 17 nines-led digits, never 10^k
    *(np.nextafter(10.0 ** k, 0) for k in range(-4, 17)),
    10.0, 100.0, 1e15, 123.0, 9999999999999998.0, 0.5, 25.0,
    0.0, -0.0, -1.5, 5e-324, 1.7976931348623157e308, math.inf, -math.inf, math.nan,
]


def test_quality_kernel_matches_format_on_edges():
    assert first_difference(g17_lines(QUALITY_EDGES), format_lines(QUALITY_EDGES)) is None
    for value in QUALITY_EDGES:  # alone, so its exponent sets the layout
        assert first_difference(g17_lines([value]), format_lines([value])) is None


def test_quality_kernel_matches_format_on_1e5_values():
    rng = np.random.default_rng(17)
    values = np.exp(rng.uniform(math.log(1e-4), math.log(1e17), 100_000))
    assert first_difference(g17_lines(values), format_lines(values)) is None


@pytest.mark.parametrize("miss", [-1, 1])
def test_quality_kernel_corrects_an_exponent_estimate_one_off(monkeypatch, miss):
    # log10 is not correctly rounded in every libm; an estimate one too low
    # or too high must be corrected, not printed with 16 or 18 digits
    values = [*QUALITY_EDGES, *np.random.default_rng(3).uniform(0.008, 25, 1000)]

    def exponent_one_off(x):  # the exponent format rounds to, then the miss
        return np.array([int(format(v, ".16e").split("e")[1]) + miss + 0.5 for v in x.tolist()])

    monkeypatch.setattr(np, "log10", exponent_one_off)
    assert first_difference(g17_lines(values), format_lines(values)) is None


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False) | st.floats(1e-4, 1e17),
                min_size=1, max_size=20))
def test_quality_kernel_matches_format_on_any_doubles(values):
    assert first_difference(g17_lines(values), format_lines(values)) is None


def test_abc_verify_exit_zero():
    r = run_cli("abc", "--cmax", "1000", "--s", "4", "--t", "1",
                "--prime-limit", "10000", "--verify")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["counterexamples"] == []
    assert out["records_seen"] > 0
    assert out["hypothesis_true"] > 0


def test_abc_progress_on_stderr_only():
    r = run_cli("abc", "--cmax", "1000", "--s", "4", "--t", "1",
                "--prime-limit", "1000", "--verify", "--progress")
    assert r.returncode == 0
    assert "c=500/1000" in r.stderr
    json.loads(r.stdout)  # stdout stays machine-clean


@pytest.mark.parametrize("sample", [(), ("--sample", "300", "--seed", "1")])
def test_abc_verify_prints_what_the_full_scan_prints(sample, monkeypatch):
    # abc --verify runs certify; verify_theorem2 over every row of scan must
    # print the same report and the same progress lines
    from radseries import cli, scan, verify_theorem2

    args = ("abc", "--s", "4", "--t", "1", "--cmax", "2000", "--prime-limit", "10000",
            "--verify", "--progress", *sample)
    got = run_cli(*args)
    monkeypatch.setattr(cli, "certify", lambda *a, **kw: verify_theorem2(scan(*a, **kw)))
    want = run_cli(*args)
    assert (got.returncode, got.stdout, got.stderr) == (want.returncode, want.stdout, want.stderr)
    assert got.returncode == 0 and "abc: c=2000/2000" in got.stderr


@pytest.mark.parametrize("extra", [(), ("--verify",)])
def test_abc_negative_sample_exits_2(extra):
    r = run_cli("abc", "--cmax", "100", "--s", "4", "--t", "1", "--sample", "-1",
                "--prime-limit", "1000", *extra)
    assert r.returncode == 2
    assert r.stdout == ""
    assert "sample must be >= 0" in r.stderr
    assert "Traceback" not in r.stderr


def test_abc_cmax_below_3_exits_2_before_any_output():
    r = run_cli("abc", "--cmax", "2", "--s", "4", "--t", "1", "--prime-limit", "1000")
    assert r.returncode == 2
    assert r.stdout == ""


def test_deterministic_across_runs():
    args = ("series", "--s", "2.6", "--t", "0.5", "--limit", "20000")
    a = run_cli_process(*args)
    b = run_cli_process(*args)
    assert a.stdout == b.stdout
    assert a.returncode == 0


ABC_CSV = ("abc", "--s", "4", "--t", "1", "--cmax", "800")
RATIO_GRID_CSV = ("ratio-grid", "--s-min", "2.2", "--s-max", "8", "--t-min", "0.2",
                  "--t-max", "2", "--steps", "60", "--prime-limit", "1000")


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_the_largest_output_arrives_whole_through_a_pipe(unbuffered):
    # ~5 MB: the process ends right after its final flush, so any byte it
    # had not written by then would be lost
    child = subprocess.run(BASE + list(ABC_CSV), capture_output=True, env=process_env(unbuffered))
    assert (child.returncode, child.stderr) == (0, b"")
    want = run_cli(*ABC_CSV).stdout
    assert len(want) > 4_000_000
    same = child.stdout == want.encode()  # a bare name: no diff of 5 MB on failure
    assert same, first_difference(child.stdout.decode(), want)


@pytest.mark.parametrize("args, code", [
    (("radical", "12"), 0),
    (("st", "--s", "2", "--t", "1"), 2),
    # at s = 60 S and T round to one double, so the ratio 1 leaves (1, 2):
    # exit 3 until ROADMAP item 1 computes S/T as 1 + (S - T)/T
    (("ratio-grid", "--s-min", "40", "--s-max", "60", "--t-min", "1", "--t-max", "2",
      "--steps", "3", "--check-bounds"), 3),
    (("--help",), 0),
    (("st", "--s", "4"), 2),
], ids=["ok", "invalid", "verification", "help", "usage-error"])
def test_a_process_prints_and_exits_as_main_returns(args, code):
    child = run_cli_process(*args, unbuffered=False)  # what is buffered reaches the pipe too
    assert child.returncode == code
    inline = run_cli(*args)
    assert (child.stdout, child.stderr, inline.returncode) == (inline.stdout, inline.stderr, code)


# Unbuffered (PYTHONUNBUFFERED), ratio-grid writes its ~0.5 MB in one call,
# which the reader cuts short when it leaves during it.
@pytest.mark.parametrize("args, unbuffered", [
    (ABC_CSV, True), (ABC_CSV, False), (RATIO_GRID_CSV, True), (RATIO_GRID_CSV, False),
], ids=["abc-unbuffered", "abc-buffered", "ratio-grid-unbuffered", "ratio-grid-buffered"])
def test_a_reader_that_closes_the_pipe_early_gives_exit_2(args, unbuffered, tmp_path):
    # each output is several times a pipe's 64 KiB, so the command is still
    # writing when the reader leaves
    err_path = tmp_path / "stderr.txt"
    with open(err_path, "wb") as err:
        child = subprocess.Popen(BASE + list(args), stdout=subprocess.PIPE, stderr=err,
                                 env=process_env(unbuffered))
        try:
            assert len(child.stdout.read(100)) == 100
        finally:
            child.stdout.close()
            code = child.wait(timeout=120)
    lines = err_path.read_text().splitlines()
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("radseries: cannot write output: "), lines


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("unbuffered", [True, False], ids=["in-the-command", "at-the-final-flush"])
def test_a_full_device_gives_exit_2(unbuffered):
    with open("/dev/full", "w") as full:
        child = subprocess.run(BASE + ["st", "--s", "4", "--t", "1", "--prime-limit", "1000"],
                               stdout=full, stderr=subprocess.PIPE, text=True,
                               env=process_env(unbuffered))
    lines = child.stderr.splitlines()
    assert child.returncode == 2
    assert len(lines) == 1 and lines[0].startswith("radseries: cannot write output: "), lines


def test_atexit_handlers_still_run():
    code = ("import atexit, runpy, sys; "
            "atexit.register(print, 'atexit handler ran', file=sys.stderr); "
            "sys.argv = ['radseries', 'radical', '12']; "
            "runpy.run_module('radseries', run_name='__main__')")
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env=process_env())
    assert child.returncode == 0
    assert json.loads(child.stdout)["radical"] == 6
    assert child.stderr == "atexit handler ran\n"


def test_the_script_and_python_m_share_one_entry(monkeypatch):
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["radseries"]
    module_name, _, name = target.partition(":")
    calls = []
    monkeypatch.setattr(importlib.import_module(module_name), name, lambda: calls.append(name))
    runpy.run_module("radseries", run_name="__main__")
    assert calls == [name]


def test_threads_flag_is_retired():
    r = run_cli("st", "--s", "4", "--t", "1", "--threads", "2")
    assert r.returncode == 2
    assert r.stdout == ""
    assert "--threads" in r.stderr and "Traceback" not in r.stderr


NO_SIEVE_COMMANDS = {
    "st": ("st", "--s", "4", "--t", "1"),
    "product": ("product", "--s", "4", "--t", "1"),
    "ratio-grid": ("ratio-grid", "--s-min", "3", "--s-max", "4", "--t-min", "0.5", "--t-max", "1"),
    "sieve": ("sieve", "--limit", "100", "--out"),
    "identity": ("identity", "--s", "4", "--t", "1", "--limit", "100"),
}
# series and abc size their sieve by need or read --sieve-file; only radical sets a limit
SIEVE_LIMIT_REFUSED = {
    **NO_SIEVE_COMMANDS,
    "series": ("series", "--s", "4", "--t", "1", "--limit", "100"),
    "abc": ("abc", "--s", "4", "--t", "1", "--cmax", "100", "--prime-limit", "100"),
}


@pytest.mark.parametrize("argv, flag", [
    *(pytest.param(argv, ("--sieve-limit", "1000"), id=f"sieve-limit-{name}")
      for name, argv in SIEVE_LIMIT_REFUSED.items()),
    *(pytest.param(argv, ("--sieve-file", "/nonexistent"), id=f"sieve-file-{name}")
      for name, argv in NO_SIEVE_COMMANDS.items()),
])
def test_sieve_flags_only_where_a_sieve_is_used(argv, flag, tmp_path):
    out = tmp_path / "unused.bin"
    r = run_cli(*argv, *([str(out)] if argv[-1] == "--out" else []), *flag)
    assert r.returncode == 2
    assert r.stdout == ""
    assert flag[0] in r.stderr and "Traceback" not in r.stderr
    assert not out.exists()


def test_config_file_and_env(tmp_path):
    st = ("st", "--s", "4", "--t", "1")
    cfg = tmp_path / "radseries.conf"
    cfg.write_text("# test config\nprime_limit = 50\n")
    r = run_cli(*st, "--config", str(cfg))
    assert r.returncode == 0
    assert json.loads(r.stdout)["prime_limit"] == 50
    # same config through the environment variable
    r2 = run_cli(*st, env_extra={"RADSERIES_CONFIG": str(cfg)})
    assert r2.returncode == 0
    assert json.loads(r2.stdout)["prime_limit"] == 50
    # explicit flag overrides the config
    r3 = run_cli(*st, "--config", str(cfg), "--prime-limit", "100")
    assert r3.returncode == 0
    assert json.loads(r3.stdout)["prime_limit"] == 100
    # a configured value that admits no primes fails like the flag would
    cfg.write_text("prime_limit = 1\n")
    r4 = run_cli(*st, "--config", str(cfg))
    assert r4.returncode == 2
    assert r4.stdout == ""


def test_config_in_the_working_directory_and_env_precedence(tmp_path):
    st = ("st", "--s", "4", "--t", "1")
    (tmp_path / "radseries.conf").write_text("prime_limit = 50\n")
    r = run_cli(*st, cwd=tmp_path)
    assert r.returncode == 0
    assert '"prime_limit": 50' in r.stdout
    # $RADSERIES_CONFIG wins over ./radseries.conf
    env_cfg = tmp_path / "env.conf"
    env_cfg.write_text("prime_limit = 60\n")
    r2 = run_cli(*st, env_extra={"RADSERIES_CONFIG": str(env_cfg)}, cwd=tmp_path)
    assert r2.returncode == 0
    assert json.loads(r2.stdout)["prime_limit"] == 60


@pytest.mark.parametrize("text, where, key", [
    pytest.param(None, "", None, id="unreadable"),  # never written
    pytest.param("# defaults\nprime_limit 50\n", ":2", None, id="no-equals"),
    # bad values are refused as the file is loaded, whether st reads the key or not
    pytest.param("prime_limit = 1\n", ":1", "prime_limit", id="prime-limit-1"),
    pytest.param("spec = nosuch\n", ":1", "spec", id="unknown-spec"),
])
def test_bad_config_file_exits_2_naming_it(tmp_path, text, where, key):
    cfg = tmp_path / "radseries.conf"
    if text is not None:
        cfg.write_text(text)
    r = run_cli("st", "--s", "4", "--t", "1", "--config", str(cfg))
    assert (r.returncode, r.stdout) == (2, "")
    errors = [line for line in r.stderr.splitlines() if line.startswith("radseries:")]
    assert len(errors) == 1 and f"{cfg}{where}" in errors[0] and "Traceback" not in r.stderr
    assert key is None or f"config key {key} " in errors[0]


def test_config_names_default_spec(tmp_path):
    cfg = tmp_path / "radseries.conf"
    cfg.write_text("spec = unit\n")
    r = run_cli("series", "--s", "2", "--t", "0.5", "--limit", "1000",
                "--config", str(cfg))
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["spec"] == "unit"
    assert out["value"] == pytest.approx(sum(1 / n ** 2 for n in range(1, 1001)), rel=1e-13)
    # flag still overrides the config default
    r2 = run_cli("series", "--s", "2", "--t", "0.5", "--limit", "1000",
                 "--spec", "radical", "--config", str(cfg))
    assert json.loads(r2.stdout)["spec"] == "radical"


@pytest.mark.parametrize("scale", ["-1", "0", "nan"])
def test_bad_tolerance_scale_exits_2(tmp_path, scale):
    # the key is retired: every value fails as an unknown key
    cfg = tmp_path / "radseries.conf"
    cfg.write_text(f"tolerance_scale = {scale}\n")
    r = run_cli("series", "--s", "4", "--t", "1", "--limit", "10000", "--compare",
                "--config", str(cfg))
    assert r.returncode == 2
    assert r.stdout == ""
    assert "tolerance_scale" in r.stderr and "Traceback" not in r.stderr


@pytest.mark.parametrize("line", ["sieve_limit = 100000", "tolerance_scale = 1.0"])
def test_retired_config_key_exits_2(tmp_path, line):
    # the sieve is sized by each command's input and tolerances are the computed ones
    cfg = tmp_path / "radseries.conf"
    cfg.write_text(line + "\n")
    r = run_cli("radical", "12", "--config", str(cfg))
    assert r.returncode == 2
    assert r.stdout == ""
    assert f"unknown config key {line.split()[0]!r}" in r.stderr and "Traceback" not in r.stderr


def test_bad_config_key_exits_2(tmp_path):
    cfg = tmp_path / "bad.conf"
    cfg.write_text("no_such_key = 7\n")
    r = run_cli("radical", "12", "--config", str(cfg))
    assert r.returncode == 2
    assert "no_such_key" in r.stderr


def test_sieve_dump_and_reuse(tmp_path):
    dump = tmp_path / "sieve.bin"
    # no config key sizes a dump: --limit is required
    r0 = run_cli("sieve", "--out", str(dump))
    assert r0.returncode == 2
    assert "--limit" in r0.stderr and not dump.exists()
    r = run_cli("sieve", "--limit", "500", "--out", str(dump))
    assert r.returncode == 0
    assert json.loads(r.stdout)["limit"] == 500
    assert dump.stat().st_size > 500 * 8
    r2 = run_cli("radical", "360", "--sieve-file", str(dump))
    assert r2.returncode == 0
    assert json.loads(r2.stdout)["radical"] == 30


def test_corrupt_sieve_dump_exits_2(tmp_path):
    from radseries import FactorSieve

    spf = FactorSieve.build(500, cache_values=False).spf.copy()
    spf[10] = 3  # before load checked the dump, radical 10 printed 10
    dump = tmp_path / "corrupt.bin"
    FactorSieve(limit=500, spf=spf).dump(dump)
    r = run_cli("radical", "10", "--sieve-file", str(dump))
    assert r.returncode == 2
    assert r.stdout == ""
    assert "corrupt sieve dump" in r.stderr and "Traceback" not in r.stderr


@pytest.mark.parametrize("offset, data, message", [
    (0, b"NOTSIEVE", "not a sieve dump"),
    (8, (2).to_bytes(4, "little"), "unsupported version 2"),
], ids=["magic", "version"])
def test_dump_header_with_bad_magic_or_version_exits_2(tmp_path, offset, data, message):
    # a full header (magic, version, reserved, limit) and payload: only the
    # named field is wrong
    dump = tmp_path / "sieve.bin"
    assert run_cli("sieve", "--limit", "5", "--out", str(dump)).returncode == 0
    raw = bytearray(dump.read_bytes())
    assert len(raw) == 24 + 8 * 6
    raw[offset:offset + len(data)] = data
    dump.write_bytes(bytes(raw))
    r = run_cli("radical", "5", "--sieve-file", str(dump))
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == f"radseries: {dump}: {message}\n"


@pytest.mark.parametrize("case", ["missing", "directory", "unwritable"])
def test_unusable_dump_path_exits_2_naming_it(tmp_path, case):
    missing = str(tmp_path / "no_such_dir" / "x.bin")
    argv = {
        "missing": ("radical", "10", "--sieve-file", missing),
        "directory": ("radical", "10", "--sieve-file", str(tmp_path)),
        "unwritable": ("sieve", "--limit", "10", "--out", missing),
    }[case]
    r = run_cli(*argv)
    assert (r.returncode, r.stdout) == (2, "")
    assert "Traceback" not in r.stderr
    errors = [line for line in r.stderr.splitlines() if line.startswith("radseries:")]
    assert len(errors) == 1 and argv[-1] in errors[0]


def test_identity_output_matches_library(tmp_path):
    from radseries import Params, identity_pass, sieve_primes

    r = run_cli("identity", "--s", "2.6", "--t", "0.5", "--limit", "70000",
                "--prime-limit", "5000")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    got = identity_pass(sieve_primes(5000), Params(2.6, 0.5), 70_000, 5000)
    assert (out["residual"], out["tolerance"]) == (got.residual, got.tolerance)
    assert out["within_tolerance"] == got.within_tolerance
    assert out["split"] == {
        "below": got.below, "equal": got.equal, "above": got.above,
        "counts": list(got.classification_counts),
        "ambiguous_count": got.ambiguous_count,
        "balance_gap": got.balance_gap, "tolerance": got.tolerance,
    }


@pytest.mark.parametrize("args, field", [
    # expm1 of the product's log tail overflows
    (("product", "--s", "2.0001", "--t", "1"), "tail_bound"),
])
def test_non_finite_result_exits_3_with_empty_stdout(args, field):
    r = run_cli(*args)
    assert r.returncode == 3
    assert r.stdout == ""
    assert "Traceback" not in r.stderr
    errors = [line for line in r.stderr.splitlines() if line.startswith("radseries:")]
    assert len(errors) == 1 and repr(field) in errors[0]


def test_non_finite_field_inside_a_record_row_is_named_by_its_path(monkeypatch):
    # the verify report's rows print as JSON arrays, so the path runs through
    # the top_quality list and the AbcRecord tuple down to its quality, index 6
    from radseries import AbcRecord, Theorem2Report, cli

    row = AbcRecord(1, 2, 3, 6, True, True, math.nan)
    monkeypatch.setattr(cli, "certify", lambda *args, **kwargs: Theorem2Report(top_quality=[row]))
    r = run_cli("abc", "--s", "4", "--t", "1", "--cmax", "10", "--prime-limit", "100", "--verify")
    assert r.returncode == 3
    assert r.stdout == ""
    errors = [line for line in r.stderr.splitlines() if line.startswith("radseries:")]
    assert len(errors) == 1 and "'top_quality.0.6'" in errors[0]


def test_overflowing_term_power_gives_a_finite_series_value():
    # R(n)^t overflows where n^-s underflows (inf * 0); those terms are formed
    # as exp(t ln R(n) - s ln n), and past n = 2 they are below half an ulp of 1
    r = run_cli("series", "--s", "400", "--t", "350", "--limit", "100000")
    assert (r.returncode, r.stderr) == (0, "")
    assert json.loads(r.stdout)["value"] == 1.0 + 2.0**-50


@pytest.mark.parametrize("args", [
    ("series", "--s", "400", "--t", "350", "--limit", "1000"),
    ("identity", "--s", "400", "--t", "350", "--limit", "1000", "--prime-limit", "1000"),
    ("st", "--s", "2.0001", "--t", "1"),
    ("product", "--s", "400", "--t", "350"),
], ids=["series", "identity", "st", "product"])
def test_edge_points_write_nothing_to_stderr(args):
    # no numpy RuntimeWarning (overflow, inf * 0) reaches the user
    r = run_cli_process(*args)
    assert r.returncode in (0, 2, 3)
    assert r.stderr == ""


@pytest.mark.parametrize("args", [
    ("st", "--s", "1100", "--t", "2"),
    ("ratio-grid", "--s-min", "1100", "--s-max", "1100", "--t-min", "2", "--t-max", "2",
     "--steps", "1"),
    # the s = 1000 row is in range: no CSV is printed up to the first bad point
    ("ratio-grid", "--s-min", "1000", "--s-max", "1200", "--t-min", "2", "--t-max", "3",
     "--steps", "3", "--prime-limit", "1000"),
    ("identity", "--s", "1100", "--t", "2", "--limit", "1000", "--prime-limit", "1000"),
    ("abc", "--s", "1100", "--t", "2", "--cmax", "50", "--verify"),
    ("abc", "--s", "1100", "--t", "2", "--cmax", "50"),
], ids=["st", "ratio-grid", "ratio-grid-after-rows", "identity", "abc-verify", "abc-csv"])
def test_underflowed_t_exits_2_without_traceback(args):
    # every S/T term underflows at s = 1100, so T = 0.0 and S/T is undefined
    r = run_cli(*args)
    assert r.returncode == 2
    assert r.stdout == ""
    assert "Traceback" not in r.stderr
    errors = [line for line in r.stderr.splitlines() if line.startswith("radseries:")]
    assert len(errors) == 1 and "s=1100.0, t=2.0" in errors[0]


@pytest.mark.parametrize("args", [
    ("product", "--s", "inf", "--t", "1"),
    ("series", "--s", "inf", "--t", "1", "--limit", "10"),
    ("series", "--s", "inf", "--t", "1", "--limit", "10", "--compare"),
], ids=["product", "series", "series-compare"])
def test_infinite_s_is_invalid_input(args):
    # s = inf passes s > 1 + t but is no point of the region: exit 2, not a
    # non-finite result
    r = run_cli(*args)
    assert r.returncode == 2
    assert r.stdout == ""
    errors = [line for line in r.stderr.splitlines() if line.startswith("radseries:")]
    assert len(errors) == 1 and "s=inf" in errors[0]


# s > 1 + t holds in float64 at both, but s - t rounds to 1.0
EDGE_POINTS = [(1.0000000000000002, 1.1102230246251565e-16),
               (1.8942081768689387, 0.8942081768689386)]


@pytest.mark.parametrize("point", EDGE_POINTS, ids=["tiny-t", "t-near-one"])
@pytest.mark.parametrize("command", [
    ("series", "--limit", "10"),
    ("series", "--limit", "10", "--compare"),
    ("product",),
    ("st",),
    ("identity", "--limit", "10"),
    ("abc", "--cmax", "10", "--verify"),
], ids=["series", "series-compare", "product", "st", "identity", "abc-verify"])
def test_s_minus_t_rounding_to_one_is_invalid_input(point, command):
    # neither the series nor the product has a tail there, so Params refuses
    # the point for every command: no value, and no gap, without a tolerance
    s, t = map(repr, point)
    assert point[0] > 1.0 + point[1] and point[0] - point[1] == 1.0
    r = run_cli(*command, "--s", s, "--t", t, "--prime-limit", "10")
    assert r.returncode == 2
    assert r.stdout == ""
    errors = [line for line in r.stderr.splitlines() if line.startswith("radseries:")]
    assert len(errors) == 1 and f"s={s}, t={t}" in errors[0]
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("point", [*EDGE_POINTS, (2.2, 1.2)],
                         ids=["tiny-t", "t-near-one", "s-at-one-plus-t"])
def test_ratio_grid_prints_a_point_params_refuses_outside_rc(point):
    # (2.2, 1.2) has s - t > 1 but s <= 1 + t in float64; the edge points the
    # reverse.  Each is one outside_rc row beside the rows of the s = 4 points.
    s, t = point
    r = run_cli("ratio-grid", "--s-min", repr(s), "--s-max", "4", "--t-min", repr(t),
                "--t-max", repr(t), "--steps", "2", "--prime-limit", "100")
    assert r.returncode == 0
    rows = [(float(row["s"]), float(row["t"]), row["status"]) for row in parse_csv(r.stdout)]
    assert rows == [(s, t, "outside_rc")] * 2 + [(4.0, t, "ok")] * 2


def test_prime_table_beyond_memory_exits_2(monkeypatch):
    # the base-prime spf sieve is the first allocation; patched to fail, so
    # nothing large is allocated
    from radseries import primes

    def no_memory(limit):
        raise MemoryError

    monkeypatch.setattr(primes, "_spf_sieve", no_memory)
    r = run_cli("st", "--s", "4", "--t", "1", "--prime-limit", "4611686018427387904")
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == "radseries: sieve limit 4611686018427387904 does not fit in memory\n"


def test_prime_limit_whose_table_exceeds_memory_exits_2_before_sieving(monkeypatch):
    # 2^40 holds up to 4.98e10 primes, 398 GB as int64: refused at once,
    # not after walking 2^18 segments
    from radseries import primes

    def sieved(limit):
        raise AssertionError("a refused limit must not be sieved")

    monkeypatch.setattr(primes, "_spf_sieve", sieved)
    monkeypatch.setattr(importlib.import_module("radseries.radical"), "_physical_memory",
                        lambda: 8 << 30)
    r = run_cli("st", "--s", "4", "--t", "1", "--prime-limit", str(2 ** 40))
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == "radseries: sieve limit 1099511627776 does not fit in memory\n"


NUMPY_MEMORY_ERROR = ("Unable to allocate 153. MiB for an array with shape (20000001,) "
                      "and data type int64")


@pytest.mark.parametrize("message, line", [
    (NUMPY_MEMORY_ERROR, NUMPY_MEMORY_ERROR), ("", "out of memory"),
], ids=["numpy", "bare"])
@pytest.mark.parametrize("argv", [
    ("series", "--s", "4", "--t", "1", "--limit", "1000"),
    ("identity", "--s", "4", "--t", "1", "--limit", "1000", "--prime-limit", "1000"),
    ("abc", "--s", "4", "--t", "1", "--cmax", "1000", "--sample", "1", "--prime-limit", "1000"),
    ("st", "--s", "4", "--t", "1", "--prime-limit", "1000"),
], ids=["series", "identity", "abc", "st"])
def test_memory_error_after_the_sieve_exits_2(monkeypatch, argv, message, line):
    # the first allocation after the sieve fails as numpy's does: for series,
    # identity and abc the first window of n / R(n), or for st the S/T
    # kernel's buffers.  series and abc form their radical tables before they
    # print, so stdout stays empty.
    from radseries import identity, stkernel

    def no_memory(*args, **kwargs):
        raise MemoryError(message)

    if argv[0] == "st":
        monkeypatch.setattr(stkernel.StKernel, "__init__", no_memory)
    elif argv[0] == "identity":
        monkeypatch.setattr(identity, "radical_quotient_window", no_memory)
    else:
        monkeypatch.setattr(importlib.import_module("radseries.radical"),
                            "radical_quotient_window", no_memory)
    r = run_cli(*argv)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == f"radseries: {line}\n"
    assert "Traceback" not in r.stderr


def _key_paths(obj, prefix=""):
    """Every key of a JSON object in order, nested keys as dotted paths."""
    paths = []
    for key, value in obj.items():
        paths.append(prefix + key)
        if isinstance(value, dict):
            paths += _key_paths(value, f"{prefix}{key}.")
    return paths


_SUM_KEYS = ["value", "tail_bound", "terms_used"]


@pytest.mark.parametrize("argv, keys", [
    (["radical", "12"], ["schema_version", "n", "radical", "phi", "squarefree"]),
    (["sieve", "--limit", "10", "--out", "sieve.bin"], ["schema_version", "limit", "path"]),
    (["series", "--s", "4", "--t", "1", "--limit", "10"],
     ["schema_version", "command", "spec", "s", "t", "limit", *_SUM_KEYS]),
    (["series", "--s", "4", "--t", "1", "--limit", "10", "--compare", "--prime-limit", "10"],
     ["schema_version", "command", "spec", "s", "t", "limit", *_SUM_KEYS, "product",
      *(f"product.{k}" for k in [*_SUM_KEYS, "prime_limit"]),
      "gap", "combined_tolerance", "agrees"]),
    (["product", "--s", "4", "--t", "1", "--prime-limit", "10"],
     ["schema_version", "command", "spec", "s", "t", "prime_limit", *_SUM_KEYS]),
    (["st", "--s", "4", "--t", "1", "--prime-limit", "10"],
     ["schema_version", "command", "s", "t", "prime_limit",
      "s_value", *(f"s_value.{k}" for k in _SUM_KEYS),
      "t_value", *(f"t_value.{k}" for k in _SUM_KEYS),
      "ratio", "ratio_low", "ratio_high", "in_bound"]),
    (["identity", "--s", "4", "--t", "1", "--limit", "10", "--prime-limit", "10"],
     ["schema_version", "command", "s", "t", "limit", "prime_limit",
      "residual", "tolerance", "within_tolerance", "split",
      *(f"split.{k}" for k in ["below", "equal", "above", "counts", "ambiguous_count",
                               "balance_gap", "tolerance"])]),
    (["abc", "--s", "4", "--t", "1", "--cmax", "10", "--prime-limit", "10", "--verify"],
     ["schema_version", "command", "s", "t", "cmax", "prime_limit",
      "records_seen", "hypothesis_true", "hypothesis_false", "conclusion_true",
      "counterexamples", "max_quality_hypothesis", "top_quality"]),
], ids=["radical", "sieve", "series", "series-compare", "product", "st", "identity",
        "abc-verify"])
def test_json_keys_are_pinned(argv, keys, tmp_path):
    # the CLI prints result dataclasses field by field, so a renamed or added
    # field would change the schema: every key sequence is pinned here
    r = run_cli(*argv, cwd=tmp_path)
    assert r.returncode == 0
    assert _key_paths(json.loads(r.stdout)) == keys


@pytest.mark.parametrize("argv", [
    ["radical", "12"],
    ["sieve", "--limit", "10", "--out", "sieve.bin"],
    ["series", "--s", "4", "--t", "1", "--limit", "10"],
    ["product", "--s", "4", "--t", "1", "--prime-limit", "10"],
    ["st", "--s", "4", "--t", "1", "--prime-limit", "10"],
    ["identity", "--s", "4", "--t", "1", "--limit", "10", "--prime-limit", "10"],
    ["abc", "--s", "4", "--t", "1", "--cmax", "10", "--prime-limit", "10", "--verify"],
], ids=lambda argv: argv[0])
def test_json_output_starts_with_the_schema_version(argv, monkeypatch, tmp_path, capsys):
    from radseries import cli

    monkeypatch.delenv("RADSERIES_CONFIG", raising=False)
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.startswith('{"schema_version": 1, ')


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _tail_bounds(obj):
    """Every value printed under a tail_bound key, at any depth."""
    for key, value in obj.items():
        if key == "tail_bound":
            yield value
        elif isinstance(value, dict):
            yield from _tail_bounds(value)


@st.composite
def region_points(draw):
    """(s, t): t log-uniform in [1e-300, 1e299], s just above 1 + t, a decade
    offset above it, or log-uniform up to 1e308; rounding may put s outside."""
    t = 10.0 ** draw(st.floats(-300.0, 299.0))
    kind = draw(st.sampled_from(["ulps", "offset", "huge"]))
    if kind == "ulps":
        s = 1.0 + t
        for _ in range(draw(st.integers(1, 4))):
            s = math.nextafter(s, math.inf)
    elif kind == "offset":
        s = 1.0 + t + 10.0 ** draw(st.floats(-16.0, 3.0))
    else:
        low = math.log10(1.0 + t)
        s = 10.0 ** (low + draw(st.floats(0.0, 1.0)) * (308.0 - low))
    return s, t


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(point=region_points())
@example(point=(1.0000000000000002, 1.1102230246251565e-16))
@example(point=(1.7976931348623157e308, 1.6e308))
def test_every_command_exits_cleanly_on_the_whole_region(point, monkeypatch, tmp_path):
    # exit 0, 2 or 3 only, no exception or RuntimeWarning, strict JSON, and
    # a finite float for every tail_bound printed
    from radseries import cli

    monkeypatch.delenv("RADSERIES_CONFIG", raising=False)
    monkeypatch.chdir(tmp_path)
    s, t = map(repr, point)
    st_args = ["--s", s, "--t", t, "--prime-limit", "100"]
    commands = [
        ["st", *st_args],
        ["product", *st_args],
        ["series", *st_args, "--limit", "100"],
        ["series", *st_args, "--limit", "100", "--compare"],
        ["identity", *st_args, "--limit", "100"],
        ["abc", *st_args, "--cmax", "10", "--verify"],
        ["ratio-grid", "--s-min", s, "--s-max", s, "--t-min", t, "--t-max", t,
         "--steps", "1", "--prime-limit", "100"],
    ]
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main(argv)
        assert code in (0, 2, 3), argv
        if code == 2:
            assert out.getvalue() == "", argv
        elif code == 0 and argv[0] != "ratio-grid":
            doc = json.loads(out.getvalue(), parse_constant=_reject_constant)
            for tail in _tail_bounds(doc):
                assert isinstance(tail, float) and math.isfinite(tail), argv


@pytest.mark.parametrize("command, flag", [
    (("st", "--s", "4", "--t", "1"), "--prime-limit"),
    (("radical", "30"), "--sieve-limit"),
    (("sieve",), "--limit"),
    (("ratio-grid", "--s-min", "3", "--s-max", "4", "--t-min", "1", "--t-max", "1"), "--steps"),
    (("series", "--s", "4", "--t", "1"), "--limit"),
], ids=["prime-limit", "sieve-limit", "limit", "steps", "series-limit"])
@pytest.mark.parametrize("value", ["0", "-5"])
def test_explicit_non_positive_limit_exits_2(tmp_path, command, flag, value):
    # an explicit 0 is rejected, not replaced by the config default
    out = tmp_path / "sieve.bin"
    extra = ("--out", str(out)) if command[0] == "sieve" else ()
    r = run_cli(*command, flag, value, *extra)
    assert r.returncode == 2
    assert r.stdout == ""
    assert f"{flag} must be >= " in r.stderr and "Traceback" not in r.stderr
    assert not out.exists()
