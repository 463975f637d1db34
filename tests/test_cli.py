import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings

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


def run_cli_process(*args):
    """``python -m radseries *args`` in a child process: for what only a
    process shows, such as its entry point and the warnings it prints."""
    env = dict(os.environ)
    env.pop("RADSERIES_CONFIG", None)
    return subprocess.run(BASE + list(args), capture_output=True, text=True, env=env)


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
    r = run_cli("radical", "0", "--sieve-limit", "100")
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.strip()


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
    (("identity", "--s", "4", "--t", "1", "--limit", "300", "--prime-limit", "1000"), 300),
    (("abc", "--s", "4", "--t", "1", "--cmax", "800", "--prime-limit", "1000", "--verify"), 800),
], ids=["radical", "radical-sieve-limit", "series", "identity", "abc"])
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
    r = run_cli("series", "--s", "4", "--t", "1", "--limit", "4", "--sieve-limit", "100")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["schema_version"] == 1
    assert out["value"] == pytest.approx(1.169849537037037, rel=1e-15)
    assert out["terms_used"] == 4
    assert out["tail_bound"] > 0


def test_series_outside_rc_exits_2():
    r = run_cli("series", "--s", "1.5", "--t", "1", "--limit", "10", "--sieve-limit", "100")
    assert r.returncode == 2
    assert "region of convergence" in r.stderr


def test_series_compare():
    r = run_cli("series", "--s", "4", "--t", "1", "--limit", "10000",
                "--sieve-limit", "10000", "--compare", "--prime-limit", "10000")
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


def test_ratio_grid_check_bounds_ok():
    r = run_cli("ratio-grid", "--s-min", "3", "--s-max", "4", "--t-min", "0.5",
                "--t-max", "1", "--steps", "3", "--prime-limit", "1000",
                "--check-bounds")
    assert r.returncode == 0


def test_identity_within_tolerance():
    r = run_cli("identity", "--s", "4", "--t", "1", "--limit", "10000",
                "--prime-limit", "10000", "--sieve-limit", "10000")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["within_tolerance"] is True
    assert abs(out["residual"]) <= out["tolerance"]
    assert out["split"]["counts"][1] == 1
    assert out["split"]["balance_gap"] <= out["split"]["tolerance"]


def test_abc_small_scan():
    r = run_cli("abc", "--cmax", "5", "--s", "4", "--t", "1",
                "--prime-limit", "1000", "--sieve-limit", "1000")
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


def test_abc_csv_matches_csv_writer(capsys):
    from radseries import FactorSieve, Params, scan, sieve_primes
    from radseries.cli import main

    argv = ["--s", "4", "--t", "1", "--prime-limit", "1000", "--sieve-limit", "1000"]
    assert main(["abc", "--cmax", "400", *argv]) == 0
    got = capsys.readouterr().out

    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(["schema_version", "a", "b", "c", "rad_abc",
                     "hypothesis_holds", "conclusion_holds", "quality"])
    for batch in scan(FactorSieve.build(1000), sieve_primes(1000), Params(4, 1), 400, 1000):
        for rec in batch.records():
            writer.writerow([
                1, rec.a, rec.b, rec.c, rec.rad_abc,
                str(rec.hypothesis_holds).lower(), str(rec.conclusion_holds).lower(),
                format(rec.quality, ".17g"),
            ])
    assert got == want.getvalue()


def test_abc_verify_exit_zero():
    r = run_cli("abc", "--cmax", "1000", "--s", "4", "--t", "1",
                "--prime-limit", "10000", "--sieve-limit", "1000", "--verify")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["counterexamples"] == []
    assert out["records_seen"] > 0
    assert out["hypothesis_true"] > 0


def test_abc_progress_on_stderr_only():
    r = run_cli("abc", "--cmax", "1000", "--s", "4", "--t", "1",
                "--prime-limit", "1000", "--sieve-limit", "1000",
                "--verify", "--progress")
    assert r.returncode == 0
    assert "c=500/1000" in r.stderr
    json.loads(r.stdout)  # stdout stays machine-clean


@pytest.mark.parametrize("extra", [(), ("--verify",)])
def test_abc_negative_sample_exits_2(extra):
    r = run_cli("abc", "--cmax", "100", "--s", "4", "--t", "1", "--sample", "-1",
                "--prime-limit", "1000", "--sieve-limit", "1000", *extra)
    assert r.returncode == 2
    assert r.stdout == ""
    assert "sample must be >= 0" in r.stderr
    assert "Traceback" not in r.stderr


def test_abc_cmax_below_3_exits_2_before_any_output():
    r = run_cli("abc", "--cmax", "2", "--s", "4", "--t", "1",
                "--prime-limit", "1000", "--sieve-limit", "1000")
    assert r.returncode == 2
    assert r.stdout == ""


def test_deterministic_across_runs():
    args = ("series", "--s", "2.6", "--t", "0.5", "--limit", "20000",
            "--sieve-limit", "20000")
    a = run_cli_process(*args)
    b = run_cli_process(*args)
    assert a.stdout == b.stdout
    assert a.returncode == 0


def test_threads_flag_is_retired():
    r = run_cli("st", "--s", "4", "--t", "1", "--threads", "2")
    assert r.returncode == 2
    assert r.stdout == ""
    assert "--threads" in r.stderr and "Traceback" not in r.stderr


@pytest.mark.parametrize("argv", [
    ("st", "--s", "4", "--t", "1"),
    ("product", "--s", "4", "--t", "1"),
    ("ratio-grid", "--s-min", "3", "--s-max", "4", "--t-min", "0.5", "--t-max", "1"),
    ("sieve", "--limit", "100", "--out"),
], ids=["st", "product", "ratio-grid", "sieve"])
@pytest.mark.parametrize("flag", [("--sieve-limit", "1000"), ("--sieve-file", "/nonexistent")],
                         ids=["sieve-limit", "sieve-file"])
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
    from radseries import FactorSieve, Params, identity_pass, sieve_primes

    r = run_cli("identity", "--s", "2.6", "--t", "0.5", "--limit", "70000",
                "--prime-limit", "5000")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    sieve, table = FactorSieve.build(100_000), sieve_primes(5000)
    got = identity_pass(sieve, table, Params(2.6, 0.5), 70_000, 5000)
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


def test_series_compare_without_a_tail_exits_2():
    # s - t rounds to 1.0: neither the series nor the product has a tail, so
    # the gap has no tolerance to be judged by
    r = run_cli("series", "--s", "1.0000000000000002", "--t", "1.1102230246251565e-16",
                "--limit", "10", "--compare", "--prime-limit", "10")
    assert r.returncode == 2
    assert r.stdout == ""
    errors = [line for line in r.stderr.splitlines() if line.startswith("radseries:")]
    assert len(errors) == 1 and "s=1.0000000000000002, t=1.1102230246251565e-16" in errors[0]
    assert "Traceback" not in r.stderr


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
    # exit 0, 2 or 3 only, no exception or RuntimeWarning, and strict JSON
    from radseries import cli

    monkeypatch.delenv("RADSERIES_CONFIG", raising=False)
    monkeypatch.chdir(tmp_path)
    s, t = map(repr, point)
    st_args = ["--s", s, "--t", t, "--prime-limit", "100"]
    commands = [
        ["st", *st_args],
        ["product", *st_args],
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
            json.loads(out.getvalue(), parse_constant=_reject_constant)


@pytest.mark.parametrize("command, flag", [
    (("st", "--s", "4", "--t", "1"), "--prime-limit"),
    (("radical", "30"), "--sieve-limit"),
    (("sieve",), "--limit"),
], ids=["prime-limit", "sieve-limit", "limit"])
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
