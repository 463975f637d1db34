import csv
import io
import json
import math
import os
import subprocess
import sys

import pytest

BASE = [sys.executable, "-m", "radseries"]


def run_cli(*args, env_extra=None, cwd=None):
    env = dict(os.environ)
    env.pop("RADSERIES_CONFIG", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        BASE + list(args), capture_output=True, text=True, env=env, cwd=cwd,
    )


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
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.stdout == b.stdout
    assert a.returncode == 0


def test_threads_flag_is_retired():
    r = run_cli("st", "--s", "4", "--t", "1", "--threads", "2")
    assert r.returncode == 2
    assert r.stdout == ""
    assert "--threads" in r.stderr and "Traceback" not in r.stderr


def test_config_file_and_env(tmp_path):
    cfg = tmp_path / "radseries.conf"
    cfg.write_text("# test config\nsieve_limit = 50\nprime_limit = 50\n")
    r = run_cli("radical", "30", "--config", str(cfg))
    assert r.returncode == 0
    assert json.loads(r.stdout)["radical"] == 30
    # value above the configured sieve limit now fails
    r2 = run_cli("radical", "51", "--config", str(cfg))
    assert r2.returncode == 2
    # same config through the environment variable
    r3 = run_cli("radical", "51", env_extra={"RADSERIES_CONFIG": str(cfg)})
    assert r3.returncode == 2
    # explicit flag overrides the config
    r4 = run_cli("radical", "51", "--config", str(cfg), "--sieve-limit", "100")
    assert r4.returncode == 0


def test_config_names_default_spec(tmp_path):
    cfg = tmp_path / "radseries.conf"
    cfg.write_text("spec = unit\nsieve_limit = 1000\n")
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
    cfg = tmp_path / "radseries.conf"
    cfg.write_text(f"tolerance_scale = {scale}\n")
    r = run_cli("series", "--s", "4", "--t", "1", "--limit", "10000", "--compare",
                "--config", str(cfg))
    assert r.returncode == 2
    assert r.stdout == ""
    assert "tolerance_scale" in r.stderr and "Traceback" not in r.stderr


def test_bad_config_key_exits_2(tmp_path):
    cfg = tmp_path / "bad.conf"
    cfg.write_text("no_such_key = 7\n")
    r = run_cli("radical", "12", "--config", str(cfg))
    assert r.returncode == 2
    assert "no_such_key" in r.stderr


def test_sieve_dump_and_reuse(tmp_path):
    dump = tmp_path / "sieve.bin"
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


def test_identity_output_matches_library(tmp_path):
    from radseries import FactorSieve, Params, identity_residual, sieve_primes, split_identity

    r = run_cli("identity", "--s", "2.6", "--t", "0.5", "--limit", "70000",
                "--prime-limit", "5000")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    sieve, table = FactorSieve.build(100_000), sieve_primes(5000)
    res = identity_residual(sieve, table, Params(2.6, 0.5), 70_000, 5000)
    split = split_identity(sieve, table, Params(2.6, 0.5), 70_000, 5000)
    assert (out["residual"], out["tolerance"]) == (res.residual, res.tolerance)
    assert out["split"] == {
        "below": split.below, "equal": split.equal, "above": split.above,
        "counts": list(split.classification_counts),
        "ambiguous_count": split.ambiguous_count,
        "balance_gap": split.balance_gap, "tolerance": split.tolerance,
    }


@pytest.mark.parametrize("args, field", [
    # expm1 of the product's log tail overflows
    (("product", "--s", "2.0001", "--t", "1"), "tail_bound"),
    # R(n)^t overflows and n^-s underflows: inf * 0 is NaN
    (("series", "--s", "400", "--t", "350", "--limit", "100000"), "value"),
])
def test_non_finite_result_exits_3_with_empty_stdout(args, field):
    r = run_cli(*args)
    assert r.returncode == 3
    assert r.stdout == ""
    assert "Traceback" not in r.stderr
    errors = [line for line in r.stderr.splitlines() if line.startswith("radseries:")]
    assert len(errors) == 1 and repr(field) in errors[0]


HEADER_ONLY = "schema_version,s,t,S,T,ratio,ratio_low,ratio_high,status\n"


@pytest.mark.parametrize("args, stdout", [
    (("st", "--s", "1100", "--t", "2"), ""),
    (("ratio-grid", "--s-min", "1100", "--s-max", "1100", "--t-min", "2", "--t-max", "2",
      "--steps", "1"), HEADER_ONLY),
    (("identity", "--s", "1100", "--t", "2", "--limit", "1000", "--prime-limit", "1000"), ""),
    (("abc", "--s", "1100", "--t", "2", "--cmax", "50", "--verify"), ""),
    (("abc", "--s", "1100", "--t", "2", "--cmax", "50"), ""),
], ids=["st", "ratio-grid", "identity", "abc-verify", "abc-csv"])
def test_underflowed_t_exits_2_without_traceback(args, stdout):
    # every S/T term underflows at s = 1100, so T = 0.0 and S/T is undefined
    r = run_cli(*args)
    assert r.returncode == 2
    assert r.stdout == stdout
    assert "Traceback" not in r.stderr
    errors = [line for line in r.stderr.splitlines() if line.startswith("radseries:")]
    assert len(errors) == 1 and "s=1100.0, t=2.0" in errors[0]
