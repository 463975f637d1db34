"""The suite's own pytest settings let every failure report itself."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING = textwrap.dedent("""
    from hypothesis import given, settings, strategies as st


    @settings(database=None)
    @given(st.integers(0, 10))
    def test_property(x):
        assert x < 5


    def test_plain():
        assert 1 == 2
""")


def test_failing_property_test_prints_its_example_and_the_run_goes_on(tmp_path):
    # with every warning an error, hypothesis's report hook once raised a
    # DeprecationWarning, and pytest stopped with INTERNALERROR before
    # printing the example or running the next test
    (tmp_path / "test_two.py").write_text(FAILING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", str(tmp_path / "test_two.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "Falsifying example" in run.stdout and "assert 5 < 5" in run.stdout
    assert "assert 1 == 2" in run.stdout
    assert "2 failed" in run.stdout and run.returncode == 1
