"""tools/src_lines.py, the counter behind the tracked size of src/."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("src_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""A module docstring
over two lines."""

import math  # a trailing comment counts as code


# a comment line
def f(x):
    """One docstring."""

    total = math.fsum([x,
                       2 * x])
    return total
'''


def test_counts_each_module_and_the_total(tmp_path, capsys):
    # code: the import, the def, the two lines of the assignment, the return
    tool = load_tool()
    assert tool.count(SOURCE) == (13, 5)
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n")
    tool.main([str(tmp_path)])
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["1", "1", "b.py"], ["13", "5", "pkg/a.py"], ["14", "6", "total"]]
