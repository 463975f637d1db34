"""The README's examples stay in step with the CLI parser, the config keys
and the library's names."""

import argparse
import ast
import contextlib
import importlib
import io
import re
import shlex
from dataclasses import fields
from pathlib import Path

import pytest

from radseries import cli
from radseries.cli import build_parser, main
from radseries.config import Config

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def code_block(section: str) -> list[str]:
    """Lines of the first fenced block after the README heading ``section``."""
    text = README.read_text()
    after = text[text.index(f"\n## {section}\n"):]
    start = after.index("```\n") + len("```\n")
    return after[start:after.index("```", start)].splitlines()


def test_every_command_line_example_parses():
    logical, pending = [], ""
    for line in code_block("Command line"):
        if line.rstrip().endswith("\\"):
            pending += line.rstrip()[:-1]
            continue
        logical.append(pending + line)
        pending = ""
    commands = [shlex.split(line, comments=True) for line in logical]
    commands = [argv for argv in commands if argv and argv[0] == "radseries"]
    assert len(commands) >= 10
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {shlex.join(argv)}")


def test_config_block_names_every_config_key():
    keys = [line.split("=")[0].strip() for line in code_block("Configuration")
            if line.strip() and not line.lstrip().startswith("#")]
    assert keys == [f.name for f in fields(Config)]


def resolves(dotted: str) -> bool:
    """True iff the longest importable module prefix of dotted has the rest
    as a chain of attributes."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            if not hasattr(obj, name):
                return False
            obj = getattr(obj, name)
        return True
    return False


def test_every_backticked_library_name_resolves():
    names = re.findall(r"`(radseries(?:\.[A-Za-z_]\w*)+)", README.read_text())
    assert len(names) >= 3
    stale = [name for name in names if not resolves(name)]
    assert not stale, f"README names what the package does not have: {stale}"


def test_every_name_the_library_example_imports_resolves():
    text = README.read_text()
    library = text[text.index("\n## Library\n"):]
    blocks = re.findall(r"```python\n(.*?)```", library, re.S)
    imports = [(node.module, alias.name)
               for block in blocks for node in ast.walk(ast.parse(block))
               if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert len(imports) >= 10
    missing = [f"{module}.{name}" for module, name in imports
               if not resolves(f"{module}.{name}")]
    assert not missing, f"the Library example imports missing names: {missing}"


@pytest.mark.parametrize("argv", [
    ["ratio-grid", "--s-min", "3", "--s-max", "4", "--t-min", "0.5", "--t-max", "1",
     "--steps", "2", "--prime-limit", "100"],
    ["abc", "--s", "4", "--t", "1", "--cmax", "10", "--prime-limit", "100"],
])
def test_csv_columns_are_the_headers_the_commands_print(argv):
    text = README.read_text()
    section = text[text.index("Grid/scan CSV columns"):]
    documented = re.search(rf"^\* `{argv[0]}`: `([^`]+)`", section, re.M).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    assert out.getvalue().splitlines()[0] == documented


def test_install_sentence_names_every_test_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text())
    wanted = [re.match(r"[A-Za-z0-9_.-]+", req).group(0)
              for req in pyproject["project"]["optional-dependencies"]["test"]]
    text = README.read_text()
    start = text.index("Tests additionally use")
    sentence = text[start:text.index(":\n", start)]
    missing = [name for name in wanted if f"`{name}`" not in sentence]
    assert not missing, f"the README's test dependencies omit {missing}"


def sieve_flag_commands() -> tuple[set[str], set[str]]:
    """(the subcommands that accept --sieve-limit and --sieve-file, the rest)."""
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    taking = {name for name, parser in sub.choices.items()
              if {"--sieve-limit", "--sieve-file"} <= set(parser._option_string_actions)}
    return taking, set(sub.choices) - taking


def test_sieve_flag_sentences_name_the_commands_that_take_them():
    taking, others = sieve_flag_commands()
    assert taking and others
    text = " ".join(README.read_text().split())
    start = text.index("Only the commands that use a factor sieve (")
    sentence = text[start:text.index("(exit 2).", start)]
    listed, rejecting = sentence.split(")", 1)
    commands = r"`([a-z][a-z-]*)`"
    assert set(re.findall(commands, listed)) == taking
    assert set(re.findall(commands, rejecting.split(";", 1)[1])) == others
    doc = " ".join(cli.__doc__.split())
    listed = re.search(r"The commands that use a factor sieve \(([^)]*)\)", doc).group(1)
    assert set(listed.split(", ")) == taking
