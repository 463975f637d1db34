"""The README's examples stay in step with the CLI parser and the config keys."""

import shlex
from dataclasses import fields
from pathlib import Path

import pytest

from radseries.cli import build_parser
from radseries.config import Config

README = Path(__file__).resolve().parents[1] / "README.md"


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
