from dataclasses import fields

import pytest

from radseries import InvalidArgumentError
from radseries.config import Config, load_config


def test_every_key_parses_as_its_field_type(tmp_path):
    cfg = tmp_path / "radseries.conf"
    cfg.write_text("prime_limit = 700\nspec = unit\n")
    got = load_config(cfg)
    assert got == Config(prime_limit=700, spec="unit")
    assert [type(getattr(got, f.name)) for f in fields(Config)] == [int, str]


@pytest.mark.parametrize("line", ["prime_limit = 1e5", "prime_limit = two"])
def test_unparsable_value_is_rejected(tmp_path, line):
    cfg = tmp_path / "radseries.conf"
    cfg.write_text(line + "\n")
    with pytest.raises(InvalidArgumentError, match="cannot parse"):
        load_config(cfg)


def test_cache_values_key_is_retired(tmp_path):
    # the CLI always builds the radical and totient arrays now
    cfg = tmp_path / "radseries.conf"
    cfg.write_text("cache_values = false\n")
    with pytest.raises(InvalidArgumentError, match="unknown config key 'cache_values'"):
        load_config(cfg)


def test_threads_key_is_retired(tmp_path):
    # summation is serial; a file that still sets the worker count is stale
    cfg = tmp_path / "radseries.conf"
    cfg.write_text("threads = 2\n")
    with pytest.raises(InvalidArgumentError, match="unknown config key 'threads'"):
        load_config(cfg)


@pytest.mark.parametrize("line", ["sieve_limit = 5000", "tolerance_scale = 2.5"])
def test_sieve_limit_and_tolerance_scale_keys_are_retired(tmp_path, line):
    # each command sizes its factor sieve from its input, and every
    # tolerance is the computed one: a file that still sets either is stale
    cfg = tmp_path / "radseries.conf"
    cfg.write_text(line + "\n")
    with pytest.raises(InvalidArgumentError, match=f"unknown config key '{line.split()[0]}'"):
        load_config(cfg)
