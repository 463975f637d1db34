from dataclasses import fields

import pytest

from radseries import InvalidArgumentError
from radseries.config import Config, load_config


def test_every_key_parses_as_its_field_type(tmp_path):
    cfg = tmp_path / "radseries.conf"
    cfg.write_text("sieve_limit = 5000\nprime_limit = 700\ntolerance_scale = 2.5\n"
                   "threads = 3\nspec = unit\n")
    got = load_config(cfg)
    assert got == Config(sieve_limit=5000, prime_limit=700, tolerance_scale=2.5,
                         threads=3, spec="unit")
    assert [type(getattr(got, f.name)) for f in fields(Config)] == [int, int, float, int, str]


@pytest.mark.parametrize("line", ["sieve_limit = 1e5", "threads = two", "tolerance_scale = x"])
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
