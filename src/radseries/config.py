"""key=value configuration with environment override.

Resolution order: an explicit --config path, then $RADSERIES_CONFIG, then
./radseries.conf if present, then built-in defaults.  Command-line flags
override whatever the file says.  The file holds defaults only: the factor
sieve is sized by each command's input and every tolerance is the computed
one, so neither has a key.  Each value is checked as the file is loaded,
against the rule of the flag it stands in for, and a bad one is refused
naming the file, the line and the key.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import get_type_hints

from .errors import InvalidArgumentError
from .multfn import BUILTIN_SPECS

ENV_VAR = "RADSERIES_CONFIG"
DEFAULT_FILENAME = "radseries.conf"


@dataclass
class Config:
    prime_limit: int = 100_000
    spec: str = "radical"  # default built-in multiplicative spec


def _parse_value(where: str, name: str, raw: str, kind: type):
    """The value of key ``name``, refused as the flag it stands in for would
    refuse it; ``where`` names the file, the line and the key."""
    raw = raw.strip()
    try:
        value = kind(raw)
    except ValueError:
        raise InvalidArgumentError(f"{where}: cannot parse {raw!r} as {kind.__name__}") from None
    if name == "prime_limit" and value < 2:
        raise InvalidArgumentError(f"{where} must be >= 2, got {value}")
    if name == "spec" and value not in BUILTIN_SPECS:
        raise InvalidArgumentError(f"{where} must be one of {sorted(BUILTIN_SPECS)}, got {value!r}")
    return value


def load_config(path: str | os.PathLike | None = None) -> Config:
    """Load configuration, falling back to defaults when no file applies."""
    if path is None:
        path = os.environ.get(ENV_VAR)
    if path is None and Path(DEFAULT_FILENAME).is_file():
        path = DEFAULT_FILENAME
    cfg = Config()
    if path is None:
        return cfg
    kinds = get_type_hints(Config)
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InvalidArgumentError(f"cannot read config {path}: {exc}") from None
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidArgumentError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in kinds:
            raise InvalidArgumentError(f"{path}:{lineno}: unknown config key {key!r}")
        setattr(cfg, key, _parse_value(f"{path}:{lineno}: config key {key}", key, raw, kinds[key]))
    return cfg
