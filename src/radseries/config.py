"""key=value configuration with environment override.

Resolution order: an explicit --config path, then $RADSERIES_CONFIG, then
./radseries.conf if present, then built-in defaults.  Command-line flags
override whatever the file says.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import get_type_hints

from .errors import InvalidArgumentError

ENV_VAR = "RADSERIES_CONFIG"
DEFAULT_FILENAME = "radseries.conf"


@dataclass
class Config:
    sieve_limit: int = 100_000
    prime_limit: int = 100_000
    tolerance_scale: float = 1.0
    spec: str = "radical"  # default built-in multiplicative spec


def _parse_value(name: str, raw: str, kind: type):
    raw = raw.strip()
    try:
        return kind(raw)
    except ValueError:
        raise InvalidArgumentError(f"config key {name}: cannot parse {raw!r} as {kind.__name__}") from None


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
        value = _parse_value(key, raw, kinds[key])
        if key == "tolerance_scale" and not (math.isfinite(value) and value > 0.0):
            raise InvalidArgumentError(
                f"{path}:{lineno}: tolerance_scale must be finite and > 0, got {raw.strip()!r}")
        setattr(cfg, key, value)
    return cfg
