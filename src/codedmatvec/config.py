"""Run configuration: line-oriented `key = value` files plus flag overrides.

The format is deliberately primitive -- one key per line, `#` comments,
no nesting -- so experiment configs stay diffable and parseable anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields


class ConfigError(ValueError):
    """Raised for unknown keys, type mismatches, or constraint violations."""


_SCHEMES = ("coded", "uncoded", "systematic", "random")
_FORMATS = ("csv", "text")
_CASTS = {"integer": int, "number": float, "text": str}


def _key(kind, bound, wording, default=None):
    return field(default=default, metadata={"rule": (kind, bound, wording)})


@dataclass(frozen=True)
class RunConfig:
    """One field per key; its metadata "rule" is (kind, bound, the bound's
    wording with the value as {}).  parse_config checks the bounds in field
    order, then finiteness, then k <= n."""

    n: int | None = _key("integer", lambda v: v >= 1, "must be >= 1, got {}")
    k: int | None = _key("integer", lambda v: v >= 1, "must be >= 1, got {}")
    r: int | None = _key("integer", lambda v: v >= 1, "must be >= 1, got {}")
    m: int = _key("integer", lambda v: v >= 1, "must be >= 1, got {}", 5)
    trials: int = _key("integer", lambda v: v >= 1, "must be >= 1, got {}", 10_000)
    seed: int = _key("integer", lambda v: 0 <= v < 2**64, "must lie in [0, 2^64), got {}", 0)
    a: float | None = _key("number", lambda v: v >= 0, "must be >= 0, got {}")
    mu: float | None = _key("number", lambda v: v > 0, "must be > 0, got {}")
    t1cmm: float | None = _key("number", lambda v: v >= 0, "must be >= 0, got {}")
    beta: float | None = _key("number", lambda v: v >= 0, "must be >= 0, got {}")
    c: float | None = _key("number", lambda v: v > 0, "must be > 0, got {}")
    k_fraction: float = _key("number", lambda v: 0 < v <= 1, "must lie in (0, 1], got {}", 0.7)
    scheme: str | None = _key("text", lambda v: v in _SCHEMES,
                              f"must be one of {'/'.join(_SCHEMES)}, got {{!r}}")
    format: str | None = _key("text", lambda v: v in _FORMATS,
                              f"must be one of {'/'.join(_FORMATS)}, got {{!r}}")
    ns: tuple | None = _key("integers", lambda v: all(x >= 1 for x in v),
                            "every entry must be >= 1")
    inject: tuple | None = _key("numbers", lambda v: all(x >= 0 for x in v),
                                "times must be >= 0")
    out: str | None = _key("text", lambda v: True, "any path")


_KEYS = {f.name: f.metadata["rule"] for f in fields(RunConfig)}


def _parse(key, kind, text):
    """Cast `text` to `kind`: an integer, a number, text, or a
    comma-separated list of integers or numbers."""
    if kind not in _CASTS:  # "integers" or "numbers"
        items = [s.strip() for s in str(text).split(",") if s.strip()]
        if not items:
            raise ConfigError(f"{key}: expected a comma-separated list of {kind}")
        return tuple(_parse(key, kind[:-1], s) for s in items)
    try:
        return _CASTS[kind](text)
    except ValueError:
        article = "an" if kind == "integer" else "a"
        raise ConfigError(f"{key}: expected {article} {kind}, got {text!r}") from None


def _is_finite(x) -> bool:
    try:
        return math.isfinite(x)
    except OverflowError:  # an integer past float range
        return False


def parse_config(file_contents: str, flag_overrides: dict | None = None) -> RunConfig:
    """Parse `key = value` text, then apply flag overrides on top.

    Override values are strings, as argparse delivers them (None leaves
    a key unset); they go through the same casting and validation as
    the file's values.
    """
    values: dict = {}
    for lineno, raw_line in enumerate(file_contents.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, _, text = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        values[key] = _parse(key, _KEYS[key][0], text.strip())

    for key, value in (flag_overrides or {}).items():
        key = key.replace("-", "_")
        if key not in _KEYS:
            raise ConfigError(f"unknown key {key!r}")
        if value is None:
            continue
        if not isinstance(value, str):
            raise ConfigError(f"{key}: expected a string, got {value!r}")
        values[key] = _parse(key, _KEYS[key][0], value)

    for key, (_, bound, wording) in _KEYS.items():
        value = values.get(key)
        if value is not None and not bound(value):
            raise ConfigError(f"{key}: {wording.format(value)}")
        # every number's bound refuses nan and -inf, which leaves +inf and
        # the integers float() cannot convert (2**1024 - 2**970 and up)
        for x in value if isinstance(value, tuple) else (value,):
            if isinstance(x, (int, float)) and not _is_finite(x):
                raise ConfigError(f"{key}: must be finite, got {x}")
    n, k = values.get("n"), values.get("k")
    if n is not None and k is not None and k > n:
        raise ConfigError(f"k: must satisfy k <= n, got k={k}, n={n}")
    return RunConfig(**values)

