"""Run configuration: line-oriented `key = value` files plus flag overrides.

The format is deliberately primitive -- one key per line, `#` comments,
no nesting -- so experiment configs stay diffable and parseable anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass


class ConfigError(ValueError):
    """Raised for unknown keys, type mismatches, or constraint violations."""


@dataclass(frozen=True)
class RunConfig:
    n: int | None = None
    k: int | None = None
    r: int | None = None
    a: float | None = None
    mu: float | None = None
    t1cmm: float | None = None
    beta: float | None = None
    c: float | None = None
    k_fraction: float = 0.7
    m: int = 5
    trials: int = 10_000
    seed: int = 0
    scheme: str = "coded"
    inject: tuple | None = None
    ns: tuple | None = None
    out: str | None = None
    format: str | None = None


_SCHEMES = ("coded", "uncoded", "systematic", "random")
_FORMATS = ("csv", "text")


def _parse_int(key, text):
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {text!r}") from None


def _parse_float(key, text):
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {text!r}") from None


def _parse_float_list(key, text):
    items = [s for s in str(text).split(",") if s.strip()]
    if not items:
        raise ConfigError(f"{key}: expected a comma-separated list of numbers")
    return tuple(_parse_float(key, s.strip()) for s in items)


def _parse_int_list(key, text):
    items = [s for s in str(text).split(",") if s.strip()]
    if not items:
        raise ConfigError(f"{key}: expected a comma-separated list of integers")
    return tuple(_parse_int(key, s.strip()) for s in items)


_PARSERS = {
    "n": _parse_int,
    "k": _parse_int,
    "r": _parse_int,
    "m": _parse_int,
    "trials": _parse_int,
    "seed": _parse_int,
    "a": _parse_float,
    "mu": _parse_float,
    "t1cmm": _parse_float,
    "beta": _parse_float,
    "c": _parse_float,
    "k_fraction": _parse_float,
    "scheme": lambda key, text: str(text),
    "out": lambda key, text: str(text),
    "format": lambda key, text: str(text),
    "inject": _parse_float_list,
    "ns": _parse_int_list,
}


def _require(cond: bool, message: str):
    if not cond:
        raise ConfigError(message)


def _validate(values: dict):
    def positive_int(key):
        v = values.get(key)
        if v is not None:
            _require(v >= 1, f"{key}: must be >= 1, got {v}")

    for key in ("n", "k", "r", "m", "trials"):
        positive_int(key)
    if values.get("seed") is not None:
        _require(values["seed"] >= 0, f"seed: must be >= 0, got {values['seed']}")
    if values.get("a") is not None:
        _require(values["a"] >= 0, f"a: must be >= 0, got {values['a']}")
    if values.get("mu") is not None:
        _require(values["mu"] > 0, f"mu: must be > 0, got {values['mu']}")
    if values.get("t1cmm") is not None:
        _require(values["t1cmm"] >= 0, f"t1cmm: must be >= 0, got {values['t1cmm']}")
    if values.get("beta") is not None:
        _require(values["beta"] >= 0, f"beta: must be >= 0, got {values['beta']}")
    if values.get("c") is not None:
        _require(values["c"] > 0, f"c: must be > 0, got {values['c']}")
    if values.get("k_fraction") is not None:
        _require(0 < values["k_fraction"] <= 1,
                 f"k_fraction: must lie in (0, 1], got {values['k_fraction']}")
    if values.get("scheme") is not None:
        _require(values["scheme"] in _SCHEMES,
                 f"scheme: must be one of {'/'.join(_SCHEMES)}, got {values['scheme']!r}")
    if values.get("format") is not None:
        _require(values["format"] in _FORMATS,
                 f"format: must be one of {'/'.join(_FORMATS)}, got {values['format']!r}")
    if values.get("n") is not None and values.get("k") is not None:
        _require(values["k"] <= values["n"],
                 f"k: must satisfy k <= n, got k={values['k']}, n={values['n']}")
    if values.get("ns") is not None:
        _require(all(v >= 1 for v in values["ns"]), "ns: every entry must be >= 1")
    if values.get("inject") is not None:
        _require(all(v >= 0 for v in values["inject"]), "inject: times must be >= 0")


def parse_config(file_contents: str, flag_overrides: dict | None = None) -> RunConfig:
    """Parse `key = value` text, then apply flag overrides on top.

    Override values may be raw strings (as argparse delivers them) or
    already-typed values; both go through the same casting and
    validation.
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
        if key not in _PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        values[key] = _PARSERS[key](key, text.strip())

    for key, value in (flag_overrides or {}).items():
        key = key.replace("-", "_")
        if key not in _PARSERS:
            raise ConfigError(f"unknown key {key!r}")
        if value is None:
            continue
        if isinstance(value, str):
            values[key] = _PARSERS[key](key, value)
        else:
            values[key] = value

    _validate(values)
    return RunConfig(**values)

