"""Flat key-value run configuration over every pipeline parameter.

The keys come from one walk over the dataclasses (`_map`), shared by
`SCHEMA` and `from_values`: every leaf field of `RunConfig` (and of the
dataclasses nested in it) is one key named after the field, e.g.
`seed`, `n_candidates`, `rejection_interval_max`.  A tuple field is one key
per element, named by the field's `config_key` metadata: the adaptive
thresholds are `adaptive_l0`..`adaptive_l4` and the sizes
`adaptive_k1`..`adaptive_k4`.  Values are parsed as the field's annotated type.

The file format is one `key = value` per line with '#' comments; unknown
keys are errors so typos never pass silently.  A quoted value is read as
one Python string literal, so it may itself hold '#', quotes or spaces.
Defaults are the method's standard hyperparameters (k_s=4, 100
candidates, tau=0.5, 20%/10% rejection, the four-interval neighborhood
table, 64/12-NN denoise scales).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Optional, get_args, get_type_hints

from .errors import ConfigError
from .geometry import require_count
from .pipeline import EstimationParams


@dataclass
class RunConfig:
    params: EstimationParams = field(default_factory=EstimationParams)
    threads: int = 1      # workers, capped at the usable CPUs: the caller plus forked processes
    input_path: str = ""
    output_path: str = ""

    def __post_init__(self):
        require_count("threads", self.threads, 1)
        for name in ("input_path", "output_path"):      # open() takes an int as a descriptor
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"{name} must be a string, got {getattr(self, name)!r}")


def _map(obj, fn):
    """Copy of dataclass `obj` with each leaf replaced by fn(key, type, value), depth first."""
    hints = get_type_hints(type(obj))
    changes = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            changes[f.name] = _map(value, fn)
        elif isinstance(value, tuple):
            pattern, first = f.metadata["config_key"]
            typ = get_args(hints[f.name])[0]
            changes[f.name] = tuple(fn(pattern.format(i), typ, v) for i, v in enumerate(value, first))
        else:
            changes[f.name] = fn(f.name, hints[f.name], value)
    return replace(obj, **changes)


def _leaves(obj) -> list:
    """(key, type, value) of every leaf of dataclass `obj`, depth first."""
    found = []
    _map(obj, lambda *leaf: found.append(leaf) or leaf[2])
    return found


# key -> value type, for every settable parameter
SCHEMA = {key: typ for key, typ, _ in _leaves(RunConfig())}

_TYPE_NAMES = {int: "an integer", float: "a number"}

# a quoted string literal as repr() writes it, then an optional comment
_QUOTED = re.compile(r"""('(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*")\s*(?:#.*)?""")


def _string_literal(val: str) -> Optional[str]:
    """The string a quoted value spells, or None when it is not one literal."""
    quoted = _QUOTED.fullmatch(val)
    if quoted is None:
        return None
    try:
        return ast.literal_eval(quoted.group(1))
    except (SyntaxError, ValueError):
        return None


def parse(text: str) -> RunConfig:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        key, eq, val = (part.strip() for part in raw.partition("="))
        if key.startswith("#") or not (key or eq):
            continue
        if not eq or "#" in key:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        typ = SCHEMA.get(key)
        if typ is None:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        literal = _string_literal(val) if typ is str else None
        val = val.split("#", 1)[0].strip()
        if typ is str:
            values[key] = val.strip("'\"") if literal is None else literal
            continue
        try:
            values[key] = typ(val)
        except ValueError:
            raise ConfigError(f"line {lineno}: {key} needs {_TYPE_NAMES[typ]}, got {val!r}")
    return from_values(values)


def from_values(values: dict, base: Optional[RunConfig] = None) -> RunConfig:
    """Overlay a flat key/value mapping on `base` (the defaults when None)."""
    unknown = sorted(set(values) - SCHEMA.keys())
    if unknown:
        raise ConfigError(f"unknown keys: {unknown}")
    try:
        return _map(RunConfig() if base is None else base, lambda k, _, v: values.get(k, v))
    except ValueError as exc:
        raise ConfigError(str(exc))
