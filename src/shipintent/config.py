"""Run configuration: one JSON document covering priors, discretization,
geometry thresholds, slice policy, candidate generation, and export options.

Angles live in the file as degrees (fields suffixed ``_deg``); parsing
converts them to the radian fields the rest of the package uses.  Every key
is optional and falls back to the module default, but present keys are
validated strictly against :data:`CONFIG_SCHEMA` — unknown keys are errors,
not typos to silently ignore.  :func:`serialize_config` emits a canonical
form (sorted keys, two-space indent, trailing newline) and is a fixpoint:
serializing what it parsed reproduces a canonicalized file byte for byte.

Each file key is declared once, in the field table below, with the dataclass
attribute it sets and its kind; the schema, the parser and the serializer
are all built from that table.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

from .discretize import (
    CHANNEL_REGISTRY,
    INTENTION_BINARY,
    THRESHOLDS,
    Channel,
    Discretization,
    DiscretizationError,
    IntentionPriors,
    TruncNorm,
)
from .extract import DEFAULT_GROUND_THRESHOLD
from .geometry import GeometryParams
from .runtime import SlicePolicy
from .trajgen import LosParams

__all__ = [
    "CONFIG_SCHEMA",
    "ConfigError",
    "EXPORT_FORMATS",
    "RunConfig",
    "default_config",
    "load_config",
    "parse_config",
    "save_config",
    "serialize_config",
]

EXPORT_FORMATS = ("csv", "jsonl")

class ConfigError(ValueError):
    """A configuration document that doesn't satisfy the published schema."""


@dataclass(frozen=True)
class RunConfig:
    """Everything a replay or scoring run needs beyond the input data."""

    priors: IntentionPriors = IntentionPriors()
    discretization: Discretization = Discretization()
    geometry: GeometryParams = GeometryParams()
    slice_policy: SlicePolicy = SlicePolicy()
    trajectories: LosParams = LosParams()
    lookahead: float = 60.0
    ground_threshold: float = DEFAULT_GROUND_THRESHOLD
    map_densify_spacing: float | None = None
    export_format: str = "csv"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lookahead) and self.lookahead >= 0.0):
            raise ConfigError(f"lookahead must be finite and >= 0, got {self.lookahead}")
        if not (math.isfinite(self.ground_threshold) and self.ground_threshold > 0.0):
            raise ConfigError(
                f"ground_threshold must be finite and > 0, got {self.ground_threshold}"
            )
        if self.map_densify_spacing is not None and not self.map_densify_spacing > 0.0:
            raise ConfigError(
                f"map_densify_spacing must be positive or null, "
                f"got {self.map_densify_spacing}"
            )
        if self.export_format not in EXPORT_FORMATS:
            raise ConfigError(
                f"export_format must be one of {EXPORT_FORMATS}, "
                f"got {self.export_format!r}"
            )


def default_config() -> RunConfig:
    return RunConfig()


# --------------------------------------------------------------------------
# File format: the field table and the published schema it builds
# (draft-2020 JSON Schema subset; validated by _check below)


def _num(minimum: float | None = None, exclusive: bool = False, maximum: float | None = None) -> dict:
    out: dict[str, Any] = {"type": "number"}
    if minimum is not None:
        out["exclusiveMinimum" if exclusive else "minimum"] = minimum
    if maximum is not None:
        out["maximum"] = maximum
    return out


def _obj(properties: dict, required: tuple[str, ...] = ()) -> dict:
    out: dict[str, Any] = {
        "type": "object",
        "additionalProperties": False,
        "properties": properties,
    }
    if required:
        out["required"] = list(required)
    return out


_PROBABILITY = _num(0.0, maximum=1.0)
_ANGLE = _num(0.0, maximum=180.0)


@dataclass(frozen=True)
class _Field:
    """One file key: the dataclass attribute it sets, its kind and its schema.

    A ``section`` field holds a nested dataclass whose keys are ``fields``;
    every other kind converts through :data:`_KINDS`.  Angle kinds store
    degrees in the file under ``<attribute>_deg``.
    """

    attr: str
    kind: str
    schema: dict[str, Any]
    fields: tuple["_Field", ...] = ()

    @property
    def key(self) -> str:
        return f"{self.attr}_deg" if self.kind.startswith("degrees") else self.attr


def _truncnorm(d: dict) -> TruncNorm:
    return TruncNorm(float(d["mu"]), float(d["sigma"]), float(d["lo"]), float(d["hi"]))


def _degrees(x: float) -> float:
    """``x`` radians as the shortest decimal whose :func:`math.radians` is ``x``.

    ``math.degrees(radians(15))`` is 14.999999999999998, which parses back to
    another radian.  The decimal rounds ``math.degrees(x)`` or one of its float
    neighbours; when none round-trips, ``math.degrees(x)`` is kept.
    """
    d = math.degrees(x)
    near = (d, math.nextafter(d, -math.inf), math.nextafter(d, math.inf))
    for digits in range(1, 18):
        for value in near:
            short = float(f"{value:.{digits}g}")
            if math.radians(short) == x:
                return short
    return d


#: kind -> (file value to attribute value, attribute value to file value)
_KINDS: dict[str, tuple[Callable[[Any], Any], Callable[[Any], Any]]] = {
    "number": (lambda v: None if v is None else float(v), lambda v: v),
    "text": (lambda v: v, lambda v: v),
    "degrees": (lambda v: math.radians(float(v)), _degrees),
    "numbers": (lambda v: tuple(float(x) for x in v), list),
    "degrees_array": (
        lambda v: tuple(math.radians(float(x)) for x in v),
        lambda v: [_degrees(x) for x in v],
    ),
    "truncnorm": (_truncnorm, lambda t: {"mu": t.mu, "sigma": t.sigma, "lo": t.lo, "hi": t.hi}),
    "channel": (
        lambda d: Channel(float(d["upper"]), int(d["bins"])),
        lambda c: {"upper": c.upper, "bins": c.bins},
    ),
}

_TRUNCNORM_SCHEMA = _obj(
    {"mu": _num(), "sigma": _num(0.0, exclusive=True), "lo": _num(), "hi": _num()},
    required=("mu", "sigma", "lo", "hi"),
)
_CHANNEL_SCHEMA = _obj(
    {"upper": _num(0.0, exclusive=True), "bins": {"type": "integer", "minimum": 2}},
    required=("upper", "bins"),
)


def _section(attr: str, *fields: _Field) -> _Field:
    return _Field(attr, "section", _obj({f.key: f.schema for f in fields}), fields)


_FIELDS = (
    _section(
        "priors",
        *(_Field(name, "truncnorm", _TRUNCNORM_SCHEMA) for name in THRESHOLDS),
        *(_Field(name, "number", _PROBABILITY) for name in INTENTION_BINARY),
        _Field(
            "priority",
            "numbers",
            {"type": "array", "items": _PROBABILITY, "minItems": 3, "maxItems": 3},
        ),
        _Field("situation_concentration", "number", _num(0.0, exclusive=True, maximum=1.0)),
    ),
    _section(
        "discretization",
        *(_Field(row.channel, "channel", _CHANNEL_SCHEMA) for row in CHANNEL_REGISTRY),
    ),
    _section(
        "geometry",
        _Field("front_half_angle", "degrees", _ANGLE),
        _Field("head_on_half_angle", "degrees", _ANGLE),
        _Field("stern_half_angle", "degrees", _ANGLE),
        _Field("wp_ahead_half_angle", "degrees", _ANGLE),
        _Field("wp_bearing_deadband", "degrees", _ANGLE),
        _Field("course_change_threshold", "degrees", _ANGLE),
        _Field("wp_window", "number", _num(0.0, exclusive=True)),
        _Field("wp_distance_deadband", "number", _num(0.0)),
        _Field("course_changing_window", "number", _num(0.0, exclusive=True)),
        _Field("speed_change_threshold", "number", _num(0.0, exclusive=True)),
    ),
    _section(
        "slice_policy",
        _Field("max_age", "number", _num(0.0, exclusive=True)),
        _Field("min_age", "number", _num(0.0)),
        _Field("course_delta", "degrees", _num(0.0, exclusive=True, maximum=180.0)),
        _Field("speed_delta", "number", _num(0.0, exclusive=True)),
    ),
    _section(
        "trajectories",
        _Field(
            "offsets",
            "degrees_array",
            {"type": "array", "items": _num(-180.0, maximum=180.0), "minItems": 1},
        ),
        _Field("turn_rate", "degrees", _num(0.0, exclusive=True)),
        _Field("horizon", "number", _num(0.0, exclusive=True)),
        _Field("dt", "number", _num(0.0, exclusive=True)),
        _Field("pursuit_lookahead", "number", _num(0.0, exclusive=True)),
    ),
    _Field("lookahead", "number", _num(0.0)),
    _Field("ground_threshold", "number", _num(0.0, exclusive=True)),
    _Field("map_densify_spacing", "number", {"type": ["number", "null"], "exclusiveMinimum": 0.0}),
    _Field("export_format", "text", {"type": "string", "enum": list(EXPORT_FORMATS)}),
)

CONFIG_SCHEMA: dict[str, Any] = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "shipintent run configuration",
    **_obj({f.key: f.schema for f in _FIELDS}),
}


def _check(value: Any, schema: dict, path: str) -> None:
    """Validate ``value`` against the JSON-Schema subset used above."""
    types = schema.get("type")
    if types is not None:
        allowed = (types,) if isinstance(types, str) else tuple(types)
        ok = False
        for t in allowed:
            if t == "object":
                ok |= isinstance(value, dict)
            elif t == "array":
                ok |= isinstance(value, list)
            elif t == "string":
                ok |= isinstance(value, str)
            elif t == "number":
                ok |= isinstance(value, (int, float)) and not isinstance(value, bool)
            elif t == "integer":
                ok |= isinstance(value, int) and not isinstance(value, bool)
            elif t == "null":
                ok |= value is None
        if not ok:
            raise ConfigError(f"{path}: expected {' or '.join(allowed)}")
    if value is None:
        return
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if not math.isfinite(value):
            raise ConfigError(f"{path}: must be finite")
        if "minimum" in schema and value < schema["minimum"]:
            raise ConfigError(f"{path}: must be >= {schema['minimum']}")
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            raise ConfigError(f"{path}: must be > {schema['exclusiveMinimum']}")
        if "maximum" in schema and value > schema["maximum"]:
            raise ConfigError(f"{path}: must be <= {schema['maximum']}")
    if "enum" in schema and value not in schema["enum"]:
        raise ConfigError(f"{path}: must be one of {schema['enum']}")
    if isinstance(value, dict) and schema.get("type") == "object":
        props = schema.get("properties", {})
        if not schema.get("additionalProperties", True):
            unknown = sorted(set(value) - set(props))
            if unknown:
                raise ConfigError(f"{path}: unknown keys {unknown}")
        for key in schema.get("required", ()):
            if key not in value:
                raise ConfigError(f"{path}: missing required key {key!r}")
        for key, sub in props.items():
            if key in value:
                _check(value[key], sub, f"{path}.{key}" if path else key)
    if isinstance(value, list) and "items" in schema:
        if "minItems" in schema and len(value) < schema["minItems"]:
            raise ConfigError(f"{path}: needs at least {schema['minItems']} items")
        if "maxItems" in schema and len(value) > schema["maxItems"]:
            raise ConfigError(f"{path}: allows at most {schema['maxItems']} items")
        for i, item in enumerate(value):
            _check(item, schema["items"], f"{path}[{i}]")


# --------------------------------------------------------------------------
# Parse / serialize


def parse_config(text: str) -> RunConfig:
    """A RunConfig from a JSON document, defaults filling absent keys."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"not valid JSON: {exc}") from exc
    _check(data, CONFIG_SCHEMA, "")
    try:
        return _load(data, RunConfig(), _FIELDS)
    except (DiscretizationError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc


def _load(data: dict, base: Any, fields: tuple[_Field, ...]) -> Any:
    """``base`` with every key present in ``data`` converted and swapped in."""
    kwargs = {
        f.attr: (
            _load(data[f.key], getattr(base, f.attr), f.fields)
            if f.kind == "section"
            else _KINDS[f.kind][0](data[f.key])
        )
        for f in fields
        if f.key in data
    }
    return replace(base, **kwargs)


def _dump(obj: Any, fields: tuple[_Field, ...]) -> dict[str, Any]:
    return {
        f.key: (
            _dump(getattr(obj, f.attr), f.fields)
            if f.kind == "section"
            else _KINDS[f.kind][1](getattr(obj, f.attr))
        )
        for f in fields
    }


def serialize_config(cfg: RunConfig) -> str:
    """Canonical JSON: sorted keys, two-space indent, trailing newline."""
    return json.dumps(_dump(cfg, _FIELDS), indent=2, sort_keys=True) + "\n"


def load_config(path: str | Path) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        return parse_config(text)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def save_config(cfg: RunConfig, path: str | Path) -> None:
    Path(path).write_text(serialize_config(cfg))
