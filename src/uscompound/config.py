"""JSON configuration holding every tunable of the pipeline.

Unknown keys, wrongly typed values and non-finite numbers are rejected, so
a typo cannot silently fall back to a default or crash a stage.  Dumping
the effective config and re-running is a no-op.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import fields

from .boundary import BoundaryParams
from .compound import PyramidParams
from .confidence import DEFAULT_ABSORPTION, DEFAULT_DECAY
from .errors import SpecError

__all__ = ["DEFAULTS", "load_config", "merge_config", "read_json", "Config"]

# Read off the parameter dataclasses.  PyramidParams.levels is exposed as
# pyramid.K; its other fields live under "compound".
_PYRAMID = {f.name: f.default for f in fields(PyramidParams)}
DEFAULTS = {
    "pyramid": {"K": _PYRAMID.pop("levels")},
    "compound": _PYRAMID,
    "boundary": {f.name: f.default for f in fields(BoundaryParams)},
    "confidence": {"decay": DEFAULT_DECAY, "absorption": DEFAULT_ABSORPTION},
}


# The JSON types a leaf value may take, by the type of its default; the one
# None default, compound.phi_overrides, takes null or a list of numbers.
_LEAF_TYPES = {bool: ("true or false", (bool,)), int: ("an integer", (int,)),
               float: ("a number", (int, float)),
               type(None): ("null or a list of numbers", (type(None), list))}


def merge_config(base: dict, override: dict, path: str = "") -> dict:
    """Deep-merge `override` into a copy of `base`, rejecting unknown keys,
    leaf values whose type is not the default's, and non-finite numbers."""
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise SpecError(f"unknown config key {where!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise SpecError(f"config key {where!r} must be a table")
            out[key] = merge_config(base[key], value, where)
        else:
            kind, types = _LEAF_TYPES[type(base[key])]
            items = value if type(value) is list else []
            if (type(value) not in types
                    or any(type(x) not in (int, float) for x in items)):
                raise SpecError(f"config key {where!r} must be {kind}")
            if any(type(x) is float and not math.isfinite(x)
                   for x in [value, *items]):
                raise SpecError(f"config key {where!r} must be finite")
            out[key] = value
    return out


class Config:
    """Effective configuration resolved from defaults plus overrides."""

    def __init__(self, values: dict | None = None):
        """Merge `values` over the defaults and check every range, so a
        config is accepted or rejected whatever stage reads it."""
        self.values = merge_config(DEFAULTS, values or {})
        c = dict(self.values["compound"])
        if c["phi_overrides"] is not None:
            c["phi_overrides"] = tuple(c["phi_overrides"])
        self._pyramid = PyramidParams(levels=self.values["pyramid"]["K"], **c)
        self._boundary = BoundaryParams(**self.values["boundary"])
        for key, value in self.values["confidence"].items():
            if value < 0:
                raise SpecError(f"config key 'confidence.{key}' must not be negative")

    def pyramid_params(self) -> PyramidParams:
        return self._pyramid

    def boundary_params(self) -> BoundaryParams:
        return self._boundary

    @property
    def decay(self) -> float:
        return self.values["confidence"]["decay"]

    @property
    def absorption(self) -> float:
        return self.values["confidence"]["absorption"]

    def dump(self) -> str:
        return json.dumps(self.values, indent=2, sort_keys=True)


def read_json(path):
    """The JSON value held in the file `path`; invalid JSON is a SpecError."""
    with open(path) as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as e:
            raise SpecError(f"{path}: invalid JSON ({e})") from None


def load_config(path) -> Config:
    values = read_json(path)
    if not isinstance(values, dict):
        raise SpecError(f"{path}: config must be a JSON object")
    return Config(values)
