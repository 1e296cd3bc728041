"""JSON configuration holding every tunable of the pipeline.

Unknown keys, wrongly typed values and non-finite numbers are rejected, so
a typo cannot silently fall back to a default or crash a stage.  Dumping
the effective config and re-running is a no-op.
"""

from __future__ import annotations

import copy
import json
from dataclasses import fields

from .boundary import BoundaryParams
from .compound import PyramidParams
from .confidence import AttenuationParams
from .errors import SpecError, check_value

__all__ = ["DEFAULTS", "load_config", "merge_config", "read_json", "Config"]

# Each table's fields, read off the parameter dataclasses.  PyramidParams.levels
# is exposed as pyramid.K; its other fields live under "compound".
_PYRAMID = {f.name: f for f in fields(PyramidParams)}
_FIELDS = {
    "pyramid": {"K": _PYRAMID.pop("levels")},
    "compound": _PYRAMID,
    "boundary": {f.name: f for f in fields(BoundaryParams)},
    "confidence": {f.name: f for f in fields(AttenuationParams)},
}
DEFAULTS = {table: {key: f.default for key, f in table_fields.items()}
            for table, table_fields in _FIELDS.items()}


def merge_config(base: dict, override: dict, path: str = "",
                 spec: dict = _FIELDS) -> dict:
    """Deep-merge `override` into a copy of `base`, rejecting unknown keys
    and leaf values that the annotation of the dataclass field in the same
    place of `spec` does not admit."""
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise SpecError(f"unknown config key {where!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise SpecError(f"config key {where!r} must be a table")
            out[key] = merge_config(base[key], value, where, spec[key])
        else:
            check_value(value, spec[key].type, f"config key {where!r}",
                        SpecError)
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
        self._attenuation = AttenuationParams(**self.values["confidence"])

    def pyramid_params(self) -> PyramidParams:
        return self._pyramid

    def boundary_params(self) -> BoundaryParams:
        return self._boundary

    def attenuation_params(self) -> AttenuationParams:
        return self._attenuation

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
