"""JSON configuration holding every tunable of the pipeline.

Unknown keys, wrongly typed values and non-finite numbers are rejected, so
a typo cannot silently fall back to a default or crash a stage.  Dumping
the effective config and re-running is a no-op.
"""

from __future__ import annotations

import json
from dataclasses import fields

from .boundary import BoundaryParams
from .compound import PyramidParams
from .confidence import AttenuationParams
from .errors import SpecError, check_value

__all__ = ["DEFAULTS", "load_config", "read_json", "Config"]

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


class Config:
    """Effective configuration resolved from defaults plus overrides."""

    def __init__(self, values: dict | None = None):
        """Lay `values` over a copy of the defaults, table by table, and
        check every key, type and range, so a config is accepted or
        rejected whatever stage reads it."""
        self.values = {table: dict(keys) for table, keys in DEFAULTS.items()}
        for table, given in (values or {}).items():
            if table not in _FIELDS:
                raise SpecError(f"unknown config key {table!r}")
            if not isinstance(given, dict):
                raise SpecError(f"config key {table!r} must be a table")
            for key, value in given.items():
                name = f"{table}.{key}"
                if key not in _FIELDS[table]:
                    raise SpecError(f"unknown config key {name!r}")
                check_value(value, _FIELDS[table][key].type,
                            f"config key {name!r}", SpecError)
                self.values[table][key] = value
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
