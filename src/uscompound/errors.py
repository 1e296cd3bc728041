"""Exception hierarchy shared across the toolkit, the check of JSON tables
against the dataclasses they describe, and the check of integer fields."""

import math
import numbers
from dataclasses import MISSING, fields


class UscompoundError(Exception):
    """Base class for all toolkit errors."""


class FormatError(UscompoundError):
    """Malformed image/map file (bad magic, header, or payload size)."""


class RangeError(UscompoundError):
    """Pixel or map values outside the required [0, 1] range, or non-finite."""


class DimensionError(UscompoundError):
    """Incompatible or unsupported grid dimensions."""


class DegenerateError(UscompoundError):
    """An algorithm hit a degenerate case (e.g. single-bin histogram)."""


class EllipseFitError(DegenerateError):
    """Ellipse fitting failed (too few points or non-elliptical conic)."""


class SpecError(UscompoundError):
    """Invalid synthetic-scene or configuration specification."""


# The JSON types a value may take, by the head of its field's annotation
# (annotations are postponed, so they are strings); a bool is none of these.
_FIELD_TYPES = {"float": ("a number", (int, float)), "int": ("an integer", (int,)),
                "str": ("a string", (str,)), "tuple": ("a list", (list,))}


def checked(cls, table, what: str) -> dict:
    """`table`, if it is a JSON object holding every required field of the
    dataclass `cls`, no other key, and values of the JSON type each field's
    annotation asks for, numbers finite; otherwise a SpecError naming the
    keys."""
    if not isinstance(table, dict):
        raise SpecError(f"{what} must be a JSON object")
    known = {f.name: f for f in fields(cls)}
    extra = set(table) - set(known)
    if extra:
        raise SpecError(f"unknown {what} keys: {sorted(extra)}")
    missing = [name for name, f in known.items()
               if f.default is MISSING and name not in table]
    if missing:
        raise SpecError(f"{what} lacks keys: {missing}")
    for key, value in table.items():
        kind, types = _FIELD_TYPES.get(known[key].type.split("[")[0], (None, None))
        if types is not None and type(value) not in types:
            raise SpecError(f"{what} key {key!r} must be {kind}")
        if type(value) is float and not math.isfinite(value):
            raise SpecError(f"{what} key {key!r} must be finite")
    return table


def check_integers(obj, *names: str) -> None:
    """ValueError naming the first field of `obj` among `names` that is not
    an integer; a numpy integer is one, a bool is not."""
    for name in names:
        value = getattr(obj, name)
        if not isinstance(value, numbers.Integral) or isinstance(value, bool):
            raise ValueError(f"{name} must be an integer")
