"""Exception hierarchy shared across the toolkit, and the one check of a
field value against its dataclass annotation, which both the parameter
types and the JSON tables they are read from go through."""

import math
import numbers
from dataclasses import MISSING, fields

import numpy as np


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


def _finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


# What a field value must be, by the head of its annotation (annotations are
# postponed, so they are strings): the types it may take and the words
# naming them.  A bool is no number; any other head is a type that checks
# itself.
_KINDS = {"float": ((numbers.Real,), "a number"),
          "int": ((numbers.Integral,), "an integer"),
          "bool": ((bool, np.bool_), "true or false"),
          "str": ((str,), "a string"), "tuple": ((list, tuple), "a list")}


def check_value(value, annotation: str, label: str, error=ValueError) -> None:
    """`error` saying what `label` must be unless `value` is what the field
    annotation `annotation` asks for: a trailing `| None` also admits None,
    a float must be finite, and the items of a `tuple[X, ...]` are checked
    as X."""
    head = annotation.removesuffix(" | None")
    if value is None and head != annotation:
        return
    head, _, item = head.partition("[")
    if head not in _KINDS:
        return
    types, kind = _KINDS[head]
    if not isinstance(value, types) or (isinstance(value, bool) and head != "bool"):
        raise error(f"{label} must be {kind}")
    if head == "float" and not _finite(value):
        raise error(f"{label} must be finite")
    for x in value if item else ():
        check_value(x, item.removesuffix(", ...]"), label, error)


def check_fields(obj) -> None:
    """ValueError naming the first field of the dataclass `obj` whose value
    is not what its annotation asks for."""
    for f in fields(obj):
        check_value(getattr(obj, f.name), f.type, f.name)


def checked(cls, table, what: str) -> dict:
    """`table`, if it is a JSON object holding every required field of the
    dataclass `cls`, no other key, and values each field's annotation
    admits; otherwise a SpecError naming the keys."""
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
        check_value(value, known[key].type, f"{what} key {key!r}", SpecError)
    return table
