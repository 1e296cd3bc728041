from dataclasses import fields, replace

import numpy as np
import pytest

from uscompound.boundary import BoundaryParams
from uscompound.compound import PyramidParams
from uscompound.confidence import AttenuationParams
from uscompound.errors import SpecError, _KINDS, check_value
from uscompound.image import RigidTransform2D
from uscompound.metrics import PatchSpec
from uscompound.phantom import (PhantomSpec, ReflectorSpec, ReverbSpec,
                                SpeckleSpec, VesselSpec)

# Every dataclass whose fields go through `check_fields` or `checked`.
CHECKED = [BoundaryParams, PyramidParams, AttenuationParams, RigidTransform2D,
           PatchSpec, VesselSpec, ReverbSpec, ReflectorSpec, SpeckleSpec,
           PhantomSpec]

# A valid instance of each type in CHECKED.
VALID = {BoundaryParams: BoundaryParams(), PyramidParams: PyramidParams(),
         AttenuationParams: AttenuationParams(),
         RigidTransform2D: RigidTransform2D(),
         PatchSpec: PatchSpec(0, 0, 4, 4, "boundary"),
         VesselSpec: VesselSpec(10.0, 10.0, 5.0, 3.0), ReverbSpec: ReverbSpec(),
         ReflectorSpec: ReflectorSpec(10.0, 0.0, 20.0),
         SpeckleSpec: SpeckleSpec(), PhantomSpec: PhantomSpec(32, 32)}


def _heads(annotation: str):
    """The heads of `annotation` and of its item type, `| None` stripped."""
    head, _, item = annotation.removesuffix(" | None").partition("[")
    yield head
    if item:
        yield from _heads(item.removesuffix(", ...]"))


@pytest.mark.parametrize("cls", CHECKED, ids=lambda c: c.__name__)
def test_every_field_annotation_is_one_the_check_knows(cls):
    # Any other head would be left unchecked without notice.
    names = {c.__name__ for c in CHECKED}
    for f in cls.__dataclass_fields__.values():
        for head in _heads(f.type):
            assert head in _KINDS or head in names, (cls.__name__, f.name, f.type)


@pytest.mark.parametrize("cls", CHECKED, ids=lambda c: c.__name__)
def test_building_checks_every_number_field(cls):
    # Built in Python, not read from JSON: True is no number, so it must not
    # pass for 1.
    numbers = [f.name for f in fields(cls) if f.type in ("int", "float")]
    assert numbers
    for name in numbers:
        with pytest.raises(ValueError, match=f"^{name} must be (an integer|a number)$"):
            replace(VALID[cls], **{name: True})


@pytest.mark.parametrize("value,annotation", [
    (1.5, "float"), (2, "float"), (np.float32(0.5), "float"),
    (np.int64(3), "float"), pytest.param(10**300, "float", id="301-digit"),
    (3, "int"), (np.uint8(3), "int"),
    (True, "bool"), (np.bool_(False), "bool"),
    ("x", "str"), ([], "tuple"), ((), "tuple[float, ...]"),
    ([0, 0.5, np.float64(1)], "tuple[float, ...]"),
    (None, "tuple[float, ...] | None"), (None, "VesselSpec | None"),
    ({"cx": 1}, "VesselSpec | None"), ([{}], "tuple[ReflectorSpec, ...]"),
])
def test_check_value_admits(value, annotation):
    check_value(value, annotation, "x")


@pytest.mark.parametrize("value,annotation,message", [
    (True, "float", "must be a number"),
    ("1", "float", "must be a number"),
    (None, "float", "must be a number"),
    (float("nan"), "float", "must be finite"),
    (-np.inf, "float", "must be finite"),
    pytest.param(10**400, "float", "must be finite", id="401-digit"),
    pytest.param(-10**400, "float", "must be finite", id="-401-digit"),
    (2.0, "int", "must be an integer"),
    (False, "int", "must be an integer"),
    (np.bool_(True), "int", "must be an integer"),
    (1, "bool", "must be true or false"),
    ("true", "bool", "must be true or false"),
    (1, "str", "must be a string"),
    ({}, "tuple", "must be a list"),
    (0.5, "tuple[float, ...] | None", "must be a list"),
    ([0.5, None], "tuple[float, ...] | None", "must be a number"),
    ([0.5, 10**400], "tuple[float, ...]", "must be finite"),
])
def test_check_value_rejects(value, annotation, message):
    with pytest.raises(ValueError, match=f"^x {message}$"):
        check_value(value, annotation, "x")
    with pytest.raises(SpecError, match=f"^key 'y' {message}$"):
        check_value(value, annotation, "key 'y'", SpecError)
