from dataclasses import fields, replace

import numpy as np
import pytest

from uscompound.boundary import BoundaryParams
from uscompound.compound import PyramidParams
from uscompound.confidence import AttenuationParams
from uscompound.errors import DimensionError, SpecError, _KINDS, check_value
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


_LEVELS = PyramidParams().levels

# Every range rule of every type in CHECKED: a change to a valid instance
# that breaks it, the error and its message.  RigidTransform2D has none.
RANGE_RULES = [
    (BoundaryParams, {"alpha": 0}, ValueError, "alpha must be >= 1"),
    (BoundaryParams, {"beta": -1}, ValueError, "beta must be >= 0"),
    (BoundaryParams, {"min_size": 0}, ValueError, "min_size must be >= 1"),
    (PyramidParams, {"levels": 1}, ValueError, "levels must be >= 2"),
    (PyramidParams, {"enhance_layer": 0}, ValueError,
     r"enhance_layer must lie in 1\.\.levels"),
    (PyramidParams, {"enhance_layer": _LEVELS + 1}, ValueError,
     r"enhance_layer must lie in 1\.\.levels"),
    (PyramidParams, {"gamma": 1.5}, ValueError, r"gamma must lie in \[0, 1\]"),
    (PyramidParams, {"phi_overrides": (0.5,)}, ValueError,
     "phi_overrides must have one entry per layer"),
    (PyramidParams, {"phi_overrides": (1.5,) * _LEVELS}, ValueError,
     r"phi override values must lie in \[0, 1\]"),
    (AttenuationParams, {"decay": -0.1}, ValueError, "decay must not be negative"),
    (AttenuationParams, {"absorption": -0.1}, ValueError,
     "absorption must not be negative"),
    (PatchSpec, {"width": 0}, DimensionError, "patch dimensions must be positive"),
    (PatchSpec, {"height": -4}, DimensionError,
     "patch dimensions must be positive"),
    (PatchSpec, {"label": "vessel"}, ValueError, "unknown patch label 'vessel'"),
    (VesselSpec, {"a": 0.0}, SpecError,
     "vessel axes and wall thickness must be positive"),
    (VesselSpec, {"b": -3.0}, SpecError,
     "vessel axes and wall thickness must be positive"),
    (VesselSpec, {"wall_thickness": 0.0}, SpecError,
     "vessel axes and wall thickness must be positive"),
    (VesselSpec, {"wall_intensity": 0.0}, SpecError,
     "vessel wall_intensity must be positive"),
    (ReverbSpec, {"decay": 0.0}, SpecError, r"echo decay factor must lie in \(0, 1\)"),
    (ReverbSpec, {"decay": 1.0}, SpecError, r"echo decay factor must lie in \(0, 1\)"),
    (ReverbSpec, {"spacing": 0.5}, SpecError, "reverb spacing must be at least 1 row"),
    (ReflectorSpec, {"thickness": 0.0}, SpecError,
     "reflector thickness and intensity must be positive"),
    (ReflectorSpec, {"intensity": -0.5}, SpecError,
     "reflector thickness and intensity must be positive"),
    (ReflectorSpec, {"shadow": -0.1}, SpecError, r"shadow factor must lie in \[0, 1\]"),
    (ReflectorSpec, {"shadow": 1.5}, SpecError, r"shadow factor must lie in \[0, 1\]"),
    (SpeckleSpec, {"scale": -0.01}, SpecError, "speckle scale must not be negative"),
    (PhantomSpec, {"width": 0}, SpecError, "phantom dimensions must be positive"),
    (PhantomSpec, {"height": -1}, SpecError, "phantom dimensions must be positive"),
    (PhantomSpec, {"views": ()}, SpecError,
     "phantom views must list at least one view"),
    (PhantomSpec, {"vessel": VesselSpec(26.0, 16.0, 5.0, 3.0)}, SpecError,
     "vessel extends outside the phantom"),
    (PhantomSpec, {"reflectors": (ReflectorSpec(10.0, 20.0, 32.0),)}, SpecError,
     "reflector outside the phantom"),
    (PhantomSpec, {"reflectors": (ReflectorSpec(32.0, 0.0, 20.0),)}, SpecError,
     "reflector outside the phantom"),
    (PhantomSpec, {"reflectors": (ReflectorSpec(10.0, 20.0, 10.0),)}, SpecError,
     "reflector outside the phantom"),
]


def test_range_rules_cover_every_checked_type_with_rules():
    assert {cls for cls, *_ in RANGE_RULES} == set(CHECKED) - {RigidTransform2D}


@pytest.mark.parametrize("cls,changes,error,message", RANGE_RULES,
                         ids=lambda x: x.__name__ if isinstance(x, type) else None)
def test_building_checks_every_range(cls, changes, error, message):
    # Checked when built, not when used: `replace` builds a new instance.
    with pytest.raises(error, match=f"^{message}$"):
        replace(VALID[cls], **changes)


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
