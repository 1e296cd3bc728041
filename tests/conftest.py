import math
import tracemalloc

import numpy as np
import pytest

from uscompound.image import RigidTransform2D, ViewInput
from uscompound.phantom import (PhantomSpec, ReflectorSpec, ReverbSpec,
                                SpeckleSpec, VesselSpec)


def two_view_phantom(seed: int, size: int = 192, echo_decay: float = 0.6,
                     echo_spacing: float = 15.0, echo_count: int = 3,
                     reflector_row: float = 40.0,
                     vessel_cy: float = 130.0) -> "PhantomSpec":
    """Vessel plus a reverberating reflector, seen head-on and from the side.

    The side view (rotated 90 degrees) sees the reflector near-vertically, so
    it carries no echo train; the head-on view does.
    """
    return PhantomSpec(
        width=size, height=size,
        vessel=VesselSpec(cx=size / 2, cy=vessel_cy, a=40, b=28,
                          wall_thickness=4, wall_intensity=0.85),
        reflectors=(ReflectorSpec(row=reflector_row, col_start=40,
                                  col_end=size - 42, intensity=0.9, thickness=3,
                                  reverb=ReverbSpec(echo_count, echo_spacing,
                                                    echo_decay),
                                  shadow=0.7),),
        speckle=SpeckleSpec(scale=0.02, seed=seed),
        views=(RigidTransform2D(),
               RigidTransform2D(rotation=math.radians(90), dx=size - 1, dy=0)),
    )


def rotated_about_centre(size, degrees):
    """The rigid transform rotating a `size`² frame by `degrees` about its
    centre c = (size - 1) / 2."""
    c, t = (size - 1) / 2, math.radians(degrees)
    return RigidTransform2D(rotation=t,
                            dx=c - (math.cos(t) * c - math.sin(t) * c),
                            dy=c - (math.sin(t) * c + math.cos(t) * c))


def structural_confidences(scene, low: float = 0.2) -> list[np.ndarray]:
    """Ground-truth-derived structural confidence: `low` on artifact pixels,
    1 elsewhere (a stand-in for external confidence estimators)."""
    return [np.where(v.artifact_mask, low, 1.0).astype(np.float32)
            for v in scene.views]


def scene_view_inputs(scene, low_confidence: float = 0.2):
    """ViewInputs with ground-truth-derived structural confidence attached."""
    return [
        ViewInput(v.image, v.to_common, structural_confidence=g,
                  boundary_mask=v.boundary_mask)
        for v, g in zip(scene.views, structural_confidences(scene, low_confidence))
    ]


def traced_peak_mib(call) -> float:
    """Peak of the memory `tracemalloc` traces while `call()` runs, in MiB."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


_verdicts = []


def record_verdict(line: str) -> None:
    """Collect a one-line verdict to repeat in the terminal summary."""
    _verdicts.append(line)


def pytest_terminal_summary(terminalreporter):
    if _verdicts:
        terminalreporter.section("acceptance criteria")
        for line in _verdicts:
            terminalreporter.write_line(line)
