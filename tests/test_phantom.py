import ast
import inspect
import math
from dataclasses import replace

import numpy as np
import pytest

from uscompound import phantom
from uscompound.errors import SpecError
from uscompound.image import RigidTransform2D
from uscompound.phantom import (PhantomSpec, ReflectorSpec, ReverbSpec,
                                SpeckleSpec, VesselSpec, generate)

_MASK64 = (1 << 64) - 1


class Xorshift64Star:
    """Serial reference of the documented 64-bit xorshift* generator: one
    Python integer step per draw."""

    def __init__(self, seed: int):
        self.state = (seed & _MASK64) or 0x9E3779B97F4A7C15

    def next_uint64(self) -> int:
        s = self.state
        s ^= s >> 12
        s ^= (s << 25) & _MASK64
        s ^= s >> 27
        self.state = s
        return (s * 0x2545F4914F6CDD1D) & _MASK64

    def next_float(self) -> float:
        # 53 uniform mantissa bits in [0, 1)
        return (self.next_uint64() >> 11) * (1.0 / (1 << 53))

    def rayleigh(self, scale: float, n: int) -> np.ndarray:
        u = np.array([self.next_float() for _ in range(n)])
        return scale * np.sqrt(-2.0 * np.log1p(-u))


def test_vessel_only_no_artifacts():
    spec = PhantomSpec(width=100, height=100,
                       vessel=VesselSpec(cx=50, cy=50, a=20, b=15))
    scene = generate(spec)
    v = scene.views[0]
    assert v.boundary_mask.any()
    assert not v.artifact_mask.any()
    assert np.all(v.image.data[~v.boundary_mask] == 0.0)


def test_echo_rows_and_intensities():
    spec = PhantomSpec(
        width=64, height=256,
        reflectors=(ReflectorSpec(row=50, col_start=10, col_end=50,
                                  intensity=0.8, thickness=1,
                                  reverb=ReverbSpec(3, 50, 0.5)),))
    img = generate(spec).views[0].image.data
    for n, row in enumerate([100, 150, 200], start=1):
        assert img[row, 30] == pytest.approx(0.8 * 0.5 ** n, abs=1e-6)
    assert img[50, 30] == pytest.approx(0.8)


def test_echo_intensities_strictly_decrease():
    spec = PhantomSpec(
        width=64, height=256,
        reflectors=(ReflectorSpec(row=20, col_start=10, col_end=50,
                                  intensity=0.9, thickness=1,
                                  reverb=ReverbSpec(4, 40, 0.7)),))
    img = generate(spec).views[0].image.data
    levels = [img[20 + 40 * n, 30] for n in range(1, 5)]
    assert all(a > b for a, b in zip(levels, levels[1:]))


def test_determinism_bit_identical():
    spec = PhantomSpec(width=80, height=80,
                       vessel=VesselSpec(cx=40, cy=40, a=15, b=10),
                       speckle=SpeckleSpec(scale=0.05, seed=42))
    a = generate(spec).views[0].image.data
    b = generate(spec).views[0].image.data
    assert np.array_equal(a, b)


def test_seed_changes_speckle():
    def img(seed):
        spec = PhantomSpec(width=40, height=40,
                           speckle=SpeckleSpec(scale=0.05, seed=seed))
        return generate(spec).views[0].image.data
    assert not np.array_equal(img(1), img(2))


def test_near_vertical_view_spawns_no_echoes():
    spec = PhantomSpec(
        width=120, height=120,
        reflectors=(ReflectorSpec(row=30, col_start=20, col_end=100,
                                  intensity=0.9,
                                  reverb=ReverbSpec(3, 20, 0.5)),),
        views=(RigidTransform2D(),
               RigidTransform2D(rotation=math.radians(90), dx=119, dy=0),
               RigidTransform2D(rotation=math.radians(10))),
    )
    scene = generate(spec)
    assert scene.views[0].artifact_mask.any()       # head-on: echoes
    assert not scene.views[1].artifact_mask.any()   # side view: none
    assert scene.views[2].artifact_mask.any()       # within 20 degrees


def test_masks_disjoint():
    spec = PhantomSpec(
        width=100, height=100,
        vessel=VesselSpec(cx=50, cy=60, a=20, b=15),
        reflectors=(ReflectorSpec(row=10, col_start=20, col_end=80,
                                  intensity=0.9,
                                  reverb=ReverbSpec(5, 12, 0.8)),))
    v = generate(spec).views[0]
    assert not (v.boundary_mask & v.artifact_mask).any()


def test_out_of_bounds_geometry_rejected():
    with pytest.raises(SpecError):
        generate(PhantomSpec(width=50, height=50,
                             vessel=VesselSpec(cx=45, cy=25, a=20, b=10)))
    with pytest.raises(SpecError):
        generate(PhantomSpec(width=50, height=50,
                             reflectors=(ReflectorSpec(row=10, col_start=0,
                                                       col_end=60),)))
    with pytest.raises(SpecError):
        generate(PhantomSpec(
            width=50, height=50,
            reflectors=(ReflectorSpec(row=10, col_start=0, col_end=30,
                                      reverb=ReverbSpec(2, 10, 1.5)),)))


# Each case is a function that builds the spec, so the rule is met inside
# the test: a spec breaking one is rejected when it is built.
_WRONG_SPECS = [
    (lambda: PhantomSpec(32, 32, views=()), "views"),
    (lambda: PhantomSpec(32, 32, reflectors=(ReflectorSpec(
        3, 4, 20, reverb=ReverbSpec(2, -10, 0.5)),)), "spacing"),
    (lambda: PhantomSpec(32, 32, reflectors=(ReflectorSpec(
        3, 4, 20, reverb=ReverbSpec(2, 0, 0.5)),)), "spacing"),
    (lambda: PhantomSpec(32, 32, speckle=SpeckleSpec(scale=-0.03)), "scale"),
    (lambda: PhantomSpec(32, 32, reflectors=(ReflectorSpec(
        3, 4, 20, thickness=0),)), "thickness"),
    (lambda: PhantomSpec(32, 32, reflectors=(ReflectorSpec(
        3, 4, 20, thickness=-1),)), "thickness"),
    (lambda: PhantomSpec(32, 32, reflectors=(ReflectorSpec(
        3, 4, 20, intensity=0),)), "intensity"),
    (lambda: PhantomSpec(32, 32, vessel=VesselSpec(
        16, 16, 8, 6, wall_intensity=-0.5)), "wall_intensity"),
]


@pytest.mark.parametrize("spec,field", _WRONG_SPECS, ids=[
    f"spec{i}-{field}" for i, (_, field) in enumerate(_WRONG_SPECS)])
def test_specs_that_render_wrongly_rejected(spec, field):
    with pytest.raises(SpecError, match=field):
        generate(spec())


def test_echo_spacing_below_one_row_rejected():
    # A sub-row spacing would let `count` echoes pile onto the same rows,
    # one pass of the echo loop each: 10**9 of them would run for hours.
    with pytest.raises(SpecError, match="spacing"):
        ReverbSpec(10**9, 1e-9, 0.5)


def test_echo_train_stops_at_the_frame_bottom():
    # With spacing >= 1, echo n lies n rows down or more, so the train ends
    # at the frame bottom: a huge count renders what `height` echoes do.
    def scene(count):
        return generate(PhantomSpec(48, 48, reflectors=(ReflectorSpec(
            2, 4, 40, reverb=ReverbSpec(count, 1.0, 0.5)),))).views[0]

    huge, enough = scene(10**9), scene(48)
    assert huge.artifact_mask.any()
    assert np.array_equal(huge.artifact_mask, enough.artifact_mask)
    assert np.array_equal(huge.boundary_mask, enough.boundary_mask)
    assert np.array_equal(huge.image.data, enough.image.data)


@pytest.mark.parametrize("spacing", [1e19, 1e300])
def test_echo_train_below_the_frame_renders_no_echo(spacing):
    # The first echo lies below the frame; its row offset, added to the int64
    # rows before the frame check, raised OverflowError.
    def scene(reverb):
        return generate(PhantomSpec(64, 64, reflectors=(ReflectorSpec(
            10, 5, 50, reverb=reverb),))).views[0]

    far, none = scene(ReverbSpec(2, spacing)), scene(None)
    assert not far.artifact_mask.any()
    assert np.array_equal(far.image.data, none.image.data)


def test_only_spec_types_raise_spec_errors():
    # Every range rule lives in the spec type whose fields it reads, so a
    # spec is checked when it is built and `generate` only renders.
    tree = ast.parse(inspect.getsource(phantom))
    in_specs = {id(node) for cls in tree.body if isinstance(cls, ast.ClassDef)
                and cls.name.endswith("Spec")
                for fn in cls.body if isinstance(fn, ast.FunctionDef)
                for node in ast.walk(fn)}
    raises = [node for node in ast.walk(tree) if isinstance(node, ast.Raise)
              and "SpecError" in ast.unparse(node)]
    assert raises
    assert all(id(node) in in_specs for node in raises), [
        node.lineno for node in raises if id(node) not in in_specs]


@pytest.mark.parametrize("build,message", [
    # generate() died with "'float' object cannot be interpreted as an
    # integer", and a NaN speckle scale with a RangeError about the image.
    (lambda: PhantomSpec(width=48.5, height=48), "width must be an integer"),
    (lambda: PhantomSpec(48, 48, reflectors=None), "reflectors must be a list"),
    (lambda: SpeckleSpec(scale=math.nan), "scale must be finite"),
    (lambda: SpeckleSpec(seed=1.0), "seed must be an integer"),
    (lambda: VesselSpec(cx=16, cy="16", a=8, b=6), "cy must be a number"),
    (lambda: VesselSpec(16, 16, 8, 6, rotation=math.inf), "rotation must be finite"),
    (lambda: ReflectorSpec(row=math.nan, col_start=4, col_end=20),
     "row must be finite"),
    (lambda: ReflectorSpec(3, 4, 20, shadow=True), "shadow must be a number"),
    (lambda: ReverbSpec(count=2.5), "count must be an integer"),
    (lambda: ReverbSpec(decay=10**400), "decay must be finite"),
])
def test_spec_built_in_python_names_its_field(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_zero_speckle_scale_adds_nothing():
    spec = PhantomSpec(32, 32, vessel=VesselSpec(cx=16, cy=16, a=8, b=6))
    plain = generate(spec).views[0].image.data
    still = generate(replace(spec, speckle=SpeckleSpec(scale=0.0)))
    assert np.array_equal(still.views[0].image.data, plain)


def test_shadow_attenuates_below():
    spec = PhantomSpec(
        width=60, height=120,
        reflectors=(ReflectorSpec(row=20, col_start=10, col_end=50,
                                  intensity=0.9, shadow=0.5),),
        vessel=VesselSpec(cx=30, cy=80, a=15, b=10, wall_intensity=0.8))
    img = generate(spec).views[0].image.data
    # vessel wall in the shadow column dims to 0.4
    assert img[70, 30] == pytest.approx(0.4, abs=1e-6)


def test_prng_is_stable():
    rng = Xorshift64Star(1)
    # frozen reference values of the documented xorshift64* generator
    frozen = [5180492295206395165, 12380297144915551517, 13389498078930870103]
    assert [rng.next_uint64() for _ in range(3)] == frozen
    assert phantom._xorshift64star(1, 3).tolist() == frozen
    assert phantom._xorshift64star(1, 3).dtype == np.uint64
    r2 = Xorshift64Star(7)
    assert all(0.0 <= r2.next_float() < 1.0 for _ in range(5))


_L = phantom._LANES


@pytest.mark.parametrize("n", [1, _L - 1, _L, _L + 1, 192 * 192, 512 * 512 + 3])
@pytest.mark.parametrize("seed", [0, (1 << 64) - 1, 0x9E3779B97F4A7C15, 7,
                                  0x5DEECE66D, 0xD1B54A32D192ED03])
def test_lane_stream_equals_serial_oracle(seed, n):
    # seed 0 takes the fallback state; 0x9E3779B97F4A7C15 is that state.
    got = phantom._rayleigh(seed, 0.03, n)
    assert got.dtype == np.float64
    assert np.array_equal(got, Xorshift64Star(seed).rayleigh(0.03, n))


def test_lane_stream_equals_serial_oracle_random_seeds(rng):
    for seed in rng.integers(0, 1 << 63, size=4, dtype=np.int64).tolist():
        n = int(rng.integers(1, 3 * _L * _L // 4))
        oracle = Xorshift64Star(seed)
        assert phantom._xorshift64star(seed, 9).tolist() == [
            oracle.next_uint64() for _ in range(9)]
        assert np.array_equal(phantom._rayleigh(seed, 0.05, n),
                              Xorshift64Star(seed).rayleigh(0.05, n))


def test_spec_from_dict_roundtrip():
    d = {
        "width": 64, "height": 64,
        "vessel": {"cx": 32, "cy": 32, "a": 10, "b": 8},
        "reflectors": [{"row": 5, "col_start": 10, "col_end": 50,
                        "reverb": {"count": 2, "spacing": 12, "decay": 0.5}}],
        "speckle": {"scale": 0.02, "seed": 9},
        "views": [{}, {"rotation": 1.2, "dx": 3.0}],
    }
    spec = PhantomSpec.from_dict(d)
    assert spec.vessel.a == 10
    assert spec.reflectors[0].reverb.count == 2
    assert len(spec.views) == 2
    with pytest.raises(SpecError):
        PhantomSpec.from_dict({"width": 4, "height": 4, "bogus": 1})
