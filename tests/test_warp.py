import importlib
import itertools
import math

import numpy as np
import pytest

from uscompound.compound import prepare_views
from uscompound.errors import DimensionError, RangeError
from uscompound.image import (Image, RigidTransform2D, ViewInput, WarpedView,
                              warp_array, warp_to_common)
from uscompound.phantom import generate

from conftest import scene_view_inputs, two_view_phantom

# The package's `compound` attribute is the function, not the module.
compound_module = importlib.import_module("uscompound.compound")


def brute_force_warp(src, transform, out_w, out_h):
    """Independent scalar inverse-map oracle over all output pixels."""
    h, w = src.shape
    out = np.zeros((out_h, out_w))
    valid = np.zeros((out_h, out_w), dtype=bool)
    for y in range(out_h):
        for x in range(out_w):
            sx, sy = transform.inverse_apply(float(x), float(y))
            if not (0 <= sx <= w - 1 and 0 <= sy <= h - 1):
                continue
            x0 = min(int(math.floor(sx)), w - 2) if w > 1 else 0
            y0 = min(int(math.floor(sy)), h - 2) if h > 1 else 0
            fx, fy = sx - x0, sy - y0
            out[y, x] = (src[y0, x0] * (1 - fx) * (1 - fy)
                         + src[y0, x0 + 1] * fx * (1 - fy)
                         + src[y0 + 1, x0] * (1 - fx) * fy
                         + src[y0 + 1, x0 + 1] * fx * fy)
            valid[y, x] = True
    return out, valid


def per_map_warp_to_common(view, out_width, out_height):
    """Oracle: one 2-D warp per map, each recomputing the source geometry."""
    t = view.to_common
    img, valid = warp_array(view.image.data, t, out_width, out_height)
    out = WarpedView(image=np.clip(img, 0.0, 1.0), validity=valid)
    if view.intensity_confidence is not None:
        out.intensity_confidence, _ = warp_array(
            view.intensity_confidence, t, out_width, out_height)
    if view.structural_confidence is not None:
        out.structural_confidence, _ = warp_array(
            view.structural_confidence, t, out_width, out_height)
    if view.boundary_mask is not None:
        m, _ = warp_array(view.boundary_mask.astype(np.uint8), t,
                          out_width, out_height, nearest=True)
        out.boundary_mask = m.astype(bool)
    return out


def assert_same_warped(a, b):
    for name in ("image", "validity", "intensity_confidence",
                 "structural_confidence", "boundary_mask"):
        x, y = getattr(a, name), getattr(b, name)
        if x is None or y is None:
            assert x is None and y is None, name
            continue
        assert x.dtype == y.dtype, name
        assert np.array_equal(x, y), name


def test_identity_is_identity(rng):
    src = rng.random((5, 7)).astype(np.float32)
    out, valid = warp_array(src, RigidTransform2D(), 7, 5)
    assert np.allclose(out, src)
    assert valid.all()


def test_translation_invalidates_offside_column(rng):
    src = rng.random((4, 4)).astype(np.float32)
    # native -> common shift of +1 column: common column 0 saw nothing
    out, valid = warp_array(src, RigidTransform2D(dx=1.0), 4, 4)
    assert not valid[:, 0].any()
    assert valid[:, 1:].all()
    assert np.allclose(out[:, 1:], src[:, :3])
    assert np.all(out[:, 0] == 0)


def test_integer_translation_equals_shift(rng):
    src = rng.random((6, 6)).astype(np.float32)
    out, valid = warp_array(src, RigidTransform2D(dx=-2.0, dy=1.0), 6, 6)
    assert np.allclose(out[valid], src[:5, 2:][valid[1:, :4]])


def test_rotation_matches_brute_force(rng):
    src = np.arange(9, dtype=np.float64).reshape(3, 3) / 10.0
    t = RigidTransform2D(rotation=math.radians(90), dx=2.0)
    out, valid = warp_array(src, t, 3, 3)
    exp, exp_valid = brute_force_warp(src, t, 3, 3)
    assert np.array_equal(valid, exp_valid)
    assert np.allclose(out, exp, atol=1e-6)


@pytest.mark.parametrize("angle,dx,dy", [(0.3, 1.5, -0.7), (-1.1, 4.0, 2.5)])
def test_general_warp_matches_brute_force(rng, angle, dx, dy):
    src = rng.random((9, 11))
    t = RigidTransform2D(rotation=angle, dx=dx, dy=dy)
    out, valid = warp_array(src, t, 12, 10)
    exp, exp_valid = brute_force_warp(src, t, 12, 10)
    assert np.array_equal(valid, exp_valid)
    assert np.allclose(out, exp, atol=1e-6)


def test_validity_monotone_in_source_size(rng):
    small = rng.random((6, 6))
    big = np.zeros((9, 9))
    big[:6, :6] = small
    t = RigidTransform2D(rotation=0.2, dx=1.0, dy=0.5)
    _, v_small = warp_array(small, t, 8, 8)
    _, v_big = warp_array(big, t, 8, 8)
    assert np.all(v_big[v_small])


def test_warp_to_common_carries_maps(rng):
    img = Image(rng.random((6, 6), dtype=np.float32))
    gc = rng.random((6, 6)).astype(np.float32)
    bm = rng.random((6, 6)) > 0.5
    view = ViewInput(img, RigidTransform2D(dx=1.0), intensity_confidence=gc,
                     boundary_mask=bm)
    warped = warp_to_common(view, 6, 6)
    assert warped.image.shape == (6, 6)
    # integer shift: nearest-neighbor mask equals exact shifting on overlap
    assert np.array_equal(warped.boundary_mask[:, 1:], bm[:, :5])
    assert np.allclose(warped.intensity_confidence[:, 1:], gc[:, :5])
    assert warped.boundary_mask.dtype == bool


def test_bad_output_dims():
    view = ViewInput(Image(np.zeros((4, 4))))
    with pytest.raises(DimensionError):
        warp_to_common(view, 0, 4)


def test_mismatched_map_dims():
    with pytest.raises(DimensionError):
        ViewInput(Image(np.zeros((4, 4))),
                  intensity_confidence=np.zeros((3, 4), dtype=np.float32))


@pytest.mark.parametrize("name", ["intensity_confidence",
                                  "structural_confidence"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -0.1, 1.5, 7.0])
def test_view_input_rejects_confidence_outside_unit_range(name, bad):
    m = np.full((4, 4), 0.5)
    m[1, 2] = bad
    with pytest.raises(RangeError, match=name):
        ViewInput(Image(np.zeros((4, 4))), **{name: m})


def test_view_input_stores_confidence_maps_as_given(rng):
    gc, gs = rng.random((4, 4)), rng.random((4, 4)).astype(np.float32)
    bm = np.full((4, 4), 3, dtype=np.uint8)  # the mask's values are not checked
    view = ViewInput(Image(np.zeros((4, 4))), intensity_confidence=gc,
                     structural_confidence=gs, boundary_mask=bm)
    assert view.intensity_confidence is gc and gc.dtype == np.float64
    assert view.structural_confidence is gs and view.boundary_mask is bm


WARP_TRANSFORMS = [RigidTransform2D(),
                   RigidTransform2D(rotation=0.3, dx=1.5, dy=-0.7),
                   RigidTransform2D(rotation=-1.1, dx=4.0, dy=2.5),
                   RigidTransform2D(rotation=math.pi / 2, dx=6.0, dy=0.25)]


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (9, 11), (33, 47)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.uint8])
@pytest.mark.parametrize("nearest", [False, True])
def test_stack_equals_per_plane_warps(rng, shape, dtype, nearest):
    if dtype == np.uint8:
        stack = rng.integers(0, 256, (3,) + shape).astype(dtype)
    else:
        stack = rng.random((3,) + shape).astype(dtype)
    out_h, out_w = shape[0] + 2, shape[1] + 3
    for t in WARP_TRANSFORMS:
        out, valid = warp_array(stack, t, out_w, out_h, nearest=nearest)
        assert out.shape == (3, out_h, out_w)
        for plane, o in zip(stack, out):
            exp, exp_valid = warp_array(plane, t, out_w, out_h, nearest=nearest)
            assert o.dtype == exp.dtype
            assert np.array_equal(o, exp)
            assert np.array_equal(valid, exp_valid)


def test_warp_keeps_every_leading_axis(rng):
    stack = rng.random((2, 3, 9, 11))
    t = WARP_TRANSFORMS[1]
    out, _ = warp_array(stack, t, 12, 10)
    assert out.shape == (2, 3, 10, 12)
    assert np.array_equal(out[1, 2], warp_array(stack[1, 2], t, 12, 10)[0])


@pytest.mark.parametrize("has_gc,has_gs,has_bm",
                         list(itertools.product([False, True], repeat=3)))
def test_warp_to_common_matches_per_map_oracle(rng, has_gc, has_gs, has_bm):
    shape = (23, 31)
    for t in WARP_TRANSFORMS:
        view = ViewInput(
            Image(rng.random(shape, dtype=np.float32)), t,
            intensity_confidence=(rng.random(shape).astype(np.float32)
                                  if has_gc else None),
            # float64, so the stacked planes are not all float32
            structural_confidence=rng.random(shape) if has_gs else None,
            boundary_mask=rng.random(shape) > 0.7 if has_bm else None)
        assert_same_warped(warp_to_common(view, 34, 27),
                           per_map_warp_to_common(view, 34, 27))


@pytest.mark.parametrize("oracle_maps", [False, True])
def test_prepare_views_matches_per_map_oracle(monkeypatch, oracle_maps):
    scene = generate(two_view_phantom(0))
    views = (scene_view_inputs(scene) if oracle_maps else
             [ViewInput(v.image, v.to_common) for v in scene.views])
    warped = prepare_views(views, 192, 192)
    monkeypatch.setattr(compound_module, "warp_to_common",
                        per_map_warp_to_common)
    expected = prepare_views(views, 192, 192)
    assert not all(v.validity.all() for v in warped)
    for a, b in zip(warped, expected):
        assert_same_warped(a, b)
