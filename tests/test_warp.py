import importlib
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uscompound.compound import prepare_views
from uscompound.errors import DimensionError, RangeError
from uscompound.image import (Image, RigidTransform2D, ViewInput, WarpedView,
                              warp_array, warp_to_common)
from uscompound.phantom import generate

from conftest import scene_view_inputs, two_view_phantom

# The package's `compound` attribute is the function, not the module.
compound_module = importlib.import_module("uscompound.compound")
image_module = importlib.import_module("uscompound.image")


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


def _source_coords(transform, out_width, out_height, w, h):
    sx, sy = transform.inverse_apply(np.arange(out_width, dtype=np.float64),
                                     np.arange(out_height, dtype=np.float64)[:, None])
    valid = (sx >= 0.0) & (sx <= w - 1.0) & (sy >= 0.0) & (sy <= h - 1.0)
    return sx, sy, valid


def fancy_index_warp(data, transform, out_width, out_height):
    """Oracle: the whole-frame warp, gathering each tap of each plane with
    2-D fancy indexing and summing the products in the library's order."""
    src = np.asarray(data)
    h, w = src.shape[-2:]
    sx, sy, valid = _source_coords(transform, out_width, out_height, w, h)
    x0 = np.clip(np.floor(sx).astype(np.intp), 0, max(w - 2, 0))
    y0 = np.clip(np.floor(sy).astype(np.intp), 0, max(h - 2, 0))
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = np.subtract(sx, x0, out=sx)
    fy = np.subtract(sy, y0, out=sy)
    out = np.zeros(src.shape[:-2] + (out_height, out_width), dtype=np.float32)
    planes = src.reshape((-1, h, w))
    for p, o in zip(planes, out.reshape((-1, out_height, out_width))):
        vals = (p[y0, x0] * (1 - fx) * (1 - fy) + p[y0, x1] * fx * (1 - fy)
                + p[y1, x0] * (1 - fx) * fy + p[y1, x1] * fx * fy)
        np.copyto(o, vals, where=valid)
    return out, valid


def nearest_mask_warp(mask, transform, out_width, out_height):
    """Oracle: the nearest-neighbour mask warp the library used before the
    mask joined the bilinear stack; any nonzero value is True."""
    h, w = mask.shape
    sx, sy, valid = _source_coords(transform, out_width, out_height, w, h)
    ix = np.clip(np.rint(sx).astype(np.intp), 0, w - 1)
    iy = np.clip(np.rint(sy).astype(np.intp), 0, h - 1)
    return valid & (mask[iy, ix] != 0)


def meshgrid_coords(apply, width, height):
    """Oracle: a rigid map evaluated on materialised (height, width) grids,
    the form the warp and the phantom renderer used before broadcasting."""
    qx, qy = np.meshgrid(np.arange(width, dtype=np.float64),
                         np.arange(height, dtype=np.float64))
    return apply(qx, qy)


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
        out.boundary_mask, _ = warp_array(
            np.asarray(view.boundary_mask) != 0, t, out_width, out_height)
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


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1)])
def test_identity_warp_of_one_pixel_axes_is_the_source(rng, shape):
    src = rng.random(shape).astype(np.float32)
    out, valid = warp_array(src, RigidTransform2D(), shape[1], shape[0])
    assert valid.all()
    assert out.dtype == np.float32 and np.array_equal(out, src)


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1)])
def test_identity_warp_to_common_of_one_pixel_axes_keeps_the_mask(rng, shape):
    mask = rng.random(shape) < 0.5
    mask.flat[0] = True
    view = ViewInput(Image(rng.random(shape)), boundary_mask=mask)
    warped = warp_to_common(view, shape[1], shape[0])
    assert warped.validity.all()
    assert warped.boundary_mask.dtype == np.float32
    assert np.array_equal(warped.boundary_mask, mask.astype(np.float32))


_SPECIAL_ROTATIONS = st.sampled_from([0.0, -0.0, math.pi / 2, -math.pi / 2,
                                 math.radians(90), math.pi])


@given(width=st.integers(1, 64), height=st.integers(1, 64),
       rotation=st.one_of(_SPECIAL_ROTATIONS, st.floats(-7.0, 7.0)),
       dx=st.one_of(st.sampled_from([0.0, -0.0, 511.0]), st.floats(-600, 600)),
       dy=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-600, 600)),
       inverse=st.booleans())
@settings(max_examples=300, deadline=None)
def test_broadcast_coords_equal_meshgrid_oracle(width, height, rotation,
                                                dx, dy, inverse):
    t = RigidTransform2D(rotation, dx, dy)
    apply = t.inverse_apply if inverse else t.apply
    got = apply(np.arange(width, dtype=np.float64),
                np.arange(height, dtype=np.float64)[:, None])
    for g, e in zip(got, meshgrid_coords(apply, width, height)):
        assert g.shape == e.shape == (height, width)
        assert np.array_equal(g, e)
        assert np.array_equal(np.signbit(g), np.signbit(e))


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
    # integer shift: the bilinear mask equals exact shifting on overlap
    assert np.array_equal(warped.boundary_mask[:, 1:], bm[:, :5])
    assert np.all(warped.boundary_mask[:, 0] == 0)
    assert np.allclose(warped.intensity_confidence[:, 1:], gc[:, :5])
    assert warped.boundary_mask.dtype == np.float32


@pytest.mark.parametrize("mask", [np.full((16, 16), 0.7),
                                  np.full((16, 16), 256, dtype=np.uint16)])
def test_any_nonzero_mask_value_marks_a_boundary(mask):
    view = ViewInput(Image(np.zeros((16, 16))), boundary_mask=mask)
    warped = warp_to_common(view, 16, 16).boundary_mask
    assert warped.dtype == np.float32 and np.all(warped == 1.0)


@pytest.mark.parametrize("nan", [False, True])
def test_view_input_rejects_a_raw_array_image(rng, nan):
    raw = rng.random((8, 8), dtype=np.float32)
    if nan:
        raw[3, 4] = np.nan
    with pytest.raises(TypeError, match="Image"):
        ViewInput(raw)


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
def test_stack_equals_per_plane_warps(rng, shape, dtype):
    if dtype == np.uint8:
        stack = rng.integers(0, 256, (3,) + shape).astype(dtype)
    else:
        stack = rng.random((3,) + shape).astype(dtype)
    out_h, out_w = shape[0] + 2, shape[1] + 3
    for t in WARP_TRANSFORMS:
        out, valid = warp_array(stack, t, out_w, out_h)
        assert out.shape == (3, out_h, out_w)
        for plane, o in zip(stack, out):
            exp, exp_valid = warp_array(plane, t, out_w, out_h)
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


def test_prepare_views_warps_each_view_once_through_the_module(monkeypatch):
    # the benchmark's trace counts warp_array by name and reads the output
    # size from its positional arguments 2 and 3
    calls = []
    warp = image_module.warp_array

    def counting(*args, **kwargs):
        calls.append((args, kwargs))
        return warp(*args, **kwargs)

    scene = generate(two_view_phantom(0))
    monkeypatch.setattr(image_module, "warp_array", counting)
    warped = prepare_views([ViewInput(v.image, v.to_common) for v in scene.views],
                           192, 192)
    assert any(w.boundary_mask.any() for w in warped)  # masks were detected
    assert len(calls) == 2
    for (data, transform, width, height), kwargs in calls:
        assert kwargs == {}
        assert data.shape == (3, 192, 192)
        assert isinstance(transform, RigidTransform2D)
        assert (width, height) == (192, 192)


_MASK_VALUES = {np.bool_: True, np.float32: 0.7, np.float64: 0.7,
                np.uint16: 256}


@given(src_h=st.integers(1, 30), src_w=st.integers(1, 30),
       out_h=st.integers(1, 40), out_w=st.integers(1, 40),
       dtype=st.sampled_from(list(_MASK_VALUES)),
       density=st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),
       rotation=st.one_of(_SPECIAL_ROTATIONS, st.floats(-7.0, 7.0)),
       dx=st.floats(-40, 40), dy=st.floats(-40, 40),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_warped_mask_is_the_bilinear_warp_of_its_indicator(
        src_h, src_w, out_h, out_w, dtype, density, rotation, dx, dy, seed):
    rng = np.random.default_rng(seed)
    shape = (src_h, src_w)
    mask = np.where(rng.random(shape) < density, _MASK_VALUES[dtype],
                    0).astype(dtype)
    if dtype in (np.float32, np.float64):
        mask[rng.random(shape) < 0.3] = -0.0  # a signed zero is no boundary
    t = RigidTransform2D(rotation, dx, dy)
    warped = warp_to_common(ViewInput(Image(np.zeros(shape)), t,
                                      boundary_mask=mask), out_w, out_h)
    m = warped.boundary_mask
    expected, valid = fancy_index_warp(mask != 0, t, out_w, out_h)
    assert m.dtype == np.float32 and np.array_equal(m, expected)
    assert np.array_equal(warped.validity, valid)
    assert m.min() >= 0.0 and m.max() <= 1.0
    assert np.all(m[~valid] == 0.0)

    # Where the four bilinear taps agree, the weight is the old nearest
    # label exactly.
    sx, sy, _ = _source_coords(t, out_w, out_h, src_w, src_h)
    x0 = np.clip(np.floor(sx), 0, max(src_w - 2, 0)).astype(np.intp)
    y0 = np.clip(np.floor(sy), 0, max(src_h - 2, 0)).astype(np.intp)
    x1, y1 = np.minimum(x0 + 1, src_w - 1), np.minimum(y0 + 1, src_h - 1)
    b = mask != 0
    taps = [b[y0, x0], b[y0, x1], b[y1, x0], b[y1, x1]]
    agree = ~valid | np.all(taps == taps[0], axis=0)
    nearest = nearest_mask_warp(mask, t, out_w, out_h)
    assert np.array_equal(m[agree], nearest[agree].astype(np.float32))


_WARP_DTYPES = [np.float32, np.float64, np.uint8, np.bool_]


def _warp_source(seed, shape, dtype):
    """Random planes of `dtype`; floats are signed and about a quarter of
    them are zeros of either sign, so the sign of a zero output is tested."""
    rng = np.random.default_rng(seed)
    if dtype == np.bool_:
        return rng.random(shape) < 0.5
    if dtype == np.uint8:
        return rng.integers(0, 256, shape, dtype=np.uint8)
    a = (rng.random(shape) * 2 - 1).astype(dtype)
    a[rng.random(shape) < 0.2] = 0.0
    a[rng.random(shape) < 0.1] = -0.0
    return a


@given(src_h=st.integers(1, 40), src_w=st.integers(1, 40),
       out_h=st.integers(1, 70), out_w=st.integers(1, 70),
       batch=st.lists(st.integers(1, 3), max_size=2),
       dtype=st.sampled_from(_WARP_DTYPES),
       rotation=st.one_of(_SPECIAL_ROTATIONS, st.floats(-7.0, 7.0)),
       dx=st.one_of(st.sampled_from([0.0, -0.0, -90.0, 150.0]),
                    st.floats(-120, 120)),
       dy=st.one_of(st.sampled_from([0.0, -0.0, 90.0, -150.0]),
                    st.floats(-120, 120)),
       block=st.sampled_from([1, 7, 64, image_module._BLOCK_PIXELS]),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=400, deadline=None)
def test_warp_equals_fancy_index_oracle(src_h, src_w, out_h, out_w, batch,
                                        dtype, rotation, dx, dy, block, seed):
    src = _warp_source(seed, tuple(batch) + (src_h, src_w), dtype)
    t = RigidTransform2D(rotation, dx, dy)
    expected, expected_valid = fancy_index_warp(src, t, out_w, out_h)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(image_module, "_BLOCK_PIXELS", block)
        out, valid = warp_array(src, t, out_w, out_h)
    assert out.dtype == expected.dtype and out.shape == expected.shape
    assert np.array_equal(out, expected)
    assert np.array_equal(np.signbit(out), np.signbit(expected))
    assert valid.dtype == bool and np.array_equal(valid, expected_valid)


def test_clamping_keeps_the_sign_of_a_zero_source_coordinate():
    # At rotation -pi, output pixel (0, 0) samples source x = -0.0, so its
    # x weight is -0.0 and the four signed-zero products sum to -0.0.
    src = np.array([[-0.0, 1.0], [-0.0, 1.0]], dtype=np.float32)
    t = RigidTransform2D(-math.pi)
    out, valid = warp_array(src, t, 2, 2)
    expected, _ = fancy_index_warp(src, t, 2, 2)
    assert valid[0, 0] and np.signbit(expected[0, 0])
    assert np.signbit(out[0, 0])


@pytest.mark.parametrize("name", ["rotation", "dx", "dy"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf,
                                 pytest.param(10**400, id="401-digit")])
def test_transform_rejects_a_non_finite_field_by_name(name, bad):
    # A NaN or infinite shift warped with a cast warning and then an
    # IndexError; an infinite rotation raised "math domain error"; an
    # integer too large for a float raised OverflowError.
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        RigidTransform2D(**{name: bad})


@pytest.mark.parametrize("name", ["rotation", "dx", "dy"])
@pytest.mark.parametrize("bad", ["0.5", None, True, [1.0]])
def test_transform_rejects_a_non_number_by_name(name, bad):
    # A string rotation raised a bare TypeError from math.cos.
    with pytest.raises(ValueError, match=f"{name} must be a number"):
        RigidTransform2D(**{name: bad})
    RigidTransform2D(**{name: np.float32(0.5)})


_FAR = [1e300, -1e300, 1.7e308, -1.7e308]


@pytest.mark.parametrize("rotation", [0.0, 0.7, math.pi / 2, 3.0])
def test_finite_transform_far_off_the_frame_is_invalid_without_warning(
        rng, rotation):
    src = rng.random((9, 11)) + 0.5
    for dx, dy in itertools.product(_FAR, repeat=2):
        t = RigidTransform2D(rotation, dx, dy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, valid = warp_array(src, t, 12, 10)
        assert not valid.any(), (dx, dy)
        assert np.array_equal(out, np.zeros((10, 12)))
        assert not np.signbit(out).any()


@pytest.mark.parametrize("rotation", [0.0, 0.7, math.pi / 2, 3.0])
def test_view_far_off_the_frame_warps_to_empty_maps_without_warning(
        rng, rotation):
    shape = (9, 11)
    maps = {"intensity_confidence": rng.random(shape, dtype=np.float32),
            "structural_confidence": rng.random(shape),
            "boundary_mask": np.ones(shape, dtype=bool)}
    for dx, dy in itertools.product(_FAR, repeat=2):
        view = ViewInput(Image(rng.random(shape)),
                         RigidTransform2D(rotation, dx, dy), **maps)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            warped = warp_to_common(view, 12, 10)
        assert not warped.validity.any(), (dx, dy)
        for name in ("image", *maps):
            a = getattr(warped, name)
            assert a.dtype == np.float32, name
            assert np.array_equal(a, np.zeros((10, 12))), name
            assert not np.signbit(a).any(), name


def _traced_peak_mib(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


# The bound is the output and validity plus about one block's working set;
# the whole-frame warp peaked at 22.25 MiB on this call.
def test_bilinear_warp_memory_is_bounded_by_a_block(rng):
    stack = rng.random((2, 512, 512), dtype=np.float32)
    t = RigidTransform2D(math.pi / 2, dx=511.0)
    # 2 MiB output and 0.25 MiB validity leave 2.25 MiB for working memory.
    assert _traced_peak_mib(lambda: warp_array(stack, t, 512, 512)) <= 4.5


# One call per view: the stacked input and the output are whole frames, the
# rest is one block.  The peak was 10.02 MiB on this call.
def test_warp_to_common_memory_is_bounded_by_its_stack_and_a_block(rng):
    shape = (512, 512)
    view = ViewInput(Image(rng.random(shape, dtype=np.float32)),
                     RigidTransform2D(math.pi / 2, dx=511.0),
                     intensity_confidence=rng.random(shape, dtype=np.float32),
                     structural_confidence=rng.random(shape, dtype=np.float32),
                     boundary_mask=rng.random(shape) > 0.5)
    # A 4 MiB float32 stack, its 4 MiB output, 0.25 MiB each for the mask's
    # indicator and the validity leave 2.25 MiB for working memory.
    assert _traced_peak_mib(lambda: warp_to_common(view, 512, 512)) <= 10.75
