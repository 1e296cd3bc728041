import importlib
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uscompound import blocks
from uscompound.compound import prepare_views
from uscompound.errors import DimensionError, RangeError
from uscompound.image import (Image, RigidTransform2D, ViewInput, WarpedView,
                              warp_array, warp_to_common)
from uscompound.phantom import generate

from conftest import scene_view_inputs, traced_peak_mib, two_view_phantom

# The package's `compound` attribute is the function, not the module.
compound_module = importlib.import_module("uscompound.compound")
image_module = importlib.import_module("uscompound.image")


def brute_force_warp(src, transform, out_w, out_h):
    """Independent scalar inverse-map oracle over all output pixels; a
    grid-aligned transform takes each source sample exactly."""
    h, w = src.shape
    aligned = _source_coords(transform, out_w, out_h, w, h)[3]
    out = np.zeros((out_h, out_w))
    valid = np.zeros((out_h, out_w), dtype=bool)
    for y in range(out_h):
        for x in range(out_w):
            sx, sy = transform.inverse_apply(float(x), float(y))
            if aligned:
                sx, sy = round(sx), round(sy)
            if not (0 <= sx <= w - 1 and 0 <= sy <= h - 1):
                continue
            valid[y, x] = True
            if aligned:
                out[y, x] = src[sy, sx]
                continue
            x0 = min(int(math.floor(sx)), w - 2) if w > 1 else 0
            y0 = min(int(math.floor(sy)), h - 2) if h > 1 else 0
            fx, fy = sx - x0, sy - y0
            out[y, x] = (src[y0, x0] * (1 - fx) * (1 - fy)
                         + src[y0, x0 + 1] * fx * (1 - fy)
                         + src[y0 + 1, x0] * (1 - fx) * fy
                         + src[y0 + 1, x0 + 1] * fx * fy)
    return out, valid


def _source_coords(transform, out_width, out_height, w, h):
    """(sx, sy, valid, aligned): every output pixel's source position and
    validity, and whether the transform is grid-aligned.  It is when every
    position lies within 1e-9 px of a source pixel (for a rigid map, of a
    quarter turn plus a whole-pixel shift); the positions are then those
    pixels, and a pixel is valid iff its pixel lies in the source grid."""
    sx, sy = transform.inverse_apply(np.arange(out_width, dtype=np.float64),
                                     np.arange(out_height, dtype=np.float64)[:, None])
    rx, ry = np.rint(sx), np.rint(sy)
    aligned = bool(np.all(abs(sx - rx) <= 1e-9) and np.all(abs(sy - ry) <= 1e-9))
    if aligned:
        sx, sy = rx, ry
    valid = (sx >= 0.0) & (sx <= w - 1.0) & (sy >= 0.0) & (sy <= h - 1.0)
    return sx, sy, valid, aligned


def fancy_index_warp(data, transform, out_width, out_height):
    """Oracle: the whole-frame warp.  A grid-aligned transform takes each
    valid pixel's source sample exactly; any other gathers each tap of each
    plane with 2-D fancy indexing and sums the products in the library's
    order."""
    src = np.asarray(data)
    h, w = src.shape[-2:]
    sx, sy, valid, aligned = _source_coords(transform, out_width, out_height, w, h)
    out = np.zeros(src.shape[:-2] + (out_height, out_width), dtype=np.float32)
    planes = src.reshape((-1, h, w))
    outs = out.reshape((-1, out_height, out_width))
    if aligned:
        iy, ix = sy[valid].astype(np.intp), sx[valid].astype(np.intp)
        for p, o in zip(planes, outs):
            o[valid] = p[iy, ix]
        return out, valid
    x0 = np.clip(np.floor(sx).astype(np.intp), 0, max(w - 2, 0))
    y0 = np.clip(np.floor(sy).astype(np.intp), 0, max(h - 2, 0))
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = np.subtract(sx, x0, out=sx)
    fy = np.subtract(sy, y0, out=sy)
    for p, o in zip(planes, outs):
        vals = (p[y0, x0] * (1 - fx) * (1 - fy) + p[y0, x1] * fx * (1 - fy)
                + p[y1, x0] * (1 - fx) * fy + p[y1, x1] * fx * fy)
        np.copyto(o, vals, where=valid)
    return out, valid


def nearest_mask_warp(mask, transform, out_width, out_height):
    """Oracle: the nearest-neighbour mask warp the library used before the
    mask joined the bilinear stack; any nonzero value is True."""
    h, w = mask.shape
    sx, sy, valid, _ = _source_coords(transform, out_width, out_height, w, h)
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
    # a common frame wider and taller than the views, so neither sees all of
    # it (each view's warp is a pixel copy, whose valid pixels are exactly
    # those its frame covers)
    warped = prepare_views(views, 200, 196)
    monkeypatch.setattr(compound_module, "warp_to_common",
                        per_map_warp_to_common)
    expected = prepare_views(views, 200, 196)
    assert not any(v.validity.all() for v in warped)
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
        # the image and its two maps, as their own planes
        assert [np.shape(plane) for plane in data] == [(192, 192)] * 3
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
    sx, sy, _, _ = _source_coords(t, out_w, out_h, src_w, src_h)
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
    if np.issubdtype(dtype, np.integer):
        return rng.integers(0, np.iinfo(dtype).max + 1, shape, dtype=dtype)
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
       block=st.sampled_from([1, 7, 64, blocks.BLOCK_PIXELS]),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=400, deadline=None)
def test_warp_equals_fancy_index_oracle(src_h, src_w, out_h, out_w, batch,
                                        dtype, rotation, dx, dy, block, seed):
    src = _warp_source(seed, tuple(batch) + (src_h, src_w), dtype)
    t = RigidTransform2D(rotation, dx, dy)
    expected, expected_valid = fancy_index_warp(src, t, out_w, out_h)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(blocks, "BLOCK_PIXELS", block)
        out, valid = warp_array(src, t, out_w, out_h)
    assert out.dtype == expected.dtype and out.shape == expected.shape
    assert np.array_equal(out, expected)
    assert np.array_equal(np.signbit(out), np.signbit(expected))
    assert valid.dtype == bool and np.array_equal(valid, expected_valid)


@given(src_h=st.integers(1, 30), src_w=st.integers(1, 30),
       out_h=st.integers(1, 40), out_w=st.integers(1, 40),
       dtypes=st.lists(st.sampled_from(_WARP_DTYPES), min_size=1, max_size=4),
       rotation=st.one_of(_SPECIAL_ROTATIONS, st.floats(-7.0, 7.0)),
       dx=st.floats(-60, 60), dy=st.floats(-60, 60),
       block=st.sampled_from([1, 7, blocks.BLOCK_PIXELS]),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_warp_of_planes_equals_warp_of_their_stack(src_h, src_w, out_h, out_w,
                                                   dtypes, rotation, dx, dy,
                                                   block, seed):
    # A sequence of planes, of mixed dtypes (a bool mask beside float32 and
    # float64 maps), is read plane by plane and gives the bytes of its
    # stack, in which np.stack promotes every plane to one dtype.
    planes = [_warp_source(seed + i, (src_h, src_w), dtype)
              for i, dtype in enumerate(dtypes)]
    stack = np.stack(planes)
    t = RigidTransform2D(rotation, dx, dy)
    expected, expected_valid = fancy_index_warp(stack, t, out_w, out_h)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(blocks, "BLOCK_PIXELS", block)
        out, valid = warp_array(planes, t, out_w, out_h)
        stacked, stacked_valid = warp_array(stack, t, out_w, out_h)
    for got, got_valid in ((out, valid), (stacked, stacked_valid)):
        assert got.dtype == np.float32 and got.shape == expected.shape
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))
        assert np.array_equal(got_valid, expected_valid)


@pytest.mark.parametrize("data,message", [
    ([np.zeros((4, 5)), np.zeros((4, 6))], "share one shape"),
    ([np.zeros((4, 5)), np.zeros((2, 4, 5))], "must be 2-D"),
    ([], "has no planes"),
    (np.zeros(5), "at least 2-D"),
])
def test_warp_of_unequal_planes_raises_dimension_error(data, message):
    # not numpy's "inhomogeneous shape" ValueError from stacking them
    with pytest.raises(DimensionError, match=message):
        warp_array(data, RigidTransform2D(), 5, 4)


def test_warp_reads_strided_planes(rng):
    # planes that are not contiguous give the bytes of their contiguous stack
    a = rng.random((7, 9, 2))
    out, _ = warp_array([a[..., 0], a[..., 1]], RigidTransform2D(0.3), 9, 7)
    expected, _ = warp_array(np.moveaxis(a, -1, 0).copy(), RigidTransform2D(0.3),
                             9, 7)
    assert np.array_equal(out, expected)


def test_clamping_keeps_the_sign_of_a_zero_source_coordinate():
    # At rotation -pi, output pixel (0, 0) samples source x = -0.0, so its
    # x weight is -0.0 and the four signed-zero products sum to -0.0.
    src = np.array([[-0.0, 1.0], [-0.0, 1.0]], dtype=np.float32)
    t = RigidTransform2D(-math.pi)
    out, valid = warp_array(src, t, 2, 2)
    expected, _ = fancy_index_warp(src, t, 2, 2)
    assert valid[0, 0] and np.signbit(expected[0, 0])
    assert np.signbit(out[0, 0])


@pytest.mark.parametrize("rotation,axis", [(-math.pi, 1), (math.pi, 0)])
@pytest.mark.parametrize("shape", [(2, 3), (5, 6)])
def test_a_floored_signed_zero_coordinate_keeps_its_weight_sign(rotation, axis,
                                                                shape):
    # At rotation -pi, output pixel (0, 0) samples source x = -0.0, and at
    # rotation pi source y = -0.0, so that axis's weight is -0.0; with the
    # taps beyond the corner on that axis +1 and the others -0.0, the four
    # products sum to -0.0.  A corner floored to -0.0 would make it +0.0.
    src = np.full(shape, -0.0, dtype=np.float32)
    src[(slice(None), 1) if axis else 1] = 1.0
    t = RigidTransform2D(rotation)
    out, valid = warp_array(src, t, shape[1], shape[0])
    expected, _ = fancy_index_warp(src, t, shape[1], shape[0])
    assert valid[0, 0] and expected[0, 0] == 0 and np.signbit(expected[0, 0])
    assert np.array_equal(np.signbit(out), np.signbit(expected))
    assert np.array_equal(out, expected)


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


# The bound is the output and validity plus about one block's working set;
# the whole-frame warp peaked at 22.25 MiB on this call, and the blocked one
# at 3.76 MiB while it built three tap-index arrays per block (3.33 without).
# The transform is half a pixel off the quarter turn those peaks were
# measured on, so it is sampled bilinearly, as they were.
def test_bilinear_warp_memory_is_bounded_by_a_block(rng):
    stack = rng.random((2, 512, 512), dtype=np.float32)
    t = RigidTransform2D(math.pi / 2, dx=511.5)
    # 2 MiB output and 0.25 MiB validity leave 1.25 MiB for working memory.
    assert traced_peak_mib(lambda: warp_array(stack, t, 512, 512)) <= 3.5


def _full_view(rng, transform, shape=(512, 512)):
    return ViewInput(Image(rng.random(shape, dtype=np.float32)), transform,
                     intensity_confidence=rng.random(shape, dtype=np.float32),
                     structural_confidence=rng.random(shape, dtype=np.float32),
                     boundary_mask=rng.random(shape) > 0.5)


# One call per view, which reads the image and maps as given: the output is
# whole frames, the rest is one block.  The peak was 10.02 MiB on this call
# when the planes were stacked first, 6.01 MiB without the stack, and is
# 5.58 MiB without the three tap-index arrays (on the quarter turn, which
# the half-pixel shift keeps on the bilinear path).
def test_warp_to_common_memory_is_bounded_by_its_output_and_a_block(rng):
    view = _full_view(rng, RigidTransform2D(math.pi / 2, dx=511.5))
    # The 4 MiB output and 0.25 MiB each for the mask's indicator and the
    # validity leave 1.25 MiB for working memory.
    assert traced_peak_mib(lambda: warp_to_common(view, 512, 512)) <= 5.75


# A grid-aligned warp is a pixel copy, which holds nothing beyond the
# output, the mask's indicator and the validity (4.50 MiB for the identity
# and the quarter turn alike).  The identity peaked at 6.02 MiB when it was
# gathered and at 5.02 MiB while whole-pixel shifts summed one block of
# float64 products; the quarter turn, gathered, at 5.58 MiB.
def test_identity_warp_to_common_memory_is_bounded(rng):
    for transform in (RigidTransform2D(), RigidTransform2D(math.pi / 2, dx=511.0)):
        view = _full_view(rng, transform)
        assert traced_peak_mib(lambda: warp_to_common(view, 512, 512)) <= 4.6


# The quarter turn of a stack copies it: the 2 MiB output and the 0.25 MiB
# validity (2.25 MiB).
def test_quarter_turn_warp_memory_is_its_output(rng):
    stack = rng.random((2, 512, 512), dtype=np.float32)
    t = RigidTransform2D(math.pi / 2, dx=511.0)
    assert traced_peak_mib(lambda: warp_array(stack, t, 512, 512)) <= 2.3


# ---------------------------------------------------------------------------
# The grid-aligned path: quarter turns plus whole-pixel shifts
# ---------------------------------------------------------------------------

# (source shape, output shape): one-pixel source axes, and outputs larger and
# smaller than the source
_SHIFT_SHAPES = [((1, 1), (3, 3)), ((1, 7), (4, 9)), ((7, 1), (9, 3)),
                 ((9, 11), (14, 17)), ((9, 11), (5, 6))]


_SHIFTS_INSIDE = [RigidTransform2D(), RigidTransform2D(-0.0, -0.0, -0.0),
                  RigidTransform2D(dx=3.0, dy=-2.0), RigidTransform2D(dx=-5, dy=7)]


def _shifts_outside(h, w, out_h, out_w):
    """Shifts that put the whole output off the source: at its size, and
    beyond it on both axes."""
    return [RigidTransform2D(dx=-float(w)), RigidTransform2D(dy=-float(h)),
            RigidTransform2D(dx=float(out_w), dy=0.0),
            RigidTransform2D(dx=float(out_w + 4), dy=-float(h + 6)),
            RigidTransform2D(dx=1e300, dy=-1e300)]


@pytest.mark.parametrize("batch", [(), (2,)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.uint16, np.bool_])
@pytest.mark.parametrize("block", [1, blocks.BLOCK_PIXELS])
def test_integer_shift_equals_fancy_index_oracle(monkeypatch, dtype, batch,
                                                 block):
    monkeypatch.setattr(blocks, "BLOCK_PIXELS", block)
    for seed, ((h, w), (out_h, out_w)) in enumerate(_SHIFT_SHAPES):
        src = _warp_source(seed, batch + (h, w), dtype)
        for t in _SHIFTS_INSIDE:
            out, valid = warp_array(src, t, out_w, out_h)
            expected, expected_valid = fancy_index_warp(src, t, out_w, out_h)
            assert out.dtype == np.float32 and out.shape == expected.shape
            assert np.array_equal(out, expected), t
            assert np.array_equal(np.signbit(out), np.signbit(expected)), t
            assert np.array_equal(valid, expected_valid), t
        for t in _shifts_outside(h, w, out_h, out_w):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out, valid = warp_array(src, t, out_w, out_h)
            assert not valid.any(), t
            assert np.array_equal(out, np.zeros(batch + (out_h, out_w))), t
            assert not np.signbit(out).any(), t


def _quarter_turn(k, h, w, top, left):
    """The transform whose warp of an (h, w) source samples
    np.rot90(src, k)[y + top, x + left] at output pixel (x, y).

    np.rot90(src, k), of shape (H', W'), puts source pixel (sx, sy) at
    (row, column) (sy, sx) for k = 0, (w-1-sx, sy) for k = 1,
    (h-1-sy, w-1-sx) for k = 2 and (sx, h-1-sy) for k = 3; the transform
    takes it to common pixel (column - left, row - top).
    """
    rotation, dx, dy = {0: (0.0, 0, 0), 1: (-math.pi / 2, 0, w - 1),
                        2: (math.pi, w - 1, h - 1), 3: (math.pi / 2, h - 1, 0)}[k]
    return rotation, float(dx - left), float(dy - top)


def _rotated_and_shifted(planes, k, top, left, out_h, out_w):
    """Each plane's np.rot90(plane, k), shifted by (top, left) into a float32
    (out_h, out_w) frame, and the rectangle it covers."""
    turned = [np.rot90(p, k) for p in planes]
    rows, cols = np.arange(out_h) + top, np.arange(out_w) + left
    rows_in = np.flatnonzero((rows >= 0) & (rows < turned[0].shape[0]))
    cols_in = np.flatnonzero((cols >= 0) & (cols < turned[0].shape[1]))
    rect = np.ix_(rows_in, cols_in)
    out = np.zeros((len(planes), out_h, out_w), dtype=np.float32)
    for r, o in zip(turned, out):
        o[rect] = r[np.ix_(rows[rows_in], cols[cols_in])]
    valid = np.zeros((out_h, out_w), dtype=bool)
    valid[rect] = True
    return out, valid


def _special_source(seed, shape, dtype):
    """`_warp_source` planes with NaNs, infinities and zeros of both signs."""
    a = _warp_source(seed, shape, dtype)
    if dtype != np.bool_:
        rng = np.random.default_rng(seed + 1)
        for value in (np.nan, -np.nan, np.inf, -np.inf, -0.0):
            a[rng.random(shape) < 0.05] = value
    return a


_TURN_DTYPES = [np.float32, np.float64, np.bool_]


@given(k=st.integers(0, 3), turns=st.integers(-1, 1),
       src_h=st.integers(1, 12), src_w=st.integers(1, 12),
       out_h=st.integers(1, 16), out_w=st.integers(1, 16),
       top=st.integers(-20, 20), left=st.integers(-20, 20),
       dtypes=st.lists(st.sampled_from(_TURN_DTYPES), min_size=1, max_size=3),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_grid_aligned_warp_is_the_rotated_source_shifted(
        k, turns, src_h, src_w, out_h, out_w, top, left, dtypes, seed):
    # Bit for bit, signs of zeros, NaNs and infinities included, for a plane
    # sequence of mixed dtypes and for its stack; the offsets reach past the
    # source on every side, and the rotation may carry a whole turn.
    planes = [_special_source(seed + i, (src_h, src_w), dtype)
              for i, dtype in enumerate(dtypes)]
    rotation, dx, dy = _quarter_turn(k, src_h, src_w, top, left)
    t = RigidTransform2D(rotation + 2 * math.pi * turns, dx, dy)
    expected, expected_valid = _rotated_and_shifted(planes, k, top, left,
                                                    out_h, out_w)
    for data in (planes, np.stack(planes)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, valid = warp_array(data, t, out_w, out_h)
        assert out.dtype == np.float32 and out.shape == expected.shape
        assert out.tobytes() == expected.tobytes()
        assert np.array_equal(valid, expected_valid)
    oracle, oracle_valid = fancy_index_warp(np.stack(planes), t, out_w, out_h)
    assert oracle.tobytes() == expected.tobytes()
    assert np.array_equal(oracle_valid, expected_valid)


def _general_warp(monkeypatch, data, transform, out_width, out_height):
    """`warp_array` made to take the general (gathering) path."""
    with monkeypatch.context() as mp:
        mp.setattr(image_module, "_grid_aligned", lambda *args: None)
        return warp_array(data, transform, out_width, out_height)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_integer_shift_equals_the_general_path_on_signed_zeros_and_infinities(
        monkeypatch, dtype):
    # -0.0 regions, +-0.0 next to each other, and +-inf taps.  The general
    # path sums four weighted taps: where the weight-1 tap is nonzero, inf
    # included, and no zero-weight tap is infinite, that sum is the sample
    # itself, and the copy must give the same bytes.  Elsewhere the sum
    # carries artefacts of the zero-weight taps (the NaN of inf * 0, and
    # +0.0 for a -0.0 sample next to a positive one), which the copy, by
    # design, does not: it gives the source sample, sign of zero included.
    rng = np.random.default_rng(7)
    src = rng.random((2, 13, 15)).astype(dtype)
    src[:, 2:6, 3:9] = -0.0
    src[0, 8:, :4] = 0.0
    src[0, 8:, 2] = -0.0
    src[0, 4, 10] = np.inf
    src[1, 10, 14] = -np.inf
    src[1, 12, 0] = np.inf
    src[0, 0, 14] = -np.inf
    for t in [RigidTransform2D(), RigidTransform2D(dx=2.0, dy=-1.0),
              RigidTransform2D(-0.0, dx=-3.0, dy=4.0)]:
        for out_w, out_h in [(15, 13), (19, 10)]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out, valid = warp_array(src, t, out_w, out_h)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # inf * 0
                general, general_valid = _general_warp(monkeypatch, src, t,
                                                       out_w, out_h)
            sample, _ = fancy_index_warp(src, t, out_w, out_h)
            assert np.isnan(general).any() and np.isinf(general).any()
            assert (np.signbit(general) & (general == 0)).any()
            assert np.array_equal(valid, general_valid), t
            same = ~np.isnan(general) & (general != 0)
            assert same.any() and np.isinf(out[same]).any(), t
            assert out[same].tobytes() == general[same].tobytes(), t
            # where the general path shows an artefact, the copy is the sample
            assert not np.isnan(out).any(), t
            assert np.array_equal(out[general == 0], general[general == 0]), t
            assert out[~same].tobytes() == sample[~same].tobytes(), t
            assert (np.signbit(out) & (out == 0)
                    & ~np.signbit(general)).any(), t


def test_integer_shift_never_resamples(monkeypatch, rng):
    def resample(*args):
        raise AssertionError("an integer shift took the gathering path")

    monkeypatch.setattr(image_module, "_resample_block", resample)
    src = rng.random((2, 9, 11))
    for t in _SHIFTS_INSIDE + [RigidTransform2D(dx=1e300)]:
        warp_array(src, t, 12, 10)
    warp_to_common(ViewInput(Image(src[0]), boundary_mask=src[1] > 0.5), 11, 9)


@pytest.mark.parametrize("rotation", [0.0, -0.0, math.pi / 2, -math.pi / 2,
                                      math.pi, 2 * math.pi, 1e-300, 1e-12])
def test_quarter_turns_never_resample(monkeypatch, rng, rotation):
    def resample(*args):
        raise AssertionError("a grid-aligned warp took the gathering path")

    monkeypatch.setattr(image_module, "_resample_block", resample)
    src = rng.random((2, 9, 11))
    # within the 1e-9 px tolerance: 1e-12 rad moves a corner by 1.3e-11 px
    for dx, dy in [(0.0, 0.0), (10.0, 0.0), (-3.0, 8.0), (1e300, 0.0),
                   (5.0 + 1e-10, -1e-10)]:
        t = RigidTransform2D(rotation, dx, dy)
        out, valid = warp_array(src, t, 12, 10)
        expected, expected_valid = fancy_index_warp(src, t, 12, 10)
        assert np.array_equal(out, expected), t
        assert np.array_equal(valid, expected_valid), t


# Each is off the grid by well over 1e-9 px, the last two by 1e-6 px at
# most.
@pytest.mark.parametrize("transform", [RigidTransform2D(rotation=0.3),
                                       RigidTransform2D(dx=0.5),
                                       RigidTransform2D(dy=-2.25),
                                       RigidTransform2D(math.pi / 2, dx=0.5),
                                       RigidTransform2D(dx=1e-6),
                                       RigidTransform2D(rotation=1e-7)])
def test_other_transforms_take_the_general_path(monkeypatch, rng, transform):
    calls = []
    resample = image_module._resample_block

    def counting(*args):
        calls.append(args)
        return resample(*args)

    monkeypatch.setattr(image_module, "_resample_block", counting)
    src = rng.random((9, 11))
    out, valid = warp_array(src, transform, 11, 9)
    assert calls
    expected, expected_valid = fancy_index_warp(src, transform, 11, 9)
    assert np.array_equal(out, expected) and np.array_equal(valid, expected_valid)
