import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import traced_peak_mib
from uscompound import blocks
from uscompound.errors import DimensionError
from uscompound.pyramid import (_reduce, collapse, expand_blocks,
                                gaussian_pyramid, laplacian_pyramid,
                                layer_shapes, partial_collapse, upsample)

# Python floats, as the library's taps, so each product keeps the dtype of
# the array it multiplies.
KERNEL = [1.0 / 16.0, 4.0 / 16.0, 6.0 / 16.0, 4.0 / 16.0, 1.0 / 16.0]


def layer_dtype(*arrays):
    """The dtype the pyramid and the per-layer helpers compute in from
    `arrays`: float32 from bool and float32, float64 from float64."""
    return np.result_type(*(np.asarray(a).dtype for a in arrays), np.float32)


def blur_oracle(a):
    """The 5-tap separable blur with reflect-101 borders at every pixel, in
    the dtype of `a`, each sum started from 0."""
    h, w = a.shape[-2:]
    p = np.pad(a, [(0, 0)] * (a.ndim - 2) + [(2, 2), (2, 2)], mode="reflect")
    horiz = sum(k * p[..., i:i + w] for i, k in enumerate(KERNEL))
    return sum(k * horiz[..., i:i + h, :] for i, k in enumerate(KERNEL))


def reduce_oracle(a):
    """Blur every pixel, then keep the even rows and columns."""
    return blur_oracle(np.asarray(a, dtype=layer_dtype(a)))[..., ::2, ::2]


def upsample_oracle(a, target_shape):
    """Zero-insert to the full target size, then blur it all with the
    x4-scaled kernel."""
    th, tw = target_shape[-2:]
    z = np.zeros(a.shape[:-2] + (th, tw), dtype=layer_dtype(a))
    z[..., ::2, ::2] = a
    return blur_oracle(z) * 4.0


def same_bits(x, y):
    """Equal shape, dtype and values, signed zeros included."""
    return (x.shape == y.shape and x.dtype == y.dtype and np.array_equal(x, y)
            and np.array_equal(np.signbit(x), np.signbit(y)))


def _values(width):
    """Floats of `width` bits; both signed zeros are drawn often, so that a
    sign flip would show."""
    return st.sampled_from([0.0, -0.0]) | st.floats(-2.0, 2.0, width=width)


@st.composite
def batched_grids(draw, axis=st.integers(2, 64)):
    """float32 or float64 with signed zeros, or bool as the validity pyramid
    gets, with 0-2 leading batch axes."""
    shape = (tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
             + (draw(axis), draw(axis)))
    if draw(st.booleans()):
        return draw(arrays(bool, shape))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    return draw(arrays(dtype, shape,
                       elements=_values(8 * np.dtype(dtype).itemsize)))


@given(batched_grids())
@settings(max_examples=60, deadline=None)
def test_pyramid_matches_full_blur_oracles(a):
    levels = min(a.shape[-2:]).bit_length()   # the deepest pyramid that fits
    g = gaussian_pyramid(a, levels)
    assert g[0] is a          # layer 1 is the input as given
    assert all(layer.dtype == layer_dtype(a) for layer in g[1:])
    for fine, coarse in zip(g, g[1:]):
        assert same_bits(coarse, reduce_oracle(fine))
        assert same_bits(upsample(coarse, fine.shape),
                         upsample_oracle(coarse, fine.shape))


# The dtype of every coarser layer for each input dtype drawn below:
# np.result_type(input, np.float32).
_LAYER_DTYPES = {np.float32: np.float32, np.float64: np.float64,
                 bool: np.float32, np.uint8: np.float32,
                 np.int64: np.float64, np.float16: np.float32}


@pytest.mark.parametrize("dtype", list(_LAYER_DTYPES))
def test_layer_1_is_kept_only_for_float_and_bool_inputs(rng, dtype):
    # REDUCE reads every block in the layers' dtype, exactly, so a float32,
    # float64 or bool layer 1 needs no copy; any other dtype is converted to
    # the layers' dtype: uint8 and float16 to float32, int64 to float64
    want = _LAYER_DTYPES[dtype]
    a = (rng.random((2, 12, 10)) * 3).astype(dtype)
    g = gaussian_pyramid(a, 3)
    if dtype in (np.float32, np.float64, bool):
        assert g[0] is a
    else:
        assert same_bits(g[0], a.astype(want))
    assert all(layer.dtype == want for layer in g[1:])
    for fine, coarse in zip(g, g[1:]):
        assert same_bits(coarse, reduce_oracle(fine))
    assert all(same_bits(x, y) for x, y in
               zip(g[1:], gaussian_pyramid(a.astype(want), 3)[1:]))


@pytest.mark.parametrize("dtype,want", [
    (np.float32, np.float32), (bool, np.float32), (np.float64, np.float64)])
def test_every_layer_takes_the_dtype_of_its_inputs(rng, dtype, want):
    a = (rng.random((2, 33, 47)) * 2).astype(dtype)
    g = gaussian_pyramid(a, 4)
    lap = laplacian_pyramid(g)
    assert [layer.dtype for layer in g[1:]] == [want] * 3
    assert [layer.dtype for layer in lap] == [want] * 4
    assert [partial_collapse(lap, k).dtype for k in range(1, 5)] == [want] * 4
    assert collapse(lap).dtype == want
    # float64 asked for: the coarser layers are float64, layer 1 is as given
    g64 = gaussian_pyramid(a, 4, np.float64)
    assert g64[0] is a and [layer.dtype for layer in g64[1:]] == [np.float64] * 3
    # one float64 layer in a chain makes what is computed from it float64
    mixed = lap[:-1] + [lap[-1].astype(np.float64)]
    assert partial_collapse(mixed, 1).dtype == np.float64
    assert laplacian_pyramid(mixed)[0].dtype == np.float64


@given(batched_grids(axis=st.integers(1, 32)), st.integers(0, 1),
       st.integers(0, 1))
@settings(max_examples=60, deadline=None)
def test_upsample_matches_zero_insert_oracle(a, drop_row, drop_col):
    # target axes 1..64, odd and even; `a` itself carries the signed zeros,
    # and the result its layers' dtype
    target = (2 * a.shape[-2] - drop_row, 2 * a.shape[-1] - drop_col)
    up = upsample(a, target)
    assert up.dtype == layer_dtype(a)
    assert same_bits(up, upsample_oracle(a, target))


@pytest.mark.parametrize("coarse,target", [
    ((1, 1), (1, 1)), ((1, 3), (1, 5)), ((3, 1), (6, 1)), ((2, 1, 4), (2, 1, 7)),
])
def test_upsample_to_a_single_row_or_column(rng, coarse, target):
    # an axis of length 1 reflects onto itself, so every tap meets the sample
    a = rng.random(coarse)
    assert same_bits(upsample(a, target), upsample_oracle(a, target))


@pytest.mark.parametrize("block_pixels", [1, None])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("planes", [1, 2, 3])
@pytest.mark.parametrize("coarse,target", [
    ((1, 1), (1, 1)), ((1, 3), (1, 5)), ((3, 1), (6, 1)), ((1, 4), (2, 7)),
    ((5, 4), (9, 8)), ((5, 4), (10, 7)), ((6, 6), (12, 12)), ((9, 5), (17, 9)),
])
def test_expand_blocks_concatenate_to_upsample(rng, block_pixels, dtype, planes,
                                               coarse, target):
    # the row blocks, in order and without gaps, hold the EXPAND bit for
    # bit, as an array and as a sequence of planes, one row per block too
    a = np.where(rng.random((planes, *coarse)) < 0.3, -0.0,
                 rng.random((planes, *coarse)) - 0.5).astype(dtype)
    with pytest.MonkeyPatch.context() as mp:
        if block_pixels is not None:
            mp.setattr(blocks, "BLOCK_PIXELS", block_pixels)
        for stack in (a, list(a)):
            got = list(expand_blocks(stack, target))
            if block_pixels == 1:
                assert len(got) == coarse[0]
            assert [r.start for r, _ in got] == [0] + [r.stop for r, _ in got[:-1]]
            assert got[-1][0].stop == target[0]
            for rows, block in got:
                assert block.shape == (planes, rows.stop - rows.start, target[1])
            whole = np.concatenate([block for _, block in got], axis=1)
            assert same_bits(whole, upsample(a, target))
            assert same_bits(whole, upsample_oracle(a, target))


def test_expand_blocks_checks_shapes_when_called():
    with pytest.raises(DimensionError, match="cannot upsample"):
        expand_blocks(np.zeros((4, 4)), (9, 8))
    with pytest.raises(DimensionError, match="at least 2-D"):
        expand_blocks(np.zeros((4, 4)), (8,))


def whole_frame_reduce(a):
    """REDUCE over the whole frame at once: pad it, blur the rows at the even
    columns, then the columns at the even rows."""
    h, w = a.shape[-2:]
    p = np.pad(a, [(0, 0)] * (a.ndim - 2) + [(2, 2), (2, 2)], mode="reflect")
    horiz = sum(k * p[..., i:i + w:2] for i, k in enumerate(KERNEL))
    return sum(k * horiz[..., i:i + h:2, :] for i, k in enumerate(KERNEL))


def _along(axis, s):
    return (Ellipsis, s) if axis == -1 else (Ellipsis, s, slice(None))


def whole_frame_expand(x, n, axis):
    """EXPAND along one axis of the whole frame, by output phase."""
    if n == 1:
        return sum(k * x for k in KERNEL)
    m, half = x.shape[axis], n // 2
    lo, hi = (1 if n > 2 else 0), (m - 1 if n % 2 == 0 else m - 2)
    xp = np.concatenate([x[_along(axis, slice(lo, lo + 1))], x,
                         x[_along(axis, slice(hi, hi + 1))]], axis=axis)
    shape = list(x.shape)
    shape[axis] = n
    out = np.empty(shape)
    out[_along(axis, slice(0, None, 2))] = sum(
        KERNEL[2 * j] * xp[_along(axis, slice(j, j + m))] for j in range(3))
    out[_along(axis, slice(1, None, 2))] = sum(
        KERNEL[2 * j + 1] * xp[_along(axis, slice(j + 1, j + 1 + half))]
        for j in range(2))
    return out


def whole_frame_upsample(a, target_shape):
    th, tw = target_shape[-2:]
    return whole_frame_expand(whole_frame_expand(a, tw, -1), th, -2) * 4.0


@given(batched_grids(axis=st.integers(1, 40)), st.sampled_from([1, 2, 7, None]),
       st.integers(0, 1), st.integers(0, 1))
@settings(max_examples=200, deadline=None)
def test_blocked_reduce_and_upsample_match_whole_frame(a, rows, drop_row,
                                                       drop_col):
    # `rows` coarse rows per block, or the default block
    a = a.astype(np.float64)
    target = (2 * a.shape[-2] - drop_row, 2 * a.shape[-1] - drop_col)

    def blocked(fn, fine_width, *args):
        with pytest.MonkeyPatch.context() as mp:
            if rows is not None:
                mp.setattr(blocks, "BLOCK_PIXELS", rows * 2 * fine_width)
            return fn(*args)

    assert same_bits(blocked(_reduce, a.shape[-1], a, a.dtype),
                     whole_frame_reduce(a))
    assert same_bits(blocked(upsample, target[-1], a, target),
                     whole_frame_upsample(a, target))
    # the Laplacian and the collapse add and subtract in place
    if min(a.shape[-2:]) >= 2:
        g = [a, whole_frame_reduce(a)]
        up = whole_frame_upsample(g[1], a.shape)
        lap = blocked(laplacian_pyramid, a.shape[-1], g)
        assert same_bits(lap[0], a - up) and lap[1] is g[1]
        assert same_bits(blocked(partial_collapse, a.shape[-1], g, 1), up + a)


# The whole-frame forms peaked at 8.2 MiB (gaussian_pyramid) and 12.0 MiB
# (laplacian_pyramid) on these calls.  Each may take its output (1.33 and
# 5.31 MiB) plus 3 MiB.
def test_pyramid_memory_is_its_output_plus_a_block(rng):
    a = rng.random((2, 512, 512))
    assert traced_peak_mib(lambda: gaussian_pyramid(a, 5)) <= 1.33 + 3
    g = gaussian_pyramid(a, 5)
    assert traced_peak_mib(lambda: laplacian_pyramid(g)) <= 5.31 + 3


def brute_force_blur_decimate(a):
    """Direct nested-loop 5-tap separable convolution with reflect-101
    borders, then decimation keeping even indices."""
    h, w = a.shape

    def reflect(i, n):
        while not 0 <= i < n:
            i = -i if i < 0 else 2 * (n - 1) - i
        return i

    tmp = np.zeros_like(a, dtype=np.float64)
    for y in range(h):
        for x in range(w):
            tmp[y, x] = sum(KERNEL[k + 2] * a[y, reflect(x + k, w)]
                            for k in range(-2, 3))
    out = np.zeros_like(a, dtype=np.float64)
    for y in range(h):
        for x in range(w):
            out[y, x] = sum(KERNEL[k + 2] * tmp[reflect(y + k, h), x]
                            for k in range(-2, 3))
    return out[::2, ::2]


def test_constant_image_all_layers_constant():
    g = gaussian_pyramid(np.full((16, 16), 0.3), 4)
    for layer in g:
        assert np.allclose(layer, 0.3)


def test_layer_dims_halving():
    g = gaussian_pyramid(np.zeros((8, 8)), 3)
    assert [x.shape for x in g] == [(8, 8), (4, 4), (2, 2)]
    assert layer_shapes(15, 15, 4) == [(15, 15), (8, 8), (4, 4), (2, 2)]


def test_downsample_matches_brute_force():
    a = np.zeros((16, 16))
    a[5, 9] = 1.0
    g = gaussian_pyramid(a, 2)
    assert np.allclose(g[1], brute_force_blur_decimate(a), atol=1e-12)


def test_too_small_image_raises():
    with pytest.raises(DimensionError):
        gaussian_pyramid(np.zeros((8, 8)), 5)
    with pytest.raises(DimensionError):
        gaussian_pyramid(np.zeros((3, 8, 8)), 5)
    with pytest.raises(DimensionError):
        gaussian_pyramid(np.zeros(64), 2)


@pytest.mark.parametrize("levels", [10**6, 10**9])
def test_too_many_levels_raise_at_once(levels):
    # The check built 2 ** (levels - 1) and printed it: a 301,030-digit
    # integer at 10**6 levels, beyond Python's integer-to-string limit.
    start = time.perf_counter()
    with pytest.raises(DimensionError, match=rf"needs >= 2\*\*{levels - 1} "):
        gaussian_pyramid(np.zeros((48, 48)), levels)
    assert time.perf_counter() - start < 0.5


def test_stacked_pyramid_equals_per_plane(rng):
    # leading axes are batch axes: a (V, H, W) stack gives, bit for bit,
    # the 2-D result of each plane
    stack = rng.random((3, 33, 47))
    g = gaussian_pyramid(stack, 4)
    lap = laplacian_pyramid(g)
    for v, plane in enumerate(stack):
        for stacked, single in zip(g, gaussian_pyramid(plane, 4)):
            assert np.array_equal(stacked[v], single)
        single_lap = laplacian_pyramid(gaussian_pyramid(plane, 4))
        for stacked, single in zip(lap, single_lap):
            assert np.array_equal(stacked[v], single)
    coarse = rng.random((3, 17, 24))
    up = upsample(coarse, (33, 47))
    assert up.shape == (3, 33, 47)
    for v in range(3):
        assert np.array_equal(up[v], upsample(coarse[v], (33, 47)))


@given(batched_grids(axis=st.integers(2, 40)), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_pyramid_of_planes_is_the_pyramid_of_their_stack(a, seed):
    # a sequence of planes is read as given: layer 1 is its planes, not a
    # copy, and every coarser layer, band and collapse is, bit for bit, that
    # of their stack; here the planes mix a's dtype with float32 and bool
    rng = np.random.default_rng(seed)
    planes = [rng.random(a.shape[-2:], dtype=np.float32),
              rng.random(a.shape[-2:]) < 0.5, *a.reshape((-1,) + a.shape[-2:])]
    stack = np.stack(planes)
    levels = min(a.shape[-2:]).bit_length()
    for dtype in (np.float32, np.float64):
        g = gaussian_pyramid(planes, levels, dtype)
        assert isinstance(g[0], list)
        assert all(g[0][v] is planes[v] for v in range(len(planes)))
        g_stack = gaussian_pyramid(stack, levels, dtype)
        assert all(same_bits(x, y) for x, y in zip(g[1:], g_stack[1:]))
        lap, lap_stack = laplacian_pyramid(g), laplacian_pyramid(g_stack)
        assert all(same_bits(x, y) for x, y in zip(lap, lap_stack))
        assert same_bits(collapse(lap), collapse(lap_stack))
        # a chain whose layer 1 is planes collapses as its stack does
        assert same_bits(partial_collapse(g, 1), partial_collapse(g_stack, 1))


def test_planes_of_other_dtypes_are_converted_one_by_one(rng):
    planes = [(rng.random((12, 10)) * 3).astype(np.uint8),
              rng.random((12, 10), dtype=np.float32)]
    g = gaussian_pyramid(planes, 3)
    assert g[0][1] is planes[1]
    assert same_bits(g[0][0], planes[0].astype(np.float32))
    assert all(same_bits(x, y) for x, y in
               zip(g[1:], gaussian_pyramid(np.stack(planes), 3)[1:]))


@pytest.mark.parametrize("planes,message", [
    ([np.zeros((8, 8)), np.zeros((8, 9))], "share one shape"),
    ([np.zeros((8, 8)), np.zeros((1, 8, 8))], "must be 2-D"),
    ([], "has no planes"),
])
def test_planes_of_unequal_shape_raise_dimension_error(planes, message):
    # not numpy's "inhomogeneous shape" ValueError from stacking them
    with pytest.raises(DimensionError, match=message):
        gaussian_pyramid(planes, 2)
    with pytest.raises(DimensionError, match=message):
        upsample(planes, (16, 16))
    layers = [planes, np.zeros((2, 4, 4))]
    with pytest.raises(DimensionError, match=message):
        laplacian_pyramid(layers)
    with pytest.raises(DimensionError, match=message):
        partial_collapse(layers, 1)


def test_too_small_planes_raise_with_the_frame_size():
    with pytest.raises(DimensionError,
                       match=r"image \(8, 9\) too small for 5 levels"):
        gaussian_pyramid([np.zeros((8, 9))] * 2, 5)


def test_laplacian_takes_a_gaussian_pyramid(rng):
    img = rng.random((33, 47))
    g = gaussian_pyramid(img, 4)
    lap = laplacian_pyramid(g)
    assert len(lap) == 4 and lap[-1] is g[-1]
    for k in range(3):
        assert np.array_equal(lap[k], g[k] - upsample(g[k + 1], g[k].shape))
    for not_a_pyramid in (img, g[:1], [g[0], g[2]]):
        with pytest.raises(DimensionError):
            laplacian_pyramid(not_a_pyramid)


def test_stacked_collapse_equals_per_plane(rng):
    stack = rng.random((2, 3, 33, 47))
    lap = laplacian_pyramid(gaussian_pyramid(stack, 4))
    out = collapse(lap)
    assert out.shape == stack.shape
    for idx in np.ndindex(2, 3):
        assert np.array_equal(out[idx], collapse([layer[idx] for layer in lap]))
    zeros = laplacian_pyramid(gaussian_pyramid(np.zeros((2, 16, 16)), 3))
    assert collapse(zeros).shape == (2, 16, 16)


def test_bad_batched_inputs_raise_dimension_error():
    lap = laplacian_pyramid(gaussian_pyramid(np.zeros((2, 16, 16)), 3))
    with pytest.raises(DimensionError):
        collapse([lap[0], lap[1][:1], lap[2]])   # unequal leading axes
    with pytest.raises(DimensionError):
        collapse([np.zeros(16), np.zeros(8)])
    with pytest.raises(DimensionError):
        upsample(np.zeros((4, 4)), (8,))


def test_constant_laplacian_layers_zero():
    lap = laplacian_pyramid(gaussian_pyramid(np.full((32, 32), 0.4), 4))
    for layer in lap[:-1]:
        assert np.allclose(layer, 0.0, atol=1e-12)
    assert np.allclose(lap[-1], 0.4)


def round_trip(img, levels):
    return collapse(laplacian_pyramid(gaussian_pyramid(img, levels)))


def test_roundtrip_power_of_two(rng):
    img = rng.random((64, 64))
    assert np.abs(round_trip(img, 5) - img).max() < 1e-6


def test_roundtrip_odd_dims(rng):
    img = rng.random((15, 15))
    assert np.abs(round_trip(img, 4) - img).max() < 1e-5
    img = rng.random((16, 16))
    assert np.abs(round_trip(img, 4) - img).max() < 1e-5


def test_collapse_constant_top():
    shapes = layer_shapes(16, 16, 3)
    layers = [np.zeros(s) for s in shapes[:-1]] + [np.full(shapes[-1], 0.3)]
    assert np.allclose(collapse(layers), 0.3)


def test_collapse_linearity(rng):
    # compare against direct evaluation on random pyramids, before clamping
    p = [rng.random(s) * 0.2 for s in layer_shapes(32, 32, 4)]
    q = [rng.random(s) * 0.2 for s in layer_shapes(32, 32, 4)]
    a, b = 0.7, 0.3
    combo = [a * x + b * y for x, y in zip(p, q)]
    lhs = partial_collapse(combo, 1)
    rhs = a * partial_collapse(p, 1) + b * partial_collapse(q, 1)
    assert np.abs(lhs - rhs).max() < 1e-6


def test_partial_collapse_endpoints(rng):
    lap = laplacian_pyramid(gaussian_pyramid(rng.random((32, 32)), 5))
    assert np.array_equal(partial_collapse(lap, 5), lap[-1])
    assert np.allclose(partial_collapse(lap, 1),
                       np.clip(partial_collapse(lap, 1), -10, 10))


def test_partial_collapse_middle_matches_manual(rng):
    lap = laplacian_pyramid(gaussian_pyramid(rng.random((64, 64)), 5))
    manual = lap[4]
    manual = upsample(manual, lap[3].shape) + lap[3]
    manual = upsample(manual, lap[2].shape) + lap[2]
    assert np.allclose(partial_collapse(lap, 3), manual)


def test_partial_collapse_range_check(rng):
    lap = laplacian_pyramid(gaussian_pyramid(rng.random((32, 32)), 4))
    with pytest.raises(DimensionError):
        partial_collapse(lap, 0)
    with pytest.raises(DimensionError):
        partial_collapse(lap, 5)


def test_broken_dimension_chain():
    layers = [np.zeros((8, 8)), np.zeros((5, 5)), np.zeros((2, 2))]
    with pytest.raises(DimensionError):
        collapse(layers)


def test_constant_confidence_survives_depth():
    # confidence weights must stay meaningful at coarse layers
    g = gaussian_pyramid(np.full((40, 40), 0.77), 5)
    assert all(np.allclose(layer, 0.77) for layer in g)
