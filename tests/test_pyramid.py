import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from uscompound.errors import DimensionError
from uscompound.pyramid import (collapse, gaussian_pyramid, laplacian_pyramid,
                                layer_shapes, partial_collapse, upsample)

KERNEL = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0


def blur_oracle(a):
    """The 5-tap separable blur with reflect-101 borders at every pixel."""
    h, w = a.shape[-2:]
    p = np.pad(a, [(0, 0)] * (a.ndim - 2) + [(2, 2), (2, 2)], mode="reflect")
    horiz = sum(k * p[..., i:i + w] for i, k in enumerate(KERNEL))
    return sum(k * horiz[..., i:i + h, :] for i, k in enumerate(KERNEL))


def reduce_oracle(a):
    """Blur every pixel, then keep the even rows and columns."""
    return blur_oracle(np.asarray(a, dtype=np.float64))[..., ::2, ::2]


def upsample_oracle(a, target_shape):
    """Zero-insert to the full target size, then blur it all with the
    x4-scaled kernel."""
    th, tw = target_shape[-2:]
    z = np.zeros(a.shape[:-2] + (th, tw), dtype=np.float64)
    z[..., ::2, ::2] = a
    return blur_oracle(z) * 4.0


def same_bits(x, y):
    """Equal shape, dtype and values, signed zeros included."""
    return (x.shape == y.shape and x.dtype == y.dtype and np.array_equal(x, y)
            and np.array_equal(np.signbit(x), np.signbit(y)))


# both signed zeros are drawn often, so that a sign flip would show
_values = st.sampled_from([0.0, -0.0]) | st.floats(-2.0, 2.0)


@st.composite
def batched_grids(draw, axis=st.integers(2, 64)):
    """float64 with signed zeros, or bool as the validity pyramid gets, with
    0-2 leading batch axes."""
    shape = (tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
             + (draw(axis), draw(axis)))
    if draw(st.booleans()):
        return draw(arrays(bool, shape))
    return draw(arrays(np.float64, shape, elements=_values))


@given(batched_grids())
@settings(max_examples=60, deadline=None)
def test_pyramid_matches_full_blur_oracles(a):
    levels = min(a.shape[-2:]).bit_length()   # the deepest pyramid that fits
    g = gaussian_pyramid(a, levels)
    assert same_bits(g[0], a.astype(np.float64))
    for fine, coarse in zip(g, g[1:]):
        assert same_bits(coarse, reduce_oracle(fine))
        assert same_bits(upsample(coarse, fine.shape),
                         upsample_oracle(coarse, fine.shape))


@given(batched_grids(axis=st.integers(1, 32)), st.integers(0, 1),
       st.integers(0, 1))
@settings(max_examples=60, deadline=None)
def test_upsample_matches_zero_insert_oracle(a, drop_row, drop_col):
    # target axes 1..64, odd and even; `a` itself carries the signed zeros
    target = (2 * a.shape[-2] - drop_row, 2 * a.shape[-1] - drop_col)
    assert same_bits(upsample(a, target), upsample_oracle(a, target))


@pytest.mark.parametrize("coarse,target", [
    ((1, 1), (1, 1)), ((1, 3), (1, 5)), ((3, 1), (6, 1)), ((2, 1, 4), (2, 1, 7)),
])
def test_upsample_to_a_single_row_or_column(rng, coarse, target):
    # an axis of length 1 reflects onto itself, so every tap meets the sample
    a = rng.random(coarse)
    assert same_bits(upsample(a, target), upsample_oracle(a, target))


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
