import numpy as np
import pytest

from uscompound.errors import DimensionError
from uscompound.pyramid import (collapse, gaussian_pyramid,
                                laplacian_from_gaussian, laplacian_pyramid,
                                layer_shapes, partial_collapse, upsample)

KERNEL = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0


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
    lap = laplacian_from_gaussian(g)
    for v, plane in enumerate(stack):
        for stacked, single in zip(g, gaussian_pyramid(plane, 4)):
            assert np.array_equal(stacked[v], single)
        for stacked, single in zip(lap, laplacian_pyramid(plane, 4)):
            assert np.array_equal(stacked[v], single)
    coarse = rng.random((3, 17, 24))
    up = upsample(coarse, (33, 47))
    assert up.shape == (3, 33, 47)
    for v in range(3):
        assert np.array_equal(up[v], upsample(coarse[v], (33, 47)))


def test_constant_laplacian_layers_zero():
    lap = laplacian_pyramid(np.full((32, 32), 0.4), 4)
    for layer in lap[:-1]:
        assert np.allclose(layer, 0.0, atol=1e-12)
    assert np.allclose(lap[-1], 0.4)


def test_roundtrip_power_of_two(rng):
    img = rng.random((64, 64))
    assert np.abs(collapse(laplacian_pyramid(img, 5)) - img).max() < 1e-6


def test_roundtrip_odd_dims(rng):
    img = rng.random((15, 15))
    assert np.abs(collapse(laplacian_pyramid(img, 4)) - img).max() < 1e-5
    img = rng.random((16, 16))
    assert np.abs(collapse(laplacian_pyramid(img, 4)) - img).max() < 1e-5


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
    lap = laplacian_pyramid(rng.random((32, 32)), 5)
    assert np.array_equal(partial_collapse(lap, 5), lap[-1])
    assert np.allclose(partial_collapse(lap, 1),
                       np.clip(partial_collapse(lap, 1), -10, 10))


def test_partial_collapse_middle_matches_manual(rng):
    lap = laplacian_pyramid(rng.random((64, 64)), 5)
    manual = lap[4]
    manual = upsample(manual, lap[3].shape) + lap[3]
    manual = upsample(manual, lap[2].shape) + lap[2]
    assert np.allclose(partial_collapse(lap, 3), manual)


def test_partial_collapse_range_check(rng):
    lap = laplacian_pyramid(rng.random((32, 32)), 4)
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
