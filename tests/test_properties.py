"""Property-based checks for the pure-math building blocks."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from test_boundary import brute_force_refine
from test_phantom import Xorshift64Star
from uscompound.boundary import ClusterSet, refine_boundaries
from uscompound.confidence import AttenuationParams, attenuation_intensity_confidence
from uscompound.image import Image, quantize8
from uscompound.metrics import dice
from uscompound.phantom import _rayleigh
from uscompound.pyramid import collapse, gaussian_pyramid, laplacian_pyramid

unit_images = arrays(np.float32, (16, 16),
                     elements=st.floats(0.0, 1.0, width=32))
bool_masks = arrays(bool, (8, 8))
# 8-bit levels around the default t1 = 30, so steps straddle t2 = 2
near_t1_images = st.integers(1, 12).flatmap(lambda w: arrays(
    np.float64, st.tuples(st.integers(1, 12), st.just(w)),
    elements=st.integers(27, 36).map(lambda k: k / 255.0)))


@given(unit_images)
@settings(max_examples=25, deadline=None)
def test_pyramid_round_trip_property(a):
    lap = laplacian_pyramid(gaussian_pyramid(a, 3))
    assert np.abs(collapse(lap) - a).max() < 1e-5


@given(unit_images)
@settings(max_examples=25, deadline=None)
def test_confidence_decreases_with_depth(a):
    c = attenuation_intensity_confidence(Image(a), AttenuationParams(0.01, 0.5))
    assert np.all(np.diff(c, axis=0) <= 1e-7)
    assert np.all(c[0] == 1.0)


@given(bool_masks, bool_masks)
@settings(max_examples=50, deadline=None)
def test_dice_symmetric_and_bounded(a, b):
    d = dice(a, b)
    assert d == dice(b, a)
    assert 0.0 <= d <= 1.0
    assert dice(a, a) == 1.0


@given(st.floats(0.0, 1.0))
@settings(max_examples=50, deadline=None)
def test_quantize8_nearest_level(v):
    q = int(quantize8(np.array(v)))
    assert abs(v - q / 255.0) <= 0.5 / 255.0 + 1e-9


@given(near_t1_images, st.data())
@settings(max_examples=100, deadline=None)
def test_refine_matches_brute_force_property(image, data):
    labels = data.draw(arrays(np.int64, image.shape,
                              elements=st.integers(0, 3)))
    clusters = ClusterSet(labels, (1, 3))
    assert np.array_equal(refine_boundaries(image, clusters),
                          brute_force_refine(image, clusters))


@given(st.integers(0, (1 << 64) - 1), st.integers(1, 5000))
@settings(max_examples=25, deadline=None)
def test_lane_speckle_equals_serial_stream_property(seed, n):
    assert np.array_equal(_rayleigh(seed, 0.03, n),
                          Xorshift64Star(seed).rayleigh(0.03, n))
