import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import traced_peak_mib
from uscompound.confidence import (AttenuationParams,
                                   attenuation_intensity_confidence)
from uscompound.image import Image


def test_no_attenuation_gives_ones(rng):
    img = Image(rng.random((8, 8), dtype=np.float32))
    c = attenuation_intensity_confidence(img, AttenuationParams(0.0, 0.0))
    assert c.dtype == np.float32 and c.shape == (8, 8)
    assert np.all(c == 1.0)


def test_black_image_closed_form():
    img = Image(np.zeros((10, 4)))
    d = 0.05
    c = attenuation_intensity_confidence(img, AttenuationParams(d, 0.3))
    expected = np.exp(-d * np.arange(10))[:, None] * np.ones((1, 4))
    assert np.allclose(c, expected, atol=1e-7)


def test_absorption_recurrence():
    col = np.zeros((5, 1))
    col[0, 0] = 1.0
    a = 0.7
    c = attenuation_intensity_confidence(Image(col), AttenuationParams(0.0, a))
    # one fully bright pixel at the top absorbs exp(-a) for every row below
    assert c[0, 0] == 1.0
    assert np.allclose(c[1:, 0], np.exp(-a))


def test_monotone_down_columns(rng):
    img = Image(rng.random((20, 6), dtype=np.float32))
    c = attenuation_intensity_confidence(img)
    assert np.all(c[0] == 1.0)
    assert np.all(np.diff(c.astype(np.float64), axis=0) <= 0)


def test_brighter_image_never_more_confident(rng):
    base = rng.random((12, 5)) * 0.5
    c1 = attenuation_intensity_confidence(Image(base))
    c2 = attenuation_intensity_confidence(Image(base * 1.8))
    assert np.all(c2 <= c1 + 1e-7)


def test_negative_params_rejected():
    for name in ("decay", "absorption"):
        with pytest.raises(ValueError, match=f"{name} must not be negative"):
            AttenuationParams(**{name: -1})
        AttenuationParams(**{name: 0})


@pytest.mark.parametrize("name", ["decay", "absorption"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf,
                                 pytest.param(10**400, id="401-digit")])
def test_non_finite_params_rejected_by_name(name, bad):
    # NaN gave an all-NaN map; inf warned from inside numpy; an integer too
    # large for a float raised OverflowError.
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        AttenuationParams(**{name: bad})


@pytest.mark.parametrize("changes,message", [
    ({"decay": "0.1"}, "decay must be a number"),
    ({"absorption": None}, "absorption must be a number"),
    ({"decay": True}, "decay must be a number"),
])
def test_wrongly_typed_params_rejected_by_name(changes, message):
    with pytest.raises(ValueError, match=message):
        AttenuationParams(**changes)


def attenuation_oracle(a, params):
    """The model in whole-frame temporaries: a float32 running sum of the
    rows above, stored as float64, then exp(-decay * depth - absorption *
    sum)."""
    depth = np.arange(a.shape[0], dtype=np.float64)[:, None]
    absorbed = np.zeros_like(a, dtype=np.float64)
    absorbed[1:] = np.cumsum(a[:-1], axis=0)
    c = np.exp(-params.decay * depth - params.absorption * absorbed)
    return c.astype(np.float32)


@given(arrays(np.float32, st.tuples(st.integers(1, 40), st.integers(1, 8)),
              elements=st.floats(0.0, 1.0, width=32)),
       st.floats(0.0, 0.5), st.floats(0.0, 5.0))
@settings(max_examples=100, deadline=None)
def test_attenuation_matches_the_whole_frame_oracle(a, decay, absorption):
    params = AttenuationParams(decay, absorption)
    got = attenuation_intensity_confidence(Image(a), params)
    assert got.dtype == np.float32
    assert np.array_equal(got, attenuation_oracle(a, params))


# The whole-frame form peaked at 6.07 MiB on this call: its float64 running
# sum, exponent terms and exponential were separate frames.  In one float64
# frame, 2 MiB, beside the float32 running sum (1 MiB) and then the float32
# result (1 MiB), it peaks at 3.00 MiB.
def test_attenuation_memory_is_one_float64_frame_and_its_result(rng):
    img = Image(rng.random((512, 512), dtype=np.float32))
    assert traced_peak_mib(lambda: attenuation_intensity_confidence(img)) <= 3.25
