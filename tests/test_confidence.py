import numpy as np
import pytest

from uscompound.confidence import attenuation_intensity_confidence
from uscompound.image import Image


def test_no_attenuation_gives_ones(rng):
    img = Image(rng.random((8, 8), dtype=np.float32))
    c = attenuation_intensity_confidence(img, decay=0.0, absorption=0.0)
    assert c.dtype == np.float32 and c.shape == (8, 8)
    assert np.all(c == 1.0)


def test_black_image_closed_form():
    img = Image(np.zeros((10, 4)))
    d = 0.05
    c = attenuation_intensity_confidence(img, decay=d, absorption=0.3)
    expected = np.exp(-d * np.arange(10))[:, None] * np.ones((1, 4))
    assert np.allclose(c, expected, atol=1e-7)


def test_absorption_recurrence():
    col = np.zeros((5, 1))
    col[0, 0] = 1.0
    a = 0.7
    c = attenuation_intensity_confidence(Image(col), decay=0.0, absorption=a)
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
    with pytest.raises(ValueError):
        attenuation_intensity_confidence(Image(np.zeros((2, 2))), decay=-1)


@pytest.mark.parametrize("name", ["decay", "absorption"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_params_rejected_by_name(name, bad):
    # NaN gave an all-NaN map; inf warned from inside numpy.
    with pytest.raises(ValueError, match=name):
        attenuation_intensity_confidence(Image(np.zeros((32, 32))),
                                         **{name: bad})
