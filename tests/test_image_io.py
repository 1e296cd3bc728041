import numpy as np
import pytest

from conftest import traced_peak_mib
from uscompound.errors import DimensionError, FormatError, RangeError
from uscompound.image import Image, load_image, load_mask, save_image, save_mask


def test_image_invariants():
    with pytest.raises(RangeError):
        Image(np.array([[0.0, 1.5]]))
    with pytest.raises(RangeError):
        Image(np.array([[np.nan, 0.0]]))
    with pytest.raises(DimensionError):
        Image(np.zeros(4))
    img = Image(np.zeros((3, 5)))
    assert img.width == 5 and img.height == 3
    assert img.data.dtype == np.float32


def test_load_pgm_endpoints(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P5\n2 1\n255\n" + bytes([0, 255]))
    img = load_image(path)
    assert img.data.tolist() == [[0.0, 1.0]]


def test_load_pgm_midpoint(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P5\n1 1\n255\n" + bytes([128]))
    assert load_image(path).data[0, 0] == np.float32(128 / 255)


def test_load_pgm_with_comments(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P5\n# a comment\n2 1\n# another\n255\n" + bytes([10, 20]))
    assert load_image(path).width == 2


@pytest.mark.parametrize("payload", [
    b"P5\n2 1\n65535\n" + bytes(4),       # wrong maxval
    b"P5\n2 x\n255\n" + bytes(2),         # non-numeric dim
    b"P5\n2 2\n255\n" + bytes(2),         # short payload
    b"P4\n2 1\n255\n" + bytes(2),         # wrong magic
    b"FMAP 2\n" + bytes(8),               # malformed FMAP header
    b"FMAP 2 2\n" + bytes(4),             # short FMAP payload
])
def test_malformed_files(tmp_path, payload):
    path = tmp_path / "bad"
    path.write_bytes(payload)
    with pytest.raises(FormatError):
        load_image(path)


def test_fmap_constant(tmp_path):
    path = tmp_path / "c.fmap"
    path.write_bytes(b"FMAP 2 2\n" + np.full(4, 0.5, dtype="<f4").tobytes())
    assert np.all(load_image(path).data == 0.5)


def test_fmap_range_error(tmp_path):
    path = tmp_path / "bad.fmap"
    path.write_bytes(b"FMAP 1 1\n" + np.array([1.2], dtype="<f4").tobytes())
    with pytest.raises(RangeError):
        load_image(path)


def test_save_pgm8_rounding(tmp_path):
    path = tmp_path / "q.pgm"
    save_image(Image(np.array([[1.0]])), path)
    assert path.read_bytes().endswith(bytes([255]))
    save_image(Image(np.array([[0.5]])), path)
    # round(127.5) with round-half-up
    assert path.read_bytes().endswith(bytes([128]))


def test_fmap_roundtrip_bit_exact(tmp_path, rng):
    img = Image(rng.random((16, 16), dtype=np.float32))
    path = tmp_path / "r.fmap"
    save_image(img, path)
    back = load_image(path)
    assert np.array_equal(back.data, img.data)


def test_pgm8_roundtrip_tolerance(tmp_path, rng):
    img = Image(rng.random((16, 16), dtype=np.float32))
    path = tmp_path / "r.pgm"
    save_image(img, path)
    back = load_image(path)
    assert np.abs(back.data - img.data).max() <= 1 / 510 + 1e-7


def test_mask_roundtrip(tmp_path, rng):
    mask = rng.random((8, 8)) > 0.5
    path = tmp_path / "m.pgm"
    save_mask(mask, path)
    assert np.array_equal(load_mask(path), mask)


def test_mask_rejects_gray(tmp_path):
    for name, data in [
            ("m.pgm", b"P5\n1 1\n255\n" + bytes([100])),
            ("m.fmap", b"FMAP 1 1\n" + np.array([0.5], dtype="<f4").tobytes())]:
        path = tmp_path / name
        path.write_bytes(data)
        with pytest.raises(FormatError, match=r"only 0 and 1 \(255 in a PGM\)"):
            load_mask(path)


# Any nonzero value marks a mask pixel, as in `ViewInput`; a mask holding
# 255 or 2 raised RangeError, and a nested list AttributeError.
@pytest.mark.parametrize("mask", [
    np.array([[0, 255, 255], [255, 0, 0]], dtype=np.uint8),
    np.array([[0, 2, 1], [-1, 0, 0]]),
    [[0, 1, 1], [1, 0, False]],
])
@pytest.mark.parametrize("suffix", ["pgm", "fmap"])
def test_mask_roundtrip_reads_nonzero_as_marked(tmp_path, mask, suffix):
    path = tmp_path / f"m.{suffix}"
    save_mask(mask, path)
    assert np.array_equal(load_mask(path), np.asarray(mask) != 0)


# A 512² mask is written as one float32 frame (1 MiB) and the bool frames
# the nonzero test and the Image check make, with each row block of the PGM
# quantized apart: the traced peak is 1.26 MiB, and was 5.00 MiB while the
# whole frame was quantized through float64 copies.
def test_save_mask_memory_is_bounded(tmp_path, rng):
    mask = rng.random((512, 512)) < 0.3
    path = tmp_path / "m.pgm"
    assert traced_peak_mib(lambda: save_mask(mask, path)) <= 2.0
    assert np.array_equal(load_mask(path), mask)
