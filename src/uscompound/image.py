"""Image container, PGM/FMAP file I/O and rigid warping into a common frame.

Images are single-channel intensity grids with values in [0, 1], stored as
float32 numpy arrays of shape (height, width), row-major, top row first.
The y axis points down (the axial / depth direction of the probe).

`warp_array` resamples the last two axes (rows, columns); any leading axes
are batch axes, so the maps of one view, as an (N, H, W) array or as a
sequence of N (H, W) planes of any dtypes, are warped with one shared set of
source positions and equal plane by plane the 2-D results.  It reads the
planes as given, never copied into one array.  A grid-aligned transform (a
quarter turn plus a whole-pixel shift, to within 1e-9 px), such as the
identity of the view whose frame is the common one, is a pixel copy: each
valid pixel is its source sample exactly.  Any other transform is sampled
bilinearly in the row blocks of `blocks.row_blocks`, summing the products in
one fixed order, so its working memory is bounded by a block and its result
does not depend on the block size.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .blocks import as_planes, row_blocks
from .errors import DimensionError, FormatError, RangeError, check_fields, checked

__all__ = [
    "MAPS",
    "Image",
    "RigidTransform2D",
    "ViewInput",
    "WarpedView",
    "load_image",
    "save_image",
    "warp_array",
    "warp_to_common",
]


# The optional per-view maps that `ViewInput` and `WarpedView` carry.
MAPS = ("intensity_confidence", "structural_confidence", "boundary_mask")


def unit_grid(data, what: str) -> np.ndarray:
    """`data` as a float32 array, checked to be a non-empty 2-D grid of
    finite values in [0, 1]; `what` names it in error messages."""
    a = np.asarray(data, dtype=np.float32)
    if a.ndim != 2 or a.size == 0:
        raise DimensionError(f"{what} must be a non-empty 2-D grid")
    if not np.all(np.isfinite(a)):
        raise RangeError(f"{what} contains non-finite values")
    if a.min() < 0.0 or a.max() > 1.0:
        raise RangeError(f"{what} values must lie in [0, 1]")
    return a


@dataclass(frozen=True)
class Image:
    """Single-channel intensity image, values in [0, 1], float32."""

    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", unit_grid(self.data, "image"))

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[0]


@dataclass(frozen=True)
class RigidTransform2D:
    """Rigid 2-D map from a view's native frame into the common frame.

    A native-frame point p = (x, y) maps to q = R(rotation) @ p + (dx, dy),
    with x the column and y the row (y increasing downward).  Translation is
    expressed in pixels of the common frame.  `apply` and `inverse_apply`
    broadcast: a row of x and a column of y give the whole (H, W) grid.
    """

    rotation: float = 0.0
    dx: float = 0.0
    dy: float = 0.0

    def __post_init__(self):
        check_fields(self)  # a NaN or infinite field breaks the warp

    def apply(self, x, y):
        c, s = math.cos(self.rotation), math.sin(self.rotation)
        return c * x - s * y + self.dx, s * x + c * y + self.dy

    def inverse_apply(self, x, y):
        c, s = math.cos(self.rotation), math.sin(self.rotation)
        u, v = x - self.dx, y - self.dy
        return c * u + s * v, -s * u + c * v

    def to_dict(self) -> dict:
        return {"rotation": self.rotation, "dx": self.dx, "dy": self.dy}

    @classmethod
    def from_dict(cls, d: dict) -> "RigidTransform2D":
        return cls(**checked(cls, d, "transform"))


@dataclass
class ViewInput:
    """One viewpoint in its native probe frame (probe at top, beam down).

    Optional per-pixel maps must share the image's dimensions.  Confidence
    maps are float arrays of finite values in [0, 1], checked here and
    stored as given; in the boundary mask, nonzero marks a boundary pixel.
    """

    image: Image
    to_common: RigidTransform2D = field(default_factory=RigidTransform2D)
    intensity_confidence: np.ndarray | None = None
    structural_confidence: np.ndarray | None = None
    boundary_mask: np.ndarray | None = None

    def __post_init__(self):
        if not isinstance(self.image, Image):
            raise TypeError(f"image must be an Image, not {type(self.image).__name__}")
        shape = self.image.data.shape
        for name in MAPS:
            m = getattr(self, name)
            if m is None:
                continue
            if np.asarray(m).shape != shape:
                raise DimensionError(f"{name} shape {np.asarray(m).shape} "
                                     f"does not match image shape {shape}")
            if name != "boundary_mask":
                unit_grid(m, name)


@dataclass
class WarpedView:
    """A viewpoint resampled into the common frame with a validity mask; as
    `warp_to_common` returns it, its maps are float32 and the boundary mask
    is a weight in [0, 1], fractional on edges and 0 where invalid.  The
    uniform structural confidence that `compound.prepare_views` fills in is
    a read-only broadcast view: copy it before writing to it."""

    image: np.ndarray
    validity: np.ndarray
    intensity_confidence: np.ndarray | None = None
    structural_confidence: np.ndarray | None = None
    boundary_mask: np.ndarray | None = None


# ---------------------------------------------------------------------------
# File formats.
#
# PGM: binary P5, maxval 255; comments tolerated on read, never written.
# FMAP: ASCII header line "FMAP <width> <height>\n" followed by
# width*height little-endian IEEE-754 float32 values, row-major, top first.
# ---------------------------------------------------------------------------

_PGM_TOKEN = re.compile(rb"\s*(?:#[^\n]*\n\s*)*(\S+)")


def _read_pgm(data: bytes) -> np.ndarray:
    pos = 2  # past "P5"
    fields = []
    for _ in range(3):
        m = _PGM_TOKEN.match(data, pos)
        if not m:
            raise FormatError("truncated PGM header")
        fields.append(m.group(1))
        pos = m.end()
    try:
        width, height, maxval = (int(f) for f in fields)
    except ValueError:
        raise FormatError("non-numeric PGM header field") from None
    if width <= 0 or height <= 0:
        raise FormatError("PGM dimensions must be positive")
    if maxval != 255:
        raise FormatError(f"unsupported PGM maxval {maxval} (need 255)")
    pos += 1  # single whitespace after maxval
    payload = data[pos:pos + width * height]
    if len(payload) < width * height:
        raise FormatError("PGM payload shorter than width*height")
    raw = np.frombuffer(payload, dtype=np.uint8).reshape(height, width)
    return raw.astype(np.float32) / 255.0


def _read_fmap(data: bytes) -> np.ndarray:
    nl = data.find(b"\n")
    if nl < 0:
        raise FormatError("missing FMAP header newline")
    parts = data[:nl].split()
    if len(parts) != 3 or parts[0] != b"FMAP":
        raise FormatError("malformed FMAP header")
    try:
        width, height = int(parts[1]), int(parts[2])
    except ValueError:
        raise FormatError("non-numeric FMAP dimensions") from None
    if width <= 0 or height <= 0:
        raise FormatError("FMAP dimensions must be positive")
    payload = data[nl + 1:]
    if len(payload) < 4 * width * height:
        raise FormatError("FMAP payload shorter than 4*width*height")
    # frombuffer is read-only; load_image checks the values via Image.
    a = np.frombuffer(payload[:4 * width * height], dtype="<f4")
    return a.reshape(height, width).copy()


def load_image(path) -> Image:
    """Load a binary 8-bit PGM (P5) or FMAP file as an Image."""
    with open(path, "rb") as f:
        data = f.read()
    if data.startswith(b"P5"):
        return Image(_read_pgm(data))
    if data.startswith(b"FMAP"):
        return Image(_read_fmap(data))
    raise FormatError(f"{path}: unknown magic (expected P5 or FMAP)")


def quantize8(a: np.ndarray) -> np.ndarray:
    """[0,1] floats to uint8 with round-half-up (deterministic cross-platform)."""
    return np.floor(np.asarray(a, dtype=np.float64) * 255.0 + 0.5).astype(np.uint8)


def save_image(image: Image, path) -> None:
    """Write an Image as FMAP (lossless) when `path` ends in ".fmap", and as
    8-bit PGM (round-half-up) otherwise.

    The FMAP payload is the float32 data as held; the PGM payload is
    quantized and written one row block at a time, so beyond the image
    neither holds more than one block.
    """
    a = image.data
    with open(path, "wb") as f:
        if str(path).endswith(".fmap"):
            f.write(f"FMAP {a.shape[1]} {a.shape[0]}\n".encode())
            f.write(np.ascontiguousarray(a, dtype="<f4"))
        else:
            f.write(f"P5\n{a.shape[1]} {a.shape[0]}\n255\n".encode())
            for rows in row_blocks(*a.shape):
                f.write(quantize8(a[rows]).tobytes())


def save_mask(mask, path) -> None:
    """Write a mask as 0/1 by `save_image` (a PGM holds 0 and 255); any
    nonzero value marks a pixel, as in `ViewInput`."""
    save_image(Image((np.asarray(mask) != 0).astype(np.float32)), path)


def load_mask(path) -> np.ndarray:
    """Read a mask `save_mask` wrote, PGM or FMAP, back as booleans."""
    a = load_image(path).data
    if not np.all((a == 0.0) | (a == 1.0)):
        raise FormatError(f"{path}: mask must contain only 0 and 1 (255 in a PGM)")
    return a == 1.0


# ---------------------------------------------------------------------------
# Warping
# ---------------------------------------------------------------------------

def warp_array(data, transform: RigidTransform2D,
               out_width: int, out_height: int):
    """Inverse-map `data` (native frame) into the common frame.

    `data` is an array (..., H, W), whose leading axes are batch axes, or a
    sequence of (H, W) planes, which may have different dtypes (a bool plane
    counts as 0 and 1).  Every plane shares one computation of source
    positions, validity, corner indices and weights, so a stack equals plane
    by plane the 2-D results, and a sequence equals its stack.

    Returns (warped, validity): warped is float32 of shape
    (..., out_height, out_width), (len(data), out_height, out_width) for a
    sequence, and validity is 2-D.  Invalid pixels get value 0.

    A grid-aligned transform maps the output grid, at its four corners, to
    within 1e-9 px of a quarter turn (k 90 degrees) plus a whole-pixel shift;
    the identity, whole-pixel shifts and a 90-degree turn by whole pixels
    are.  It is written as a pixel copy: a pixel is valid iff the source
    pixel it lands on lies in the source grid, and the valid rectangle of
    each plane is one slice of `np.rot90(plane, k)`, assigned into the
    output.  So each valid pixel is its source sample exactly, cast to
    float32: -0.0, an infinity and a NaN pass through unchanged.

    Any other transform is sampled bilinearly.  A pixel is valid iff its
    four bilinear source neighbors lie inside the source grid; a source
    coordinate exactly on the far edge uses the edge cell with fractional
    weight 1.  The output is evaluated in the row blocks of
    `blocks.row_blocks`, so the working memory is bounded by one block, not
    by the frame.  Each block gathers every tap from the flattened plane at
    one flat index per pixel, shifted by a scalar offset for the other three
    taps, and sums the four float64 products in one fixed order, so the
    result is the same bit for bit at any block size, signed zeros,
    infinities and NaNs included: every NaN, a NaN tap's or the NaN of a
    zero weight on an infinite tap, comes out as the positive quiet NaN.
    On finite inputs, which `Image` and `unit_grid` enforce, the two paths
    give equal values at equal source positions.
    """
    if out_width <= 0 or out_height <= 0:
        raise DimensionError("output dimensions must be positive")
    planes, shape = as_planes(data, "warp input")
    h, w = shape[-2:]
    out = np.zeros(shape[:-2] + (out_height, out_width), dtype=np.float32)
    valid = np.zeros((out_height, out_width), dtype=bool)
    aligned = _grid_aligned(transform, w, h, out_width, out_height)
    if aligned is not None:
        k, top, left = aligned
        rh, rw = (h, w) if k % 2 == 0 else (w, h)
        r0, r1 = max(0, -top), min(out_height, rh - top)
        c0, c1 = max(0, -left), min(out_width, rw - left)
        if r0 < r1 and c0 < c1:
            valid[r0:r1, c0:c1] = True
            for p, o in zip(planes, out.reshape((-1, out_height, out_width))):
                o[r0:r1, c0:c1] = np.rot90(p, k)[r0 + top:r1 + top,
                                                 c0 + left:c1 + left]
        return out, valid
    # views of contiguous planes; a strided plane is copied once, here
    planes = [p.reshape(-1) for p in planes]
    outs = out.reshape((-1, out_height * out_width))
    xs = np.arange(out_width, dtype=np.float64)
    ys = np.arange(out_height, dtype=np.float64)[:, None]
    for rows in row_blocks(out_height, out_width):
        # A finite transform far off the frame can overflow to +-inf, which
        # fails the range test, so such a pixel is merely invalid.
        with np.errstate(over="ignore"):
            sx, sy = transform.inverse_apply(xs, ys[rows])
        block = slice(rows.start * out_width, rows.stop * out_width)
        _resample_block(planes, outs[:, block], valid.reshape(-1)[block],
                        sx.ravel(), sy.ravel(), w, h)
    return out, valid


def _grid_aligned(transform: RigidTransform2D, w: int, h: int,
                  out_w: int, out_h: int):
    """(k, top, left) when `transform` is grid-aligned on an (out_h, out_w)
    output of an (h, w) source, so that output pixel (x, y) samples
    np.rot90(plane, k)[y + top, x + left]; else None.

    It is grid-aligned when, at the four output corners, `inverse_apply`
    lies within 1e-9 px of a quarter turn plus a whole-pixel shift; the map
    being affine, it then does so at every output pixel.
    """
    r = transform.rotation
    q = round(math.atan2(math.sin(r), math.cos(r)) / (math.pi / 2)) % 4
    c, s = ((1, 0), (0, 1), (-1, 0), (0, -1))[q]
    xs, ys = np.array([0.0, out_w - 1.0]), np.array([[0.0], [out_h - 1.0]])
    # NaN, from an overflow far off the frame, fails the comparisons.
    with np.errstate(over="ignore", invalid="ignore"):
        sx, sy = transform.inverse_apply(xs, ys)
        x0, y0 = np.rint(sx[0, 0]), np.rint(sy[0, 0])
        if not (np.all(abs(sx - (c * xs + s * ys + x0)) <= 1e-9)
                and np.all(abs(sy - (c * ys - s * xs + y0)) <= 1e-9)):
            return None
    # The quarter turn R takes source pixel (x0, y0) to (c x0 - s y0,
    # s x0 + c y0), and np.rot90(plane, -q) is R's image of the plane,
    # shifted to put its least corner at the origin.
    x0, y0 = int(x0), int(y0)
    left = c * x0 - s * y0 - min(0, c * (w - 1)) - min(0, -s * (h - 1))
    top = s * x0 + c * y0 - min(0, s * (w - 1)) - min(0, c * (h - 1))
    return -q % 4, top, left


def _resample_block(planes, outs, valid, sx, sy, w, h):
    """Write one block of `warp_array`'s output by gathering.

    `planes` are the source planes, each flattened to h * w values of its
    own dtype, and `outs` the block's span of each flattened output plane.
    `sx` and `sy` are the block's flat source coordinates, overwritten here;
    `valid` receives the block's validity.  The block's temporaries are
    freed on return, so they do not outlive it into the next block.
    """
    np.greater_equal(sx, 0.0, out=valid)
    valid &= sx <= w - 1.0
    valid &= sy >= 0.0
    valid &= sy <= h - 1.0
    # Clamped in float, so the index cast below is defined; valid pixels
    # keep their coordinates.
    np.clip(sx, 0.0, w - 1.0, out=sx)
    np.clip(sy, 0.0, h - 1.0, out=sy)

    # The upper-left corner, floored and clamped in float.  Adding 0.0 turns
    # the floor of a -0.0 coordinate into +0.0, so its weight keeps the sign
    # the coordinate has.
    x0 = np.floor(sx)
    np.minimum(x0, max(w - 2, 0), out=x0)
    x0 += 0.0
    y0 = np.floor(sy)
    np.minimum(y0, max(h - 2, 0), out=y0)
    y0 += 0.0
    # The weights overwrite the source coordinates, which are not needed again.
    fx = np.subtract(sx, x0, out=sx)
    fy = np.subtract(sy, y0, out=sy)
    gx, gy = 1 - fx, 1 - fy
    y0 *= w  # the flat index y0 * w + x0, exact in float64
    y0 += x0
    base = y0.astype(np.intp)
    del x0, y0
    # Flat offsets of the right and lower taps; 0 on a one-pixel axis,
    # where the bilinear neighbor is the edge pixel itself.
    right, down = int(w > 1), w if h > 1 else 0
    # Each tap is cast to float64 in `acc` or `tmp` and weighted there, so
    # the sum is the one fixed order
    # ((p00 gx) gy + (p01 fx) gy) + (p10 gx) fy + (p11 fx) fy.
    taps = list(zip((0, right, down, right + down), (gx, fx, gx, fx),
                    (gy, gy, fy, fy)))
    acc, tmp = np.empty_like(fx), np.empty_like(fx)
    nan = np.empty(acc.shape, bool)
    for p, o in zip(planes, outs):
        for k, (off, wx, wy) in enumerate(taps):
            product = tmp if k else acc
            np.copyto(product, p[off:].take(base))
            product *= wx
            product *= wy
            if k:
                acc += tmp
        # numpy's add may keep either operand's NaN, by the pixel's place
        # in its loop, so every NaN is written as the one positive NaN
        np.copyto(acc, np.nan, where=np.isnan(acc, out=nan))
        np.copyto(o, acc, where=valid)


def warp_to_common(view: ViewInput, out_width: int, out_height: int) -> WarpedView:
    """Resample a view and all its attached maps into the common frame.

    The image and the maps present are interpolated bilinearly in one
    `warp_array` call, which reads their planes as given.  The boundary mask
    enters as its bool plane (any nonzero value is true, read as 1), so it
    comes out as a weight in [0, 1].
    """
    names = [n for n in MAPS if getattr(view, n) is not None]
    planes = [np.asarray(view.boundary_mask) != 0 if n == "boundary_mask"
              else getattr(view, n) for n in names]
    warped, valid = warp_array([view.image.data, *planes],
                               view.to_common, out_width, out_height)
    return WarpedView(np.clip(warped[0], 0.0, 1.0, out=warped[0]), valid,
                      **dict(zip(names, warped[1:])))
