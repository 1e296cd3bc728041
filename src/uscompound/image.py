"""Image container, PGM/FMAP file I/O and rigid warping into a common frame.

Images are single-channel intensity grids with values in [0, 1], stored as
float32 numpy arrays of shape (height, width), row-major, top row first.
The y axis points down (the axial / depth direction of the probe).

`warp_array` resamples the last two axes (rows, columns); any leading axes
are batch axes, so a (N, H, W) stack of maps of one view is warped with one
shared set of source positions and equals plane by plane the 2-D results.
It works through the output in cache-sized blocks of whole rows, gathering
from the flattened planes and summing the bilinear products in one fixed
order, so its working memory is bounded by a block and its result does not
depend on the block size.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

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
    is a weight in [0, 1], fractional on edges and 0 where invalid."""

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


def save_image(image: Image, path, format: str = "pgm8") -> None:
    """Write an Image as pgm8 (lossy, round-half-up) or fmap (lossless)."""
    a = image.data
    if format == "pgm8":
        header = f"P5\n{a.shape[1]} {a.shape[0]}\n255\n".encode()
        payload = quantize8(a).tobytes()
    elif format == "fmap":
        header = f"FMAP {a.shape[1]} {a.shape[0]}\n".encode()
        payload = a.astype("<f4").tobytes()
    else:
        raise ValueError(f"unknown format {format!r}")
    with open(path, "wb") as f:
        f.write(header)
        f.write(payload)


def save_mask(mask: np.ndarray, path) -> None:
    """Write a boolean mask as PGM with values {0, 255}."""
    save_image(Image(mask.astype(np.float32)), path, format="pgm8")


def load_mask(path) -> np.ndarray:
    """Read a {0, 255}-valued PGM back into a boolean mask."""
    a = load_image(path).data
    if not np.all((a == 0.0) | (a == 1.0)):
        raise FormatError(f"{path}: mask must contain only 0 and 255")
    return a == 1.0


# ---------------------------------------------------------------------------
# Warping
# ---------------------------------------------------------------------------

# Output pixels per block of whole rows in `warp_array`: a float64 block
# temporary is then 128 KiB, so a block's working set stays in cache
# whatever the frame size.
_BLOCK_PIXELS = 16384


def warp_array(data: np.ndarray, transform: RigidTransform2D,
               out_width: int, out_height: int):
    """Inverse-map `data` (native frame) bilinearly into the common frame.

    `data` is (..., H, W); leading axes are batch axes, and every (H, W)
    plane shares one computation of source positions, validity, corner
    indices and weights, so a stack equals plane by plane the 2-D results.

    Returns (warped, validity): warped is float32 of shape
    (..., out_height, out_width), and validity is 2-D.  A
    common-frame pixel is valid iff its four bilinear source neighbors lie
    inside the source grid; source coordinates exactly on the far edge use
    the edge cell with fractional weight 1, so an identity transform is
    fully valid.  Invalid pixels get value 0.

    The output is evaluated in blocks of whole rows of about
    `_BLOCK_PIXELS` pixels, so the working memory is bounded by one block,
    not by the frame.  Each block gathers from the flattened planes at one
    flat index per pixel, plus scalar offsets for the other three bilinear
    taps, and sums the float64 products in the fixed order
    ((p00 (1-fx)) (1-fy) + (p01 fx) (1-fy)) + (p10 (1-fx)) fy + (p11 fx) fy.
    Every step is elementwise, so the result is the same bit for bit
    whatever the block size.
    """
    if out_width <= 0 or out_height <= 0:
        raise DimensionError("output dimensions must be positive")
    src = np.asarray(data)
    h, w = src.shape[-2:]
    out = np.zeros(src.shape[:-2] + (out_height, out_width), dtype=np.float32)
    valid = np.empty((out_height, out_width), dtype=bool)
    planes = src.reshape((-1, h * w))
    outs = out.reshape((-1, out_height * out_width))
    xs = np.arange(out_width, dtype=np.float64)
    ys = np.arange(out_height, dtype=np.float64)[:, None]
    rows = max(1, _BLOCK_PIXELS // out_width)
    for r0 in range(0, out_height, rows):
        # A finite transform far off the frame can overflow to +-inf, which
        # fails the range test, so such a pixel is merely invalid.
        with np.errstate(over="ignore"):
            sx, sy = transform.inverse_apply(xs, ys[r0:r0 + rows])
        block = slice(r0 * out_width, r0 * out_width + sx.size)
        _resample_block(planes, outs[:, block], valid.reshape(-1)[block],
                        sx.ravel(), sy.ravel(), w, h)
    return out, valid


def _resample_block(planes, outs, valid, sx, sy, w, h):
    """Write one block of `warp_array`'s output.

    `planes` are the source planes flattened to (P, h * w) and `outs` the
    block's span of each flattened output plane.  `sx` and `sy` are the
    block's flat source coordinates, overwritten here; `valid` receives the
    block's validity.  The block's temporaries are freed on return, so they
    do not outlive it into the next block.
    """
    np.greater_equal(sx, 0.0, out=valid)
    valid &= sx <= w - 1.0
    valid &= sy >= 0.0
    valid &= sy <= h - 1.0
    # Clamped in float, so every cast below is defined; valid pixels keep
    # their coordinates.
    np.clip(sx, 0.0, w - 1.0, out=sx)
    np.clip(sy, 0.0, h - 1.0, out=sy)

    x0 = np.floor(sx).astype(np.intp)
    y0 = np.floor(sy).astype(np.intp)
    np.minimum(x0, max(w - 2, 0), out=x0)
    np.minimum(y0, max(h - 2, 0), out=y0)
    # The weights overwrite the source coordinates, which are not needed again.
    fx = np.subtract(sx, x0, out=sx)
    fy = np.subtract(sy, y0, out=sy)
    gx, gy = 1 - fx, 1 - fy
    base = y0  # the flat index y0 * w + x0, formed in y0's buffer
    base *= w
    base += x0
    # Flat offsets of the right and lower taps; 0 on a one-pixel axis,
    # where the bilinear neighbor is the edge pixel itself.
    right, down = int(w > 1), w if h > 1 else 0
    taps = [(base + right, fx, gy), (base + down, gx, fy),
            (base + (right + down), fx, fy)]
    acc, tmp = np.empty_like(fx), np.empty_like(fx)
    for p, o in zip(planes, outs):
        np.multiply(p.take(base), gx, out=acc)
        acc *= gy
        for tap, wx, wy in taps:
            np.multiply(p.take(tap), wx, out=tmp)
            tmp *= wy
            acc += tmp
        np.copyto(o, acc, where=valid)


def warp_to_common(view: ViewInput, out_width: int, out_height: int) -> WarpedView:
    """Resample a view and all its attached maps into the common frame.

    The image and the maps present are stacked and interpolated bilinearly
    in one `warp_array` call.  The boundary mask enters the stack as its 0/1
    plane (any nonzero value is 1), so it comes out as a weight in [0, 1].
    """
    names = [n for n in MAPS if getattr(view, n) is not None]
    # np.stack promotes the mask's bools, so the other planes keep their dtype.
    planes = [np.asarray(view.boundary_mask) != 0 if n == "boundary_mask"
              else getattr(view, n) for n in names]
    warped, valid = warp_array(np.stack([view.image.data, *planes]),
                               view.to_common, out_width, out_height)
    return WarpedView(np.clip(warped[0], 0.0, 1.0, out=warped[0]), valid,
                      **dict(zip(names, warped[1:])))
