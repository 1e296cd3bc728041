"""Image container, PGM/FMAP file I/O and rigid warping into a common frame.

Images are single-channel intensity grids with values in [0, 1], stored as
float32 numpy arrays of shape (height, width), row-major, top row first.
The y axis points down (the axial / depth direction of the probe).

`warp_array` resamples the last two axes (rows, columns); any leading axes
are batch axes, so a (N, H, W) stack of maps of one view is warped with one
shared set of source positions and equals plane by plane the 2-D results.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, FormatError, RangeError, checked

__all__ = [
    "Image",
    "RigidTransform2D",
    "ViewInput",
    "WarpedView",
    "load_image",
    "save_image",
    "warp_array",
    "warp_to_common",
]


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
    expressed in pixels of the common frame.
    """

    rotation: float = 0.0
    dx: float = 0.0
    dy: float = 0.0

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
    stored as given; the boundary mask is boolean.
    """

    image: Image
    to_common: RigidTransform2D = field(default_factory=RigidTransform2D)
    intensity_confidence: np.ndarray | None = None
    structural_confidence: np.ndarray | None = None
    boundary_mask: np.ndarray | None = None

    def __post_init__(self):
        shape = self.image.data.shape
        for name in ("intensity_confidence", "structural_confidence", "boundary_mask"):
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
    """A viewpoint resampled into the common frame with a validity mask."""

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

def _source_coords(transform: RigidTransform2D, out_width: int, out_height: int):
    qx, qy = np.meshgrid(np.arange(out_width, dtype=np.float64),
                         np.arange(out_height, dtype=np.float64))
    return transform.inverse_apply(qx, qy)


def warp_array(data: np.ndarray, transform: RigidTransform2D,
               out_width: int, out_height: int, nearest: bool = False):
    """Inverse-map `data` (native frame) into the common frame.

    `data` is (..., H, W); leading axes are batch axes, and every (H, W)
    plane shares one computation of source positions, validity, corner
    indices and weights, so a stack equals plane by plane the 2-D results.

    Returns (warped, validity): warped is (..., out_height, out_width),
    float32 if bilinear, `data`'s dtype if nearest; validity is 2-D.  A
    common-frame pixel is valid iff its four bilinear source neighbors lie
    inside the source grid; source coordinates exactly on the far edge use
    the edge cell with fractional weight 1, so an identity transform is
    fully valid.  Invalid pixels get value 0.
    """
    if out_width <= 0 or out_height <= 0:
        raise DimensionError("output dimensions must be positive")
    src = np.asarray(data)
    h, w = src.shape[-2:]
    sx, sy = _source_coords(transform, out_width, out_height)
    valid = (sx >= 0.0) & (sx <= w - 1.0) & (sy >= 0.0) & (sy <= h - 1.0)

    if nearest:
        ix = np.clip(np.rint(sx).astype(np.intp), 0, w - 1)
        iy = np.clip(np.rint(sy).astype(np.intp), 0, h - 1)
        out = np.where(valid, src[..., iy, ix], 0)
        return out.astype(src.dtype), valid

    x0 = np.clip(np.floor(sx).astype(np.intp), 0, w - 2) if w > 1 else np.zeros_like(sx, np.intp)
    y0 = np.clip(np.floor(sy).astype(np.intp), 0, h - 2) if h > 1 else np.zeros_like(sy, np.intp)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    # The weights overwrite the source coordinates, which are not needed again.
    fx = np.subtract(sx, x0, out=sx)
    fy = np.subtract(sy, y0, out=sy)
    out = np.zeros(src.shape[:-2] + (out_height, out_width), dtype=np.float32)
    planes = src.reshape((-1, h, w))
    for p, o in zip(planes, out.reshape((-1, out_height, out_width))):
        vals = (p[y0, x0] * (1 - fx) * (1 - fy) + p[y0, x1] * fx * (1 - fy)
                + p[y1, x0] * (1 - fx) * fy + p[y1, x1] * fx * fy)
        np.copyto(o, vals, where=valid)
    return out, valid


def warp_to_common(view: ViewInput, out_width: int, out_height: int) -> WarpedView:
    """Resample a view and all its attached maps into the common frame.

    The image and the confidence maps present are stacked and interpolated
    bilinearly in one call; the boundary mask uses nearest-neighbor so it
    stays binary.  Both calls sample the same source positions.
    """
    t = view.to_common
    names = [n for n in ("intensity_confidence", "structural_confidence")
             if getattr(view, n) is not None]
    stack = np.stack([view.image.data] + [getattr(view, n) for n in names])
    planes, valid = warp_array(stack, t, out_width, out_height)
    out = WarpedView(np.clip(planes[0], 0.0, 1.0, out=planes[0]), valid,
                     **dict(zip(names, planes[1:])))
    if view.boundary_mask is not None:
        m = warp_array(view.boundary_mask.astype(np.uint8), t,
                       out_width, out_height, nearest=True)[0]
        out.boundary_mask = m.astype(bool)
    return out
