"""Deterministic synthetic multi-view B-mode scenes with ground truth.

The scene lives in the common frame: an elliptical vessel wall plus
horizontal reflector segments.  Each view renders the scene in its own
native frame (the inverse of its `to_common` transform).  Reflectors that
stay near-horizontal in a view's frame (within +/-20 degrees of the lateral
axis) spawn a reverberation echo train straight down the beam and cast an
acoustic shadow below; reflectors seen near-vertically do neither.

Speckle is additive Rayleigh noise, inverse-transform sampled from an
explicit xorshift64* stream (state' per step: s ^= s >> 12; s ^= s << 25;
s ^= s >> 27; output (s * 0x2545F4914F6CDD1D) mod 2^64, whose top 53 bits
scale to [0, 1)), so fixtures are bit-identical across platforms.  One step
is linear over GF(2), a 64x64 bit matrix T, so a view's stream is cut into
lanes that start from jump-ahead states T^(j*m) s0 and are stepped together
as uint64 arrays; the draws equal the serial stream's bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import SpecError, checked
from .image import Image, RigidTransform2D

__all__ = [
    "VesselSpec",
    "ReverbSpec",
    "ReflectorSpec",
    "SpeckleSpec",
    "PhantomSpec",
    "PhantomView",
    "PhantomScene",
    "generate",
]

NEAR_HORIZONTAL_DEG = 20.0

_MASK64 = (1 << 64) - 1
_MULT = 0x2545F4914F6CDD1D
_ZERO_SEED_STATE = 0x9E3779B97F4A7C15
# Number of lanes the speckle stream is split into and stepped together.
_LANES = 512


def _step(s: np.ndarray) -> np.ndarray:
    """One xorshift64* state step of every uint64 in `s`, in place."""
    s ^= s >> 12
    s ^= s << 25
    s ^= s >> 27
    return s


def _bits(s: np.ndarray) -> np.ndarray:
    """(k, 64) uint8 bits of the uint64 vector `s`, column i = bit i."""
    return np.unpackbits(s.astype("<u8").view(np.uint8).reshape(-1, 8),
                         axis=1, bitorder="little")


def _apply(m: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The GF(2) matrix `m` applied to each uint64 of `s`."""
    b = np.packbits(_bits(s) @ m.T & 1, axis=1, bitorder="little")
    return b.view("<u8").ravel().astype(np.uint64)


def _matpow(m: np.ndarray, e: int) -> np.ndarray:
    """`m`**`e` over GF(2), for a 0/1 matrix `m`."""
    out = np.eye(len(m), dtype=np.int64)
    while e:
        if e & 1:
            out = out @ m & 1
        m = m @ m & 1
        e >>= 1
    return out


# T: the 64x64 GF(2) matrix of one step; column i is the step of bit i.
_STEP_MATRIX = _bits(_step(np.uint64(1) << np.arange(64, dtype=np.uint64))
                     ).T.astype(np.int64)


def _xorshift64star(seed: int, n: int) -> np.ndarray:
    """The first `n` >= 1 uint64 outputs of xorshift64* seeded with `seed`
    (a zero state falls back to 0x9E3779B97F4A7C15), as one serial stream.

    The stream is cut into lanes of m = ceil(n / _LANES) draws.  Lane j
    starts at T^(j*m) s0; the starts are found by doubling (T^m, T^2m, ...
    applied to the starts known so far), then all lanes step together.
    """
    m = -(-n // _LANES)
    lanes = -(-n // m)
    starts = np.array([(seed & _MASK64) or _ZERO_SEED_STATE], dtype=np.uint64)
    jump = _matpow(_STEP_MATRIX, m)
    while len(starts) < lanes:
        starts = np.concatenate([starts, _apply(jump, starts)])
        jump = jump @ jump & 1
    s = starts[:lanes]
    out = np.empty((m, lanes), dtype=np.uint64)
    for t in range(m):
        np.multiply(_step(s), _MULT, out=out[t])
    return out.T.reshape(-1)[:n]


def _rayleigh(seed: int, scale: float, n: int) -> np.ndarray:
    """`n` Rayleigh draws of `scale`, inverse-transform sampled from the
    top 53 bits of each xorshift64* output."""
    u = (_xorshift64star(seed, n) >> 11).astype(np.float64) * (1.0 / (1 << 53))
    return scale * np.sqrt(-2.0 * np.log1p(-u))


@dataclass(frozen=True)
class VesselSpec:
    cx: float
    cy: float
    a: float
    b: float
    wall_thickness: float = 3.0
    wall_intensity: float = 0.8
    rotation: float = 0.0


@dataclass(frozen=True)
class ReverbSpec:
    count: int = 3
    spacing: float = 30.0     # rows between consecutive echoes
    decay: float = 0.5        # per-echo intensity factor, in (0, 1)


@dataclass(frozen=True)
class ReflectorSpec:
    row: float
    col_start: float
    col_end: float
    intensity: float = 0.9
    thickness: float = 3.0
    reverb: ReverbSpec | None = None
    shadow: float = 1.0       # attenuation factor applied below, 1 = none


@dataclass(frozen=True)
class SpeckleSpec:
    scale: float = 0.03       # Rayleigh scale
    seed: int = 1


def _optional(kind, value, what: str):
    """`kind` built from the JSON table `value`, or None if `value` is null;
    any other value that is not a table is a SpecError."""
    return None if value is None else kind(**checked(kind, value, what))


@dataclass(frozen=True)
class PhantomSpec:
    width: int
    height: int
    vessel: VesselSpec | None = None
    reflectors: tuple[ReflectorSpec, ...] = ()
    speckle: SpeckleSpec | None = None
    views: tuple[RigidTransform2D, ...] = (RigidTransform2D(),)

    @classmethod
    def from_dict(cls, d: dict) -> "PhantomSpec":
        checked(cls, d, "phantom spec")
        vessel = _optional(VesselSpec, d.get("vessel"), "vessel")
        reflectors = []
        for i, r in enumerate(d.get("reflectors", [])):
            r = ReflectorSpec(**checked(ReflectorSpec, r, f"reflectors[{i}]"))
            reflectors.append(replace(r, reverb=_optional(
                ReverbSpec, r.reverb, f"reflectors[{i}].reverb")))
        speckle = _optional(SpeckleSpec, d.get("speckle"), "speckle")
        views = tuple(RigidTransform2D.from_dict(v) for v in d.get("views", [{}]))
        return cls(d["width"], d["height"], vessel,
                   tuple(reflectors), speckle, views)


@dataclass
class PhantomView:
    image: Image                 # native frame
    boundary_mask: np.ndarray    # ground truth: vessel wall + reflector pixels
    artifact_mask: np.ndarray    # ground truth: reverberation echo pixels
    to_common: RigidTransform2D


@dataclass
class PhantomScene:
    views: list[PhantomView]
    spec: PhantomSpec


def _validate(spec: PhantomSpec) -> None:
    w, h = spec.width, spec.height
    if w <= 0 or h <= 0:
        raise SpecError("phantom dimensions must be positive")
    if not spec.views:
        raise SpecError("phantom views must list at least one view")
    if spec.speckle is not None and spec.speckle.scale < 0:
        raise SpecError("speckle scale must not be negative")
    if spec.vessel is not None:
        v = spec.vessel
        r = max(v.a, v.b) + v.wall_thickness
        if not (0 <= v.cx - r and v.cx + r < w and 0 <= v.cy - r and v.cy + r < h):
            raise SpecError("vessel extends outside the phantom")
        if v.a <= 0 or v.b <= 0 or v.wall_thickness <= 0:
            raise SpecError("vessel axes and wall thickness must be positive")
        if v.wall_intensity <= 0:
            raise SpecError("vessel wall_intensity must be positive")
    for refl in spec.reflectors:
        if not (0 <= refl.col_start <= refl.col_end < w and 0 <= refl.row < h):
            raise SpecError("reflector outside the phantom")
        if refl.thickness <= 0 or refl.intensity <= 0:
            raise SpecError("reflector thickness and intensity must be positive")
        if refl.reverb is not None and not 0.0 < refl.reverb.decay < 1.0:
            raise SpecError("echo decay factor must lie in (0, 1)")
        if refl.reverb is not None and refl.reverb.spacing <= 0:
            raise SpecError("reverb spacing must be positive")
        if not 0.0 <= refl.shadow <= 1.0:
            raise SpecError("shadow factor must lie in [0, 1]")


def _wrap_angle(a: float) -> float:
    """Fold to (-pi/2, pi/2]: segment orientation modulo 180 degrees."""
    a = math.fmod(a, math.pi)
    if a > math.pi / 2:
        a -= math.pi
    elif a <= -math.pi / 2:
        a += math.pi
    return a


def _render_view(spec: PhantomSpec, t: RigidTransform2D,
                 rng_seed: int) -> PhantomView:
    w, h = spec.width, spec.height
    img = np.zeros((h, w), dtype=np.float64)
    boundary = np.zeros((h, w), dtype=bool)
    artifact = np.zeros((h, w), dtype=bool)
    qx, qy = t.apply(np.arange(w, dtype=np.float64),
                     np.arange(h, dtype=np.float64)[:, None])

    if spec.vessel is not None:
        v = spec.vessel
        c, s = math.cos(v.rotation), math.sin(v.rotation)
        dx, dy = qx - v.cx, qy - v.cy
        u = c * dx + s * dy
        vv = -s * dx + c * dy
        rho = np.sqrt((u / v.a) ** 2 + (vv / v.b) ** 2)
        half = v.wall_thickness / (2.0 * min(v.a, v.b))
        wall = np.abs(rho - 1.0) <= half
        img[wall] = v.wall_intensity
        boundary |= wall

    near_horizontal = abs(_wrap_angle(-t.rotation)) <= math.radians(NEAR_HORIZONTAL_DEG)

    for refl in spec.reflectors:
        hit = ((qy >= refl.row) & (qy < refl.row + refl.thickness)
               & (qx >= refl.col_start) & (qx <= refl.col_end))
        img[hit] = np.maximum(img[hit], refl.intensity)
        boundary |= hit
        if not near_horizontal:
            continue
        rows, cols = np.nonzero(hit)
        if rows.size == 0:
            continue
        # Shadow: attenuate everything below the reflector in each column.
        if refl.shadow < 1.0:
            for col in np.unique(cols):
                bottom = rows[cols == col].max()
                img[bottom + 1:, col] *= refl.shadow
        # Echo train straight down the beam at multiples of the spacing.
        if refl.reverb is not None:
            rv = refl.reverb
            for n in range(1, rv.count + 1):
                erows = rows + int(round(n * rv.spacing))
                keep = erows < h
                if not keep.any():
                    break
                level = refl.intensity * rv.decay ** n
                er, ec = erows[keep], cols[keep]
                img[er, ec] = np.maximum(img[er, ec], level)
                artifact[er, ec] = True

    if spec.speckle is not None:
        noise = _rayleigh(rng_seed, spec.speckle.scale, h * w).reshape(h, w)
        img = img + noise

    artifact &= ~boundary  # ground-truth masks stay disjoint
    return PhantomView(Image(np.clip(img, 0.0, 1.0).astype(np.float32)),
                       boundary, artifact, t)


def generate(spec: PhantomSpec) -> PhantomScene:
    """Render every view of the scene; bit-identical for identical specs."""
    _validate(spec)
    base_seed = spec.speckle.seed if spec.speckle is not None else 0
    views = []
    for idx, t in enumerate(spec.views):
        seed = (base_seed ^ ((idx + 1) * 0x9E3779B97F4A7C15)) & _MASK64
        views.append(_render_view(spec, t, seed))
    return PhantomScene(views, spec)
