"""Quantitative evaluation: patch mean/variance ratios and a naive vessel
segmentation (Otsu threshold + ellipse fit) scored by the Dice coefficient.

Artifact patches should end up with low variance relative to the whole
image (artifacts suppressed), boundary patches with high variance
(contrast preserved).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateError, DimensionError, EllipseFitError,
                     check_fields, checked)
from .image import quantize8

__all__ = [
    "PatchSpec",
    "Ellipse",
    "MetricsReport",
    "extract_patch",
    "amr_avr",
    "otsu_threshold",
    "fit_ellipse",
    "ellipse_mask",
    "segment_vessel",
    "dice",
]


@dataclass(frozen=True)
class PatchSpec:
    x: int
    y: int
    width: int
    height: int
    label: str  # "boundary" or "artifact"

    def __post_init__(self):
        check_fields(self)
        if self.width <= 0 or self.height <= 0:
            raise DimensionError("patch dimensions must be positive")
        if self.label not in ("boundary", "artifact"):
            raise ValueError(f"unknown patch label {self.label!r}")

    @classmethod
    def from_dict(cls, d: dict) -> "PatchSpec":
        return cls(**checked(cls, d, "patch"))


@dataclass(frozen=True)
class Ellipse:
    cx: float
    cy: float
    a: float  # semi-major axis
    b: float  # semi-minor axis
    rotation: float  # major-axis angle, radians, in [0, pi)


@dataclass(frozen=True)
class MetricsReport:
    artifact_amr: float | None
    artifact_avr: float | None
    boundary_avr: float | None

    def to_dict(self) -> dict:
        return {"artifact_amr": self.artifact_amr,
                "artifact_avr": self.artifact_avr,
                "boundary_avr": self.boundary_avr}


def extract_patch(image: np.ndarray, patch: PatchSpec) -> np.ndarray:
    a = np.asarray(image)
    h, w = a.shape
    if (patch.x < 0 or patch.y < 0 or patch.x + patch.width > w
            or patch.y + patch.height > h):
        raise DimensionError(f"patch {patch} not fully inside {w}x{h} image")
    return a[patch.y:patch.y + patch.height, patch.x:patch.x + patch.width]


_ZERO_MEAN = "whole-image mean is zero; mean ratio undefined"
_ZERO_VARIANCE = "whole-image variance is zero; ratio undefined"


def _whole(stat, image, message: str) -> float:
    """`stat` of the whole image, which must be positive."""
    whole = float(stat(image))
    if whole <= 0.0:
        raise DegenerateError(message)
    return whole


def _mean_ratios(stat, image, patches, whole: float) -> float:
    """The mean over `patches` of `stat` of the patch over `whole`."""
    return float(np.mean([float(stat(extract_patch(image, p))) / whole
                          for p in patches]))


def amr_avr(image: np.ndarray, patches: list[PatchSpec]) -> MetricsReport:
    """Average mean ratio and average variance ratio, grouped by label: the
    mean over a group's patches of the patch's mean (or population
    variance) over the whole image's.  The whole image's mean and variance
    are taken once, and only for a group that has patches."""
    artifact = [p for p in patches if p.label == "artifact"]
    boundary = [p for p in patches if p.label == "boundary"]
    rep = dict.fromkeys(("artifact_amr", "artifact_avr", "boundary_avr"))
    if artifact:
        rep["artifact_amr"] = _mean_ratios(np.mean, image, artifact,
                                           _whole(np.mean, image, _ZERO_MEAN))
    if artifact or boundary:
        var = _whole(np.var, image, _ZERO_VARIANCE)
        if artifact:
            rep["artifact_avr"] = _mean_ratios(np.var, image, artifact, var)
        if boundary:
            rep["boundary_avr"] = _mean_ratios(np.var, image, boundary, var)
    return MetricsReport(**rep)


def otsu_threshold(patch: np.ndarray) -> int:
    """Otsu's threshold over a 256-bin histogram of the 8-bit quantized patch.

    Returns t in 0..254; foreground is `quantized > t`.  Ties pick the
    lowest threshold.
    """
    q = quantize8(np.asarray(patch))
    hist = np.bincount(q.ravel(), minlength=256).astype(np.float64)
    if np.count_nonzero(hist) < 2:
        raise DegenerateError("patch quantizes to a single bin; Otsu undefined")
    bins = np.arange(256, dtype=np.float64)
    w0 = np.cumsum(hist)
    total = w0[-1]
    m0 = np.cumsum(hist * bins)
    mean_total = m0[-1]
    w1 = total - w0
    with np.errstate(divide="ignore", invalid="ignore"):
        mu0 = m0 / w0
        mu1 = (mean_total - m0) / w1
        between = w0 * w1 * (mu0 - mu1) ** 2
    between[(w0 == 0) | (w1 == 0)] = -1.0
    return int(np.argmax(between[:255]))


def fit_ellipse(points: np.ndarray) -> Ellipse:
    """Direct least-squares conic fit constrained to ellipses.

    `points` is an (N, 2) array of (x, y).  Raises EllipseFitError for fewer
    than 6 points or when the fitted conic is not an ellipse.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 6:
        raise EllipseFitError("need at least 6 (x, y) points")
    # Recenter for conditioning; undo on the recovered center.
    mx, my = pts.mean(axis=0)
    x = pts[:, 0] - mx
    y = pts[:, 1] - my

    d1 = np.column_stack([x * x, x * y, y * y])
    d2 = np.column_stack([x, y, np.ones_like(x)])
    s1 = d1.T @ d1
    s2 = d1.T @ d2
    s3 = d2.T @ d2
    try:
        t = -np.linalg.solve(s3, s2.T)
    except np.linalg.LinAlgError:
        raise EllipseFitError("degenerate point configuration") from None
    m = s1 + s2 @ t
    m = np.array([m[2] / 2.0, -m[1], m[0] / 2.0])
    eigval, eigvec = np.linalg.eig(m)
    real = np.abs(eigval.imag) < 1e-9 if np.iscomplexobj(eigval) else np.ones(3, bool)
    eigvec = eigvec.real
    cond = 4.0 * eigvec[0] * eigvec[2] - eigvec[1] ** 2
    good = np.nonzero(real & (cond > 0))[0]
    if good.size == 0:
        raise EllipseFitError("fitted conic is not an ellipse")
    a1 = eigvec[:, good[0]]
    coeffs = np.concatenate([a1, t @ a1])  # A, B, C, D, E, F (centered frame)

    A, B, C, D, E, F = coeffs
    den = B * B - 4 * A * C
    if den >= 0:
        raise EllipseFitError("fitted conic is not an ellipse")
    cx = (2 * C * D - B * E) / den
    cy = (2 * A * E - B * D) / den
    fc = A * cx * cx + B * cx * cy + C * cy * cy + D * cx + E * cy + F
    m0 = np.array([[A, B / 2.0], [B / 2.0, C]])
    lam, vec = np.linalg.eigh(m0)
    if fc == 0 or np.any(lam * (-fc) <= 0):
        raise EllipseFitError("degenerate ellipse (zero area)")
    axes = np.sqrt(-fc / lam)
    order = np.argsort(-axes)  # major first
    major, minor = axes[order]
    v = vec[:, order[0]]
    rotation = float(np.arctan2(v[1], v[0])) % np.pi
    return Ellipse(float(cx + mx), float(cy + my), float(major), float(minor),
                   rotation)


def ellipse_mask(ellipse: Ellipse, height: int, width: int) -> np.ndarray:
    """Boolean mask of the ellipse interior over pixel centers."""
    dx = np.arange(width) - ellipse.cx
    dy = np.arange(height)[:, None] - ellipse.cy
    c, s = np.cos(ellipse.rotation), np.sin(ellipse.rotation)
    u = c * dx + s * dy
    v = -s * dx + c * dy
    return (u / ellipse.a) ** 2 + (v / ellipse.b) ** 2 <= 1.0


def segment_vessel(patch: np.ndarray) -> tuple[np.ndarray, Ellipse]:
    """Otsu-threshold the patch, fit an ellipse to the bright candidate
    pixels, and return the interior mask plus the fitted ellipse.

    Propagates DegenerateError/EllipseFitError when no ellipse can be fit.
    """
    a = np.asarray(patch)
    t = otsu_threshold(a)
    ys, xs = np.nonzero(quantize8(a) > t)
    ell = fit_ellipse(np.column_stack([xs, ys]))
    return ellipse_mask(ell, a.shape[0], a.shape[1]), ell


def dice(a: np.ndarray, b: np.ndarray) -> float:
    """2|A n B| / (|A| + |B|); two empty masks count as identical (1.0)."""
    am = np.asarray(a, dtype=bool)
    bm = np.asarray(b, dtype=bool)
    if am.shape != bm.shape:
        raise DimensionError("masks must share dimensions")
    total = int(am.sum()) + int(bm.sum())
    if total == 0:
        return 1.0
    return 2.0 * int((am & bm).sum()) / total
