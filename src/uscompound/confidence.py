"""Per-pixel confidence maps.

Two roles: intensity confidence (how trustworthy a measured intensity is)
and structural confidence (how likely the pixel shows real anatomy rather
than artifact or shadow).  Maps produced by external algorithms can be
loaded from FMAP files; a simple per-column attenuation recurrence serves
as the built-in fallback for intensity confidence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .image import Image, load_image, save_image, unit_grid

__all__ = [
    "ConfidenceMap",
    "attenuation_intensity_confidence",
    "uniform_structural_confidence",
    "load_confidence",
    "save_confidence",
    "DEFAULT_DECAY",
    "DEFAULT_ABSORPTION",
]

# A 512-row image keeps exp(-0.002 * 511) ~ 0.36 baseline confidence at the
# bottom with these defaults.
DEFAULT_DECAY = 0.002
DEFAULT_ABSORPTION = 0.5

KINDS = ("intensity", "structural")


@dataclass(frozen=True)
class ConfidenceMap:
    data: np.ndarray  # float32, values in [0, 1]
    kind: str

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        object.__setattr__(self, "data", unit_grid(self.data, "confidence map"))


def attenuation_intensity_confidence(image: Image | np.ndarray,
                                     decay: float = DEFAULT_DECAY,
                                     absorption: float = DEFAULT_ABSORPTION,
                                     ) -> ConfidenceMap:
    """Depth/absorption attenuation model, per column:

        c(x, 0) = 1
        c(x, y) = c(x, y-1) * exp(-decay) * exp(-absorption * I(x, y-1))

    Monotone non-increasing down every column; row 0 is all ones.
    """
    if decay < 0 or absorption < 0:
        raise ValueError("decay and absorption must be non-negative")
    a = image.data if isinstance(image, Image) else np.asarray(image, dtype=np.float64)
    h = a.shape[0]
    depth = np.arange(h, dtype=np.float64)[:, None]
    absorbed = np.zeros_like(a, dtype=np.float64)
    absorbed[1:] = np.cumsum(a[:-1], axis=0)
    c = np.exp(-decay * depth - absorption * absorbed)
    return ConfidenceMap(c.astype(np.float32), "intensity")


def uniform_structural_confidence(width: int, height: int) -> ConfidenceMap:
    """All-ones structural confidence: the degenerate mode in which the
    compounding gate reduces to pure contrast maximization."""
    if width <= 0 or height <= 0:
        raise DimensionError("dimensions must be positive")
    return ConfidenceMap(np.ones((height, width), dtype=np.float32), "structural")


def load_confidence(path, kind: str) -> ConfidenceMap:
    return ConfidenceMap(load_image(path).data, kind)


def save_confidence(cmap: ConfidenceMap, path) -> None:
    save_image(Image(cmap.data), path, format="fmap")
