"""Per-pixel intensity confidence: how trustworthy a measured intensity is.

A confidence map is a float32 array in [0, 1] of the image's shape; it is
checked where it enters the library (`ViewInput`, `Image` for FMAP files).
Maps produced by external algorithms are loaded as FMAP files; a simple
per-column attenuation recurrence serves as the built-in fallback.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import check_fields
from .image import Image

__all__ = ["AttenuationParams", "attenuation_intensity_confidence"]


@dataclass(frozen=True)
class AttenuationParams:
    """Rates of the attenuation model.  A 512-row image keeps
    exp(-0.002 * 511) ~ 0.36 baseline confidence at the bottom with these
    defaults."""

    decay: float = 0.002      # per row of depth
    absorption: float = 0.5   # per unit of intensity above

    def __post_init__(self):
        check_fields(self)
        for name in ("decay", "absorption"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must not be negative")


def attenuation_intensity_confidence(image: Image,
                                     params: AttenuationParams = AttenuationParams(),
                                     ) -> np.ndarray:
    """Depth/absorption attenuation model, per column:

        c(x, 0) = 1
        c(x, y) = c(x, y-1) * exp(-decay) * exp(-absorption * I(x, y-1))

    Monotone non-increasing down every column; row 0 is all ones.  Returns
    a float32 array of the image's shape.
    """
    a = image.data
    h = a.shape[0]
    depth = np.arange(h, dtype=np.float64)[:, None]
    absorbed = np.zeros_like(a, dtype=np.float64)
    absorbed[1:] = np.cumsum(a[:-1], axis=0)
    c = np.exp(-params.decay * depth - params.absorption * absorbed)
    return c.astype(np.float32)
