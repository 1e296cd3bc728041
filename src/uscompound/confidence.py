"""Per-pixel intensity confidence: how trustworthy a measured intensity is.

A confidence map is a float32 array in [0, 1] of the image's shape; it is
checked where it enters the library (`ViewInput`, `Image` for FMAP files).
Maps produced by external algorithms are loaded as FMAP files; a simple
per-column attenuation recurrence serves as the built-in fallback.
"""

from __future__ import annotations

import numpy as np

from .image import Image

__all__ = [
    "attenuation_intensity_confidence",
    "DEFAULT_DECAY",
    "DEFAULT_ABSORPTION",
]

# A 512-row image keeps exp(-0.002 * 511) ~ 0.36 baseline confidence at the
# bottom with these defaults.
DEFAULT_DECAY = 0.002
DEFAULT_ABSORPTION = 0.5


def attenuation_intensity_confidence(image: Image,
                                     decay: float = DEFAULT_DECAY,
                                     absorption: float = DEFAULT_ABSORPTION,
                                     ) -> np.ndarray:
    """Depth/absorption attenuation model, per column:

        c(x, 0) = 1
        c(x, y) = c(x, y-1) * exp(-decay) * exp(-absorption * I(x, y-1))

    Monotone non-increasing down every column; row 0 is all ones.  Returns
    a float32 array of the image's shape.
    """
    for name, value in (("decay", decay), ("absorption", absorption)):
        if not 0 <= value < np.inf:
            raise ValueError(f"{name} must be finite and non-negative")
    a = image.data
    h = a.shape[0]
    depth = np.arange(h, dtype=np.float64)[:, None]
    absorbed = np.zeros_like(a, dtype=np.float64)
    absorbed[1:] = np.cumsum(a[:-1], axis=0)
    c = np.exp(-decay * depth - absorption * absorbed)
    return c.astype(np.float32)
