"""Gaussian and Laplacian pyramids (Burt-Adelson style).

Layers are plain float64 arrays, finest first.  Blur and decimation act on
the last two axes (rows, columns); any leading axes are batch axes, so a
(V, H, W) stack of views gives (V, h, w) layers equal plane by plane to the
2-D results.  Layer k+1 has ceil-halved dimensions of layer k.  The blur
kernel is the 5-tap binomial (1, 4, 6, 4, 1)/16 applied separably with
reflect-101 borders; decimation keeps even indices.  Upsampling
zero-inserts to the target dims and blurs with the same kernel scaled x4,
which makes collapse an exact inverse of the analysis up to floating-point
error.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError

__all__ = [
    "gaussian_pyramid",
    "laplacian_pyramid",
    "laplacian_from_gaussian",
    "collapse",
    "partial_collapse",
    "upsample",
    "DEFAULT_LEVELS",
]

DEFAULT_LEVELS = 5

_KERNEL = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0


def _blur(a: np.ndarray) -> np.ndarray:
    # np.pad 'reflect' is reflect-101 (edge sample not repeated).
    h, w = a.shape[-2:]
    p = np.pad(a, [(0, 0)] * (a.ndim - 2) + [(2, 2), (2, 2)], mode="reflect")
    horiz = sum(k * p[..., i:i + w] for i, k in enumerate(_KERNEL))
    return sum(k * horiz[..., i:i + h, :] for i, k in enumerate(_KERNEL))


def _check(image: np.ndarray, levels: int) -> np.ndarray:
    a = np.asarray(image, dtype=np.float64)
    if a.ndim < 2:
        raise DimensionError("pyramid input must be at least 2-D")
    if levels < 2:
        raise DimensionError("need at least 2 pyramid levels")
    if min(a.shape[-2:]) < 2 ** (levels - 1):
        raise DimensionError(
            f"image {a.shape[-2:]} too small for {levels} levels "
            f"(needs >= {2 ** (levels - 1)} in both axes)")
    return a


def layer_shapes(height: int, width: int, levels: int) -> list[tuple[int, int]]:
    """Dimension chain for a pyramid, reproducible from dims and K alone."""
    shapes = [(height, width)]
    for _ in range(levels - 1):
        h, w = shapes[-1]
        shapes.append(((h + 1) // 2, (w + 1) // 2))
    return shapes


def gaussian_pyramid(image: np.ndarray, levels: int = DEFAULT_LEVELS) -> list[np.ndarray]:
    """Blur-and-decimate chain; layer 1 is the input itself."""
    a = _check(image, levels)
    layers = [a]
    for _ in range(levels - 1):
        layers.append(_blur(layers[-1])[..., ::2, ::2])
    return layers


def upsample(a: np.ndarray, target_shape: tuple[int, int]) -> np.ndarray:
    """Zero-insert `a` to the rows and columns that end `target_shape`, then
    blur with the x4-scaled kernel."""
    th, tw = target_shape[-2:]
    if ((th + 1) // 2, (tw + 1) // 2) != a.shape[-2:]:
        raise DimensionError(f"cannot upsample {a.shape} to {target_shape}")
    z = np.zeros(a.shape[:-2] + (th, tw), dtype=np.float64)
    z[..., ::2, ::2] = a
    return _blur(z) * 4.0


def laplacian_pyramid(image: np.ndarray, levels: int = DEFAULT_LEVELS) -> list[np.ndarray]:
    """Band-pass layers 1..K-1 plus the coarsest Gaussian layer as layer K."""
    return laplacian_from_gaussian(gaussian_pyramid(image, levels))


def laplacian_from_gaussian(g: list[np.ndarray]) -> list[np.ndarray]:
    """The Laplacian pyramid of an already built Gaussian pyramid `g`."""
    layers = [g[k] - upsample(g[k + 1], g[k].shape) for k in range(len(g) - 1)]
    return layers + [g[-1]]


def _check_chain(layers: list[np.ndarray]) -> None:
    if len(layers) < 2:
        raise DimensionError("pyramid must have at least 2 layers")
    h, w = layers[0].shape
    expected = layer_shapes(h, w, len(layers))
    for k, layer in enumerate(layers):
        if layer.shape != expected[k]:
            raise DimensionError(
                f"layer {k + 1} shape {layer.shape} breaks the dimension chain")


def partial_collapse(layers: list[np.ndarray], to_layer: int) -> np.ndarray:
    """Run the collapse recursion down to layer `to_layer` (1-indexed), unclamped."""
    _check_chain(layers)
    if not 1 <= to_layer <= len(layers):
        raise DimensionError(f"to_layer {to_layer} out of range 1..{len(layers)}")
    image = np.asarray(layers[-1], dtype=np.float64)
    for k in range(len(layers) - 2, to_layer - 2, -1):
        image = upsample(image, layers[k].shape) + layers[k]
    return image


def collapse(layers: list[np.ndarray]) -> np.ndarray:
    """Full reconstruction, clamped to [0, 1] at the end only."""
    return np.clip(partial_collapse(layers, 1), 0.0, 1.0)
