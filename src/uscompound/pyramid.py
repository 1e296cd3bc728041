"""Gaussian and Laplacian pyramids (Burt-Adelson style).

Layers are plain float64 arrays, finest first.  Blur and decimation act on
the last two axes (rows, columns); any leading axes are batch axes, so a
(V, H, W) stack of views gives (V, h, w) layers equal plane by plane to the
2-D results.  Layer k+1 has ceil-halved dimensions of layer k.  The blur
kernel is the 5-tap binomial (1, 4, 6, 4, 1)/16 applied separably with
reflect-101 borders; decimation keeps even indices.  Upsampling
zero-inserts to the target dims and blurs with the same kernel scaled x4,
which makes collapse an exact inverse of the analysis up to floating-point
error.  A Laplacian pyramid is built from a Gaussian pyramid the caller
holds: `laplacian_pyramid(gaussian_pyramid(image, levels))`.

Both are evaluated only where they matter, as Burt and Adelson define
REDUCE and EXPAND: the blur of a reduction only at the even rows and
columns it keeps, and the blur of an expansion only over the samples that
can be non-zero, by output phase (reflect-101 keeps parity, so the other
taps meet inserted zeros).  The products are the same and are summed in
the same order from 0, so both equal the full blur bit for bit, signed
zeros included.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError

__all__ = [
    "gaussian_pyramid",
    "laplacian_pyramid",
    "collapse",
    "partial_collapse",
    "upsample",
    "DEFAULT_LEVELS",
]

DEFAULT_LEVELS = 5

_KERNEL = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0


def _reduce(a: np.ndarray) -> np.ndarray:
    """The 5-tap blur of `a` at its even rows and columns only."""
    # np.pad 'reflect' is reflect-101 (edge sample not repeated).
    h, w = a.shape[-2:]
    p = np.pad(a, [(0, 0)] * (a.ndim - 2) + [(2, 2), (2, 2)], mode="reflect")
    horiz = sum(k * p[..., i:i + w:2] for i, k in enumerate(_KERNEL))
    return sum(k * horiz[..., i:i + h:2, :] for i, k in enumerate(_KERNEL))


def _along(axis: int, s: slice) -> tuple:
    """Index applying slice `s` to `axis` (-1 or -2) of an array."""
    return (Ellipsis, s) if axis == -1 else (Ellipsis, s, slice(None))


def _expand(x: np.ndarray, n: int, axis: int) -> np.ndarray:
    """The 5-tap blur along `axis` of `x` zero-inserted to length `n`.

    Reflect-101 keeps parity for n >= 2, so even outputs meet samples of `x`
    at taps 0, 2, 4 and odd outputs at taps 1, 3; the other taps meet
    inserted zeros and add exactly +0.0 to a sum started from 0.
    """
    if n == 1:
        # a single sample reflects onto itself at every tap
        return sum(k * x for k in _KERNEL)
    m, half = x.shape[axis], n // 2
    # the zero-inserted axis reflects onto x[lo] before x and x[hi] after it
    lo, hi = (1 if n > 2 else 0), (m - 1 if n % 2 == 0 else m - 2)
    xp = np.concatenate([x[_along(axis, slice(lo, lo + 1))], x,
                         x[_along(axis, slice(hi, hi + 1))]], axis=axis)
    shape = list(x.shape)
    shape[axis] = n
    out = np.empty(shape)
    out[_along(axis, slice(0, None, 2))] = sum(
        _KERNEL[2 * j] * xp[_along(axis, slice(j, j + m))] for j in range(3))
    out[_along(axis, slice(1, None, 2))] = sum(
        _KERNEL[2 * j + 1] * xp[_along(axis, slice(j + 1, j + 1 + half))]
        for j in range(2))
    return out


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
        layers.append(_reduce(layers[-1]))
    return layers


def upsample(a: np.ndarray, target_shape: tuple[int, int]) -> np.ndarray:
    """Zero-insert `a` to the rows and columns that end `target_shape`, then
    blur with the x4-scaled kernel."""
    a = np.asarray(a, dtype=np.float64)
    if len(target_shape) < 2:
        raise DimensionError(f"upsample target {target_shape} must be at least 2-D")
    th, tw = target_shape[-2:]
    if ((th + 1) // 2, (tw + 1) // 2) != a.shape[-2:]:
        raise DimensionError(f"cannot upsample {a.shape} to {target_shape}")
    return _expand(_expand(a, tw, -1), th, -2) * 4.0


def laplacian_pyramid(g: list[np.ndarray]) -> list[np.ndarray]:
    """The Laplacian pyramid of the Gaussian pyramid `g`, as the caller holds
    it from `gaussian_pyramid`: band-pass layers g[k] - EXPAND(g[k+1]) for
    layers 1..K-1, plus the coarsest Gaussian layer as layer K."""
    _check_chain(g)
    layers = [g[k] - upsample(g[k + 1], g[k].shape) for k in range(len(g) - 1)]
    return layers + [g[-1]]


def _check_chain(layers: list[np.ndarray]) -> None:
    if len(layers) < 2:
        raise DimensionError("pyramid must have at least 2 layers")
    if layers[0].ndim < 2:
        raise DimensionError("pyramid layers must be at least 2-D")
    batch = layers[0].shape[:-2]
    expected = layer_shapes(*layers[0].shape[-2:], len(layers))
    for k, layer in enumerate(layers):
        if layer.shape != batch + expected[k]:
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
