"""Gaussian and Laplacian pyramids (Burt-Adelson style).

Layers are finest first: layer 1 is the input as given where it is float32,
float64 or bool, and every coarser layer is a plain array.  Every layer,
band and collapse computed from inputs takes one dtype,
`float_dtype(inputs...)`, which is `np.result_type(inputs..., np.float32)`:
float32 from bool and float32 inputs, float64 from float64 ones (a layer 1
of any other dtype is converted by the same rule, so uint8 gives float32
and int64 float64). `gaussian_pyramid` can be asked for float64 coarser
layers of a float32 or bool input.  The kernel taps are Python floats, exact
in float32, which take the dtype of the layer they multiply, so float64
layers are the same bit for bit as with a float64 kernel.  Blur and
decimation act on the last two axes (rows, columns); any leading axes are
batch axes.  A stack of views is an array (V, H, W) or a sequence of V
(H, W) planes, read plane by plane as `blocks.as_planes` gives them and
never copied into one array: layer 1 of a sequence is the list of its
planes, and every coarser layer is one (V, h, w) array equal plane by plane
to the 2-D results.  Layer k+1 has ceil-halved dimensions of layer k.  The
blur kernel is the 5-tap binomial (1, 4, 6, 4, 1)/16 applied separably
with reflect-101 borders; decimation keeps even indices.  Upsampling
zero-inserts to the target dims and blurs with the same kernel scaled x4,
which makes collapse an exact inverse of the analysis up to floating-point
error.  A Laplacian
pyramid is built from a Gaussian pyramid the caller holds:
`laplacian_pyramid(gaussian_pyramid(image, levels))`.

Both are evaluated only where they matter, as Burt and Adelson define
REDUCE and EXPAND: the blur of a reduction only at the even rows and
columns it keeps, and the blur of an expansion only over the samples that
can be non-zero, by output phase (reflect-101 keeps parity, so the other
taps meet inserted zeros).  The products are the same and are summed in
the same order from 0, so both equal the full blur bit for bit, signed
zeros included.

Both work in the row blocks of `blocks.row_blocks` over the rows of the
coarser layer, each counted as the two rows of the finer layer it spans,
reading its rows and the reflect-101 border of each plane by index and
summing its taps in block-sized buffers.  EXPAND is written once, as the
row-block iterator `expand_blocks`; `upsample` fills its output from it,
and a caller that needs one band at a time (the pyramid fusion) subtracts
each plane into its fresh EXPAND block, as `laplacian_pyramid` subtracts,
and the collapse adds, into the fresh EXPAND result.  So beyond its output
each holds one block, and every result is the same bit for bit whatever
the block size.
"""

from __future__ import annotations

import numpy as np

from .blocks import as_planes, row_blocks
from .errors import DimensionError

__all__ = [
    "gaussian_pyramid",
    "laplacian_pyramid",
    "collapse",
    "partial_collapse",
    "upsample",
    "expand_blocks",
    "float_dtype",
    "DEFAULT_LEVELS",
]

DEFAULT_LEVELS = 5

# Python floats, which take the dtype of the layer they multiply.
_KERNEL = [1.0 / 16.0, 4.0 / 16.0, 6.0 / 16.0, 4.0 / 16.0, 1.0 / 16.0]


def float_dtype(*layers) -> np.dtype:
    """The dtype of a layer computed from `layers`: float32 from bool,
    float32, float16 and 8- or 16-bit integer inputs, float64 from float64
    and wider integer ones.  A layer that is not an array counts as a
    sequence of planes, as in `blocks.as_planes`, whose dtypes are read one
    by one, not from a stack of them."""
    return np.result_type(*{np.asarray(p).dtype for a in layers
                            for p in ([a] if isinstance(a, np.ndarray) else a)},
                          np.float32)


def _tap_sum(terms) -> np.ndarray:
    """0 + k0 * x0 + k1 * x1 + ... over the (k, x) `terms`, summed in order
    into one new contiguous array (numpy sums into a strided one at half the
    speed)."""
    (k, x), *rest = terms
    out = np.multiply(x, k)
    out += 0.0          # as 0 + k0 * x0: a -0.0 product becomes +0.0
    product = np.empty_like(out)
    for k, x in rest:
        out += np.multiply(x, k, out=product)
    return out


def _gather(planes: list[np.ndarray], rows: np.ndarray, cols: np.ndarray,
            pad: int, dtype) -> np.ndarray:
    """`plane[rows[:, None], cols]` of each of the `planes`, as one
    (len(planes), len(rows), len(cols)) array of `dtype`, for `cols` that
    run 0, 1, ..., w - 1 between `pad` edge indices before and after; the
    run is copied whole, which is many times faster than indexing it column
    by column."""
    w = len(cols) - 2 * pad
    p = np.empty((len(planes), len(rows), len(cols)), dtype)
    for plane, q in zip(planes, p):
        q[:, pad:pad + w] = plane[rows]
    p[..., :pad] = p[..., pad + cols[:pad]]
    p[..., pad + w:] = p[..., pad + cols[pad + w:]]
    return p


def _reduce(a, dtype) -> np.ndarray:
    """The 5-tap blur of the stack `a` at its even rows and columns only, as
    `dtype`, in blocks of output rows, each reading its rows and columns of
    every plane padded by index."""
    planes, shape = as_planes(a, "pyramid layer")
    h, w = shape[-2:]
    # np.pad 'reflect' is reflect-101 (edge sample not repeated).
    padded, cols = (np.pad(np.arange(n), 2, mode="reflect") for n in (h, w))
    out = np.empty((len(planes), (h + 1) // 2, (w + 1) // 2), dtype)
    for rows in row_blocks(out.shape[-2], 2 * w):
        block = out[:, rows, :]
        n = block.shape[-2]
        # output row r reads padded rows 2r .. 2r + 4
        p = _gather(planes, padded[2 * rows.start:2 * rows.stop + 3], cols, 2,
                    out.dtype)
        horiz = _tap_sum([(k, p[..., i:i + w:2]) for i, k in enumerate(_KERNEL)])
        block[...] = _tap_sum([(k, horiz[..., i:i + 2 * n:2, :])
                               for i, k in enumerate(_KERNEL)])
    return out.reshape(shape[:-2] + out.shape[-2:])


def _along(axis: int, s: slice) -> tuple:
    """Index applying slice `s` to `axis` (-1 or -2) of an array."""
    return (Ellipsis, s) if axis == -1 else (Ellipsis, s, slice(None))


def _zero_insert_reflect(m: int, n: int) -> np.ndarray:
    """Indices of m samples, zero-inserted to length n, with the sample that
    reflect-101 meets before the first and after the last of them."""
    lo, hi = (1 if n > 2 else 0), (m - 1 if n % 2 == 0 else max(m - 2, 0))
    return np.concatenate(([lo], np.arange(m), [hi]))


def _expand(xp: np.ndarray, n: int, axis: int, out: np.ndarray) -> np.ndarray:
    """Write into `out` the 5-tap blur along `axis` of samples zero-inserted
    to length `n`.  `xp` holds the samples that `out` spans, with the
    reflected sample before and after them that `_zero_insert_reflect` adds.

    Reflect-101 keeps parity for n >= 2, so even outputs meet samples at
    taps 0, 2, 4 and odd outputs at taps 1, 3; the other taps meet inserted
    zeros and add exactly +0.0 to a sum started from 0.
    """
    if n == 1:
        # a single sample reflects onto itself at every tap
        out[...] = _tap_sum([(k, xp[_along(axis, slice(1, 2))]) for k in _KERNEL])
        return out
    m, half = xp.shape[axis] - 2, out.shape[axis] // 2
    out[_along(axis, slice(0, None, 2))] = _tap_sum(
        [(_KERNEL[2 * j], xp[_along(axis, slice(j, j + m))]) for j in range(3)])
    out[_along(axis, slice(1, None, 2))] = _tap_sum(
        [(_KERNEL[2 * j + 1], xp[_along(axis, slice(j + 1, j + 1 + half))])
         for j in range(2)])
    return out


# Input dtypes that layer 1 keeps as given; `_gather` converts every block
# of them to the coarser layers' dtype exactly.
_KEPT_DTYPES = (np.float32, np.float64, np.bool_)


def _check(image, levels: int):
    """Layer 1 of a pyramid of `image`: the array, or the list of its planes,
    as given where its dtype is kept, and converted by `float_dtype`
    elsewhere."""
    planes, shape = as_planes(image, "pyramid input")
    if levels < 2:
        raise DimensionError("need at least 2 pyramid levels")
    # a shift, not 2 ** (levels - 1), whose size and cost grow with levels
    if min(shape[-2:]) >> (levels - 1) == 0:
        raise DimensionError(
            f"image {shape[-2:]} too small for {levels} levels "
            f"(needs >= 2**{levels - 1} in both axes)")

    def kept(a):
        return a if a.dtype in _KEPT_DTYPES else a.astype(float_dtype(a))
    return kept(image) if isinstance(image, np.ndarray) else [kept(p) for p in planes]


def layer_shapes(height: int, width: int, levels: int) -> list[tuple[int, int]]:
    """Dimension chain for a pyramid, reproducible from dims and K alone."""
    shapes = [(height, width)]
    for _ in range(levels - 1):
        h, w = shapes[-1]
        shapes.append(((h + 1) // 2, (w + 1) // 2))
    return shapes


def gaussian_pyramid(image, levels: int = DEFAULT_LEVELS,
                     dtype=np.float32) -> list:
    """Blur-and-decimate chain of `image`, an array (..., H, W) or a
    sequence of (H, W) planes.  Layer 1 is the input itself, not copied
    where it is float32, float64 or bool: the array, or the list of the
    sequence's planes.  The coarser layers are arrays of
    `np.result_type(image, dtype)`: `float_dtype(image)` at the default
    float32, float64 when `dtype` is float64."""
    a = _check(image, levels)
    dtype = np.result_type(float_dtype(a), dtype)
    layers = [a]
    for _ in range(levels - 1):
        layers.append(_reduce(layers[-1], dtype))
    return layers


def expand_blocks(a, target_shape: tuple[int, int]):
    """The EXPAND of the stack `a` to the rows and columns that end
    `target_shape`, as an iterator of (fine_rows, block) in order: `block`
    is a fresh (planes, n, width) array of `float_dtype(a)` holding the n
    rows `fine_rows` of the x4 EXPAND, those that one block of
    `row_blocks` over the rows of `a` spans.  The shapes are checked when
    it is called, not when it is first read."""
    planes, shape = as_planes(a, "upsample input")
    if len(target_shape) < 2:
        raise DimensionError(f"upsample target {target_shape} must be at least 2-D")
    th, tw = target_shape[-2:]
    if ((th + 1) // 2, (tw + 1) // 2) != shape[-2:]:
        raise DimensionError(f"cannot upsample {shape} to {target_shape}")
    return _expand_rows(planes, shape[-2], th, tw, float_dtype(a))


def _expand_rows(planes: list[np.ndarray], h: int, th: int, tw: int, dtype):
    """The blocks of `expand_blocks` of the (h, ceil(tw / 2)) `planes`."""
    padded = _zero_insert_reflect(h, th)
    cols = _zero_insert_reflect(planes[0].shape[-1], tw)
    for rows in row_blocks(h, 2 * tw):
        fine = slice(2 * rows.start, min(2 * rows.stop, th))
        x = _gather(planes, padded[rows.start:rows.stop + 2], cols, 1, dtype)
        wide = _expand(x, tw, -1, np.empty(x.shape[:-1] + (tw,), dtype))
        block = _expand(wide, th, -2,
                        np.empty((len(planes), fine.stop - fine.start, tw), dtype))
        block *= 4.0
        yield fine, block


def upsample(a, target_shape: tuple[int, int]) -> np.ndarray:
    """Zero-insert the stack `a` to the rows and columns that end
    `target_shape`, then blur with the x4-scaled kernel: the blocks of
    `expand_blocks`, in one array."""
    blocks = expand_blocks(a, target_shape)
    planes, shape = as_planes(a, "upsample input")
    out = np.empty((len(planes), *target_shape[-2:]), float_dtype(a))
    for rows, block in blocks:
        out[:, rows] = block
    return out.reshape(shape[:-2] + out.shape[-2:])


def laplacian_pyramid(g: list) -> list[np.ndarray]:
    """The Laplacian pyramid of the Gaussian pyramid `g`, as the caller holds
    it from `gaussian_pyramid`: band-pass layers g[k] - EXPAND(g[k+1]) for
    layers 1..K-1, plus the coarsest Gaussian layer as layer K."""
    shapes = _check_chain(g)
    dtype = float_dtype(*g)
    layers = []
    for k in range(len(g) - 1):
        up = upsample(np.asarray(g[k + 1], dtype), shapes[k])
        layers.append(_into(np.subtract, g[k], up))
    return layers + [g[-1]]


def _into(ufunc, stack, out: np.ndarray) -> np.ndarray:
    """`ufunc(plane, o, out=o)` for each plane of `stack` and the plane `o`
    of the fresh array `out` at its place; returns `out`."""
    for plane, o in zip(as_planes(stack, "pyramid layer")[0],
                        out.reshape((-1,) + out.shape[-2:])):
        ufunc(plane, o, out=o)
    return out


def _check_chain(layers: list) -> list[tuple[int, ...]]:
    """The shapes of the stacks `layers`, checked to form a pyramid."""
    if len(layers) < 2:
        raise DimensionError("pyramid must have at least 2 layers")
    shapes = [as_planes(layer, "pyramid layers")[1] for layer in layers]
    batch = shapes[0][:-2]
    expected = layer_shapes(*shapes[0][-2:], len(layers))
    for k, shape in enumerate(shapes):
        if shape != batch + expected[k]:
            raise DimensionError(
                f"layer {k + 1} shape {shape} breaks the dimension chain")
    return shapes


def partial_collapse(layers: list[np.ndarray], to_layer: int) -> np.ndarray:
    """Run the collapse recursion down to layer `to_layer` (1-indexed), unclamped."""
    shapes = _check_chain(layers)
    if not 1 <= to_layer <= len(layers):
        raise DimensionError(f"to_layer {to_layer} out of range 1..{len(layers)}")
    image = np.asarray(layers[-1], dtype=float_dtype(*layers))
    for k in range(len(layers) - 2, to_layer - 2, -1):
        image = _into(np.add, layers[k], upsample(image, shapes[k]))
    return image


def collapse(layers: list[np.ndarray]) -> np.ndarray:
    """Full reconstruction, clamped to [0, 1] at the end only."""
    return np.clip(partial_collapse(layers, 1), 0.0, 1.0)
