"""How the pipeline reads a frame: as planes, in row blocks.

A stack of frames (the views of a map, the maps of a view) is either an
array (..., H, W) or a sequence of (H, W) planes, and every stage that reads
a whole stack takes both through `as_planes`, so no stage copies the planes
into one array.

Every loop over a frame (the warp, REDUCE and EXPAND of the pyramids, the
fusions, the gradient, the cluster-size count and the region-growing edge
steps and run numbering of the boundary detector, and the PGM encoder)
works in the blocks of whole rows that `row_blocks` cuts over the rows it
writes (the cluster-size count, which writes no frame, over those it
reads), about `BLOCK_PIXELS` pixels per plane each.  A float64
block temporary is then 128 KiB, so a block's working set stays in cache,
and beyond its output a stage holds one block whatever the frame size.
Every stage gives the same result bit for bit at any block size, one row
per block included.
"""

import numpy as np

from .errors import DimensionError

BLOCK_PIXELS = 16384  # 32 rows at 512 px


def row_blocks(rows: int, row_pixels: int) -> list[slice]:
    """Slices covering `rows` rows of `row_pixels` pixels each, in order, at
    least one row and otherwise about `BLOCK_PIXELS` pixels each."""
    step = max(1, BLOCK_PIXELS // max(row_pixels, 1))
    return [slice(r0, min(r0 + step, rows)) for r0 in range(0, rows, step)]


def as_planes(stack, what: str) -> tuple[list[np.ndarray], tuple[int, ...]]:
    """The (H, W) planes of `stack` and its shape, without copying them.

    An array (..., H, W) gives its planes as views, in C order, and its own
    shape; a sequence of (H, W) arrays gives its items as given (others are
    converted by `np.asarray`), and the shape (len, H, W).  The planes of a
    sequence may have different dtypes.  `what` names the stack in the
    DimensionError raised for an array of fewer than 2 axes, and for a
    sequence that is empty, holds a plane that is not 2-D, or holds planes
    of unequal shape.
    """
    if isinstance(stack, np.ndarray):
        if stack.ndim < 2:
            raise DimensionError(f"{what} must be at least 2-D")
        return [stack[i] for i in np.ndindex(stack.shape[:-2])], stack.shape
    planes = [np.asarray(p) for p in stack]
    if not planes:
        raise DimensionError(f"{what} has no planes")
    shape = planes[0].shape
    for p in planes:
        if p.ndim != 2:
            raise DimensionError(f"{what} planes must be 2-D, not {p.shape}")
        if p.shape != shape:
            raise DimensionError(
                f"{what} planes must share one shape, not {shape} and {p.shape}")
    return planes, (len(planes),) + shape
