"""The row-block policy of the whole pipeline.

Every loop over a frame (the warp, REDUCE and EXPAND of the pyramids, the
fusions and the gradient of the boundary detector) works in the blocks of
whole rows that `row_blocks` cuts, about `BLOCK_PIXELS` pixels per plane
each.  A float64 block temporary is then 128 KiB, so a block's working set
stays in cache, and beyond its output a stage holds one block whatever the
frame size.  Every stage gives the same result bit for bit at any block
size, one row per block included.
"""

BLOCK_PIXELS = 16384  # 32 rows at 512 px


def row_blocks(rows: int, row_pixels: int) -> list[slice]:
    """Slices covering `rows` rows of `row_pixels` pixels each, in order, at
    least one row and otherwise about `BLOCK_PIXELS` pixels each."""
    step = max(1, BLOCK_PIXELS // max(row_pixels, 1))
    return [slice(r0, min(r0 + step, rows)) for r0 in range(0, rows, step)]
