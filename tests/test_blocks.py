import importlib
import pkgutil

import pytest

import uscompound
from uscompound.blocks import row_blocks


@pytest.mark.parametrize("rows,row_pixels,steps", [
    (0, 512, []), (1, 512, [1]), (70, 512, [32, 32, 6]), (64, 512, [32, 32]),
    (3, 0, [3]), (3, 16385, [1, 1, 1]), (5, 8000, [2, 2, 1]),
])
def test_row_blocks_cover_the_rows_in_order(rows, row_pixels, steps):
    got = row_blocks(rows, row_pixels)
    assert [s.stop - s.start for s in got] == steps
    assert [s.start for s in got] == [sum(steps[:i]) for i in range(len(steps))]


def test_only_blocks_binds_a_block_name():
    # The row-block policy is stated once: a module that binds its own BLOCK
    # constant forks it, and patching `blocks.BLOCK_PIXELS` misses it.
    forks = []
    for info in pkgutil.iter_modules(uscompound.__path__):
        if info.name != "blocks":
            module = importlib.import_module(f"uscompound.{info.name}")
            forks += [f"{info.name}.{name}" for name in vars(module)
                      if "BLOCK" in name]
    assert forks == []
