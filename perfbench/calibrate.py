"""Reference kernels that gauge how fast the host runs right now.

On a shared host the same op can take a third longer from one minute to the
next while the program is unchanged.  Each op is therefore bracketed by calls
of a fixed reference kernel, and the op's wall time is rescaled by the
kernel's nominal time over the mean of the two measured times: the result is
the op's time on a host running at nominal speed.  The kernels live here, not
in the program, so they are the same at every commit and a change to the
program moves the rescaled time in proportion to the wall time.

Two kernels cover the two kinds of work the program does: `numpy` (array
passes over a 512x512 frame, like warp and pyramid) and `python` (an
interpreted 8-neighbour flood, like region growing).  The host's drift hits
them differently, so each workload is rescaled by the one that matches its
dominant work.
"""

from __future__ import annotations

import time

import numpy as np

PASSES = 4

# Nominal seconds per call: typical times of the kernels on a 2-vCPU
# 2.0 GHz x86-64 host.  They only fix the scale of rescaled times.
NOMINAL_S = {"numpy": 0.024, "python": 0.045}

_RNG = np.random.default_rng(20111962)
_N = 512
_FRAME = _RNG.random((_N, _N))
_FLAT_INDEX = _RNG.integers(0, _N * _N, _N * _N)
_TAPS = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0
_GRID = _RNG.random((96, 96))
# Preallocated so that the kernel never touches the allocator, whose state
# the program's own allocations would otherwise change.
_ROWS = np.empty((_N, _N - 4))
_COLS = np.empty((_N - 4, _N - 4))
_TMP_R = np.empty_like(_ROWS)
_TMP_C = np.empty_like(_COLS)
_GATHER = np.empty(_N * _N)


def numpy_kernel() -> float:
    """Separable 5-tap blurs and a random gather over a 512x512 frame."""
    for _ in range(PASSES):
        np.multiply(_FRAME[:, :-4], _TAPS[0], out=_ROWS)
        for i in range(1, 5):
            np.multiply(_FRAME[:, i:_N - 4 + i], _TAPS[i], out=_TMP_R)
            np.add(_ROWS, _TMP_R, out=_ROWS)
        np.multiply(_ROWS[:-4], _TAPS[0], out=_COLS)
        for i in range(1, 5):
            np.multiply(_ROWS[i:_N - 4 + i], _TAPS[i], out=_TMP_C)
            np.add(_COLS, _TMP_C, out=_COLS)
    np.take(_FRAME, _FLAT_INDEX, out=_GATHER)
    return float(_COLS[0, 0] + _GATHER[0])


def python_kernel() -> int:
    """Stack-based 8-neighbour flood over a 96x96 float array, indexed one
    element at a time from the interpreter as region growing does."""
    h, w = _GRID.shape
    marked = np.zeros((h, w), dtype=bool)
    grown = 0
    for row in range(0, h, 8):
        stack = [(row, 0)]
        marked[row, 0] = True
        while stack:
            x, y = stack.pop()
            grown += 1
            v = _GRID[x, y]
            for i in range(max(x - 1, 0), min(x + 2, h)):
                for j in range(max(y - 1, 0), min(y + 2, w)):
                    if not marked[i, j] and abs(v - _GRID[i, j]) < 0.9:
                        marked[i, j] = True
                        stack.append((i, j))
    return grown


KERNELS = {"numpy": numpy_kernel, "python": python_kernel}


def kernel_seconds(kind: str) -> float:
    """Wall time of one call of the reference kernel `kind`."""
    t0 = time.perf_counter()
    KERNELS[kind]()
    return time.perf_counter() - t0


def rescale(wall: float, kind: str, before: float, after: float) -> float:
    """`wall` at nominal host speed, from kernel times gauged just before
    and just after it."""
    return wall * NOMINAL_S[kind] * 2.0 / (before + after)
