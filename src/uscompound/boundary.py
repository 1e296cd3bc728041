"""Detection of good anatomic horizontal boundaries.

Reverberation artifacts show up as trains of progressively dimmer copies of
a strong reflector at regular depth intervals.  The pipeline here keeps the
topmost boundary of each such stack and rejects the echoes beneath it:

  1. downward-looking gradient (max difference over the next `alpha` rows),
  2. binarize + 8-connected clustering, with an optional 3x3 median denoise.
     Thresholding commutes with the rank: the 3x3 median exceeds T exactly
     when at least 5 of the 9 values do, so the denoise is a 5-of-9 vote
     on the binary map, not a float rank filter.  The vote is a separable
     uint8 3x3 box sum over the edge-padded map (rows, then columns), which
     is the border rule of `ndimage.correlate(..., mode="nearest")`,
  3. drop small clusters and clusters that have another cluster directly
     above them within `beta` rows.  The rule is tested only at run tops,
     the cluster pixels whose upper neighbour carries another label: within
     a vertical run of one label, every pixel that could block a lower
     pixel of the run lies within `beta` rows above the run's top pixel too,
  4. region growing seeded from the kept clusters, gated by an absolute
     intensity threshold t1 and a step threshold t2.  The step test is
     symmetric and every grown pixel is brighter than t1, so the grown set
     is the union of the connected components that hold a seed, in the
     8-neighbour graph whose edges join two pixels that are both brighter
     than t1 and differ by less than t2.  It is found with an array
     union-find over horizontal runs, the row segments that E edges hold
     together.  A run lies inside one component, so the components, and
     the grown set, do not depend on how the rows split into runs, nor on
     any visit order.

t1 and t2 are given in 8-bit units (0..255, as commonly quoted) and converted to
the internal [0, 1] scale by /255.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import ndimage

from .blocks import row_blocks
from .errors import DimensionError, check_fields

__all__ = [
    "BoundaryParams",
    "ClusterSet",
    "vertical_gradient",
    "extract_clusters",
    "filter_clusters",
    "refine_boundaries",
    "detect_boundaries",
]

_EIGHT = np.ones((3, 3), dtype=int)


@dataclass(frozen=True)
class BoundaryParams:
    alpha: int = 15           # gradient look-ahead, rows
    beta: int = 20            # reject clusters with another cluster this close above
    min_size: int = 50        # minimum cluster pixel count
    grad_threshold: float = 10.0 / 255.0
    t1: float = 30.0          # seed/growth intensity threshold, 8-bit units
    t2: float = 2.0           # growth step threshold, 8-bit units
    median_denoise: bool = True

    def __post_init__(self):
        check_fields(self)  # a NaN or infinite threshold empties the mask
        if self.alpha < 1:
            raise ValueError("alpha must be >= 1")
        if self.beta < 0:
            raise ValueError("beta must be >= 0")
        if self.min_size < 1:
            raise ValueError("min_size must be >= 1")


@dataclass(frozen=True)
class ClusterSet:
    """8-connected components of the thresholded gradient map.

    `labels` is an integer array, 0 for background; `ids` lists the
    clusters still alive (filtering narrows `ids` without relabeling).  An
    id that labels no pixel is allowed and marks nothing.
    """

    labels: np.ndarray
    ids: tuple[int, ...]

    def __post_init__(self):
        # labels index lookup tables, where a negative value would wrap
        if not (isinstance(self.labels, np.ndarray)
                and np.issubdtype(self.labels.dtype, np.integer)):
            raise ValueError("labels must be an integer array")
        if self.labels.size and self.labels.min() < 0:
            raise ValueError("labels must not be negative")
        if min(self.ids, default=0) < 0:
            raise ValueError("ids must not be negative")

    def mask(self) -> np.ndarray:
        table = np.zeros(int(self.labels.max(initial=0)) + 1, dtype=bool)
        ids = np.asarray(self.ids, dtype=np.intp)
        table[ids[ids < len(table)]] = True
        return table[self.labels]

    def __len__(self) -> int:
        return len(self.ids)


def vertical_gradient(image: np.ndarray,
                      params: BoundaryParams = BoundaryParams()) -> np.ndarray:
    """max_{j=1..alpha} |I(x,y) - I(x,y+j)|, truncated at the bottom edge.

    The bottom row has no pixels beneath it and gets gradient 0.

    Rounding is monotone, so the largest |I(y) - I(y+j)| is exactly
    max(M(y) - I(y), I(y) - m(y)), where M(y) and m(y) are the max and min
    of the look-ahead window I(y+1..y+alpha).  Each window is built by
    doubling, in about log2(alpha) in-place passes over one buffer, in the
    image's own precision when it is float32 (a max or min is exact at any
    precision); the differences are taken in float64, the second in the
    row blocks of `blocks.row_blocks`.
    """
    a = np.asarray(image)
    if a.dtype != np.float32:
        a = a.astype(np.float64, copy=False)
    h = a.shape[0]
    grad = np.zeros(a.shape, dtype=np.float64)
    n = min(params.alpha, h - 1)
    if n < 1:
        return grad
    look = _look_ahead(np.maximum, a, n, np.empty_like(a[1:]))
    np.subtract(look, a[:-1], out=grad[:-1], dtype=np.float64)
    look = _look_ahead(np.minimum, a, n, look)
    for rows in row_blocks(h - 1, math.prod(a.shape[1:])):
        g = grad[rows]
        np.maximum(g, np.subtract(a[rows], look[rows], dtype=np.float64), out=g)
    return grad


def _look_ahead(pick, a: np.ndarray, n: int, out: np.ndarray) -> np.ndarray:
    """out[y] = `pick` (np.maximum or np.minimum) over rows y+1..y+n of `a`,
    a window that would pass the bottom edge stopping there."""
    np.copyto(out, a[1:])
    span = 1                 # out[y] covers rows y+1..y+span
    while span < n:
        s = min(span, n - span)
        pick(out[:-s], out[s:], out=out[:-s])
        span += s
    return out


def extract_clusters(grad: np.ndarray,
                     params: BoundaryParams = BoundaryParams()) -> ClusterSet:
    binary = np.asarray(grad, dtype=np.float64) > params.grad_threshold
    if params.median_denoise:
        # median of the 3x3 window > T  <=>  at least 5 of its 9 values > T;
        # the window sum, edge-padded, is a row box sum then a column one
        p = np.pad(binary.view(np.uint8), 1, mode="edge")
        rows = p[:-2] + p[1:-1]
        rows += p[2:]
        votes = rows[:, :-2] + rows[:, 1:-1]
        votes += rows[:, 2:]
        binary = votes >= 5
    labels, n = ndimage.label(binary, structure=_EIGHT)
    return ClusterSet(labels, tuple(range(1, n + 1)))


def filter_clusters(clusters: ClusterSet,
                    params: BoundaryParams = BoundaryParams()) -> ClusterSet:
    """Size filter, then reject clusters shadowed from above.

    A cluster is dropped when any pixel of another size-surviving cluster
    sits in the same column within `beta` rows directly above one of its
    pixels (reverberation echoes sit close beneath the true reflector).
    """
    labels = clusters.labels
    h, w = labels.shape[0], math.prod(labels.shape[1:])
    lab = labels.reshape(h, w)
    # Cluster sizes, counted in row blocks so that the labels are never
    # copied whole to intp.  Each count fills an array of every label, so
    # blocks are joined until one holds that many pixels: the counting stays
    # linear however many clusters there are.
    sizes = np.zeros(int(labels.max(initial=0)) + 1, dtype=np.intp)
    first = 0
    for rows in row_blocks(h, w):
        if (rows.stop - first) * w >= len(sizes) or rows.stop == h:
            sizes += np.bincount(lab[first:rows.stop].ravel(),
                                 minlength=len(sizes))
            first = rows.stop
    ids = np.asarray(clusters.ids, dtype=np.intp)
    ids = ids[ids < len(sizes)]          # an id beyond the labels has no pixel
    big = np.zeros(len(sizes), dtype=bool)
    big[ids] = sizes[ids] >= params.min_size
    live = big.copy()
    live[:1] = False                     # the background is no cluster

    # Run tops: cluster pixels whose upper neighbour carries another label.
    # Below a run's top, the run's own label fills the rows in between, so
    # whatever blocks a lower pixel of the run also blocks its top.  They are
    # found on the labels themselves and narrowed to the surviving clusters;
    # a dropped cluster's pixel above one reads as background through `live`.
    rows, cols = np.nonzero(lab[1:] != lab[:-1])
    rows += 1
    at = rows * w + cols                 # flat index of each run top
    lab = lab.ravel()
    own = lab[at]
    top = live[own]
    rows, at, own = rows[top], at[top], own[top]
    blocked = np.zeros(len(sizes), dtype=bool)
    for d in range(1, min(params.beta, h - 1) + 1):
        first = np.searchsorted(rows, d)    # the tops at least d rows down
        above = lab[at[first:] - d * w]
        clash = live[above] & (above != own[first:])
        blocked[own[first:][clash]] = True
    keep = ids[big[ids] & ~blocked[ids]]
    return replace(clusters, ids=tuple(keep.tolist()))


def refine_boundaries(image: np.ndarray, clusters: ClusterSet,
                      params: BoundaryParams = BoundaryParams()) -> np.ndarray:
    """Region growing from the kept clusters.

    Seeds are cluster pixels brighter than t1; growth steps to 8-neighbours
    that are brighter than t1 and within t2 of the pixel grown from.  The
    step test is symmetric and every grown pixel is brighter than t1, so
    the result is exactly the union of the connected components that hold
    a seed, in the 8-neighbour graph whose edges join two pixels that are
    both brighter than t1 and differ by less than t2: no visit order can
    change it.  Thresholds arrive in 8-bit units.

    Growth never leaves the 8-connected bright components that hold a seed,
    so the work is confined to their bounding box.  There, one edge mask per
    neighbour direction (E, S, SE, SW) is built from the image's own plane,
    its differences taken in float64 in the row blocks of
    `blocks.row_blocks`, so every step test is the float64 one and no
    float64 frame is made.  A run is a maximal row segment of region pixels
    each joined to the next by an E edge; one cumulative sum numbers the
    runs.  The S, SE and SW edges become pairs of
    run ids, less each edge whose two ends continue the runs of the edge one
    column to its left, which joins the same two runs.  A union-find
    on a parent array over run ids follows: each round hooks every root onto
    the smallest root it shares an edge with, then pointer jumping flattens
    every tree, until no edge joins two roots.  The pixels of a run are
    connected, so each run lies inside one component: the components over
    runs are those over pixels, whichever way the rows split into runs, and
    the mask is the same.  In the worst case every run is one pixel long,
    and the work is that of a union-find over pixels plus one cumulative sum
    and a few passes over bool masks.
    """
    a = np.asarray(image)
    if a.ndim != 2 or clusters.labels.shape != a.shape:
        raise DimensionError(f"cluster labels of shape {clusters.labels.shape} "
                             f"do not match image of shape {a.shape}")
    # a float64 scalar makes the comparison float64 without a float64 frame
    t1 = np.float64(params.t1 / 255.0)
    t2 = params.t2 / 255.0
    marked = np.zeros(a.shape, dtype=bool)
    bright = a > t1
    seeds = clusters.mask() & bright
    if not seeds.any():
        return marked

    comp, _ = ndimage.label(bright, structure=_EIGHT)
    hit = np.zeros(comp.max() + 1, dtype=bool)
    hit[comp[seeds]] = True
    region = hit[comp]
    del comp, bright
    rows, cols = (np.flatnonzero(region.any(axis=k)) for k in (1, 0))
    box = np.s_[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1]
    a, region, seeds = a[box], region[box], seeds[box]
    h, w = a.shape

    # one edge mask per step E, S, SE, SW: node src[i, j] joins node dst[i, j];
    # each step is read from the image's own plane, its difference taken in
    # float64 one row block at a time, so no float64 frame is made
    steps = ((np.s_[:, :-1], np.s_[:, 1:]), (np.s_[:-1, :], np.s_[1:, :]),
             (np.s_[:-1, :-1], np.s_[1:, 1:]), (np.s_[:-1, 1:], np.s_[1:, :-1]))
    edges = []
    for src, dst in steps:
        x, y = a[src], a[dst]
        edge = np.empty(x.shape, dtype=bool)
        for r in row_blocks(*x.shape):
            d = np.subtract(x[r], y[r], dtype=np.float64)
            np.less(np.abs(d, out=d), t2, out=edge[r])
        edge &= region[src]
        edge &= region[dst]
        edges.append(edge)

    # run[i, j] numbers, from 1, the run of region pixels joined by E edges
    # that holds (i, j); a pixel outside the region carries the id of the
    # run before it, and the region masks it out at the end.  Run ids and
    # roots are int32 while they fit, that is below 2**31 pixels.
    index = np.int32 if h * w < 2**31 else np.intp
    joined = np.zeros_like(region)       # (i, j) continues the run of (i, j-1)
    joined[:, 1:] = edges[0]
    # one cumulative sum over the box in row-major order, taken per row block
    # with the last id carried over, so no int32 copy of the box is made
    run = np.empty((h, w), dtype=index)
    last = 0
    for rows in row_blocks(h, w):
        block = run[rows].reshape(-1)
        np.cumsum(region[rows] & ~joined[rows], dtype=index, out=block)
        block += last
        last = block[-1]
    # every S, SE and SW edge as a pair of run ids, less the edges that join
    # the same two runs as the edge one column to their left; each mask is
    # pruned in place, the pairs to drop formed in one scratch beforehand
    ends = []
    scratch = np.empty((h - 1, w - 1), dtype=bool)
    for (src, dst), edge in zip(steps[1:], edges[1:]):
        same = np.logical_and(edge[:, :-1], joined[src][:, 1:],
                              out=scratch[:, :edge.shape[1] - 1])
        same &= joined[dst][:, 1:]
        edge[:, 1:] &= np.logical_not(same, out=same)
        ends.append((run[src][edge], run[dst][edge]))
    del edges, edge, joined, scratch, same
    u, v = (np.concatenate(e) for e in zip(*ends))

    # root[r] is the root of run r's tree
    root = np.arange(run[-1, -1] + 1, dtype=index)
    while True:
        ru, rv = root[u], root[v]
        apart = ru != rv                     # an edge inside a tree stays so
        if not apart.any():
            break
        u, v, ru, rv = u[apart], v[apart], ru[apart], rv[apart]
        parent = root.copy()
        np.minimum.at(parent, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
        root = parent

    grown = np.zeros(len(root), dtype=bool)
    grown[root[run[seeds]]] = True
    marked[box] = region & grown[root][run]
    return marked


def detect_boundaries(image: np.ndarray,
                      params: BoundaryParams = BoundaryParams()) -> np.ndarray:
    """Full pipeline: gradient, clustering, filtering, refinement."""
    # the gradient is freed before refinement
    clusters = extract_clusters(vertical_gradient(image, params), params)
    return refine_boundaries(image, filter_clusters(clusters, params), params)
