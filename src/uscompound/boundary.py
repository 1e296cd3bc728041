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
     union-find, and does not depend on any visit order.

t1 and t2 are given in 8-bit units (0..255, as commonly quoted) and converted to
the internal [0, 1] scale by /255.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import ndimage

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
    """
    a = np.asarray(image, dtype=np.float64)
    h = a.shape[0]
    grad = np.zeros_like(a)
    diff = np.empty_like(a)
    for j in range(1, min(params.alpha, h - 1) + 1):
        d, g = diff[:h - j], grad[:h - j]
        np.subtract(a[:h - j], a[j:], out=d)
        np.abs(d, out=d)
        np.maximum(g, d, out=g)
    return grad


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
    sizes = np.bincount(labels.ravel())
    ids = np.asarray(clusters.ids, dtype=np.intp)
    ids = ids[ids < len(sizes)]          # an id beyond the labels has no pixel
    big = np.zeros(len(sizes), dtype=bool)
    big[ids] = sizes[ids] >= params.min_size
    lab = np.where(big[labels], labels, 0)

    # Run tops: cluster pixels whose upper neighbour carries another label.
    # Below a run's top, the run's own label fills the rows in between, so
    # whatever blocks a lower pixel of the run also blocks its top.
    h, w = lab.shape[0], math.prod(lab.shape[1:])
    lab = lab.reshape(h, w)
    top = lab[1:] > 0
    top &= lab[1:] != lab[:-1]
    rows, cols = np.nonzero(top)
    rows += 1
    at = rows * w + cols                 # flat index of each run top
    lab = lab.ravel()
    own = lab[at]
    blocked = np.zeros(len(sizes), dtype=bool)
    for d in range(1, min(params.beta, h - 1) + 1):
        first = np.searchsorted(rows, d)    # the tops at least d rows down
        above = lab[at[first:] - d * w]
        clash = (above > 0) & (above != own[first:])
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
    neighbour direction (E, S, SE, SW) feeds a union-find on a parent array:
    each round hooks every root onto the smallest root it shares an edge
    with, then pointer jumping flattens every tree, until no edge joins two
    roots.
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
    box = ndimage.find_objects(region.view(np.uint8))[0]
    a, region, seeds = a[box].astype(np.float64), region[box], seeds[box]
    h, w = a.shape

    # one edge mask per step E, S, SE, SW: node src[i, j] joins node dst[i, j]
    steps = ((np.s_[:, :-1], np.s_[:, 1:]), (np.s_[:-1, :], np.s_[1:, :]),
             (np.s_[:-1, :-1], np.s_[1:, 1:]), (np.s_[:-1, 1:], np.s_[1:, :-1]))
    edges = [region[src] & region[dst] & (np.abs(a[src] - a[dst]) < t2)
             for src, dst in steps]

    # root[i, j] is the flat index of the root of pixel (i, j)'s tree
    root = np.arange(h * w, dtype=np.intp).reshape(h, w)
    while True:
        for (src, dst), edge in zip(steps, edges):
            edge &= root[src] != root[dst]   # an edge inside a tree stays so
        if not any(edge.any() for edge in edges):
            break
        parent = root.ravel().copy()
        for (src, dst), edge in zip(steps, edges):
            ru, rv = root[src][edge], root[dst][edge]
            np.minimum.at(parent, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
        root = parent.reshape(h, w)

    grown = np.zeros(h * w, dtype=bool)
    grown[root[seeds]] = True
    marked[box] = grown[root]
    return marked


def detect_boundaries(image: np.ndarray,
                      params: BoundaryParams = BoundaryParams()) -> np.ndarray:
    """Full pipeline: gradient, clustering, filtering, refinement."""
    # the gradient is freed before refinement
    clusters = extract_clusters(vertical_gradient(image, params), params)
    return refine_boundaries(image, filter_clusters(clusters, params), params)
