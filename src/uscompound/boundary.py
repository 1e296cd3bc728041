"""Detection of good anatomic horizontal boundaries.

Reverberation artifacts show up as trains of progressively dimmer copies of
a strong reflector at regular depth intervals.  The pipeline here keeps the
topmost boundary of each such stack and rejects the echoes beneath it:

  1. downward-looking gradient (max difference over the next `alpha` rows),
  2. binarize + 8-connected clustering, with an optional 3x3 median denoise.
     Thresholding commutes with the rank: the 3x3 median exceeds T exactly
     when at least 5 of the 9 values do, so the denoise is a 5-of-9 vote
     on the binary map, not a float rank filter,
  3. drop small clusters and clusters that have another cluster directly
     above them within `beta` rows,
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

from dataclasses import dataclass, fields, replace

import numpy as np
from scipy import ndimage

from .errors import DimensionError, check_integers

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
        for f in fields(self):  # a NaN or infinite threshold empties the mask
            value = getattr(self, f.name)
            if isinstance(value, float) and not np.isfinite(value):
                raise ValueError(f"{f.name} must be finite")
        check_integers(self, "alpha", "beta", "min_size")
        if self.alpha < 1:
            raise ValueError("alpha must be >= 1")
        if self.beta < 0:
            raise ValueError("beta must be >= 0")
        if self.min_size < 1:
            raise ValueError("min_size must be >= 1")


@dataclass(frozen=True)
class ClusterSet:
    """8-connected components of the thresholded gradient map.

    `labels` is 0 for background; `ids` lists the clusters still alive
    (filtering narrows `ids` without relabeling).
    """

    labels: np.ndarray
    ids: tuple[int, ...]

    def mask(self) -> np.ndarray:
        return np.isin(self.labels, self.ids)

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
    for j in range(1, min(params.alpha, h - 1) + 1):
        np.maximum(grad[:h - j], np.abs(a[:h - j] - a[j:]), out=grad[:h - j])
    return grad


def extract_clusters(grad: np.ndarray,
                     params: BoundaryParams = BoundaryParams()) -> ClusterSet:
    binary = np.asarray(grad, dtype=np.float64) > params.grad_threshold
    if params.median_denoise:
        # median of the 3x3 window > T  <=>  at least 5 of its 9 values > T
        votes = ndimage.correlate(binary.view(np.uint8), _EIGHT, mode="nearest")
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
    sizes = np.bincount(clusters.labels.ravel())
    survivors = [i for i in clusters.ids
                 if i < len(sizes) and sizes[i] >= params.min_size]
    lab = np.where(np.isin(clusters.labels, survivors), clusters.labels, 0)

    blocked: set[int] = set()
    for d in range(1, params.beta + 1):
        if d >= lab.shape[0]:
            break
        below, above = lab[d:], lab[:-d]
        clash = (below > 0) & (above > 0) & (below != above)
        if clash.any():
            blocked.update(np.unique(below[clash]).tolist())
    return replace(clusters, ids=tuple(i for i in survivors if i not in blocked))


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
    a = np.asarray(image, dtype=np.float64)
    if a.ndim != 2 or clusters.labels.shape != a.shape:
        raise DimensionError(f"cluster labels of shape {clusters.labels.shape} "
                             f"do not match image of shape {a.shape}")
    t1 = params.t1 / 255.0
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
    a, region, seeds = a[box], region[box], seeds[box]
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
    grad = vertical_gradient(image, params)
    clusters = extract_clusters(grad, params)
    kept = filter_clusters(clusters, params)
    return refine_boundaries(image, kept, params)
