"""Fusion of co-registered multi-view ultrasound images.

Baselines: per-pixel average, per-pixel maximum, and confidence-weighted
average (uncertainty-based fusion).  The main method blends, per Laplacian
pyramid layer, a per-pixel view selection (largest local contrast, gated by
structural-confidence agreement) with an intensity-confidence weighted
average, then enhances detected anatomic boundaries while reconstructing.

All methods operate on views already warped into the common frame, using
their validity masks; pixels observed by no view are set to 0.  They never
modify the caller's views.  The per-layer helpers take the views of one
pyramid layer as a (V, h, w) array, or as a sequence of V (h, w) arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import pyramid as pyr
from .boundary import BoundaryParams, detect_boundaries
from .confidence import AttenuationParams, attenuation_intensity_confidence
from .errors import DimensionError, check_fields
from .image import MAPS, ViewInput, WarpedView, warp_to_common

__all__ = [
    "PyramidParams",
    "compound_average",
    "compound_maximum",
    "compound_ubf",
    "compound_pyramid",
    "compound",
    "phi",
    "select_view_layer",
    "weighted_average_layer",
    "blend_layer",
    "enhance_boundaries",
    "prepare_views",
]

METHODS = ("average", "maximum", "ubf", "pyramid")

DebugSink = Callable[[str, np.ndarray], None]


@dataclass(frozen=True)
class PyramidParams:
    levels: int = pyr.DEFAULT_LEVELS
    gamma: float = 0.05            # structural-confidence spread gate
    enhance_layer: int = 3
    enhancement_enabled: bool = True
    phi_overrides: tuple[float, ...] | None = None  # per-layer, length `levels`

    def __post_init__(self):
        check_fields(self)
        if self.levels < 2:
            raise ValueError("levels must be >= 2")
        if not 1 <= self.enhance_layer <= self.levels:
            raise ValueError("enhance_layer must lie in 1..levels")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        if self.phi_overrides is not None:
            if len(self.phi_overrides) != self.levels:
                raise ValueError("phi_overrides must have one entry per layer")
            if any(not 0.0 <= p <= 1.0 for p in self.phi_overrides):
                raise ValueError("phi override values must lie in [0, 1]")


def _stack(views: Sequence[WarpedView], *maps: str):
    """Each view's image, validity and map named in `maps`, stacked over the
    views into (V, H, W) arrays, images and maps as float64.  Raises
    DimensionError unless all share the common frame, and ValueError naming
    a map that some view lacks."""
    if len(views) < 1:
        raise ValueError("need at least one view")
    shape = views[0].image.shape
    for v in views:
        if v.image.shape != shape or v.validity.shape != shape:
            raise DimensionError("views must share common-frame dimensions")
    for name in maps:
        if any(getattr(v, name) is None for v in views):
            raise ValueError(f"every view needs a {name} map (see prepare_views)")
        if any(np.shape(getattr(v, name)) != shape for v in views):
            raise DimensionError(f"{name} maps must share common-frame dimensions")

    def stacked(name: str) -> np.ndarray:
        return np.stack([np.asarray(getattr(v, name), np.float64) for v in views])

    return (stacked("image"), np.stack([v.validity for v in views]),
            *map(stacked, maps))


def compound_average(views: Sequence[WarpedView]) -> np.ndarray:
    """Per-pixel mean over the views that observed each pixel."""
    imgs, valid = _stack(views)
    counts = valid.sum(axis=0)
    total = np.where(valid, imgs, 0.0).sum(axis=0)
    return np.divide(total, counts, out=np.zeros_like(total),
                     where=counts > 0).astype(np.float32)


def compound_maximum(views: Sequence[WarpedView]) -> np.ndarray:
    """Per-pixel maximum over valid views."""
    imgs, valid = _stack(views)
    out = np.where(valid, imgs, -np.inf).max(axis=0)
    return np.where(valid.any(axis=0), out, 0.0).astype(np.float32)


def compound_ubf(views: Sequence[WarpedView]) -> np.ndarray:
    """Intensity-confidence weighted average (uncertainty-based fusion)."""
    imgs, valid, conf = _stack(views, "intensity_confidence")
    return _masked_weighted_mean(imgs, conf, valid).astype(np.float32)


def _masked_weighted_mean(values, weights, valid):
    """Sum(w*v)/Sum(w) over valid entries; zero weight-sum falls back to the
    unweighted mean; pixels valid nowhere get 0."""
    w = np.where(valid, weights, 0.0)
    wsum = w.sum(axis=0)
    num = (w * values).sum(axis=0)
    out = np.divide(num, wsum, out=np.zeros_like(num), where=wsum > 0)
    counts = valid.sum(axis=0)
    fallback = np.divide(np.where(valid, values, 0.0).sum(axis=0), counts,
                         out=np.zeros_like(num), where=counts > 0)
    return np.where(wsum > 0, out, fallback)


def phi(k: int, levels: int) -> float:
    """Layer weight for the contrast-selection branch: a Gaussian bump over
    layer index, peaked mid-pyramid, clamped to at most 1."""
    if levels < 2:
        raise DimensionError("phi needs at least 2 layers")
    if not 1 <= k <= levels:
        raise ValueError(f"layer {k} out of range 1..{levels}")
    z = (2 * k - levels - 1) ** 2 / (0.16 * (levels - 1) ** 2)
    return min(1.0, math.exp(-0.5 * z) / (0.4 * math.sqrt(2.0 * math.pi)))


_NEIGHBOR_OFFSETS = [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1)
                     if (di, dj) != (0, 0)]


def _local_contrast(layer: np.ndarray) -> np.ndarray:
    """Sum of |neighbor - center| over the 8-neighborhood of the last two
    axes; neighbors falling outside the border are skipped.

    Each of the 4 undirected differences is computed once and added to both
    of its endpoints, in the order of `_NEIGHBOR_OFFSETS`."""
    a = np.asarray(layer, dtype=np.float64)
    h, w = a.shape[-2:]
    out = np.zeros_like(a)
    diffs = {}
    for di, dj in _NEIGHBOR_OFFSETS:
        cs = slice(max(0, -di), h - max(0, di))
        cj = slice(max(0, -dj), w - max(0, dj))
        if (-di, -dj) in diffs:
            # the same pair seen from its other end: |x - y| == |y - x|
            d = diffs.pop((-di, -dj))
        else:
            ns = slice(max(0, di), h - max(0, -di))
            nj = slice(max(0, dj), w - max(0, -dj))
            d = diffs[(di, dj)] = a[..., ns, nj] - a[..., cs, cj]
            np.abs(d, out=d)
        out[..., cs, cj] += d
    return out


def _first_argmax(keys: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """`np.where(valid, keys, -inf).argmax(axis=0)`, by a running strict
    comparison over the views, so ties keep the lowest index."""
    best = np.where(valid[0], keys[0], -np.inf)
    index = np.zeros(best.shape, dtype=np.intp)
    for v in range(1, len(keys)):
        key = np.where(valid[v], keys[v], -np.inf)
        better = key > best
        index[better] = v
        best = np.where(better, key, best)
    return index


def select_view_layer(image_layers: Sequence[np.ndarray],
                      structural_layers: Sequence[np.ndarray],
                      validity_layers: Sequence[np.ndarray],
                      params: PyramidParams = PyramidParams()) -> np.ndarray:
    """Per-pixel chosen view index at one pyramid layer.

    Where the valid views' structural confidences agree to within `gamma`,
    pick the view with the largest local contrast; otherwise pick the view
    with the largest structural confidence.  Ties go to the lowest index.
    """
    gs = np.asarray(structural_layers, dtype=np.float64)
    valid = np.asarray(validity_layers, dtype=bool)
    gs_masked_max = np.where(valid, gs, -np.inf).max(axis=0)
    gs_masked_min = np.where(valid, gs, np.inf).min(axis=0)
    any_valid = valid.any(axis=0)
    agree = ~any_valid | (gs_masked_max - gs_masked_min < params.gamma)
    return _first_argmax(np.where(agree, _local_contrast(image_layers), gs),
                         valid)


def weighted_average_layer(laplacian_layers: Sequence[np.ndarray],
                           intensity_layers: Sequence[np.ndarray],
                           validity_layers: Sequence[np.ndarray]) -> np.ndarray:
    """Intensity-confidence weighted average of one Laplacian layer."""
    return _masked_weighted_mean(np.asarray(laplacian_layers, dtype=np.float64),
                                 np.asarray(intensity_layers, dtype=np.float64),
                                 np.asarray(validity_layers, dtype=bool))


def blend_layer(selected: np.ndarray, averaged: np.ndarray, k: int,
                params: PyramidParams = PyramidParams()) -> np.ndarray:
    """Convex combination of the selection and averaging results at layer
    `k`; the two weights always sum to 1."""
    phis = params.phi_overrides
    w = phis[k - 1] if phis is not None else phi(k, params.levels)
    return w * np.asarray(selected, np.float64) + (1.0 - w) * np.asarray(averaged, np.float64)


def enhance_boundaries(partial: np.ndarray,
                       boundary_layers: Sequence[np.ndarray],
                       image_layers: Sequence[np.ndarray],
                       validity_layers: Sequence[np.ndarray]) -> np.ndarray:
    """Boundary compensation on a partial reconstruction.

    Where any view's (blurred) boundary mask is positive, replace the value
    by the maximum of the boundary-weighted view intensity and the current
    reconstruction; elsewhere leave the reconstruction untouched.
    """
    part = np.asarray(partial, dtype=np.float64)
    gi = np.asarray(image_layers, dtype=np.float64)
    valid = np.asarray(validity_layers, dtype=bool)
    gb = np.where(valid, np.asarray(boundary_layers, dtype=np.float64), 0.0)
    den = gb.sum(axis=0)
    num = (gb * gi).sum(axis=0)
    weighted = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
    return np.where(den > 0, np.maximum(weighted, part), part)


def compound_pyramid(views: Sequence[WarpedView],
                     params: PyramidParams = PyramidParams(),
                     debug_sink: DebugSink | None = None) -> np.ndarray:
    """Confidence-gated Laplacian-pyramid compounding.

    Each map (image, intensity and structural confidence, boundary mask,
    validity) gets one Gaussian pyramid over its (V, H, W) stack of views,
    and the image's Laplacian is taken from its Gaussian pyramid.  Per
    layer: per-pixel view selection blended with the confidence-weighted
    Laplacian average by the layer weight; boundary enhancement is applied to
    the partial reconstruction at `enhance_layer` on the way back down.
    """
    imgs, valid, *maps = _stack(views, *MAPS)
    k_levels = params.levels
    any_valid = valid.any(axis=0)

    gi, gc, gs, gb = [pyr.gaussian_pyramid(a, k_levels) for a in (imgs, *maps)]
    lap = pyr.laplacian_pyramid(gi)
    # A coarse pixel counts as observed only if the blurred validity stays
    # above 0.5, so never-seen regions do not bleed through the blur.
    gv = [layer > 0.5 for layer in pyr.gaussian_pyramid(valid, k_levels)]

    blended: list[np.ndarray] = []
    for k in range(1, k_levels + 1):
        i = k - 1
        selection = select_view_layer(gi[i], gs[i], gv[i], params)
        selected = np.take_along_axis(lap[i], selection[None], axis=0)[0]
        selected = np.where(gv[i].any(axis=0), selected, 0.0)
        averaged = weighted_average_layer(lap[i], gc[i], gv[i])
        blended.append(blend_layer(selected, averaged, k, params))
        if debug_sink is not None:
            debug_sink(f"selection_layer{k}", selection.astype(np.float64))
            debug_sink(f"blended_layer{k}", blended[-1])

    e = params.enhance_layer
    recon = pyr.partial_collapse(blended, e)
    if params.enhancement_enabled:
        if debug_sink is not None:
            debug_sink(f"partial_layer{e}_pre_enhance", recon)
        recon = enhance_boundaries(recon, gb[e - 1], gi[e - 1], gv[e - 1])
        if debug_sink is not None:
            debug_sink(f"partial_layer{e}_post_enhance", recon)
    if e > 1:
        recon = pyr.partial_collapse(blended[:e - 1] + [recon], 1)

    recon = np.where(any_valid, np.clip(recon, 0.0, 1.0), 0.0)
    return recon.astype(np.float32)


def prepare_views(views: Sequence[ViewInput], out_width: int, out_height: int,
                  *, boundary_params: BoundaryParams = BoundaryParams(),
                  attenuation_params: AttenuationParams = AttenuationParams(),
                  ) -> list[WarpedView]:
    """Warp native-frame views into the common frame, filling missing maps.

    The one map filler.  Intensity confidence and boundary masks are computed
    in the native frame (where the beam direction is straight down) and then
    warped along with the image; structural confidence defaults to ones in
    the common frame.  The caller's views are left unchanged.
    """
    warped = []
    for v in views:
        if v.intensity_confidence is None:
            v = replace(v, intensity_confidence=attenuation_intensity_confidence(
                v.image, attenuation_params))
        if v.boundary_mask is None:
            v = replace(v, boundary_mask=detect_boundaries(v.image.data,
                                                           boundary_params))
        w = warp_to_common(v, out_width, out_height)
        if w.structural_confidence is None:
            w.structural_confidence = np.ones_like(w.image, dtype=np.float32)
        warped.append(w)
    return warped


def compound(views: Sequence[WarpedView], method: str,
             params: PyramidParams = PyramidParams(),
             debug_sink: DebugSink | None = None) -> np.ndarray:
    """Dispatch to one of the four compounding methods.  `ubf` and `pyramid`
    need complete views, as `prepare_views` returns; a missing map raises
    ValueError."""
    if method == "average":
        return compound_average(views)
    if method == "maximum":
        return compound_maximum(views)
    if method == "ubf":
        return compound_ubf(views)
    if method == "pyramid":
        return compound_pyramid(views, params, debug_sink)
    raise ValueError(f"unknown method {method!r} (choose from {METHODS})")
