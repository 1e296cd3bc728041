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

Every method reads the views as each view's own planes, not copied, and
works in the row blocks of `blocks.row_blocks`.  The baselines read each
block as float64 from those planes, so beyond its float32 output a baseline
holds one block.  The per-layer helpers read each block, and compute, in
the dtype of the pyramid rule `pyramid.float_dtype` over their inputs:
float32 for float32 and bool layers, float64 for float64 ones.  The pyramid
fusion hands each map's planes to `pyramid.gaussian_pyramid`, whose layer 1
is those planes themselves, read in their own dtypes (float32, bool), so no
stage copies the views into one (V, H, W) array; on the views
`prepare_views` makes, its image, intensity-confidence and boundary layers,
bands, blends and collapse are float32.  The two maps that gate, validity
and structural confidence, keep float64 coarser layers, and the selection
reads the structural confidence as float64, so the gates are those of
float64 arithmetic.  It builds no Laplacian pyramid: each layer's band,
its selected value, its weighted average and their blend are formed in
one `_fuse_rows` pass over the layer's rows, each block's band from
`pyramid.band_rows` of the coarser layer's rows it spans.
The layers are fused coarsest first, each collapsed at once onto the
reconstruction and its maps then freed, so beyond the maps' pyramids, the
layer's blend and the reconstruction no frame-sized temporary is made.
Each view reduction is written once (`_masked_mean`, `_weighted_mean`);
every result is the same bit for bit whatever the block size.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import pyramid as pyr
from .blocks import row_blocks
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

# Gets each intermediate's name and array as the fusion holds it: uint8 view
# indices for `selection_layer<k>`, signed float layers for the others; the
# layers come coarsest first, `partial_layer<e>_*` after `blended_layer<e>`.
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


def _planes(views: Sequence[WarpedView], *maps: str) -> list[list[np.ndarray]]:
    """Each view's image, validity and map named in `maps`, as one list of
    its planes per name, not copied.  Raises DimensionError unless all share
    the common frame, and ValueError naming a map that some view lacks."""
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
    return [[getattr(v, name) for v in views]
            for name in ("image", "validity", *maps)]


def _read_rows(planes: Sequence[np.ndarray], rows: slice,
               dtype=np.float64) -> np.ndarray:
    """Rows `rows` of each of the `planes`, stacked into one (V, n, w) array
    of `dtype`; None keeps the planes' own."""
    return np.stack([p[rows] for p in planes], dtype=dtype, casting="unsafe")


def _fuse_rows(fuse: Callable[..., np.ndarray], dtype, shape: tuple[int, int],
               *stacks: tuple[Sequence[np.ndarray], object]) -> np.ndarray:
    """An (h, w) array of `dtype` filled, in the row blocks of `row_blocks`,
    with `fuse(rows, *blocks)`, where each block is `_read_rows(planes, rows,
    dtype)` for one (planes, dtype) of `stacks`.  So beyond its output a
    fusion holds one block of each stack, and as it works pixel by pixel
    over the view axis its result is the same bit for bit whatever the
    block size."""
    out = np.empty(shape, dtype)
    for rows in row_blocks(*shape):
        out[rows] = fuse(rows, *(_read_rows(planes, rows, d) for planes, d in stacks))
    return out


def compound_average(views: Sequence[WarpedView]) -> np.ndarray:
    """Per-pixel mean over the views that observed each pixel."""
    imgs, valid = _planes(views)
    return _fuse_rows(lambda rows, *blocks: _masked_mean(*blocks),
                      np.float32, imgs[0].shape,
                      (imgs, np.float64), (valid, None))


def compound_maximum(views: Sequence[WarpedView]) -> np.ndarray:
    """Per-pixel maximum over valid views."""
    imgs, valid = _planes(views)

    def maximum(rows, imgs, valid):
        out = np.where(valid, imgs, -np.inf).max(axis=0)
        return np.where(valid.any(axis=0), out, 0.0)
    return _fuse_rows(maximum, np.float32, imgs[0].shape,
                      (imgs, np.float64), (valid, None))


def compound_ubf(views: Sequence[WarpedView]) -> np.ndarray:
    """Intensity-confidence weighted average (uncertainty-based fusion)."""
    imgs, valid, conf = _planes(views, "intensity_confidence")
    return _fuse_rows(lambda rows, *blocks: _masked_weighted_mean(*blocks),
                      np.float32, imgs[0].shape,
                      (imgs, np.float64), (conf, np.float64), (valid, None))


def _any(planes) -> np.ndarray:
    """Where any of the bool `planes` (a sequence, or an array's first axis)
    is true, without stacking them."""
    return functools.reduce(np.logical_or, planes)


def _masked_mean(values, valid):
    """Sum(v)/count over the valid views; pixels valid nowhere get 0.  The
    count is taken in the values' dtype, so the divide runs in it too."""
    counts = valid.sum(axis=0, dtype=values.dtype)
    total = np.where(valid, values, 0.0).sum(axis=0)
    return np.divide(total, counts, out=np.zeros_like(total), where=counts > 0)


def _weighted_mean(values, weights, valid):
    """Sum(w*v)/Sum(w) over the valid views, 0 where Sum(w) is 0, and
    Sum(w)."""
    w = np.where(valid, weights, 0.0)
    wsum = w.sum(axis=0)
    num = (w * values).sum(axis=0)
    return np.divide(num, wsum, out=np.zeros_like(num), where=wsum > 0), wsum


def _masked_weighted_mean(values, weights, valid):
    """`_weighted_mean`, falling back to `_masked_mean` at the pixels whose
    weights do not sum to more than 0 (to 0, or to NaN), and formed there
    only."""
    mean, wsum = _weighted_mean(values, weights, valid)
    vanished = ~(wsum > 0)
    if vanished.any():
        mean[vanished] = _masked_mean(values[:, vanished], valid[:, vanished])
    return mean


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
    of its endpoints, in the order of `_NEIGHBOR_OFFSETS`, so every pixel
    sums the same 8 terms in the same order as one difference per offset
    would.  It holds up to 4 differences the size of `layer` at once, so
    `select_view_layer` calls it on one block at a time."""
    a = np.asarray(layer)
    a = a.astype(pyr.float_dtype(a), copy=False)
    h, w = a.shape[-2:]
    out = np.zeros_like(a)
    diffs = {}
    for di, dj in _NEIGHBOR_OFFSETS:
        ci = slice(max(0, -di), h - max(0, di))
        cj = slice(max(0, -dj), w - max(0, dj))
        if (-di, -dj) in diffs:
            # the same pair seen from its other end: |x - y| == |y - x|
            d = diffs.pop((-di, -dj))
        else:
            ni = slice(max(0, di), h - max(0, -di))
            nj = slice(max(0, dj), w - max(0, -dj))
            d = diffs[(di, dj)] = np.abs(a[..., ni, nj] - a[..., ci, cj])
        out[..., ci, cj] += d
    return out


def _index_dtype(n_views: int) -> np.dtype:
    """The smallest unsigned dtype that holds every view index: uint8 up to
    256 views."""
    return np.min_scalar_type(n_views - 1)


def _first_argmax(keys: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """`np.where(valid, keys, -inf).argmax(axis=0)`, by a running strict
    comparison over the views, so ties keep the lowest index."""
    best = np.where(valid[0], keys[0], -np.inf)
    index = np.zeros(best.shape, dtype=_index_dtype(len(keys)))
    better = np.empty(best.shape, dtype=bool)
    for v in range(1, len(keys)):
        # an invalid view's key counts as -inf, which is never greater
        np.greater(keys[v], best, out=better)
        better &= valid[v]
        index[better] = v
        if v < len(keys) - 1:
            np.copyto(best, keys[v], where=better)
    return index


def select_view_layer(image_layers: Sequence[np.ndarray],
                      structural_layers: Sequence[np.ndarray],
                      validity_layers: Sequence[np.ndarray],
                      params: PyramidParams = PyramidParams()) -> np.ndarray:
    """Per-pixel chosen view index at one pyramid layer, as the smallest
    unsigned dtype that holds it (uint8 up to 256 views).

    Where the valid views' structural confidences agree to within `gamma`,
    pick the view with the largest local contrast; otherwise pick the view
    with the largest structural confidence.  Ties between the computed keys
    go to the lowest index; keys equal in real arithmetic but an ulp apart
    once rounded (as 8-bit inputs' contrasts often are) go by rounding.
    The structural confidences, which gate, are read as float64 whatever
    their dtype; the local contrast is taken in the image layers' dtype.

    Works in the row blocks of `row_blocks`, taking the local contrast of
    each block with one row of halo above and below, so the working memory
    beyond the output is one block.
    """
    dtype = pyr.float_dtype(*image_layers)

    def select(rows, g, v):
        # where no view is valid the spread is -inf - (+inf) = -inf, so the
        # views agree, and `_first_argmax` gives 0 whatever the keys
        spread = (np.where(v, g, -np.inf).max(axis=0)
                  - np.where(v, g, np.inf).min(axis=0))
        halo = slice(max(rows.start - 1, 0), rows.stop + 1)
        contrast = _local_contrast(_read_rows(image_layers, halo, dtype))[
            :, rows.start - halo.start:rows.stop - halo.start]
        return _first_argmax(np.where(spread < params.gamma, contrast, g), v)
    return _fuse_rows(select, _index_dtype(len(validity_layers)),
                      validity_layers[0].shape,
                      (structural_layers, np.float64), (validity_layers, bool))


def weighted_average_layer(laplacian_layers: Sequence[np.ndarray],
                           intensity_layers: Sequence[np.ndarray],
                           validity_layers: Sequence[np.ndarray]) -> np.ndarray:
    """Intensity-confidence weighted average of one Laplacian layer.  The
    pyramid fusion takes the same average block by block, through the same
    `_masked_weighted_mean`, without calling it."""
    dtype = pyr.float_dtype(*laplacian_layers, *intensity_layers)
    return _fuse_rows(lambda rows, *blocks: _masked_weighted_mean(*blocks),
                      dtype, validity_layers[0].shape,
                      (laplacian_layers, dtype), (intensity_layers, dtype),
                      (validity_layers, bool))


def blend_layer(selected: np.ndarray, averaged: np.ndarray, k: int,
                params: PyramidParams = PyramidParams()) -> np.ndarray:
    """Convex combination of the selection and averaging results at layer
    `k`; the two weights always sum to 1."""
    phis = params.phi_overrides
    w = phis[k - 1] if phis is not None else phi(k, params.levels)
    dtype = pyr.float_dtype(selected, averaged)
    out = np.multiply(selected, w, dtype=dtype)
    out += np.multiply(1.0 - w, averaged, dtype=dtype)
    return out


def enhance_boundaries(partial: np.ndarray,
                       boundary_layers: Sequence[np.ndarray],
                       image_layers: Sequence[np.ndarray],
                       validity_layers: Sequence[np.ndarray]) -> np.ndarray:
    """Boundary compensation on a partial reconstruction.

    Where any view's (blurred) boundary mask is positive, replace the value
    by the maximum of the boundary-weighted view intensity and the current
    reconstruction; elsewhere leave the reconstruction untouched.
    """
    dtype = pyr.float_dtype(partial, *boundary_layers, *image_layers)
    part = np.asarray(partial, dtype=dtype)

    def enhance(rows, b, g, v):
        weighted, den = _weighted_mean(g, b, v)
        return np.where(den > 0, np.maximum(weighted, part[rows]), part[rows])
    return _fuse_rows(enhance, dtype, validity_layers[0].shape,
                      (boundary_layers, dtype), (image_layers, dtype),
                      (validity_layers, bool))


def _fuse_layer(k: int, image, coarser, observed, conf, selection: np.ndarray,
                dtype, params: PyramidParams) -> np.ndarray:
    """Layer `k` of the fused pyramid, in one `_fuse_rows` pass: per row
    block, the band value of the view `selection` picks, 0 where no view
    `observed` the pixel, blended by `blend_layer` with the band's average
    weighted by the intensity confidence `conf`.  The block's band is
    `pyramid.band_rows(image, coarser, rows)`, as `laplacian_pyramid` forms
    it; with no `coarser` layer, it is the coarsest layer's rows
    themselves."""
    out_dtype = np.result_type(dtype, pyr.float_dtype(conf))

    def fuse(rows, valid, weights):
        band = (_read_rows(image, rows, dtype) if coarser is None
                else pyr.band_rows(image, coarser, rows))
        averaged = _masked_weighted_mean(band.astype(out_dtype, copy=False),
                                         weights, valid)
        # the selected view's value, gathered into view 0's plane of the band
        selected, index = band[0], selection[rows]
        for v in range(1, len(band)):
            np.copyto(selected, band[v], where=index == v)
        selected[~valid.any(axis=0)] = 0.0
        return blend_layer(selected, averaged, k, params)
    return _fuse_rows(fuse, out_dtype, selection.shape,
                      (observed, bool), (conf, out_dtype))


def compound_pyramid(views: Sequence[WarpedView],
                     params: PyramidParams = PyramidParams(),
                     debug_sink: DebugSink | None = None) -> np.ndarray:
    """Confidence-gated Laplacian-pyramid compounding.

    Each map (image, intensity and structural confidence, boundary mask,
    validity) gets one Gaussian pyramid over its views, whose layer 1 is the
    views' planes themselves; the boundary mask's is built only as deep as
    the enhancement reads it.  The coarser layers take the dtype of
    `pyramid.float_dtype`, float32 on float32 and bool planes, except those
    of the validity and structural confidence, which gate and are float64.
    In one pass from the coarsest layer down (Burt-Adelson collapse), per
    layer: per-pixel view selection blended with the confidence-weighted
    Laplacian average by the layer weight, the band formed from the image's
    Gaussian layers one row block at a time (`_fuse_layer`), then one
    collapse step onto the reconstruction, enhanced at `enhance_layer`.
    `debug_sink` gets each intermediate as computed; it must not modify it.
    """
    imgs, valid, gc, gs, gb = _planes(views, *MAPS)
    k_levels, e = params.levels, params.enhance_layer

    # A coarse pixel counts as observed only if the blurred validity stays
    # above 0.5, so never-seen regions do not bleed through the blur.  The
    # two maps that gate (validity, and structural confidence against
    # gamma) keep float64 layers, so that the fusion's decisions are those
    # of float64 arithmetic; the blended maps take their planes' dtype.
    # Layer 1 is the bool validity planes themselves.
    gv = pyr.gaussian_pyramid(valid, k_levels, np.float64)
    gv[1:] = [layer > 0.5 for layer in gv[1:]]
    gs = pyr.gaussian_pyramid(gs, k_levels, np.float64)
    gi, gc = [pyr.gaussian_pyramid(a, k_levels) for a in (imgs, gc)]
    gb = pyr.gaussian_pyramid(gb, max(e, 2))[e - 1]
    dtype = pyr.float_dtype(*gi)

    # Coarsest layer first, as the collapse runs: each layer's maps are popped
    # as it is fused, so freed once used, and its blend collapsed at once onto
    # the reconstruction.  Each band lives one row block at a time.
    coarser = recon = None
    for k in range(k_levels, 0, -1):
        image, observed = gi.pop(), gv.pop()
        selection = select_view_layer(image, gs.pop(), observed, params)
        out = _fuse_layer(k, image, coarser, observed, gc.pop(), selection,
                          dtype, params)
        if debug_sink is not None:
            debug_sink(f"selection_layer{k}", selection)
            debug_sink(f"blended_layer{k}", out)
        del selection
        if recon is None:
            recon = out
        else:  # one collapse step: EXPAND the coarser sum, add the layer
            recon = pyr.upsample(recon, out.shape)
            np.add(out, recon, out=recon)
        if k == e and params.enhancement_enabled:
            if debug_sink is not None:
                debug_sink(f"partial_layer{e}_pre_enhance", recon)
            recon = enhance_boundaries(recon, gb, image, observed)
            if debug_sink is not None:
                debug_sink(f"partial_layer{e}_post_enhance", recon)
        coarser = image
    del out  # layer 1's blend, freed before the clip makes its frames

    recon = np.where(_any(valid), np.clip(recon, 0.0, 1.0), 0.0)
    return recon.astype(np.float32, copy=False)


def prepare_views(views: Sequence[ViewInput], out_width: int, out_height: int,
                  *, boundary_params: BoundaryParams = BoundaryParams(),
                  attenuation_params: AttenuationParams = AttenuationParams(),
                  ) -> list[WarpedView]:
    """Warp native-frame views into the common frame, filling missing maps.

    The one map filler.  Intensity confidence and boundary masks are computed
    in the native frame (where the beam direction is straight down) and then
    warped along with the image; structural confidence defaults to ones in
    the common frame, as one read-only float32 1 broadcast over the frame
    (`np.broadcast_to`), so no frame is allocated for it.  The caller's
    views are left unchanged.
    """
    warped = []
    for v in views:
        fill = {}
        if v.intensity_confidence is None:
            fill["intensity_confidence"] = attenuation_intensity_confidence(
                v.image, attenuation_params)
        if v.boundary_mask is None:
            fill["boundary_mask"] = detect_boundaries(v.image.data, boundary_params)
        w = warp_to_common(replace(v, **fill) if fill else v, out_width, out_height)
        if w.structural_confidence is None:
            w.structural_confidence = np.broadcast_to(np.float32(1.0),
                                                      w.image.shape)
        warped.append(w)
    return warped


def compound(views: Sequence[WarpedView], method: str,
             params: PyramidParams = PyramidParams(),
             debug_sink: DebugSink | None = None) -> np.ndarray:
    """Dispatch to one of the four compounding methods.  `ubf` and `pyramid`
    need complete views, as `prepare_views` returns; a missing map raises
    ValueError, as does a `debug_sink` given to a method but `pyramid`."""
    if debug_sink is not None and method != "pyramid":
        raise ValueError(f"debug_sink needs method 'pyramid', not {method!r}")
    if method == "average":
        return compound_average(views)
    if method == "maximum":
        return compound_maximum(views)
    if method == "ubf":
        return compound_ubf(views)
    if method == "pyramid":
        return compound_pyramid(views, params, debug_sink)
    raise ValueError(f"unknown method {method!r} (choose from {METHODS})")
