import ast
import hashlib
import importlib
import inspect
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import traced_peak_mib, two_view_phantom
from test_pyramid import layer_dtype
from uscompound import blocks
from uscompound import pyramid as pyr
from uscompound.compound import (METHODS, PyramidParams, blend_layer, compound,
                                 compound_average, compound_maximum,
                                 compound_pyramid, compound_ubf,
                                 enhance_boundaries, phi, prepare_views,
                                 select_view_layer, weighted_average_layer,
                                 _first_argmax, _local_contrast, _planes)
from uscompound.confidence import AttenuationParams
from uscompound.errors import DimensionError
from uscompound.image import Image, ViewInput, WarpedView
from uscompound.phantom import generate
from uscompound.pyramid import (collapse, gaussian_pyramid, laplacian_pyramid,
                                upsample)

# The package's `compound` attribute is the function, not the module.
compound_module = importlib.import_module("uscompound.compound")
image_module = importlib.import_module("uscompound.image")


def make_view(img, valid=None, gc=None, gs=None, bm=None):
    img = np.asarray(img, dtype=np.float32)
    if valid is None:
        valid = np.ones(img.shape, dtype=bool)
    return WarpedView(img, valid, gc, gs, bm)


def duplicate_views(rng, n=2, shape=(32, 32)):
    img = rng.random(shape).astype(np.float32)
    gc = rng.random(shape).astype(np.float32) * 0.9 + 0.1
    gs = rng.random(shape).astype(np.float32)
    bm = rng.random(shape) > 0.9
    return [make_view(img.copy(), gc=gc.copy(), gs=gs.copy(), bm=bm.copy())
            for _ in range(n)]


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------

def test_average_identical_views(rng):
    views = duplicate_views(rng)
    assert np.allclose(compound_average(views), views[0].image)


def test_average_simple_values():
    out = compound_average([make_view([[0.2]]), make_view([[0.8]])])
    assert out[0, 0] == pytest.approx(0.5)


def test_average_masked():
    v1 = make_view([[0.3]], valid=np.array([[True]]))
    v2 = make_view([[0.9]], valid=np.array([[False]]))
    assert compound_average([v1, v2])[0, 0] == pytest.approx(0.3)


def test_average_within_view_range(rng):
    views = [make_view(rng.random((8, 8))) for _ in range(3)]
    out = compound_average(views)
    stack = np.stack([v.image for v in views])
    assert np.all(out >= stack.min(axis=0) - 1e-7)
    assert np.all(out <= stack.max(axis=0) + 1e-7)


@settings(max_examples=150, deadline=None)
@given(n_views=st.integers(1, 5), h=st.integers(16, 40), w=st.integers(16, 40),
       seed=st.integers(0, 2**32 - 1))
def test_every_method_returns_float32_within_unit_range(n_views, h, w, seed):
    # The range every written output must meet (`Image` checks it), on
    # random validity, pixels at exactly 0 and 1, and intensity confidences
    # of 0 and from 1e-30 up to 1; frames of at least 16 px a side, as the
    # default 5 pyramid levels need.
    rng = np.random.default_rng(seed)

    def mixed(choices, values):
        return np.where(rng.random((h, w)) < 0.5, rng.choice(choices, (h, w)),
                        values).astype(np.float32)

    views = [WarpedView(mixed([0.0, 1.0], rng.random((h, w))),
                        rng.random((h, w)) > 0.3,
                        mixed([0.0, 1e-30, 1.0], 10.0 ** rng.uniform(-30, 0, (h, w))),
                        rng.random((h, w)).astype(np.float32),
                        mixed([0.0, 1.0], rng.random((h, w))))
             for _ in range(n_views)]
    for method in METHODS:
        out = compound(views, method)
        assert out.dtype == np.float32 and out.shape == (h, w), method
        assert 0.0 <= out.min() and out.max() <= 1.0, method


@pytest.mark.parametrize("method", ["average", "maximum", "ubf"])
def test_debug_sink_needs_the_pyramid(rng, method):
    # only the pyramid has intermediates, so a sink elsewhere is an error
    with pytest.raises(ValueError, match="debug_sink"):
        compound(duplicate_views(rng), method, PyramidParams(),
                 lambda name, a: None)


def test_maximum_simple_values():
    out = compound_maximum([make_view([[0.2]]), make_view([[0.8]])])
    assert out[0, 0] == pytest.approx(0.8)


def test_maximum_identity_on_duplicates(rng):
    views = duplicate_views(rng)
    assert np.allclose(compound_maximum(views), views[0].image)


def test_maximum_preserves_one_sided_artifact():
    bright = np.zeros((4, 4)); bright[1, 1] = 0.9
    dark = np.zeros((4, 4))
    out = compound_maximum([make_view(bright), make_view(dark)])
    assert out[1, 1] == pytest.approx(0.9)  # documented weakness


def test_ubf_equal_confidence_is_average(rng):
    imgs = [rng.random((6, 6)) for _ in range(2)]
    gc = np.full((6, 6), 0.4, dtype=np.float32)
    views = [make_view(i, gc=gc.copy()) for i in imgs]
    assert np.allclose(compound_ubf(views),
                       compound_average([make_view(i) for i in imgs]))


def test_ubf_zero_confidence_excluded():
    v1 = make_view([[0.3]], gc=np.array([[1.0]], np.float32))
    v2 = make_view([[0.9]], gc=np.array([[0.0]], np.float32))
    assert compound_ubf([v1, v2])[0, 0] == pytest.approx(0.3)


def test_ubf_weighted_arithmetic():
    v1 = make_view([[0.4]], gc=np.array([[0.75]], np.float32))
    v2 = make_view([[0.8]], gc=np.array([[0.25]], np.float32))
    assert compound_ubf([v1, v2])[0, 0] == pytest.approx(0.5)


def test_ubf_zero_sum_falls_back_to_mean():
    v1 = make_view([[0.2]], gc=np.array([[0.0]], np.float32))
    v2 = make_view([[0.6]], gc=np.array([[0.0]], np.float32))
    assert compound_ubf([v1, v2])[0, 0] == pytest.approx(0.4)


def test_mismatched_dims_rejected():
    with pytest.raises(DimensionError):
        compound_average([make_view(np.zeros((4, 4))),
                          make_view(np.zeros((5, 4)))])


# ---------------------------------------------------------------------------
# layer weight
# ---------------------------------------------------------------------------

def test_phi_values():
    assert 0.9973 <= phi(3, 5) <= 0.9974
    assert 0.0438 <= phi(1, 5) <= 0.0439


def test_phi_symmetry_exact():
    for levels in (2, 3, 5, 7):
        for k in range(1, levels + 1):
            assert phi(k, levels) == phi(levels + 1 - k, levels)


def test_phi_clamped_and_bounded():
    for levels in range(2, 9):
        assert all(0.0 < phi(k, levels) <= 1.0 for k in range(1, levels + 1))


def test_phi_degenerate():
    with pytest.raises(DimensionError):
        phi(1, 1)


# ---------------------------------------------------------------------------
# selection, averaging, blending, enhancement
# ---------------------------------------------------------------------------

def test_select_single_valid_view(rng):
    shape = (6, 6)
    valids = [np.zeros(shape, bool), np.ones(shape, bool)]
    sel = select_view_layer([rng.random(shape) for _ in range(2)],
                            [np.ones(shape), np.ones(shape)], valids)
    assert np.all(sel == 1)


def test_select_contrast_branch_prefers_edge():
    flat = np.full((5, 5), 0.5)
    edge = np.full((5, 5), 0.5)
    edge[:, 2:] = 0.9
    ones = np.ones((5, 5))
    valid = [np.ones((5, 5), bool)] * 2
    sel = select_view_layer([flat, edge], [ones, ones], valid)
    assert sel[2, 2] == 1


def test_select_confidence_branch_wins():
    rng = np.random.default_rng(0)
    noisy = rng.random((5, 5))
    flat = np.full((5, 5), 0.5)
    gs = [np.full((5, 5), 0.9), np.full((5, 5), 0.3)]
    valid = [np.ones((5, 5), bool)] * 2
    # spread 0.6 >= gamma: the higher-structural-confidence view wins
    sel = select_view_layer([flat, noisy], gs, valid, PyramidParams(gamma=0.05))
    assert np.all(sel == 0)


def test_select_tie_breaks_lowest_index():
    a = np.full((3, 3), 0.5)
    valid = [np.ones((3, 3), bool)] * 3
    sel = select_view_layer([a, a.copy(), a.copy()],
                            [np.ones((3, 3))] * 3, valid)
    assert np.all(sel == 0)


def test_weighted_average_layer_cases():
    ones = np.ones((1, 1), bool)
    out = weighted_average_layer([np.array([[0.1]]), np.array([[-0.1]])],
                                 [np.array([[0.6]]), np.array([[0.2]])],
                                 [ones, ones])
    assert out[0, 0] == pytest.approx(0.05)
    out = weighted_average_layer([np.array([[0.3]]), np.array([[0.7]])],
                                 [np.array([[0.0]]), np.array([[0.5]])],
                                 [ones, ones])
    assert out[0, 0] == pytest.approx(0.7)


def test_blend_layer_overrides():
    sel = np.array([[0.2]])
    avg = np.array([[0.4]])
    for w, want in [(1.0, 0.2), (0.0, 0.4), (0.5, 0.3)]:
        params = PyramidParams(levels=5, phi_overrides=(w,) * 5)
        assert blend_layer(sel, avg, 1, params)[0, 0] == pytest.approx(want)


def test_enhance_empty_masks_identity(rng):
    part = rng.random((4, 4))
    zeros = np.zeros((4, 4))
    valid = [np.ones((4, 4), bool)] * 2
    out = enhance_boundaries(part, [zeros, zeros],
                             [rng.random((4, 4)) for _ in range(2)], valid)
    assert np.array_equal(out, part)


def test_enhance_arithmetic():
    valid = [np.ones((1, 1), bool)] * 2
    out = enhance_boundaries(np.array([[0.5]]),
                             [np.array([[1.0]]), np.array([[0.0]])],
                             [np.array([[0.9]]), np.array([[0.1]])], valid)
    assert out[0, 0] == pytest.approx(0.9)
    out = enhance_boundaries(np.array([[0.85]]),
                             [np.array([[1.0]]), np.array([[1.0]])],
                             [np.array([[0.9]]), np.array([[0.7]])], valid)
    assert out[0, 0] == pytest.approx(0.85)  # max(0.8, 0.85)


# ---------------------------------------------------------------------------
# full pyramid pipeline
# ---------------------------------------------------------------------------

def test_pyramid_duplicates_identity(rng):
    views = duplicate_views(rng, shape=(48, 48))
    out = compound_pyramid(views)
    assert np.abs(out - views[0].image).max() < 1e-4


def test_all_methods_idempotent_on_duplicates(rng):
    for method in ("average", "maximum", "ubf", "pyramid"):
        views = duplicate_views(rng, shape=(48, 48))
        out = compound(views, method)
        assert np.abs(out - views[0].image).max() < 1e-4, method


def test_uniform_structural_confidence_reduces_to_contrast(rng):
    # the degenerate mode: equal structural confidence everywhere
    shape = (16, 16)
    gi = [rng.random(shape) for _ in range(3)]
    ones = [np.ones(shape) for _ in range(3)]
    valid = [np.ones(shape, bool) for _ in range(3)]
    sel = select_view_layer(gi, ones, valid, PyramidParams(gamma=0.05))
    contrast = np.stack([_local_contrast(g) for g in gi])
    assert np.array_equal(sel, contrast.argmax(axis=0))


_OFFSETS = [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1)
            if (di, dj) != (0, 0)]


def local_contrast_oracle(layer):
    """One |neighbor - center| per directed offset, over all 8 offsets, in
    the dtype of `layer`."""
    a = np.asarray(layer, dtype=layer_dtype(layer))
    h, w = a.shape[-2:]
    out = np.zeros_like(a)
    for di, dj in _OFFSETS:
        cs = slice(max(0, -di), h - max(0, di))
        cj = slice(max(0, -dj), w - max(0, dj))
        ns = slice(max(0, di), h - max(0, -di))
        nj = slice(max(0, dj), w - max(0, -dj))
        out[..., cs, cj] += np.abs(a[..., ns, nj] - a[..., cs, cj])
    return out


def select_oracle(image_layers, structural_layers, validity_layers, gamma):
    """Both branches ranked by `argmax(axis=0)` over masked views: the
    structural confidences in float64, the contrast in the images' dtype."""
    gs = np.asarray(structural_layers, dtype=np.float64)
    valid = np.asarray(validity_layers, dtype=bool)
    spread = (np.where(valid, gs, -np.inf).max(axis=0)
              - np.where(valid, gs, np.inf).min(axis=0))
    agree = np.where(valid.any(axis=0), spread < gamma, True)
    contrast = local_contrast_oracle(image_layers)
    by_contrast = np.where(valid, contrast, -np.inf).argmax(axis=0)
    by_confidence = np.where(valid, gs, -np.inf).argmax(axis=0)
    return np.where(agree, by_contrast, by_confidence)


def tie_prone_layers(rng, n_views, shape=(9, 11)):
    """Views half drawn from a few values (signed zeros too) so that
    contrasts and structural confidences tie, half random so that the order
    of the sums shows; a copied view so whole regions tie, and a column
    invalid in every view."""
    size = (n_views,) + shape
    image = np.where(rng.random(size) < 0.5,
                     rng.choice([-0.5, -0.0, 0.0, 0.25, 0.5], size=size),
                     rng.random(size))
    image[-1, :, :5] = image[0, :, :5]
    gs = rng.choice([0.2, 0.5, 1.0], size=size)
    valid = rng.random(size) > 0.3
    valid[:, :, 3] = False
    return image, gs, valid


@pytest.mark.parametrize("n_views", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", range(4))
def test_local_contrast_matches_8_offset_oracle(n_views, seed):
    image, _, _ = tie_prone_layers(np.random.default_rng(seed), n_views)
    out, want = _local_contrast(image), local_contrast_oracle(image)
    assert np.array_equal(out, want)
    assert np.array_equal(np.signbit(out), np.signbit(want))
    assert np.array_equal(_local_contrast(image[0]), want[0])


@settings(max_examples=300, deadline=None)
@given(batch=st.lists(st.integers(1, 3), max_size=2), h=st.integers(1, 70),
       w=st.integers(1, 9), dtype=st.sampled_from([np.float32, np.float64]),
       seed=st.integers(0, 2**32 - 1))
def test_local_contrast_matches_oracle_on_batched_layers(batch, h, w, dtype,
                                                         seed):
    # any batch axes, either float dtype; values half tie-prone
    rng = np.random.default_rng(seed)
    size = (*batch, h, w)
    layer = np.where(rng.random(size) < 0.5,
                     rng.choice([-0.5, -0.0, 0.0, 0.25], size=size),
                     rng.random(size)).astype(dtype)
    got, want = _local_contrast(layer), local_contrast_oracle(layer)
    assert got.dtype == dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def scatter_first_argmax(keys, valid):
    """The first valid argmax by a boolean-mask scatter and a new best per
    view."""
    best = np.where(valid[0], keys[0], -np.inf)
    index = np.zeros(best.shape, dtype=np.intp)
    for v in range(1, len(keys)):
        key = np.where(valid[v], keys[v], -np.inf)
        better = key > best
        index[better] = v
        best = np.where(better, key, best)
    return index


@pytest.mark.parametrize("n_views", [1, 2, 3, 4])
def test_first_argmax_matches_scatter_oracle(rng, n_views):
    # keys from three values, so most pixels tie between several views, one
    # view invalid everywhere, and pixels no view observes
    shape = (n_views, 23, 17)
    keys = rng.choice([-1.0, 0.5, 2.0], size=shape)
    valid = rng.random(shape) > 0.3
    valid[rng.integers(n_views)] = False
    valid[:, :3] = False
    got = _first_argmax(keys, valid)
    assert got.dtype == np.uint8
    assert np.array_equal(got, scatter_first_argmax(keys, valid))
    assert np.array_equal(
        got, np.where(valid, keys, -np.inf).argmax(axis=0))
    assert np.all(got[:3] == 0)


def whole_frame_select(image_layers, structural_layers, validity_layers, gamma):
    """`select_view_layer` over the whole frame at once."""
    gs = np.asarray(structural_layers, dtype=np.float64)
    valid = np.asarray(validity_layers, dtype=bool)
    gs_masked_max = np.where(valid, gs, -np.inf).max(axis=0)
    gs_masked_min = np.where(valid, gs, np.inf).min(axis=0)
    agree = ~valid.any(axis=0) | (gs_masked_max - gs_masked_min < gamma)
    keys = np.where(agree, local_contrast_oracle(image_layers), gs)
    return scatter_first_argmax(keys, valid)


def whole_frame_weighted_average(laplacian_layers, intensity_layers,
                                 validity_layers):
    """`weighted_average_layer` over the whole frame at once."""
    dtype = layer_dtype(laplacian_layers, intensity_layers)
    values = np.asarray(laplacian_layers, dtype=dtype)
    valid = np.asarray(validity_layers, dtype=bool)
    w = np.where(valid, np.asarray(intensity_layers, dtype=dtype), 0.0)
    wsum = w.sum(axis=0)
    num = (w * values).sum(axis=0)
    out = np.divide(num, wsum, out=np.zeros_like(num), where=wsum > 0)
    counts = valid.sum(axis=0)
    fallback = np.divide(np.where(valid, values, 0.0).sum(axis=0), counts,
                         out=np.zeros_like(num), where=counts > 0)
    return np.where(wsum > 0, out, fallback)


def whole_frame_enhance(partial, boundary_layers, image_layers,
                        validity_layers):
    """`enhance_boundaries` over the whole frame at once."""
    dtype = layer_dtype(partial, boundary_layers, image_layers)
    part = np.asarray(partial, dtype=dtype)
    gi = np.asarray(image_layers, dtype=dtype)
    valid = np.asarray(validity_layers, dtype=bool)
    gb = np.where(valid, np.asarray(boundary_layers, dtype=dtype), 0.0)
    den = gb.sum(axis=0)
    num = (gb * gi).sum(axis=0)
    weighted = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
    return np.where(den > 0, np.maximum(weighted, part), part)


@settings(max_examples=300, deadline=None)
@given(n_views=st.integers(1, 4), h=st.integers(1, 40), w=st.integers(1, 9),
       rows=st.sampled_from([1, 2, 7, None]),
       gamma=st.sampled_from([0.0, 0.05, 0.4, 1.0]),
       dtype=st.sampled_from([np.float32, np.float64]), as_list=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_select_and_average_blocks_match_whole_frame(n_views, h, w, rows, gamma,
                                                     dtype, as_list, seed):
    # rows per block 1, 2, 7 or the default; values, confidences, weights
    # and boundary masks drawn from a few values (signed zeros too) half the
    # time, so that contrasts tie and weight sums vanish
    rng = np.random.default_rng(seed)
    size = (n_views, h, w)

    def tie_prone(choices):
        return np.where(rng.random(size) < 0.5, rng.choice(choices, size=size),
                        rng.random(size) - 0.25).astype(dtype)

    image, lap = tie_prone([-0.5, -0.0, 0.0, 0.25]), tie_prone([-0.0, 0.0, 0.5])
    gs, gc = tie_prone([0.2, 0.5, 1.0]), tie_prone([-0.0, 0.0, 1.0])
    valid = rng.random(size) > 0.3
    valid[:, :, rng.integers(w)] = False
    gb, partial = tie_prone([-0.0, 0.0, 1.0]), tie_prone([-0.0, 0.0, 0.5])[0]
    args = [list(a) if as_list else a
            for a in (image, gs, lap, gc, valid, gb)]
    with pytest.MonkeyPatch.context() as mp:
        if rows is not None:
            mp.setattr(blocks, "BLOCK_PIXELS", rows * w)
        sel = select_view_layer(args[0], args[1], args[4], PyramidParams(gamma=gamma))
        avg = weighted_average_layer(args[2], args[3], args[4])
        enhanced = enhance_boundaries(partial, args[5], args[0], args[4])
    assert sel.dtype == np.uint8
    assert np.array_equal(sel, whole_frame_select(image, gs, valid, gamma))
    for got, want in [(avg, whole_frame_weighted_average(lap, gc, valid)),
                      (enhanced, whole_frame_enhance(partial, gb, image, valid))]:
        assert got.dtype == dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


# The average is 2 MiB and the uint8 selection 0.25 MiB; the whole-frame
# forms peaked at 16.8 MiB (select_view_layer, with an intp selection) and
# 18.0 MiB (weighted_average_layer) on these calls.  Each may take 2 MiB
# plus 3 MiB.
def test_select_and_average_memory_is_their_output_plus_a_block(rng):
    layer, gs = rng.random((2, 512, 512)), rng.random((2, 512, 512))
    valid = rng.random((2, 512, 512)) > 0.1
    assert traced_peak_mib(lambda: select_view_layer(layer, gs, valid)) <= 2 + 3
    assert traced_peak_mib(
        lambda: weighted_average_layer(layer, gs, valid)) <= 2 + 3


def whole_frame_stacks(views, *maps):
    """Each view's image, validity and named maps, stacked over the views,
    images and maps as float64."""
    def stacked(name):
        return np.stack([getattr(v, name) for v in views], dtype=np.float64)
    return (stacked("image"), np.stack([v.validity for v in views]),
            *map(stacked, maps))


def whole_frame_average(views):
    """`compound_average` over the whole frame at once."""
    imgs, valid = whole_frame_stacks(views)
    counts = valid.sum(axis=0)
    total = np.where(valid, imgs, 0.0).sum(axis=0)
    return np.divide(total, counts, out=np.zeros_like(total),
                     where=counts > 0).astype(np.float32)


def whole_frame_maximum(views):
    """`compound_maximum` over the whole frame at once."""
    imgs, valid = whole_frame_stacks(views)
    out = np.where(valid, imgs, -np.inf).max(axis=0)
    return np.where(valid.any(axis=0), out, 0.0).astype(np.float32)


def whole_frame_ubf(views):
    """`compound_ubf` over the whole frame at once."""
    imgs, valid, conf = whole_frame_stacks(views, "intensity_confidence")
    return whole_frame_weighted_average(imgs, conf, valid).astype(np.float32)


@settings(max_examples=300, deadline=None)
@given(n_views=st.integers(1, 4), h=st.integers(1, 40), w=st.integers(1, 9),
       rows=st.sampled_from([1, 2, 7, None]),
       dtype=st.sampled_from([np.float32, np.float64]),
       seed=st.integers(0, 2**32 - 1))
def test_baselines_blocks_match_whole_frame(n_views, h, w, rows, dtype, seed):
    # rows per block 1, 2, 7 or the default; images and confidences drawn
    # from a few values (signed zeros too) half the time, so that maxima
    # tie and ubf weight sums vanish; one column no view sees
    rng = np.random.default_rng(seed)

    def tie_prone(choices):
        return np.where(rng.random((h, w)) < 0.5, rng.choice(choices, (h, w)),
                        rng.random((h, w))).astype(dtype)

    views = []
    for _ in range(n_views):
        valid = rng.random((h, w)) > 0.3
        views.append(WarpedView(tie_prone([-0.0, 0.0, 0.5, 1.0]), valid,
                                intensity_confidence=tie_prone([-0.0, 0.0, 1.0])))
    unseen = rng.integers(w)
    for v in views:
        v.validity[:, unseen] = False
    with pytest.MonkeyPatch.context() as mp:
        if rows is not None:
            mp.setattr(blocks, "BLOCK_PIXELS", rows * w)
        outs = [compound_average(views), compound_maximum(views),
                compound_ubf(views)]
    for out, oracle in zip(outs, (whole_frame_average, whole_frame_maximum,
                                  whole_frame_ubf)):
        want = oracle(views)
        assert out.dtype == np.float32 and out.shape == want.shape
        assert np.array_equal(out, want)
        assert np.array_equal(np.signbit(out), np.signbit(want))
        assert np.all(out[:, unseen] == 0.0)


def test_ubf_blocks_match_whole_frame_where_weights_vanish(rng):
    # whole zero-confidence rows, two of them on either side of a boundary
    # between blocks of 2 rows, fall back to the unweighted mean; the last
    # row is seen by no view
    shape = (9, 5)
    views = [make_view(rng.random(shape), valid=rng.random(shape) > 0.2,
                       gc=rng.random(shape).astype(np.float32))
             for _ in range(3)]
    for v in views:
        v.intensity_confidence[[1, 5, 6]] = 0.0
        v.validity[-1] = False
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(blocks, "BLOCK_PIXELS", 2 * shape[1])
        out = compound_ubf(views)
    assert np.array_equal(out, whole_frame_ubf(views))
    assert np.array_equal(out[[1, 5, 6]], whole_frame_average(views)[[1, 5, 6]])
    assert np.all(out[-1] == 0.0)


# On the two views prepare_views makes of a 512² phantom, over float64
# stacks of the views the baselines peaked at 12.5 (average), 10.5 (maximum)
# and 26.5 MiB (ubf); in row blocks at 1.8, 1.7 and 2.3 MiB.  Each output is
# 1 MiB.
@pytest.mark.parametrize("method,bound", [
    ("average", 2.5), ("maximum", 2.5), ("ubf", 3.5)])
def test_baseline_memory_is_its_output_plus_a_block(method, bound):
    scene = generate(two_view_phantom(0, size=512))
    warped = prepare_views([ViewInput(v.image, v.to_common) for v in scene.views],
                           512, 512)
    assert traced_peak_mib(lambda: compound(warped, method)) <= bound


@pytest.mark.parametrize("n_views", [1, 2, 3, 4])
@pytest.mark.parametrize("gamma", [0.0, 0.05, 0.4, 1.0])
@pytest.mark.parametrize("seed", range(4))
def test_select_matches_argmax_oracle(n_views, gamma, seed):
    image, gs, valid = tie_prone_layers(np.random.default_rng(seed), n_views)
    sel = select_view_layer(image, gs, valid, PyramidParams(gamma=gamma))
    assert sel.dtype == np.uint8
    assert np.array_equal(sel, select_oracle(image, gs, valid, gamma))
    # the ties and the pixels invalid everywhere are really there
    assert np.all(sel[:, 3] == 0)
    if n_views > 1:
        contrast = np.where(valid, local_contrast_oracle(image), -np.inf)
        top = contrast == contrast.max(axis=0)
        assert np.any(top.sum(axis=0)[valid.any(axis=0)] > 1)


def test_selection_takes_the_smallest_index_dtype():
    # uint8 holds the indices of up to 256 views; 257 views need uint16
    rng = np.random.default_rng(0)
    for n_views, dtype in [(1, np.uint8), (256, np.uint8), (257, np.uint16)]:
        image, gs = rng.random((2, n_views, 3, 2))
        valid = np.ones((n_views, 3, 2), bool)
        image[-1] = 100.0 * (np.indices((3, 2)).sum(axis=0) % 2)  # most contrast
        sel = select_view_layer(image, gs, valid, PyramidParams(gamma=1.0))
        assert sel.dtype == dtype
        assert np.all(sel == n_views - 1)


def weighted_laplacian_oracle(views, levels):
    """Independent implementation: per-layer GC-weighted Laplacian average,
    collapsed."""
    lap = [laplacian_pyramid(gaussian_pyramid(v.image, levels)) for v in views]
    gc = [gaussian_pyramid(v.intensity_confidence, levels) for v in views]
    layers = []
    for k in range(levels):
        num = sum(g[k] * l[k] for g, l in zip(gc, lap))
        den = sum(g[k] for g in gc)
        layers.append(num / den)
    return collapse(layers)


def test_phi_zero_matches_weighted_average_oracle(rng):
    shape = (32, 32)
    views = [make_view(rng.random(shape) * 0.8 + 0.1,
                       gc=(rng.random(shape) * 0.8 + 0.2).astype(np.float32),
                       gs=rng.random(shape).astype(np.float32),
                       bm=np.zeros(shape, bool))
             for _ in range(2)]
    params = PyramidParams(phi_overrides=(0.0,) * 5, enhancement_enabled=False)
    out = compound_pyramid(views, params)
    oracle = weighted_laplacian_oracle(views, 5)
    assert np.abs(out - oracle).max() < 1e-5


def per_view_pyramid_reference(views, params=PyramidParams()):
    """List-based compound_pyramid: one 2-D pyramid per map and per view,
    regrouped into per-layer lists of views.  The pyramids of the gating
    maps (structural confidence and validity) are float64; every other
    pyramid, and all that is computed from it, takes the dtype of its map:
    float32 from float32 and bool maps, float64 from float64 ones."""
    levels = params.levels
    gi = [gaussian_pyramid(v.image, levels) for v in views]
    lap = [laplacian_pyramid(gaussian_pyramid(v.image, levels)) for v in views]
    gc = [gaussian_pyramid(v.intensity_confidence, levels) for v in views]
    gs = [gaussian_pyramid(v.structural_confidence, levels, np.float64)
          for v in views]
    gb = [gaussian_pyramid(v.boundary_mask, levels) for v in views]
    gv = [[layer > 0.5
           for layer in gaussian_pyramid(v.validity, levels, np.float64)]
          for v in views]

    blended = []
    for k in range(1, levels + 1):
        i = k - 1
        lap_layers = [p[i] for p in lap]
        valid_layers = [p[i] for p in gv]
        selection = select_view_layer([p[i] for p in gi], [p[i] for p in gs],
                                      valid_layers, params)
        selected = np.take_along_axis(np.stack(lap_layers), selection[None],
                                      axis=0)[0]
        selected = np.where(np.stack(valid_layers).any(axis=0), selected, 0.0)
        averaged = weighted_average_layer(lap_layers, [p[i] for p in gc],
                                          valid_layers)
        blended.append(blend_layer(selected, averaged, k, params))

    def enhance(partial, k):
        i = k - 1
        return enhance_boundaries(partial, [p[i] for p in gb],
                                  [p[i] for p in gi], [p[i] for p in gv])

    recon = blended[-1]
    if params.enhancement_enabled and params.enhance_layer == levels:
        recon = enhance(recon, levels)
    for k in range(levels - 1, 0, -1):
        recon = upsample(recon, blended[k - 1].shape) + blended[k - 1]
        if params.enhancement_enabled and k == params.enhance_layer:
            recon = enhance(recon, k)
    any_valid = np.stack([v.validity for v in views]).any(axis=0)
    return np.where(any_valid, np.clip(recon, 0.0, 1.0), 0.0).astype(np.float32)


def float64_views(views):
    """The views with every plane, validity and boundary mask included, cast
    to float64, so that the whole fusion runs in float64."""
    return [replace(v, **{f.name: np.asarray(getattr(v, f.name), np.float64)
                          for f in fields(v)})
            for v in views]


def assert_matches_per_view_reference(views, params=PyramidParams()):
    """`compound_pyramid` equals the per-view reference bit for bit on the
    views as given (float32 maps, bool masks) and cast to float64, at the
    default block size and one row per block."""
    for vs in (views, float64_views(views)):
        want = per_view_pyramid_reference(vs, params)
        assert np.array_equal(compound_pyramid(vs, params), want)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(blocks, "BLOCK_PIXELS", 1)
            assert np.array_equal(compound_pyramid(vs, params), want)


def partially_seen_views(rng, first_view_covers=True):
    """Three views seeing slanted half-planes with scattered holes; unless the
    first view covers the frame, no view sees the far corner, down to the
    coarsest layer."""
    shape = (45, 53)
    yy, xx = np.mgrid[0:shape[0], 0:shape[1]]
    views = []
    for v in range(3):
        valid = (xx + (v + 1) * yy < 60 + 15 * v) | (v == 0 and first_view_covers)
        valid &= rng.random(shape) > 0.05
        views.append(make_view(rng.random(shape), valid=valid,
                               gc=rng.random(shape).astype(np.float32),
                               gs=rng.random(shape).astype(np.float32),
                               bm=rng.random(shape) > 0.9))
    return views


@pytest.mark.parametrize("params", [
    PyramidParams(),
    PyramidParams(levels=4, enhance_layer=4, gamma=0.2),
    PyramidParams(phi_overrides=(0.3, 0.9, 0.1, 1.0, 0.5), enhance_layer=1),
])
def test_pyramid_matches_per_view_reference_random(rng, params):
    assert_matches_per_view_reference(partially_seen_views(rng), params)


def test_pyramid_matches_per_view_reference_where_no_view_sees(rng):
    # the selection is zeroed where no view is valid at a layer, which the
    # upsampling would otherwise carry into the seen pixels nearby
    assert_matches_per_view_reference(
        partially_seen_views(rng, first_view_covers=False))


def test_pyramid_matches_per_view_reference_phantom():
    scene = generate(two_view_phantom(0))
    # a common frame wider and taller than the views, so neither sees all
    # of it
    warped = prepare_views([ViewInput(v.image, v.to_common) for v in scene.views],
                           200, 196)
    assert not any(v.validity.all() for v in warped)
    assert_matches_per_view_reference(warped)


# sha256 of every array the debug sink gets (by name) and of the output, for
# the two views prepare_views makes of a 192² phantom with every plane cast
# to float64.  Recorded when every pyramid layer was float64 whatever the
# views' dtype, so float64 views must keep giving those bytes; re-recorded
# once when the 90-degree view became a pixel copy, which changed the views.
@pytest.mark.parametrize("params,digest", [
    (PyramidParams(),
     "a860c5e1e1936f25ba8e9d046292f22d05ac0f597d4124d7267540ebab89de0e"),
    (PyramidParams(levels=4, enhance_layer=1, gamma=0.2),
     "44413e3a953583157b09d2f571e3603585902edfea25fe16921b8f9622887c64"),
])
def test_float64_views_keep_the_float64_pyramid_bytes(params, digest):
    scene = generate(two_view_phantom(0))
    warped = prepare_views([ViewInput(v.image, v.to_common) for v in scene.views],
                           192, 192)
    h = hashlib.sha256()

    def sink(name, a):
        # the digests were recorded when the sink got float64 selections
        if name.startswith("selection_"):
            a = a.astype(np.float64)
        h.update(name.encode())
        h.update(np.ascontiguousarray(a).tobytes())
    h.update(compound_pyramid(float64_views(warped), params, sink).tobytes())
    assert h.hexdigest() == digest


# With every map's pyramid and frame-sized per-layer temporaries alive at
# once, compound_pyramid peaked at 50.1 MiB on this call, and at 26.3 MiB
# with float64 stacks of the maps; stacked in their own dtypes, 20.6 MiB;
# with float32 layers of the blended maps, float64 layers of the gating maps
# and a uint8 selection, 13.9 MiB; with each pyramid's layer 1 the views'
# planes themselves, not a stack of them, 8.8 MiB (8.80); with each layer's
# band, selected value, average and blend formed one row block at a time
# and no Laplacian pyramid built, 5.33 MiB.
def test_pyramid_fusion_memory_is_bounded():
    scene = generate(two_view_phantom(0, size=512))
    warped = prepare_views([ViewInput(v.image, v.to_common) for v in scene.views],
                           512, 512)
    assert traced_peak_mib(lambda: compound_pyramid(warped)) <= 5.75


def test_pyramid_builds_traced_by_name(monkeypatch):
    # the benchmark's trace counts these public functions by name, so the
    # fusion must reach them through the module, not an inlined helper
    calls = {"gaussian_pyramid": 0, "laplacian_pyramid": 0, "upsample": 0}

    def counting(name):
        fn = getattr(pyr, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    scene = generate(two_view_phantom(0))
    warped = prepare_views([ViewInput(v.image, v.to_common) for v in scene.views],
                           192, 192)
    for name in calls:
        monkeypatch.setattr(pyr, name, counting(name))
    compound_pyramid(warped)
    # the bands are formed from EXPAND blocks while each layer is fused, so
    # only the collapse upsamples and no Laplacian pyramid is built
    assert calls == {"gaussian_pyramid": 5, "laplacian_pyramid": 0,
                     "upsample": 4}


def test_selection_traced_by_name_with_the_pyramid_params(monkeypatch):
    # the benchmark's trace wraps select_view_layer by name, so the fusion
    # must reach it once per layer through the module, with its own params
    seen = []
    select = compound_module.select_view_layer

    def recording(*args, **kwargs):
        seen.append(inspect.signature(select).bind(*args, **kwargs)
                    .arguments["params"])
        return select(*args, **kwargs)

    scene = generate(two_view_phantom(0))
    warped = prepare_views([ViewInput(v.image, v.to_common) for v in scene.views],
                           192, 192)
    params = PyramidParams(levels=4, enhance_layer=2, gamma=0.2)
    monkeypatch.setattr(compound_module, "select_view_layer", recording)
    compound_pyramid(warped, params)
    assert len(seen) == 4 and all(p is params for p in seen)


def test_compound_leaves_input_views_unchanged(rng):
    shape = (32, 32)
    views = [make_view(rng.random(shape), valid=rng.random(shape) > 0.2,
                       gc=rng.random(shape).astype(np.float32),
                       gs=rng.random(shape).astype(np.float32),
                       bm=rng.random(shape) > 0.9)
             for _ in range(2)]
    before = [{f.name: getattr(v, f.name) for f in fields(v)} for v in views]
    copies = [{k: a.copy() for k, a in b.items()} for b in before]
    for method in ("average", "maximum", "ubf", "pyramid"):
        compound(views, method)
        for v, objs, vals in zip(views, before, copies):
            for name, obj in objs.items():
                assert getattr(v, name) is obj, (method, name)
                assert np.array_equal(obj, vals[name]), (method, name)


@pytest.mark.parametrize("method,missing", [
    ("ubf", "intensity_confidence"),
    ("pyramid", "intensity_confidence"),
    ("pyramid", "structural_confidence"),
    ("pyramid", "boundary_mask"),
])
def test_compound_rejects_views_missing_a_map(rng, method, missing):
    views = duplicate_views(rng)
    setattr(views[1], missing, None)
    with pytest.raises(ValueError, match=missing):
        compound(views, method)


@pytest.mark.parametrize("method,name", [
    ("ubf", "intensity_confidence"),
    ("pyramid", "intensity_confidence"),
    ("pyramid", "structural_confidence"),
    ("pyramid", "boundary_mask"),
])
@pytest.mark.parametrize("shape", [(1, 32), (16, 16), (32, 32, 1)])
def test_compound_rejects_a_map_of_another_shape(rng, method, name, shape):
    # a (1, 32) map would broadcast silently against (32, 32) images
    views = duplicate_views(rng)
    for v in views:
        setattr(v, name, np.ones(shape, getattr(v, name).dtype))
    with pytest.raises(DimensionError, match=name):
        compound(views, method)


def test_stack_checks_maps_before_stacking_them(rng):
    views = duplicate_views(rng, n=3)
    names = ("image", "validity", "intensity_confidence", "boundary_mask")
    planes = _planes(views, *names[2:])
    assert len(planes) == len(names)
    for name, got in zip(names, planes):
        # each view's own array, neither copied nor converted
        assert len(got) == 3
        assert all(p is getattr(v, name) for v, p in zip(views, got))
    # a missing map must not stack to NaN (np.asarray(None, float) is NaN)
    views[2].boundary_mask = None
    with pytest.raises(ValueError, match="every view needs a boundary_mask map"):
        _planes(views, *names[2:])
    views[2].boundary_mask = np.zeros((32, 31), bool)
    with pytest.raises(DimensionError, match="boundary_mask maps must share"):
        _planes(views, *names[2:])


def test_each_reduction_over_the_views_is_written_once():
    # The views are stacked by `_read_rows` alone and summed by the mean and
    # the weighted mean alone, so a change to how a reduction runs over the
    # views (a per-view fold) changes one helper per reduction.
    allowed = {"stack": {"_read_rows"}, "sum": {"_masked_mean", "_weighted_mean"}}
    misplaced = []
    for top in ast.parse(inspect.getsource(compound_module)).body:
        for node in ast.walk(top):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            func, name = node.func, getattr(top, "name", None)
            is_np_stack = (func.attr == "stack" and isinstance(func.value, ast.Name)
                           and func.value.id == "np")
            if (is_np_stack or func.attr == "sum") and name not in allowed[func.attr]:
                misplaced.append(f"{name}: .{func.attr}( at line {node.lineno}")
    assert misplaced == []


def test_prepare_views_fills_every_map_and_leaves_inputs_unchanged():
    scene = generate(two_view_phantom(0))
    bare = ViewInput(scene.views[0].image, scene.views[0].to_common)
    gs = np.full(bare.image.data.shape, 0.5, np.float32)
    given = ViewInput(scene.views[1].image, scene.views[1].to_common,
                      structural_confidence=gs)
    inputs = [bare, given]
    before = [{f.name: getattr(v, f.name) for f in fields(v)} for v in inputs]
    warped = prepare_views(inputs, 192, 192)
    for v, objs in zip(inputs, before):
        for name, obj in objs.items():
            assert getattr(v, name) is obj, name
    assert gs.min() == gs.max() == 0.5
    for w in warped:
        assert all(getattr(w, f.name) is not None for f in fields(w))
    assert np.array_equal(warped[0].structural_confidence, np.ones((192, 192)))
    assert warped[0].structural_confidence.dtype == np.float32
    assert not np.all(warped[1].structural_confidence == 1.0)
    for w in warped:
        m = w.boundary_mask
        assert m.dtype == np.float32 and m.min() >= 0.0 and m.max() <= 1.0
        assert np.all(m[~w.validity] == 0.0)


@pytest.mark.parametrize("name", ["decay", "absorption"])
def test_prepare_views_names_a_non_finite_attenuation_parameter(name):
    # NaN was reported as non-finite values in the intensity confidence map.
    scene = generate(two_view_phantom(0))
    views = [ViewInput(v.image, v.to_common) for v in scene.views]
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        prepare_views(views, 192, 192,
                      attenuation_params=AttenuationParams(**{name: np.nan}))


def test_prepare_views_reads_its_attenuation_params():
    scene = generate(two_view_phantom(0))
    views = [ViewInput(v.image, v.to_common) for v in scene.views]
    flat = prepare_views(views, 192, 192,
                         attenuation_params=AttenuationParams(0.0, 0.0))
    for f, d in zip(flat, prepare_views(views, 192, 192)):
        assert np.all(f.intensity_confidence[f.validity] == 1.0)
        assert d.intensity_confidence[d.validity].min() < 0.5


def test_prepare_views_builds_each_filled_view_once(monkeypatch, rng):
    # Building a ViewInput checks each confidence map it holds with
    # `unit_grid`; a bare view gets both missing maps in one build, so its
    # computed intensity confidence is checked once, not once per map.
    views = [ViewInput(Image(rng.random((64, 64), dtype=np.float32)))
             for _ in range(2)]
    checked, check = [], image_module.unit_grid

    def counting(data, what):
        checked.append(what)
        return check(data, what)
    monkeypatch.setattr(image_module, "unit_grid", counting)
    prepare_views(views, 64, 64)
    assert checked == ["intensity_confidence"] * 2


@given(st.integers(1, 6), st.data())
@settings(max_examples=50, deadline=None)
def test_masked_mean_divides_once_in_float32(n, data):
    # The count is taken in float32, so the divide runs in float32 and
    # rounds once; float64 has 2 * 24 + 2 bits or more, so that equals the
    # float64 quotient rounded to float32, bit for bit.
    values = data.draw(arrays(np.float32, (n, 16),
                              elements=st.floats(0.0, 1.0, width=32)))
    valid = data.draw(arrays(bool, (n, 16)))
    got = compound_module._masked_mean(values, valid)
    total = np.where(valid, values, np.float32(0.0)).sum(axis=0)
    counts = valid.sum(axis=0)
    want = np.divide(total.astype(np.float64), counts, out=np.zeros(16),
                     where=counts > 0).astype(np.float32)
    assert got.dtype == np.float32
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


def test_pointwise_methods_flip_equivariant(rng):
    def flip_views(views):
        return [WarpedView(v.image[:, ::-1].copy(), v.validity[:, ::-1].copy(),
                           None if v.intensity_confidence is None
                           else v.intensity_confidence[:, ::-1].copy())
                for v in views]

    views = [make_view(rng.random((12, 12)),
                       valid=rng.random((12, 12)) > 0.2,
                       gc=rng.random((12, 12)).astype(np.float32))
             for _ in range(2)]
    for method in ("average", "maximum", "ubf"):
        a = compound(views, method)
        b = compound(flip_views(views), method)
        assert np.allclose(a[:, ::-1], b), method


def test_invalid_everywhere_pixels_zero(rng):
    shape = (32, 32)
    valid = np.ones(shape, bool)
    valid[:, 0] = False
    views = [make_view(rng.random(shape), valid=valid.copy(),
                       gc=rng.random(shape).astype(np.float32),
                       gs=rng.random(shape).astype(np.float32),
                       bm=rng.random(shape) > 0.9)
             for _ in range(2)]
    for method in ("average", "maximum", "ubf", "pyramid"):
        out = compound(views, method)
        assert np.all(out[:, 0] == 0.0), method


def test_unknown_method_rejected(rng):
    with pytest.raises(ValueError):
        compound(duplicate_views(rng), "median")


@pytest.mark.parametrize("changes,message", [
    ({"enhance_layer": 9}, "enhance_layer must lie in 1..levels"),
    ({"levels": 1, "enhance_layer": 1}, "levels must be >= 2"),
    ({"gamma": 2.0}, "gamma must lie in"),
    ({"phi_overrides": (0.5,)}, "phi_overrides must have one entry per layer"),
    # A fractional enhance_layer failed inside compound_pyramid with a
    # TypeError, and a fractional levels was blamed on enhance_layer.
    ({"levels": 2.5}, "levels must be an integer"),
    ({"enhance_layer": 2.5}, "enhance_layer must be an integer"),
    ({"levels": 4.0, "enhance_layer": 1}, "levels must be an integer"),
    ({"levels": True, "enhance_layer": 1}, "levels must be an integer"),
    ({"enhance_layer": True}, "enhance_layer must be an integer"),
    ({"enhance_layer": None}, "enhance_layer must be an integer"),
    # A string flag was accepted, and "no" turned enhancement on.
    ({"enhancement_enabled": "no"}, "enhancement_enabled must be true or false"),
    ({"enhancement_enabled": 0}, "enhancement_enabled must be true or false"),
    ({"gamma": "0.05"}, "gamma must be a number"),
    ({"gamma": 10**400}, "gamma must be finite"),
    ({"phi_overrides": [0.5, "x", 0.5, 0.5, 0.5]}, "phi_overrides must be a number"),
    ({"phi_overrides": 0.5}, "phi_overrides must be a list"),
])
def test_pyramid_params_validation(changes, message):
    with pytest.raises(ValueError, match=message):
        PyramidParams(**changes)
    # Numpy integers are integers.
    p = PyramidParams(levels=np.int64(4), enhance_layer=np.int32(4))
    assert p.levels == 4 and p.enhance_layer == 4
    # So are numpy bools for a flag.
    assert not PyramidParams(enhancement_enabled=np.bool_(False)).enhancement_enabled
