import inspect
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

from uscompound import blocks
from uscompound import boundary as boundary_module
from uscompound.boundary import (BoundaryParams, ClusterSet, detect_boundaries,
                                 extract_clusters, filter_clusters,
                                 refine_boundaries, vertical_gradient)

from conftest import traced_peak_mib, two_view_phantom
from uscompound.errors import DimensionError
from uscompound.phantom import generate


def brute_force_gradient(a, alpha):
    h, w = a.shape
    out = np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            best = 0.0
            for j in range(1, alpha + 1):
                if y + j >= h:
                    break
                best = max(best, abs(a[y, x] - a[y + j, x]))
            out[y, x] = best
    return out


def loop_vertical_gradient(image, alpha):
    """The gradient one lag at a time: for each j in 1..alpha, |I(y) - I(y+j)|
    in float64, folded into a running max."""
    a = np.asarray(image, dtype=np.float64)
    h = a.shape[0]
    grad = np.zeros_like(a)
    diff = np.empty_like(a)
    for j in range(1, min(alpha, h - 1) + 1):
        d, g = diff[:h - j], grad[:h - j]
        np.subtract(a[:h - j], a[j:], out=d)
        np.abs(d, out=d)
        np.maximum(g, d, out=g)
    return grad


def brute_force_refine(image, clusters, threshold1=30.0, threshold2=2.0):
    """Stack-based region growing, one pixel at a time.

    Seeds are cluster pixels brighter than t1 (visited in row-major order);
    growth steps to 8-neighbours that are brighter than t1 and within t2 of
    the popped pixel.
    """
    a = np.asarray(image, dtype=np.float64)
    t1 = threshold1 / 255.0
    t2 = threshold2 / 255.0
    h, w = a.shape
    marked = np.zeros((h, w), dtype=bool)
    for i, j in zip(*np.nonzero(clusters.mask())):
        if marked[i, j] or a[i, j] <= t1:
            continue
        stack = [(i, j)]
        marked[i, j] = True
        while stack:
            x, y = stack.pop()
            v = a[x, y]
            for ii in range(max(x - 1, 0), min(x + 2, h)):
                for jj in range(max(y - 1, 0), min(y + 2, w)):
                    if (not marked[ii, jj] and a[ii, jj] > t1
                            and abs(v - a[ii, jj]) < t2):
                        marked[ii, jj] = True
                        stack.append((ii, jj))
    return marked


def correlate_extract_clusters(grad, params):
    """Thresholding, the 5-of-9 vote as a 3x3 correlation with edge
    replication, and 8-connected labelling."""
    binary = np.asarray(grad, dtype=np.float64) > params.grad_threshold
    if params.median_denoise:
        votes = ndimage.correlate(binary.view(np.uint8), np.ones((3, 3), int),
                                  mode="nearest")
        binary = votes >= 5
    labels, n = ndimage.label(binary, structure=np.ones((3, 3), int))
    return ClusterSet(labels, tuple(range(1, n + 1)))


def dense_filter_clusters(clusters, params):
    """The size filter by a loop over the ids, then the beta rule tested at
    every pixel for every lag 1..beta."""
    sizes = np.bincount(clusters.labels.ravel())
    survivors = [i for i in clusters.ids
                 if i < len(sizes) and sizes[i] >= params.min_size]
    lab = np.where(np.isin(clusters.labels, survivors), clusters.labels, 0)
    blocked = set()
    for d in range(1, params.beta + 1):
        if d >= lab.shape[0]:
            break
        below, above = lab[d:], lab[:-d]
        clash = (below > 0) & (above > 0) & (below != above)
        blocked.update(np.unique(below[clash]).tolist())
    return replace(clusters, ids=tuple(i for i in survivors if i not in blocked))


def isin_mask(clusters):
    return np.isin(clusters.labels, clusters.ids)


def test_gradient_constant_zero():
    grad = vertical_gradient(np.full((6, 6), 0.4), BoundaryParams(alpha=15))
    assert np.all(grad == 0)


def test_gradient_bright_top_pixel():
    col = np.zeros((20, 1))
    col[0, 0] = 1.0
    g = vertical_gradient(col, BoundaryParams(alpha=15))
    assert g[0, 0] == 1.0
    assert g[-1, 0] == 0.0


@pytest.mark.parametrize("alpha", [1, 3, 15])
def test_gradient_matches_brute_force(rng, alpha):
    a = rng.random((8, 8))
    assert np.array_equal(vertical_gradient(a, BoundaryParams(alpha=alpha)),
                          brute_force_gradient(a, alpha))


def _gradient_inputs(rng, dtype, shape):
    """Quantized values, so that many differences tie, and for float types
    continuous ones with NaN and infinities sprinkled in."""
    if dtype == np.uint8:
        return [rng.integers(0, 256, shape).astype(np.uint8),
                rng.integers(0, 3, shape).astype(np.uint8)]
    quantized = (rng.integers(0, 256, shape) / 255).astype(dtype)
    spiky = rng.random(shape).astype(dtype)
    spiky[rng.random(shape) < 0.1] = rng.choice([np.nan, np.inf, -np.inf])
    return [quantized, rng.random(shape).astype(dtype), spiky]


@pytest.mark.parametrize("block", [None, 1, 7])
@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.uint8])
@pytest.mark.parametrize("alpha", [1, 2, 7, 15, 40])
def test_gradient_matches_loop_oracle(rng, monkeypatch, dtype, alpha, block):
    # heights on both sides of alpha, so windows are cut at the bottom edge;
    # block sets the pixels per row block of the second difference
    if block is not None:
        monkeypatch.setattr(blocks, "BLOCK_PIXELS", block)
    for h in sorted({1, 2, 3, alpha, alpha + 1, 2 * alpha + 3, 57}):
        for w in (1, 6):
            for image in _gradient_inputs(rng, dtype, (h, w)):
                with np.errstate(invalid="ignore"):  # inf - inf is NaN
                    got = vertical_gradient(image, BoundaryParams(alpha=alpha))
                    want = loop_vertical_gradient(image, alpha)
                assert got.dtype == np.float64 and got.shape == (h, w)
                assert np.array_equal(got, want, equal_nan=True)
                # the NaNs match in place, not in sign: |NaN| clears it
                number = ~np.isnan(want)
                assert np.array_equal(np.signbit(got[number]),
                                      np.signbit(want[number]))


def test_extract_clusters_empty():
    cs = extract_clusters(np.zeros((5, 5)), BoundaryParams(grad_threshold=0.1))
    assert len(cs) == 0


def test_two_separated_rows_two_clusters():
    g = np.zeros((10, 10))
    g[2, :] = 1.0
    g[6, :] = 1.0
    cs = extract_clusters(g, BoundaryParams(grad_threshold=0.5,
                                             median_denoise=False))
    assert len(cs) == 2


def test_l_shape_single_cluster_8conn():
    g = np.zeros((5, 5))
    g[1, 1] = g[2, 2] = g[3, 2] = 1.0  # diagonal touch counts
    cs = extract_clusters(g, BoundaryParams(grad_threshold=0.5,
                                             median_denoise=False))
    assert len(cs) == 1


def _line_clusters(rows, length=60, height=80, width=70):
    labels = np.zeros((height, width), dtype=int)
    for i, r in enumerate(rows, start=1):
        labels[r, 0:length] = i
    return ClusterSet(labels, tuple(range(1, len(rows) + 1)))


def test_small_cluster_removed():
    cs = _line_clusters([5], length=49)
    assert len(filter_clusters(cs, BoundaryParams(min_size=50, beta=20))) == 0


def test_lower_line_rejected_within_beta():
    cs = _line_clusters([10, 20])  # 10 rows apart
    kept = filter_clusters(cs, BoundaryParams(min_size=50, beta=20))
    assert kept.ids == (1,)


def test_both_lines_kept_beyond_beta():
    cs = _line_clusters([10, 35])  # 25 rows apart
    kept = filter_clusters(cs, BoundaryParams(min_size=50, beta=20))
    assert kept.ids == (1, 2)


def test_filter_clusters_idempotent():
    cs = _line_clusters([10, 20, 45, 60])
    params = BoundaryParams(min_size=50, beta=20)
    once = filter_clusters(cs, params)
    twice = filter_clusters(once, params)
    assert once.ids == twice.ids


def test_refine_no_seed_above_t1():
    img = np.full((5, 5), 25 / 255)
    cs = _line_clusters([2], length=5, height=5, width=5)
    assert not refine_boundaries(img, cs, BoundaryParams(t1=30, t2=2)).any()


def test_refine_floods_uniform_plateau():
    img = np.zeros((6, 6))
    img[2:5, 1:5] = 100 / 255
    labels = np.zeros((6, 6), dtype=int)
    labels[3, 2] = 1
    mask = refine_boundaries(img, ClusterSet(labels, (1,)),
                             BoundaryParams(t1=30, t2=2))
    assert np.array_equal(mask, img > 30 / 255)


def test_refine_stops_at_intensity_step():
    # plateau at 100/255 adjacent to 110/255: step 10/255 >= t2 blocks growth
    img = np.zeros((6, 6))
    img[:, :3] = 100 / 255
    img[:, 3:] = 110 / 255
    labels = np.zeros((6, 6), dtype=int)
    labels[2, 1] = 1
    mask = refine_boundaries(img, ClusterSet(labels, (1,)),
                             BoundaryParams(t1=30, t2=2))
    assert mask[:, :3].all()
    assert not mask[:, 3:].any()


def test_mask_subset_of_bright_pixels(rng):
    img = rng.random((32, 32))
    mask = detect_boundaries(img, BoundaryParams(min_size=3))
    assert np.all(img[mask] > 30 / 255)


@pytest.mark.parametrize("changes,message", [
    ({"alpha": 0}, "alpha must be >= 1"),
    ({"beta": -1}, "beta must be >= 0"),
    ({"min_size": 0}, "min_size must be >= 1"),
    # A fractional alpha or beta was accepted and failed in detection with a
    # TypeError; a fractional min_size or a bool was accepted without a word.
    ({"alpha": 2.5}, "alpha must be an integer"),
    ({"beta": 2.5}, "beta must be an integer"),
    ({"min_size": 2.5}, "min_size must be an integer"),
    ({"alpha": True}, "alpha must be an integer"),
    ({"beta": False}, "beta must be an integer"),
    ({"min_size": np.float64(50)}, "min_size must be an integer"),
    # The type is checked before the range.
    ({"alpha": 0.5}, "alpha must be an integer"),
    ({"beta": -0.5}, "beta must be an integer"),
    ({"min_size": None}, "min_size must be an integer"),
    # An integer flag was accepted, and a string threshold failed inside
    # detection with a TypeError.
    ({"median_denoise": 1}, "median_denoise must be true or false"),
    ({"median_denoise": None}, "median_denoise must be true or false"),
    ({"t1": "30"}, "t1 must be a number"),
    ({"t2": True}, "t2 must be a number"),
    ({"grad_threshold": None}, "grad_threshold must be a number"),
])
def test_boundary_params_validation(changes, message):
    with pytest.raises(ValueError, match=message):
        BoundaryParams(**changes)
    # The edge of each range is accepted, and so are numpy integers.
    BoundaryParams(alpha=1, beta=0, min_size=1)
    BoundaryParams(alpha=np.int64(15), beta=np.int32(20), min_size=np.uint8(50))
    # Numpy numbers and bools are numbers and flags.
    BoundaryParams(t1=np.float32(30), t2=np.int64(2), median_denoise=np.bool_(True))


@pytest.mark.parametrize("name", ["grad_threshold", "t1", "t2"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf,
                                 pytest.param(10**400, id="401-digit")])
def test_boundary_params_reject_non_finite_thresholds(name, bad):
    # Each was accepted and silently gave an empty mask (an integer too large
    # for a float is not finite).
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        BoundaryParams(**{name: bad})


def test_blank_image_empty_mask():
    assert not detect_boundaries(np.zeros((64, 64))).any()


def test_defaults_match_stated_constants():
    p = BoundaryParams()
    assert (p.alpha, p.beta, p.min_size) == (15, 20, 50)
    assert (p.t1, p.t2) == (30.0, 2.0)


def test_phantom_reflector_kept_echoes_rejected_defaults():
    # echo spacing wide enough for the default look-ahead to separate clusters
    # the vessel is dropped; a spec is checked when built, so the one it
    # is dropped from must hold it inside the frame
    spec = two_view_phantom(seed=11, echo_spacing=20, echo_decay=0.55)
    spec = spec.__class__(**{**spec.__dict__, "vessel": None,
                             "speckle": spec.speckle.__class__(0.008, 11)})
    view = generate(spec).views[0]
    mask = detect_boundaries(view.image.data)
    assert mask[view.boundary_mask].mean() >= 0.9
    assert mask[view.artifact_mask].mean() <= 0.05


def _assert_refine_matches(image, clusters, t1=30.0, t2=2.0):
    # the edge steps are taken in row blocks: of the default size, and of
    # one row each
    want = brute_force_refine(image, clusters, t1, t2)
    for block_pixels in (blocks.BLOCK_PIXELS, 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(blocks, "BLOCK_PIXELS", block_pixels)
            got = refine_boundaries(image, clusters, BoundaryParams(t1=t1, t2=t2))
        assert got.dtype == bool and got.shape == np.shape(image)
        assert np.array_equal(got, want), block_pixels


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(1, 1), (1, 23), (23, 1), (9, 14), (40, 31)])
def test_refine_matches_brute_force_random(rng, dtype, shape):
    for _ in range(15):
        image = rng.random(shape).astype(dtype)
        labels = rng.integers(0, 5, shape) * (rng.random(shape) < 0.3)
        clusters = ClusterSet(labels, (1, 3))  # ids 2 and 4 are not seeds
        _assert_refine_matches(image, clusters, rng.uniform(0, 240), 255.0)
        _assert_refine_matches(image, clusters, 30.0, 60.0 * rng.random())


@pytest.mark.parametrize("t1", [0.0, 30.0, 31.0])
@pytest.mark.parametrize("t2", [0.5, 1.0, 2.0, 3.0])
def test_refine_matches_brute_force_at_thresholds(rng, t1, t2):
    # values on and around t1, with steps below, at and above t2
    for shape in [(1, 17), (17, 1), (24, 24)]:
        for dtype in (np.float32, np.float64):
            steps = rng.integers(-2, 7, shape) * (t2 / 2)
            image = ((t1 + steps) / 255.0).astype(dtype)
            labels = rng.integers(0, 6, shape) * (rng.random(shape) < 0.2)
            _assert_refine_matches(image, ClusterSet(labels, (2, 5, 9)), t1, t2)


def test_refine_matches_brute_force_phantom_views():
    for view in generate(two_view_phantom(seed=0)).views:
        image = view.image.data
        clusters = extract_clusters(vertical_gradient(image),
                                    BoundaryParams(grad_threshold=10 / 255))
        _assert_refine_matches(image, clusters)
        _assert_refine_matches(image, filter_clusters(clusters))


def test_refine_matches_brute_force_serpentine():
    # a one-pixel corridor snaking through 256x256: a single long chain
    n = 256
    image = np.zeros((n, n))
    image[::2] = 100 / 255
    image[1::4, -1] = 100 / 255
    image[3::4, 0] = 100 / 255
    labels = np.zeros((n, n), dtype=int)
    labels[-1, 0] = 1  # the corridor's dead end in the bottom row
    _assert_refine_matches(image, ClusterSet(labels, (1,)))
    assert refine_boundaries(image, ClusterSet(labels, (1,))).sum() == (
        n // 2 * n + n // 2)


def test_refine_matches_brute_force_smooth_frame():
    # a smooth ramp above t1 floods the whole frame from one corner
    y, x = np.mgrid[0:128, 0:128]
    image = (40 + 0.01 * x + 0.005 * y + 0.5 * np.sin(x / 7.0)) / 255
    labels = np.zeros(image.shape, dtype=int)
    labels[-1, -1] = 1
    _assert_refine_matches(image, ClusterSet(labels, (1,)))
    assert refine_boundaries(image, ClusterSet(labels, (1,))).all()


@pytest.mark.parametrize("seed", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_refine_crossing_diagonals_stay_apart(seed):
    # a 2x2 X: the SE and the SW edge both exist, but no E or S edge, so the
    # diagonal that holds the seed grows and the other does not
    image = np.array([[100.0, 103.0], [103.0, 100.0]]) / 255
    labels = np.zeros((2, 2), dtype=int)
    labels[seed] = 1
    clusters = ClusterSet(labels, (1,))
    _assert_refine_matches(image, clusters)
    diagonal = np.eye(2, dtype=bool)
    want = diagonal if seed[0] == seed[1] else ~diagonal
    assert np.array_equal(refine_boundaries(image, clusters), want)


def test_refine_matches_brute_force_one_pixel_runs(rng):
    # every row alternates between two levels 3 apart, so no E edge exists
    # and every run is one pixel; a row in step with the one above joins it
    # vertically, a row shifted by one column joins it diagonally
    for _ in range(30):
        h, w = rng.integers(2, 30, 2)
        level = (np.arange(w) + rng.integers(0, 2, (h, 1))) % 2
        image = (100 + 3 * level + rng.choice([0.0, 0.5], (h, w))) / 255
        image[rng.random((h, w)) < 0.1] = 0.0
        labels = (rng.random((h, w)) < 0.03).astype(int)
        _assert_refine_matches(image, ClusterSet(labels, (1,)))


@pytest.mark.parametrize("mirror", [False, True])
@pytest.mark.parametrize("step,joined", [(0.5, True), (3.0, False)])
def test_refine_runs_joined_only_through_a_diagonal(mirror, step, joined):
    # run A fills row 0 up to column 2 and run B row 1 from column 3: the
    # SE step between them (SW when mirrored) is the only edge they can share
    image = np.zeros((3, 6))
    image[0, :3] = 100 / 255
    image[1, 3:] = (100 + step) / 255
    labels = np.zeros((3, 6), dtype=int)
    labels[0, 0] = 1
    if mirror:
        image, labels = image[:, ::-1].copy(), labels[:, ::-1].copy()
    clusters = ClusterSet(labels, (1,))
    _assert_refine_matches(image, clusters)
    want = (image > 0) & ((image == image[labels == 1]) | joined)
    assert np.array_equal(refine_boundaries(image, clusters), want)


@pytest.mark.parametrize("shape", [(1, 300), (300, 1)])
def test_refine_matches_brute_force_one_row_or_column(rng, shape):
    # one row is one run per stretch of small steps; one column is all
    # one-pixel runs joined by S edges
    for _ in range(10):
        steps = rng.choice([-3.0, -0.5, 0.0, 0.5, 3.0], shape)
        image = (100 + np.cumsum(steps).reshape(shape)) / 255
        image[rng.random(shape) < 0.03] = 0.0
        labels = (rng.random(shape) < 0.02).astype(int)
        _assert_refine_matches(image, ClusterSet(labels, (1,)))


def test_refine_takes_float32_steps_in_float64():
    # the step between these two float32 values lies just below t2 = 100 in
    # float64 and rounds up to it in float32: it is an edge, as in the oracle
    image = np.array([[0.009153731, 0.4013106]], dtype=np.float32)
    clusters = ClusterSet(np.array([[1, 0]]), (1,))
    _assert_refine_matches(image, clusters, 0.0, 100.0)
    assert refine_boundaries(image, clusters,
                             BoundaryParams(t1=0.0, t2=100.0)).all()


@pytest.mark.parametrize("label_shape", [(4, 4), (12, 12), (8, 9), (64,)])
def test_refine_rejects_mismatched_labels(label_shape):
    labels = np.ones(label_shape, dtype=int)
    with pytest.raises(DimensionError):
        refine_boundaries(np.full((8, 8), 0.5), ClusterSet(labels, (1,)))


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (2, 2), (33, 47)])
def test_vote_matches_median_filter(rng, shape):
    for _ in range(20):
        grad = rng.integers(0, 4, shape) / 8.0
        threshold = 0.25  # many values sit exactly at the threshold
        expected = ndimage.label(
            ndimage.median_filter(grad, size=3, mode="nearest") > threshold,
            structure=np.ones((3, 3), dtype=int))[0]
        clusters = extract_clusters(
            grad, BoundaryParams(grad_threshold=threshold, median_denoise=True))
        assert np.array_equal(clusters.labels, expected)
        assert clusters.ids == tuple(range(1, expected.max() + 1))


def test_detection_steps_traced_by_name_with_one_params(monkeypatch):
    # the benchmark's trace wraps the four steps by name, so detection must
    # reach each through the module, and each must read the caller's params
    seen = {name: [] for name in ("vertical_gradient", "extract_clusters",
                                  "filter_clusters", "refine_boundaries")}

    def recording(name):
        fn = getattr(boundary_module, name)

        def wrapper(*args, **kwargs):
            bound = inspect.signature(fn).bind(*args, **kwargs)
            seen[name].append(bound.arguments["params"])
            return fn(*args, **kwargs)
        return wrapper

    image = generate(two_view_phantom(seed=0)).views[0].image.data
    params = BoundaryParams(alpha=6, beta=12, min_size=20, t1=25.0)
    for name in seen:
        monkeypatch.setattr(boundary_module, name, recording(name))
    assert detect_boundaries(image, params).any()
    for name, got in seen.items():
        assert len(got) == 1 and got[0] is params, name


@st.composite
def cluster_sets(draw):
    """Label maps of a few labels in any arrangement, so that runs of one
    label re-enter a column with others between; ids in any order, with
    repeats, 0 and ids that label no pixel."""
    h, w = draw(st.integers(1, 24)), draw(st.integers(1, 12))
    dtype = draw(st.sampled_from([np.int32, np.int64, np.uint8, np.uint16]))
    top = draw(st.integers(0, 6))
    labels = draw(arrays(dtype, (h, w), elements=st.integers(0, top)))
    ids = draw(st.lists(st.integers(0, int(labels.max()) + 3), max_size=10))
    return ClusterSet(labels, tuple(ids))


@settings(max_examples=400, deadline=None)
@given(clusters=cluster_sets(), beta=st.integers(0, 30),
       min_size=st.integers(1, 8),
       block=st.sampled_from([1, 7, blocks.BLOCK_PIXELS]))
def test_filter_matches_dense_oracle(clusters, beta, min_size, block):
    # beta runs from 0 to beyond the height of every map; block sets the
    # pixels per row block of the size count, fewer than the labels or not
    params = BoundaryParams(beta=beta, min_size=min_size)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(blocks, "BLOCK_PIXELS", block)
        got = filter_clusters(clusters, params)
    assert got.ids == dense_filter_clusters(clusters, params).ids
    assert got.labels is clusters.labels
    assert np.array_equal(got.mask(), isin_mask(got))


def test_filter_size_count_stays_linear_with_many_clusters(monkeypatch):
    # 1,024 one-pixel clusters on a 64 x 64 frame cut into one-row blocks of
    # 64 pixels: counting each block into an array of every label would fill
    # 64 arrays of 1,025; joined blocks fill about 4.
    labels = np.zeros((64, 64), dtype=np.int32)
    labels[::2, ::2] = np.arange(1, 1025).reshape(32, 32)
    filled = []
    bincount = np.bincount

    def counting(x, *args, **kwargs):
        counts = bincount(x, *args, **kwargs)
        filled.append(len(counts))
        return counts

    monkeypatch.setattr(blocks, "BLOCK_PIXELS", 64)
    monkeypatch.setattr(np, "bincount", counting)
    got = filter_clusters(ClusterSet(labels, tuple(range(1, 1025))),
                          BoundaryParams(min_size=1, beta=1))
    assert got.ids == tuple(range(1, 1025))
    assert sum(filled) <= 64 * 64 + 1025


@pytest.mark.parametrize("beta,kept", [(0, (1, 2)), (1, (1, 2)), (2, (2,)),
                                       (4, ()), (7, ()), (100, ())])
def test_filter_cluster_reentering_a_column(beta, kept):
    # Column 0 holds 1, then 2 four rows down, then 1 again two rows lower:
    # the second run of 1 is blocked by 2 at lag 2, and 2 by 1 at lag 4.
    # Column 1 holds 1 alone, so only the run tops of column 0 can block.
    labels = np.zeros((7, 2), dtype=np.int32)
    labels[[0, 6], 0] = 1
    labels[4, 0] = 2
    labels[:, 1] = 1
    clusters = ClusterSet(labels, (1, 2, 5))
    params = BoundaryParams(beta=beta, min_size=1)
    assert filter_clusters(clusters, params).ids == kept
    assert dense_filter_clusters(clusters, params).ids == kept


@settings(max_examples=300, deadline=None)
@given(clusters=cluster_sets())
def test_mask_matches_isin(clusters):
    got = clusters.mask()
    assert got.dtype == bool and np.array_equal(got, isin_mask(clusters))


@settings(max_examples=300, deadline=None)
@given(grad=arrays(np.float64, st.tuples(st.integers(1, 20), st.integers(1, 20)),
                   elements=st.sampled_from([0.0, 0.25, 0.5])),
       median_denoise=st.booleans())
def test_vote_matches_correlate_oracle(grad, median_denoise):
    # many values sit exactly at the threshold
    params = BoundaryParams(grad_threshold=0.25, median_denoise=median_denoise)
    got = extract_clusters(grad, params)
    want = correlate_extract_clusters(grad, params)
    assert np.array_equal(got.labels, want.labels)
    assert got.ids == want.ids


@pytest.mark.parametrize("labels,message", [
    # filter_clusters died inside np.bincount and mask() accepted them
    (np.array([[0, -1], [2, 1]]), "labels must not be negative"),
    ([[0, 1], [1, 0]], "labels must be an integer array"),
    (np.array([[0.0, 1.0]]), "labels must be an integer array"),
    (np.array([[False, True]]), "labels must be an integer array"),
])
def test_cluster_set_rejects_labels_a_table_cannot_index(labels, message):
    with pytest.raises(ValueError, match=message):
        ClusterSet(labels, (1,))


def test_cluster_set_rejects_negative_ids():
    with pytest.raises(ValueError, match="ids must not be negative"):
        ClusterSet(np.ones((2, 2), dtype=int), (1, -1))
    # an empty map and ids that label no pixel are fine
    assert not ClusterSet(np.zeros((0, 3), dtype=int), (4,)).mask().any()


# A float was truncated, so 1.5 marked cluster 1; True counted as 1; a
# string died in the negativity check with a TypeError.
@pytest.mark.parametrize("ids", [(1.5,), (True,), ("1",), (1, np.True_)])
def test_cluster_set_rejects_ids_that_are_not_integers(ids):
    with pytest.raises(ValueError, match="ids must be integers"):
        ClusterSet(np.array([[0, 1, 1], [0, 2, 2]]), ids)


def test_cluster_set_id_beyond_any_label_marks_nothing():
    # OverflowError at the conversion to intp, in mask() and the filter
    labels = np.array([[0, 1, 1], [0, 2, 2]])
    assert not ClusterSet(labels, (2**70,)).mask().any()
    assert filter_clusters(ClusterSet(labels, (2**70,)),
                           BoundaryParams(min_size=1)).ids == ()
    both = ClusterSet(labels, (2**70, 2))
    assert np.array_equal(both.mask(), labels == 2)
    assert filter_clusters(both, BoundaryParams(min_size=1)).ids == (2,)


# The gradient holds its float64 output, one look-ahead buffer in the
# image's float32 and one row block (3.25 MiB at 512²), and detection peaks
# at 4.15 and 4.16 MiB on these views, in clustering and refinement.  It
# peaked at 4.15 and 4.65 MiB while refinement copied the seed box to
# float64 and kept a float64 scratch of its size; with the image as float64
# and one scratch frame for the current lag, the gradient held 6 MiB; with
# two frame-sized temporaries per lag, a float64 copy of the frame for
# refinement and the gradient held through it, detection peaked at 7.99 and
# 8.94 MiB.
def test_detection_memory_is_bounded():
    for view in generate(two_view_phantom(seed=0, size=512)).views:
        image = view.image.data
        assert traced_peak_mib(lambda: detect_boundaries(image)) <= 4.4


# The ramp of test_refine_matches_brute_force_smooth_frame at 512² floods the
# whole frame from one corner seed, one run per row.  Refinement peaks at
# 3.41 MiB on the float64 ramp and on its float32 copy: each edge step is
# read from the image's own plane in row blocks, the runs are numbered in
# int32, one row block at a time, and the edge masks are pruned in place.
# It peaked at 3.89 MiB while each pruned mask was a copy formed through
# three bool temporaries of the box, at 4.38 MiB while one cumulative
# sum over the box cast the bool box to int32 first, at 16.99 MiB on the float64 ramp with the union-find over
# pixels, at 9.51 MiB over runs, and at 7.51 MiB (float64) and 9.51 MiB
# (float32) while the seed box went through one float64 scratch of its size
# and, from float32, a float64 copy.
def test_refine_flood_memory_is_bounded():
    y, x = np.mgrid[0:512, 0:512]
    image = (40 + 0.01 * x + 0.005 * y + 0.5 * np.sin(x / 7.0)) / 255
    labels = np.zeros(image.shape, dtype=int)
    labels[-1, -1] = 1
    clusters = ClusterSet(labels, (1,))
    for frame in (image, image.astype(np.float32)):
        assert refine_boundaries(frame, clusters).all()
        assert traced_peak_mib(lambda: refine_boundaries(frame, clusters)) <= 3.5


# The size count takes the labels per row block: filtering the clusters of
# the seed-0 512² head-on view peaks at 0.70 MiB, and peaked at 2.03 MiB
# while one bincount over the whole frame copied the int32 labels to intp.
def test_filter_memory_is_bounded():
    image = generate(two_view_phantom(seed=0, size=512)).views[0].image.data
    clusters = extract_clusters(vertical_gradient(image))
    assert len(clusters) > 1000
    assert traced_peak_mib(lambda: filter_clusters(clusters)) <= 1.0
