import numpy as np
import pytest
from scipy import ndimage

from uscompound.boundary import (BoundaryParams, ClusterSet, detect_boundaries,
                                 extract_clusters, filter_clusters,
                                 refine_boundaries, vertical_gradient)

from conftest import two_view_phantom
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


def test_gradient_constant_zero():
    assert np.all(vertical_gradient(np.full((6, 6), 0.4), 15) == 0)


def test_gradient_bright_top_pixel():
    col = np.zeros((20, 1))
    col[0, 0] = 1.0
    g = vertical_gradient(col, 15)
    assert g[0, 0] == 1.0
    assert g[-1, 0] == 0.0


@pytest.mark.parametrize("alpha", [1, 3, 15])
def test_gradient_matches_brute_force(rng, alpha):
    a = rng.random((8, 8))
    assert np.array_equal(vertical_gradient(a, alpha),
                          brute_force_gradient(a, alpha))


def test_extract_clusters_empty():
    cs = extract_clusters(np.zeros((5, 5)), 0.1)
    assert len(cs) == 0


def test_two_separated_rows_two_clusters():
    g = np.zeros((10, 10))
    g[2, :] = 1.0
    g[6, :] = 1.0
    cs = extract_clusters(g, 0.5, median_denoise=False)
    assert len(cs) == 2


def test_l_shape_single_cluster_8conn():
    g = np.zeros((5, 5))
    g[1, 1] = g[2, 2] = g[3, 2] = 1.0  # diagonal touch counts
    cs = extract_clusters(g, 0.5, median_denoise=False)
    assert len(cs) == 1


def _line_clusters(rows, length=60, height=80, width=70):
    labels = np.zeros((height, width), dtype=int)
    for i, r in enumerate(rows, start=1):
        labels[r, 0:length] = i
    return ClusterSet(labels, tuple(range(1, len(rows) + 1)))


def test_small_cluster_removed():
    cs = _line_clusters([5], length=49)
    assert len(filter_clusters(cs, min_size=50, beta=20)) == 0


def test_lower_line_rejected_within_beta():
    cs = _line_clusters([10, 20])  # 10 rows apart
    kept = filter_clusters(cs, min_size=50, beta=20)
    assert kept.ids == (1,)


def test_both_lines_kept_beyond_beta():
    cs = _line_clusters([10, 35])  # 25 rows apart
    kept = filter_clusters(cs, min_size=50, beta=20)
    assert kept.ids == (1, 2)


def test_filter_clusters_idempotent():
    cs = _line_clusters([10, 20, 45, 60])
    once = filter_clusters(cs, 50, 20)
    twice = filter_clusters(once, 50, 20)
    assert once.ids == twice.ids


def test_refine_no_seed_above_t1():
    img = np.full((5, 5), 25 / 255)
    cs = _line_clusters([2], length=5, height=5, width=5)
    assert not refine_boundaries(img, cs, 30, 2).any()


def test_refine_floods_uniform_plateau():
    img = np.zeros((6, 6))
    img[2:5, 1:5] = 100 / 255
    labels = np.zeros((6, 6), dtype=int)
    labels[3, 2] = 1
    mask = refine_boundaries(img, ClusterSet(labels, (1,)), 30, 2)
    assert np.array_equal(mask, img > 30 / 255)


def test_refine_stops_at_intensity_step():
    # plateau at 100/255 adjacent to 110/255: step 10/255 >= t2 blocks growth
    img = np.zeros((6, 6))
    img[:, :3] = 100 / 255
    img[:, 3:] = 110 / 255
    labels = np.zeros((6, 6), dtype=int)
    labels[2, 1] = 1
    mask = refine_boundaries(img, ClusterSet(labels, (1,)), 30, 2)
    assert mask[:, :3].all()
    assert not mask[:, 3:].any()


def test_mask_subset_of_bright_pixels(rng):
    img = rng.random((32, 32))
    mask = detect_boundaries(img, BoundaryParams(min_size=3))
    assert np.all(img[mask] > 30 / 255)


def test_blank_image_empty_mask():
    assert not detect_boundaries(np.zeros((64, 64))).any()


def test_defaults_match_stated_constants():
    p = BoundaryParams()
    assert (p.alpha, p.beta, p.min_size) == (15, 20, 50)
    assert (p.t1, p.t2) == (30.0, 2.0)


def test_phantom_reflector_kept_echoes_rejected_defaults():
    # echo spacing wide enough for the default look-ahead to separate clusters
    spec = two_view_phantom(seed=11, echo_spacing=20, echo_decay=0.55,
                            vessel_cy=150.0)
    spec = spec.__class__(**{**spec.__dict__, "vessel": None,
                             "speckle": spec.speckle.__class__(0.008, 11)})
    view = generate(spec).views[0]
    mask = detect_boundaries(view.image.data)
    assert mask[view.boundary_mask].mean() >= 0.9
    assert mask[view.artifact_mask].mean() <= 0.05


def _assert_refine_matches(image, clusters, t1=30.0, t2=2.0):
    got = refine_boundaries(image, clusters, t1, t2)
    assert got.dtype == bool and got.shape == np.shape(image)
    assert np.array_equal(got, brute_force_refine(image, clusters, t1, t2))


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
        clusters = extract_clusters(vertical_gradient(image), 10 / 255)
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
        clusters = extract_clusters(grad, threshold, median_denoise=True)
        assert np.array_equal(clusters.labels, expected)
        assert clusters.ids == tuple(range(1, expected.max() + 1))
