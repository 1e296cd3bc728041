import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uscompound.errors import DegenerateError, DimensionError, EllipseFitError
from uscompound.image import quantize8
from uscompound.metrics import (Ellipse, PatchSpec, amr_avr, dice,
                                ellipse_mask, extract_patch, fit_ellipse,
                                otsu_threshold, segment_vessel)


def brute_force_otsu(patch):
    """Exhaustive 256-way between-class variance maximization."""
    q = quantize8(patch).ravel()
    best_t, best_v = None, -1.0
    for t in range(255):
        lo = q[q <= t].astype(np.float64)
        hi = q[q > t].astype(np.float64)
        if lo.size == 0 or hi.size == 0:
            continue
        v = lo.size * hi.size * (lo.mean() - hi.mean()) ** 2
        if v > best_v + 1e-9:
            best_v, best_t = v, t
    return best_t


def test_mean_ratio_cases():
    # the mean ratio of one artifact patch, as `amr_avr` reports it
    def amr(img, *box):
        return amr_avr(img, [PatchSpec(*box, "artifact")]).artifact_amr
    checkers = np.where(np.indices((4, 4)).sum(axis=0) % 2, 0.2, 0.4)
    assert amr(checkers, 0, 0, 2, 2) == pytest.approx(1.0)
    img = np.array([[0.0, 0.0], [0.4, 0.4]])
    assert amr(img, 0, 1, 2, 1) == pytest.approx(2.0)
    assert amr(img, 0, 0, 2, 1) == 0.0


def test_mean_ratio_zero_image():
    with pytest.raises(DegenerateError):
        amr_avr(np.zeros((4, 4)), [PatchSpec(0, 0, 2, 2, "artifact")])


def test_variance_ratio_cases(rng):
    # the variance ratio of one patch, as `amr_avr` reports it by label
    img = rng.random((6, 6))
    whole = PatchSpec(0, 0, 6, 6, "boundary")
    assert amr_avr(img, [whole]).boundary_avr == pytest.approx(1.0)
    img2 = img.copy()
    img2[:2, :2] = 0.5
    assert amr_avr(img2, [PatchSpec(0, 0, 2, 2, "artifact")]).artifact_avr == 0.0


def test_variance_ratio_hand_computed():
    img = np.array([[0.1, 0.3], [0.5, 0.7]])
    patch = PatchSpec(0, 0, 2, 1, "artifact")
    expected = np.var([0.1, 0.3]) / np.var([0.1, 0.3, 0.5, 0.7])
    assert amr_avr(img, [patch]).artifact_avr == pytest.approx(expected)


def test_patch_must_fit():
    with pytest.raises(DimensionError):
        extract_patch(np.zeros((4, 4)), PatchSpec(3, 3, 2, 2, "artifact"))


def test_amr_avr_grouping(rng):
    img = rng.random((16, 16))
    p = PatchSpec(2, 2, 4, 4, "artifact")
    rep = amr_avr(img, [p])
    patch = img[2:6, 2:6]
    assert rep.artifact_amr == pytest.approx(patch.mean() / img.mean())
    assert rep.artifact_avr == pytest.approx(patch.var() / img.var())
    assert rep.boundary_avr is None
    # duplicated patches leave averages unchanged
    rep2 = amr_avr(img, [p, p])
    assert rep2.artifact_avr == pytest.approx(rep.artifact_avr)


def per_patch_amr_avr(image, patches):
    """Oracle: each group's mean of the per-patch ratios, each ratio taking
    the whole image's mean or variance again."""
    def average(stat, label):
        ratios = [float(stat(image[p.y:p.y + p.height, p.x:p.x + p.width]))
                  / float(stat(image)) for p in patches if p.label == label]
        return float(np.mean(ratios)) if ratios else None
    return (average(np.mean, "artifact"), average(np.var, "artifact"),
            average(np.var, "boundary"))


@given(st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11),
                          st.integers(1, 4), st.integers(1, 4),
                          st.sampled_from(["artifact", "boundary"])),
                max_size=6),
       st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_amr_avr_equals_the_per_patch_ratios(boxes, seed):
    img = np.random.default_rng(seed).random((16, 16))
    patches = [PatchSpec(*box) for box in boxes]
    rep = amr_avr(img, patches)
    assert (rep.artifact_amr, rep.artifact_avr,
            rep.boundary_avr) == per_patch_amr_avr(img, patches)


@pytest.mark.parametrize("labels,means,variances", [
    ([], 0, 0), (["boundary"] * 3, 0, 1), (["artifact"] * 3, 1, 1),
    (["artifact", "boundary"] * 3, 1, 1),
])
def test_amr_avr_takes_the_whole_image_statistics_once(monkeypatch, rng, labels,
                                                       means, variances):
    # the whole image's mean only for artifact patches, its variance for
    # any, each once per call whatever the number of patches
    img = rng.random((16, 16))
    calls = {"mean": 0, "var": 0}

    def counting(name):
        fn = getattr(np, name)

        def wrapper(a, *args, **kwargs):
            calls[name] += np.shape(a) == img.shape
            return fn(a, *args, **kwargs)
        return wrapper
    for name in calls:
        monkeypatch.setattr(np, name, counting(name))
    amr_avr(img, [PatchSpec(2 * i, 3, 2, 2, label) for i, label in enumerate(labels)])
    assert calls == {"mean": means, "var": variances}


@pytest.mark.parametrize("img,labels,message", [
    (np.zeros((8, 8)), ["boundary"], "variance is zero"),
    (np.zeros((8, 8)), ["artifact", "boundary"], "mean is zero"),
    (np.full((8, 8), 0.5), ["artifact"], "variance is zero"),
])
def test_amr_avr_degenerate_images_raise(img, labels, message):
    with pytest.raises(DegenerateError, match=message):
        amr_avr(img, [PatchSpec(0, 0, 2, 2, label) for label in labels])


def test_amr_avr_without_patches_reads_no_statistic():
    # a zero image is degenerate only for a group that has patches
    assert amr_avr(np.zeros((8, 8)), []).to_dict() == dict.fromkeys(
        ("artifact_amr", "artifact_avr", "boundary_avr"))


def test_ratio_scale_invariance(rng):
    img = rng.random((12, 12)) * 0.5
    patches = [PatchSpec(1, 1, 5, 5, "artifact"), PatchSpec(1, 1, 5, 5, "boundary")]
    rep, scaled = (amr_avr(a, patches).to_dict() for a in (img, img * 2))
    assert scaled == pytest.approx(rep)


def test_otsu_bimodal():
    patch = np.concatenate([np.full(50, 0.1), np.full(50, 0.9)]).reshape(10, 10)
    t = otsu_threshold(patch)
    assert quantize8(np.array(0.1)) <= t < quantize8(np.array(0.9))


def test_otsu_order_invariant(rng):
    patch = rng.random((8, 8))
    assert otsu_threshold(patch) == otsu_threshold(patch.T)


def test_otsu_matches_brute_force(rng):
    for _ in range(20):
        patch = rng.random((16, 16))
        assert otsu_threshold(patch) == brute_force_otsu(patch)


def test_otsu_single_bin_degenerate():
    with pytest.raises(DegenerateError):
        otsu_threshold(np.full((4, 4), 0.5))


def sample_ellipse(ell, n=40):
    t = np.linspace(0, 2 * np.pi, n, endpoint=False)
    c, s = np.cos(ell.rotation), np.sin(ell.rotation)
    x = ell.cx + ell.a * np.cos(t) * c - ell.b * np.sin(t) * s
    y = ell.cy + ell.a * np.cos(t) * s + ell.b * np.sin(t) * c
    return np.column_stack([x, y])


def test_fit_axis_aligned_exact():
    truth = Ellipse(20.0, 20.0, 10.0, 5.0, 0.0)
    fit = fit_ellipse(sample_ellipse(truth, 8))
    assert fit.cx == pytest.approx(20, abs=1e-6)
    assert fit.cy == pytest.approx(20, abs=1e-6)
    assert fit.a == pytest.approx(10, abs=1e-6)
    assert fit.b == pytest.approx(5, abs=1e-6)


def test_fit_rotated_exact():
    truth = Ellipse(20.0, 20.0, 10.0, 5.0, np.radians(30))
    fit = fit_ellipse(sample_ellipse(truth, 8))
    assert fit.a == pytest.approx(10, abs=1e-6)
    assert fit.b == pytest.approx(5, abs=1e-6)
    assert fit.rotation % np.pi == pytest.approx(np.radians(30), abs=1e-6)


def test_fit_noisy_circle_center(rng):
    t = rng.uniform(0, 2 * np.pi, 200)
    pts = np.column_stack([50 + 20 * np.cos(t), 40 + 20 * np.sin(t)])
    pts += rng.normal(0, 0.5, pts.shape)
    fit = fit_ellipse(pts)
    assert np.hypot(fit.cx - 50, fit.cy - 40) < 0.5


def test_fit_too_few_points():
    with pytest.raises(EllipseFitError):
        fit_ellipse(np.zeros((5, 2)))


def test_fit_collinear_points():
    pts = np.column_stack([np.arange(10.0), 2 * np.arange(10.0)])
    with pytest.raises(EllipseFitError):
        fit_ellipse(pts)


def test_segment_bright_ring(rng):
    h = w = 64
    yy, xx = np.mgrid[0:h, 0:w]
    r = np.hypot(xx - 32, yy - 32)
    img = np.where(np.abs(r - 20) < 2, 0.9, 0.05)
    img = np.clip(img + rng.normal(0, 0.01, img.shape), 0, 1)
    mask, ell = segment_vessel(img)
    truth = r <= 20
    assert dice(mask, truth) > 0.95


def test_segment_dark_patch_flags_failure():
    with pytest.raises(DegenerateError):
        segment_vessel(np.zeros((16, 16)))


def test_dice_cases():
    a = np.zeros((4, 4), bool); a[:2] = True
    assert dice(a, a) == 1.0
    b = np.zeros((4, 4), bool); b[2:] = True
    assert dice(a, b) == 0.0
    assert dice(np.zeros((4, 4), bool), np.zeros((4, 4), bool)) == 1.0


def test_dice_half_overlap():
    a = np.zeros((20, 10), bool); a[:10] = True   # 100 px
    b = np.zeros((20, 10), bool); b[5:15] = True  # 100 px, overlap 50
    assert dice(a, b) == pytest.approx(0.5)


def test_dice_symmetric(rng):
    a = rng.random((8, 8)) > 0.5
    b = rng.random((8, 8)) > 0.5
    assert dice(a, b) == dice(b, a)
    assert (dice(a, a) == 1.0) and (dice(a, b) == 1.0) == np.array_equal(a, b)


def mgrid_ellipse_mask(ellipse, height, width):
    """Oracle: `ellipse_mask` evaluated on materialised np.mgrid grids."""
    yy, xx = np.mgrid[0:height, 0:width]
    dx = xx - ellipse.cx
    dy = yy - ellipse.cy
    c, s = np.cos(ellipse.rotation), np.sin(ellipse.rotation)
    u = c * dx + s * dy
    v = -s * dx + c * dy
    return (u / ellipse.a) ** 2 + (v / ellipse.b) ** 2 <= 1.0


@given(height=st.integers(1, 64), width=st.integers(1, 64),
       cx=st.floats(-10, 74), cy=st.floats(-10, 74),
       a=st.floats(0.5, 40), b=st.floats(0.5, 40),
       rotation=st.one_of(st.sampled_from([0.0, np.pi / 2, -np.pi / 2]),
                          st.floats(0.0, np.pi)))
@settings(max_examples=200, deadline=None)
def test_ellipse_mask_equals_mgrid_oracle(height, width, cx, cy, a, b,
                                          rotation):
    e = Ellipse(cx, cy, a, b, rotation)
    assert np.array_equal(ellipse_mask(e, height, width),
                          mgrid_ellipse_mask(e, height, width))


def test_ellipse_mask_interior():
    m = ellipse_mask(Ellipse(5, 5, 3, 2, 0.0), 11, 11)
    assert m[5, 5] and m[5, 7] and not m[5, 9] and not m[2, 5]
