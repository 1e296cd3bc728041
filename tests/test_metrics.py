import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uscompound.errors import DegenerateError, DimensionError, EllipseFitError
from uscompound.image import quantize8
from uscompound.metrics import (Ellipse, PatchSpec, amr_avr, dice,
                                ellipse_mask, extract_patch, fit_ellipse,
                                mean_ratio, otsu_threshold, segment_vessel,
                                variance_ratio)


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
    img = np.full((4, 4), 0.3)
    assert mean_ratio(img, PatchSpec(0, 0, 2, 2, "artifact")) == pytest.approx(1.0)
    img = np.array([[0.0, 0.0], [0.4, 0.4]])
    assert mean_ratio(img, PatchSpec(0, 1, 2, 1, "artifact")) == pytest.approx(2.0)
    assert mean_ratio(img, PatchSpec(0, 0, 2, 1, "artifact")) == 0.0


def test_mean_ratio_zero_image():
    with pytest.raises(DegenerateError):
        mean_ratio(np.zeros((4, 4)), PatchSpec(0, 0, 2, 2, "artifact"))


def test_variance_ratio_cases(rng):
    img = rng.random((6, 6))
    whole = PatchSpec(0, 0, 6, 6, "boundary")
    assert variance_ratio(img, whole) == pytest.approx(1.0)
    img2 = img.copy()
    img2[:2, :2] = 0.5
    assert variance_ratio(img2, PatchSpec(0, 0, 2, 2, "artifact")) == 0.0


def test_variance_ratio_hand_computed():
    img = np.array([[0.1, 0.3], [0.5, 0.7]])
    patch = PatchSpec(0, 0, 2, 1, "artifact")
    expected = np.var([0.1, 0.3]) / np.var([0.1, 0.3, 0.5, 0.7])
    assert variance_ratio(img, patch) == pytest.approx(expected)


def test_patch_must_fit():
    with pytest.raises(DimensionError):
        extract_patch(np.zeros((4, 4)), PatchSpec(3, 3, 2, 2, "artifact"))


def test_amr_avr_grouping(rng):
    img = rng.random((16, 16))
    p = PatchSpec(2, 2, 4, 4, "artifact")
    rep = amr_avr(img, [p])
    assert rep.artifact_amr == pytest.approx(mean_ratio(img, p))
    assert rep.artifact_avr == pytest.approx(variance_ratio(img, p))
    assert rep.boundary_avr is None
    # duplicated patches leave averages unchanged
    rep2 = amr_avr(img, [p, p])
    assert rep2.artifact_avr == pytest.approx(rep.artifact_avr)


def test_ratio_scale_invariance(rng):
    img = rng.random((12, 12)) * 0.5
    patch = PatchSpec(1, 1, 5, 5, "boundary")
    assert mean_ratio(img, patch) == pytest.approx(mean_ratio(img * 2, patch))
    assert variance_ratio(img, patch) == pytest.approx(
        variance_ratio(img * 2, patch))


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
