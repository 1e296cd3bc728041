"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line, and the verdicts are repeated in the
terminal summary so the whole battery can be read at a glance in any run.
"""

import json
import math
import time

import numpy as np
import pytest

from uscompound.boundary import BoundaryParams, detect_boundaries
from uscompound.cli import run
from uscompound.compound import (PyramidParams, compound, compound_pyramid,
                                 phi, prepare_views, select_view_layer,
                                 _local_contrast)
from uscompound.errors import EllipseFitError
from uscompound.image import Image, RigidTransform2D, ViewInput
from uscompound.metrics import (Ellipse, PatchSpec, dice, ellipse_mask,
                                extract_patch, fit_ellipse, otsu_threshold,
                                segment_vessel, variance_ratio)
from uscompound.phantom import (PhantomSpec, ReflectorSpec, ReverbSpec,
                                SpeckleSpec, VesselSpec, generate)
from uscompound.pyramid import collapse, gaussian_pyramid, laplacian_pyramid

from conftest import record_verdict, scene_view_inputs, two_view_phantom
from test_boundary import brute_force_gradient
from test_compound import float64_views, make_view, weighted_laplacian_oracle
from test_metrics import brute_force_otsu, sample_ellipse


def _report(name, ok, detail=""):
    line = f"{name}: {'PASS' if ok else 'FAIL'}  {detail}"
    print("\n" + line)
    record_verdict(line.split("\n")[0])
    assert ok, f"{name} failed: {detail}"


def test_criterion_1_pyramid_round_trip():
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        h = int(rng.integers(64, 258))
        w = int(rng.integers(64, 194))
        img = rng.random((h, w)).astype(np.float32)
        back = collapse(laplacian_pyramid(gaussian_pyramid(img, 5)))
        worst = max(worst, float(np.abs(back - img).max()))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-5 and elapsed < 5.0
    _report("criterion 1 (pyramid round-trip)", ok,
            f"max error {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_gradient_oracle():
    from uscompound.boundary import vertical_gradient
    rng = np.random.default_rng(2)
    ok = all(np.array_equal(vertical_gradient(img, BoundaryParams(alpha=alpha)),
                            brute_force_gradient(img, alpha))
             for img in (rng.random((32, 32)) for _ in range(20))
             for alpha in (1, 3, 15))
    _report("criterion 2 (depth-gradient oracle)", ok, "20 images, 3 look-aheads")


def test_criterion_3_reflector_vs_echoes():
    # 60-px reflector with a 3-echo train 15 rows apart; the above-check
    # window (20 rows) spans every consecutive pair.  The default look-ahead
    # of 15 rows would bridge reflector and first echo into one gradient
    # cluster, so detection runs with a look-ahead shorter than the spacing.
    spec = PhantomSpec(
        width=160, height=200,
        reflectors=(ReflectorSpec(row=60, col_start=50, col_end=109,
                                  intensity=0.9, thickness=3,
                                  reverb=ReverbSpec(3, 15, 0.55)),),
        speckle=SpeckleSpec(scale=0.008, seed=11),
        views=(RigidTransform2D(),),
    )
    view = generate(spec).views[0]
    mask = detect_boundaries(view.image.data, BoundaryParams(alpha=6, beta=20))
    recall = float(mask[view.boundary_mask].mean())
    echo_rate = float(mask[view.artifact_mask].mean())
    ok = recall >= 0.90 and echo_rate <= 0.05
    _report("criterion 3 (reflector kept, echoes rejected)", ok,
            f"recall {recall:.3f}, echo rate {echo_rate:.3f}")


def test_criterion_4_layer_weight_values():
    ok = (0.9973 <= phi(3, 5) <= 0.9974 and 0.0438 <= phi(1, 5) <= 0.0439
          and all(phi(k, levels) == phi(levels + 1 - k, levels)
                  for levels in (2, 3, 5, 8)
                  for k in range(1, levels + 1)))
    _report("criterion 4 (layer weight values + symmetry)", ok,
            f"phi(3,5)={phi(3, 5):.6f}, phi(1,5)={phi(1, 5):.6f}")


def test_criterion_5_degenerate_reductions():
    rng = np.random.default_rng(5)
    select_ok = True
    for _ in range(10):
        layers = [rng.random((16, 16)) for _ in range(3)]
        ones = [np.ones((16, 16))] * 3
        valid = [np.ones((16, 16), bool)] * 3
        sel = select_view_layer(layers, ones, valid)
        want = np.stack([_local_contrast(g) for g in layers]).argmax(axis=0)
        select_ok &= bool(np.array_equal(sel, want))

    views = [make_view(rng.random((32, 32)) * 0.8 + 0.1,
                       gc=(rng.random((32, 32)) * 0.8 + 0.2).astype(np.float32),
                       gs=rng.random((32, 32)).astype(np.float32),
                       bm=np.zeros((32, 32), bool))
             for _ in range(2)]
    params = PyramidParams(phi_overrides=(0.0,) * 5, enhancement_enabled=False)
    err = float(np.abs(compound_pyramid(views, params)
                       - weighted_laplacian_oracle(views, 5)).max())
    ok = select_ok and err < 1e-5
    _report("criterion 5 (degenerate reductions)", ok,
            f"selection exact: {select_ok}, weighted-average error {err:.2e}")


def _view_inputs(scene, oracle):
    """The scene's views with the ground-truth maps attached (`oracle`), or
    bare, as the CLI passes them."""
    if oracle:
        return scene_view_inputs(scene)
    return [ViewInput(v.image, v.to_common) for v in scene.views]


def _compound_all(seed, oracle=True, **phantom_kwargs):
    """All four fusions of `two_view_phantom(seed, ...)` through
    `prepare_views`."""
    spec = two_view_phantom(seed, **phantom_kwargs)
    warped = prepare_views(_view_inputs(generate(spec), oracle),
                           spec.width, spec.height)
    return {m: compound(warped, m) for m in ("average", "maximum", "ubf",
                                             "pyramid")}


def _variance_ratio_ordering(seed, oracle=True, **phantom_kwargs):
    """(holds, report row) of criterion 6 on one scene."""
    artifact = PatchSpec(60, 50, 80, 42, "artifact")
    boundary = PatchSpec(40, 36, 110, 12, "boundary")
    out = _compound_all(seed, oracle, **phantom_kwargs)
    avr = {m: variance_ratio(o, artifact) for m, o in out.items()}
    bvr = {m: variance_ratio(o, boundary) for m, o in out.items()}
    good = (avr["pyramid"] < avr["ubf"] <= avr["maximum"]
            and avr["pyramid"] < avr["average"]
            and bvr["pyramid"] >= 0.95 * bvr["maximum"])
    return good, (f"seed {seed}: artifact AVR pyr {avr['pyramid']:.3f} "
                  f"ubf {avr['ubf']:.3f} max {avr['maximum']:.3f} "
                  f"avg {avr['average']:.3f}; boundary AVR pyr "
                  f"{bvr['pyramid']:.2f} max {bvr['maximum']:.2f}"
                  + ("" if good else "  <-- violated"))


def test_criterion_6_variance_ratio_ordering():
    start = time.perf_counter()
    ok = True
    rows = []
    for seed in range(10):
        good, row = _variance_ratio_ordering(seed)
        ok &= good
        rows.append(row)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _report("criterion 6 (artifact/boundary variance-ratio ordering)", ok,
            f"{elapsed:.1f}s\n" + "\n".join(rows))


# The bounds of the two bare-input twins below are fixed before the pipeline
# can meet them; a change that makes them pass removes the xfail marker and
# must not lower the bounds.
@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "no structural-confidence estimator: prepare_views fills uniform "
    "structural confidence, so the pyramid gate picks the echo train by "
    "contrast"))
def test_criterion_6_twin_bare_inputs():
    held_out = [_variance_ratio_ordering(s, oracle=False, echo_spacing=10.0)
                for s in range(10, 20)]
    seeds = [_variance_ratio_ordering(s, oracle=False) for s in range(10)]
    passed = [sum(good for good, _ in rows) for rows in (seeds, held_out)]
    ok = passed[0] >= 8 and passed[1] >= 8
    _report("criterion 6 twin (bare inputs, xfail)", ok,
            f"{passed[0]}/10 on seeds 0-9, {passed[1]}/10 held out "
            f"(echo spacing 10, seeds 10-19)\n"
            + "\n".join(row for rows in (seeds, held_out) for _, row in rows))


def _segmentation_spec(seed):
    """The scene of criterion 7: the echo train from a shallow reflector
    crosses the vessel's top wall."""
    size = 192
    return PhantomSpec(
        width=size, height=size,
        vessel=VesselSpec(cx=96, cy=120, a=38, b=28, wall_thickness=4,
                          wall_intensity=0.85),
        reflectors=(ReflectorSpec(row=60, col_start=40, col_end=150,
                                  intensity=0.9, thickness=3,
                                  reverb=ReverbSpec(2, 31, 0.8),
                                  shadow=0.7),),
        speckle=SpeckleSpec(scale=0.02, seed=seed + 1),
        views=(RigidTransform2D(),
               RigidTransform2D(rotation=math.radians(90), dx=size - 1)),
    )


def _segmentation_scores(seed, oracle=True):
    """Dice of the vessel segmented from the `average`, `ubf` and `pyramid`
    fusions of criterion 7's scene, by method."""
    patch = PatchSpec(45, 78, 105, 82, "boundary")
    truth = ellipse_mask(Ellipse(96 - 45, 120 - 78, 38.0, 28.0, 0.0),
                         patch.height, patch.width)
    spec = _segmentation_spec(seed)
    warped = prepare_views(_view_inputs(generate(spec), oracle),
                           spec.width, spec.height)
    scores = {}
    for m in ("average", "ubf", "pyramid"):
        mask, _ = segment_vessel(extract_patch(compound(warped, m), patch))
        scores[m] = dice(mask, truth)
    return scores


def _segmentation_ordering(seed, oracle=True):
    """(holds, report row) of criterion 7 on one scene."""
    scores = _segmentation_scores(seed, oracle)
    good = (scores["pyramid"] >= scores["average"]
            and scores["pyramid"] >= scores["ubf"])
    return good, (f"seed {seed}: dice pyr {scores['pyramid']:.3f} "
                  f"avg {scores['average']:.3f} ubf {scores['ubf']:.3f}"
                  + ("" if good else "  <-- violated"))


def test_criterion_7_segmentation_ordering():
    ok = True
    rows = []
    for seed in range(10):
        good, row = _segmentation_ordering(seed)
        ok &= good
        rows.append(row)
    _report("criterion 7 (vessel segmentation ordering)", ok, "\n" + "\n".join(rows))


def test_criterion_7_twin_bare_inputs():
    rows = [_segmentation_ordering(seed, oracle=False) for seed in range(10)]
    passed = sum(good for good, _ in rows)
    _report("criterion 7 twin (bare inputs)", passed >= 9,
            f"{passed}/10 on seeds 0-9\n" + "\n".join(row for _, row in rows))


# The strict twins ask the pyramid to beat `ubf` by a margin, not to tie it.
# The margin is fixed from the oracle maps, where the pyramid reads 0.947-0.949
# against `ubf`'s 0.934 on seeds 0-9, so it is at least 0.013 ahead.
_STRICT_MARGIN = 0.005


def _strict_segmentation_ordering(oracle):
    scores = [_segmentation_scores(seed, oracle) for seed in range(10)]
    passed = sum(s["pyramid"] >= s["ubf"] + _STRICT_MARGIN for s in scores)
    _report(f"criterion 7 strict ({'oracle' if oracle else 'bare inputs, xfail'})",
            passed >= 9, f"{passed}/10 on seeds 0-9 with pyramid >= ubf + "
            f"{_STRICT_MARGIN}\n" + "\n".join(
                f"seed {seed}: dice pyr {s['pyramid']:.3f} ubf {s['ubf']:.3f}"
                for seed, s in enumerate(scores)))


def test_criterion_7_strict_ordering():
    _strict_segmentation_ordering(oracle=True)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 2: no structural-confidence estimator, so on bare inputs "
    "the pyramid ties ubf instead of beating it"))
def test_criterion_7_strict_twin_bare_inputs():
    _strict_segmentation_ordering(oracle=False)


def _rotated_about_centre(size, degrees):
    """The rigid transform rotating a `size`² frame by `degrees` about its
    centre c = (size - 1) / 2."""
    c, t = (size - 1) / 2, math.radians(degrees)
    return RigidTransform2D(rotation=t,
                            dx=c - (math.cos(t) * c - math.sin(t) * c),
                            dy=c - (math.sin(t) * c + math.cos(t) * c))


# View geometries rotated about the frame centre, in degrees.
_ROTATED_GEOMETRIES = [(0, 90), (-15, 0, 15), (-20, -10, 0, 10, 20),
                       (0, 30, 60, 90)]


# The pyramid's coverage-edge step: a strict xfail of every geometry with a
# view that is not grid-aligned.  At (0, 90) both views are pixel copies that
# cover the whole frame, so there is no edge and the pyramid meets the bound.
_PYRAMID_EDGE_STEP = pytest.mark.xfail(
    strict=True, raises=AssertionError, reason=(
        "ROADMAP item 2: each view's image pyramid steps from the level to 0 "
        "at its coverage edge, and the step leaks into the seen pixels nearby"))


@pytest.mark.parametrize("size", [192, 256])
@pytest.mark.parametrize("method,angles", [
    pytest.param(method, angles, id=f"{method}-{','.join(map(str, angles))}",
                 marks=(_PYRAMID_EDGE_STEP if method == "pyramid"
                        and angles != (0, 90) else ()))
    for method in ("average", "maximum", "ubf", "pyramid")
    for angles in _ROTATED_GEOMETRIES])
def test_flat_field_twin(method, angles, size):
    # Identical constant views with uniform confidences and empty masks:
    # every fusion must return the level wherever some view sees the pixel.
    for level in (0.5, 0.9):
        ones = np.ones((size, size), np.float32)
        views = [ViewInput(Image(level * ones), _rotated_about_centre(size, a),
                           intensity_confidence=ones, structural_confidence=ones,
                           boundary_mask=np.zeros((size, size), bool))
                 for a in angles]
        warped = prepare_views(views, size, size)
        seen = np.any([v.validity for v in warped], axis=0)
        error = np.abs(compound(warped, method)[seen] - np.float32(level)).max()
        assert error <= 1e-6, f"level {level}: error {error:.3g}"


def _gates_and_selections(warped, params):
    """Per layer of `compound_pyramid(warped, params)`: the gate (valid
    views' structural confidences agree to within gamma) from float64
    layers of both maps, as the fusion builds them, and the selection; and
    the output."""
    selections = []
    out = compound_pyramid(warped, params, lambda name, a: selections.append(a)
                           if name.startswith("selection") else None)
    # layer 1 is the views' planes as given, stacked here to be compared
    gs, gv = ([np.asarray(layer) for layer in gaussian_pyramid(
                  [getattr(v, name) for v in warped], params.levels, np.float64)]
              for name in ("structural_confidence", "validity"))
    gates = [np.where(v > 0.5, g, -np.inf).max(axis=0)
             - np.where(v > 0.5, g, np.inf).min(axis=0) < params.gamma
             for g, v in zip(gs, gv)]
    return gates, selections, out


def test_float32_pyramid_agrees_with_float64():
    # The pyramid fusion blends in the dtype of the views' planes: float32
    # on the views prepare_views makes, float64 on the same planes cast.  On
    # the battery's scenes (criteria 6 and 7, with and without oracle maps)
    # the outputs may differ only by float32 rounding; the flips of the gate
    # and of the selection per layer are reported.  (With float32 layers of
    # the oracle structural confidence, 0.2 on artifacts and 1 elsewhere, the
    # layer-2 spread of some pixels lands within float32 rounding of gamma =
    # 0.05 and the gate flips there, which is why those layers are float64.)
    params = PyramidParams()
    specs = ([two_view_phantom(s) for s in range(10)]
             + [_segmentation_spec(s) for s in range(10)])
    worst = 0.0
    gate_flips = np.zeros(params.levels, int)
    selection_flips = np.zeros(params.levels, int)
    for spec in specs:
        scene = generate(spec)
        for oracle in (True, False):
            warped = prepare_views(_view_inputs(scene, oracle),
                                   spec.width, spec.height)
            gates, selections, out = _gates_and_selections(warped, params)
            gates64, selections64, out64 = _gates_and_selections(
                float64_views(warped), params)
            assert out.dtype == out64.dtype == np.float32
            worst = max(worst, float(np.abs(out - out64).max()))
            gate_flips += [np.count_nonzero(a != b) for a, b in zip(gates, gates64)]
            selection_flips += [np.count_nonzero(a != b)
                                for a, b in zip(selections, selections64)]
    _report("float32 pyramid vs float64", worst <= 1e-6,
            f"max |diff| {worst:.2e} over {2 * len(specs)} scenes; flips per "
            f"layer 1-{params.levels}: gate {gate_flips.tolist()}, selection "
            f"{selection_flips.tolist()}")


def test_criterion_8_otsu_oracle():
    rng = np.random.default_rng(8)
    ok = all(otsu_threshold(p) == brute_force_otsu(p)
             for p in (rng.random((12, 12)) for _ in range(100)))
    _report("criterion 8 (threshold oracle)", ok, "100 random patches")


def test_criterion_9_ellipse_fit():
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(20):
        a = rng.uniform(5, 30)
        truth = Ellipse(rng.uniform(-50, 50), rng.uniform(-50, 50),
                        a, rng.uniform(2, a - 0.5), rng.uniform(0, np.pi))
        fit = fit_ellipse(sample_ellipse(truth, 24))
        rot_err = min(abs(fit.rotation - truth.rotation),
                      np.pi - abs(fit.rotation - truth.rotation))
        worst = max(worst, abs(fit.cx - truth.cx), abs(fit.cy - truth.cy),
                    abs(fit.a - truth.a), abs(fit.b - truth.b), rot_err)
    try:
        fit_ellipse(np.zeros((5, 2)))
        flagged = False
    except EllipseFitError:
        flagged = True
    ok = worst <= 1e-6 and flagged
    _report("criterion 9 (ellipse fit)", ok,
            f"max parameter error {worst:.2e}, <6 points flagged: {flagged}")


def test_criterion_10_cli_determinism(tmp_path):
    scene_spec = {
        "width": 96, "height": 96,
        "vessel": {"cx": 48, "cy": 60, "a": 20, "b": 14,
                   "wall_thickness": 3, "wall_intensity": 0.85},
        "reflectors": [{"row": 16, "col_start": 20, "col_end": 76,
                        "intensity": 0.9,
                        "reverb": {"count": 2, "spacing": 10, "decay": 0.6}}],
        "speckle": {"scale": 0.02, "seed": 3},
        "views": [{}, {"rotation": math.pi / 2, "dx": 95.0}],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(scene_spec))
    patches_path = tmp_path / "patches.json"
    patches_path.write_text(json.dumps(
        [{"x": 28, "y": 46, "width": 40, "height": 28, "label": "boundary"}]))

    def run_all(tag):
        d = tmp_path / tag
        scene = d / "scene"
        assert run(["synth", "--spec", str(spec_path),
                    "--outdir", str(scene)]) == 0
        assert run(["confidence", "--image", f"{scene}/view0.pgm",
                    "--out", f"{d}/gc.fmap"]) == 0
        assert run(["boundaries", "--image", f"{scene}/view0.pgm",
                    "--out", f"{d}/bm.pgm"]) == 0
        views = ["--view", f"{scene}/view0.pgm:{scene}/view0_transform.json",
                 "--view", f"{scene}/view1.pgm:{scene}/view1_transform.json"]
        for method in ("average", "maximum", "ubf", "pyramid"):
            assert run(["compound", "--method", method, *views,
                        "--out", f"{d}/{method}.pgm"]) == 0
        assert run(["metrics", "--image", f"{d}/pyramid.pgm",
                    "--patches", str(patches_path),
                    "--out", f"{d}/report.json"]) == 0
        assert run(["segment", "--image", f"{d}/pyramid.pgm",
                    "--patch", "24,42,48,36", "--out", f"{d}/mask.pgm"]) == 0
        return {p.relative_to(d): p.read_bytes()
                for p in sorted(d.rglob("*")) if p.is_file()}

    first = run_all("a")
    second = run_all("b")
    ok = first.keys() == second.keys() and all(
        first[k] == second[k] for k in first)
    _report("criterion 10 (CLI determinism)", ok,
            f"{len(first)} output files byte-identical across two runs")
