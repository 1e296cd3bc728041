"""Tests of the benchmark's own code.

    python3 -m pytest perfbench/tests -q
"""

import importlib
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import calibrate  # noqa: E402
import run  # noqa: E402
import scenes  # noqa: E402
import spans  # noqa: E402
from uscompound import cli, errors, metrics  # noqa: E402
from uscompound.image import RigidTransform2D  # noqa: E402

# `uscompound.compound` as an attribute is the function, not the module.
compound = importlib.import_module("uscompound.compound")


# ---------------------------------------------------------------------------
# tail percentile
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n, index, pct", [(11, 0, 100 / 11), (20, 9, 50.0),
                                           (40, 29, 75.0), (100, 89, 90.0)])
def test_tail_leaves_ten_samples_beyond(n, index, pct):
    samples = list(np.random.default_rng(n).permutation(np.arange(n, dtype=float)))
    value, got_pct = run.tail_latency(samples)
    assert value == index
    assert got_pct == pytest.approx(pct)
    assert sum(s > value for s in samples) == 10


def test_tail_with_ten_or_fewer_samples_is_the_maximum():
    assert run.tail_latency([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert run.tail_latency(list(range(10))) == (9, 100.0)


# ---------------------------------------------------------------------------
# error accounting
# ---------------------------------------------------------------------------

def test_ledger_counts_failures_against_attempts():
    ledger = run.Ledger()
    for reason in (None, "exit_nonzero", None, "output_changed", "exit_nonzero"):
        ledger.record(reason)
    assert (ledger.attempted, ledger.failed) == (5, 3)
    assert ledger.success_rate == pytest.approx(0.4)
    assert ledger.reasons == {"exit_nonzero": 2, "output_changed": 1}


class FakeCli:
    """Stands in for uscompound.cli: writes `payloads` in turn to --out."""

    def __init__(self, payloads, code=0):
        self.payloads, self.code = list(payloads), code

    def run(self, argv):
        Path(argv[argv.index("--out") + 1]).write_bytes(self.payloads.pop(0))
        return self.code


def _pgm(a):
    return f"P5\n{a.shape[1]} {a.shape[0]}\n255\n".encode() + a.tobytes()


def _scene(size):
    yy, xx = np.mgrid[0:size, 0:size]
    return {"patches": [metrics.PatchSpec(0, 0, size, 4, "artifact"),
                        metrics.PatchSpec(0, 4, size, 4, "boundary")],
            "vessel_patch": [0, 0, size, size],
            "lumen": (xx - 7.5) ** 2 + (yy - 7.5) ** 2 <= 16,
            "views": [{"pixels": np.full((size, size), 0.5, np.float32)}]}


def _runner(fake, tmp_path, size=16):
    mods = {"cli": fake, "metrics": metrics, "errors": errors}
    runner = run.Runner(mods, size)
    op = run.Op("k", _scene(size), "average", ["--out", str(tmp_path / "o.pgm")],
                tmp_path / "o.pgm", size * size / 1e6)
    return runner, op


def test_runner_failure_reasons(tmp_path):
    rng = np.random.default_rng(0)
    good = rng.integers(0, 256, (16, 16), dtype=np.uint8)
    other = good.copy()
    other[0, 0] ^= 1
    payloads = [_pgm(good), _pgm(good), _pgm(other), b"P6 garbage",
                _pgm(good[:8])]
    runner, op = _runner(FakeCli(payloads), tmp_path)
    reasons = [runner(op) for _ in payloads]
    assert reasons == [None, None, "output_changed", "undecodable", "wrong_shape"]
    assert set(runner.quality) == {"k"}


def test_runner_nonzero_exit_and_exceptions(tmp_path):
    runner, op = _runner(FakeCli([_pgm(np.zeros((16, 16), np.uint8))], code=2),
                         tmp_path)
    assert runner(op) == "exit_nonzero"

    class Broken:
        def run(self, argv):
            raise RuntimeError("boom")

    runner, op = _runner(Broken(), tmp_path)
    assert runner(op) == "exception"


def test_degenerate_segmentation_scores_zero_without_failing(tmp_path):
    # a two-level image whose bright pixels are too few for an ellipse fit
    a = np.zeros((16, 16), np.uint8)
    a[:4] = 255
    a[8, 8] = 128
    runner, op = _runner(FakeCli([_pgm(a)]), tmp_path)
    op.scene["vessel_patch"] = [6, 6, 4, 4]
    op.scene["lumen"] = np.ones((4, 4), bool)
    assert runner(op) is None
    assert runner.quality["k"][2] == 0.0


# ---------------------------------------------------------------------------
# quality patches from ground truth
# ---------------------------------------------------------------------------

def test_component_patches_are_padded_clipped_and_filtered():
    mask = np.zeros((40, 50), bool)
    mask[1:4, 10:30] = True       # 60 px near the top edge
    mask[30:33, 45:50] = True     # 15 px: below the size floor
    mask[20:25, 5:9] = True       # 20 px
    assert scenes.component_patches(mask, pad=4, min_px=20) == [
        [6, 0, 28, 8], [1, 16, 12, 13]]


def test_to_common_is_independent_nearest_warp():
    mask = np.zeros((8, 8), bool)
    mask[1, 2] = True
    assert np.array_equal(scenes.to_common(mask, RigidTransform2D(), 8, 8), mask)
    quarter = RigidTransform2D(rotation=math.pi / 2, dx=7, dy=0)
    out = scenes.to_common(mask, quarter, 8, 8)
    x, y = quarter.apply(2, 1)
    assert np.argwhere(out).tolist() == [[round(y), round(x)]]


def test_ground_truth_patches_cover_echoes_reflector_and_vessel():
    from uscompound.phantom import generate
    spec = scenes.compound_spec(192, speckle_seed=3)
    gt = scenes.ground_truth(spec, generate(spec), generate)
    refl = spec.reflectors[0]
    rows = [p[1] + scenes.PATCH_PAD for p in gt["artifact_patches"]]
    assert rows == [int(refl.row) + 15 * n for n in (1, 2, 3)]
    assert gt["boundary_patches"][-1] == gt["vessel_patch"]
    x, y, w, h = gt["vessel_patch"]
    v = spec.vessel
    assert x < v.cx - v.a and x + w > v.cx + v.a
    assert y < v.cy - v.b and y + h > v.cy + v.b
    lumen = scenes.lumen_mask(gt["vessel"], gt["vessel_patch"])
    assert lumen[int(v.cy) - y, int(v.cx) - x] and not lumen[0, 0]


def test_pgm_round_trip_and_rejects(tmp_path):
    a = np.linspace(0, 1, 12).reshape(3, 4)
    scenes.write_pgm(str(tmp_path / "a.pgm"), a)
    px = scenes.decode_pgm((tmp_path / "a.pgm").read_bytes())
    assert np.array_equal(px, scenes.quantize(a))
    assert scenes.decode_pgm(b"P5\n4 3\n255\n" + bytes(11)) is None
    assert scenes.decode_pgm(b"P2\n1 1\n255\n\0") is None


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def test_tracer_patches_every_binding_site_and_restores_them():
    original = compound.detect_boundaries
    tracer = spans.Tracer()
    tracer.install()
    try:
        for mod, name in ((cli, "detect_boundaries"), (cli, "prepare_views"),
                          (cli, "compound_views"), (compound, "detect_boundaries"),
                          (compound, "warp_to_common"),
                          (compound, "attenuation_intensity_confidence")):
            assert hasattr(getattr(mod, name), "__wrapped_original__"), name
        compound.detect_boundaries(np.zeros((8, 8)))
    finally:
        tracer.uninstall()
    assert compound.detect_boundaries is original
    assert cli.detect_boundaries is original
    names = [r[0] for r in tracer.spans]
    assert names[0] == "boundary.detect" and "boundary.refine" in names
    assert all(r[3] == 0 for r in tracer.spans[1:])


def test_tracer_check_and_self_time():
    tracer = spans.Tracer()
    tracer.spans = [["cli.run", 0.0, 10.0, None, 0, {}],
                    ["image.load", 1.0, 3.0, 0, 0, {}],
                    ["image.save", 4.0, 5.0, 0, 0, {}]]
    assert tracer.self_time("cli.run") == pytest.approx(7.0)
    with pytest.raises(spans.TraceError, match="layers"):
        tracer.check("pyramid-512x2")
    tracer.spans.append(["image.warp", 9.0, 11.0, 0, 0, {}])
    for layer in spans.EXPECTED_LAYERS["boundaries-flood-512"] - {"cli", "image"}:
        tracer.spans.append([f"{layer}.x", 2.0, 2.5, 1, 0, {}])
    with pytest.raises(spans.TraceError, match="outlasts"):
        tracer.check("boundaries-flood-512")


# ---------------------------------------------------------------------------
# host-speed reference kernels
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", sorted(calibrate.KERNELS))
def test_reference_kernels_are_fixed_work(kind):
    kernel = calibrate.KERNELS[kind]
    assert kernel() == kernel()
    assert calibrate.kernel_seconds(kind) > 0.0


def test_rescale_uses_the_mean_of_the_bracketing_gauges():
    nominal = calibrate.NOMINAL_S["numpy"]
    assert calibrate.rescale(1.0, "numpy", nominal, nominal) == pytest.approx(1.0)
    # a host at half speed doubles both the op and the kernel
    assert calibrate.rescale(2.0, "numpy", nominal, 3 * nominal) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# smoke: every workload end to end at a tiny size
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_all_workloads(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all", "--seed",
         "0", "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    kind = "per_layer" if trace else "end_to_end"
    want = {f"{w['name']}.{m['name']}" for w in spec["workloads"]
            for m in spec[kind]}
    assert set(result["metrics"]) == want
