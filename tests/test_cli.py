import hashlib
import importlib
import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import traced_peak_mib, two_view_phantom
from uscompound import blocks
from uscompound.boundary import BoundaryParams
from uscompound.cli import run
from uscompound.compound import METHODS, PyramidParams, compound, prepare_views
from uscompound.confidence import (AttenuationParams,
                                   attenuation_intensity_confidence)
from uscompound.config import Config, load_config
from uscompound.errors import SpecError
from uscompound.image import (Image, RigidTransform2D, ViewInput, load_image,
                              load_mask, save_image)
from uscompound.phantom import generate
from uscompound.pyramid import layer_shapes


# Head-on, and rotated by 90 and by -90 degrees onto the same 96² square.
_VIEWS = [{}, {"rotation": 1.5707963267948966, "dx": 95.0},
          {"rotation": -1.5707963267948966, "dy": 95.0}]


def _synth(tmp_path, n_views=2):
    """A phantom with the first `n_views` of `_VIEWS` rendered to disk via
    the synth subcommand."""
    spec = {
        "width": 96, "height": 96,
        "vessel": {"cx": 48, "cy": 60, "a": 20, "b": 14,
                   "wall_thickness": 3, "wall_intensity": 0.85},
        "reflectors": [{"row": 16, "col_start": 20, "col_end": 76,
                        "intensity": 0.9,
                        "reverb": {"count": 2, "spacing": 10, "decay": 0.6}}],
        "speckle": {"scale": 0.02, "seed": 5},
        "views": _VIEWS[:n_views],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    outdir = tmp_path / "scene"
    assert run(["synth", "--spec", str(spec_path), "--outdir", str(outdir)]) == 0
    return outdir


@pytest.fixture
def phantom_dir(tmp_path):
    """Two-view phantom rendered to disk via the synth subcommand."""
    return _synth(tmp_path)


def _view_args(outdir, n_views=2):
    return [arg for i in range(n_views) for arg in
            ("--view", f"{outdir}/view{i}.pgm:{outdir}/view{i}_transform.json")]


def test_confidence_subcommand(tmp_path, phantom_dir):
    out = tmp_path / "gc.fmap"
    assert run(["confidence", "--image", f"{phantom_dir}/view0.pgm",
                "--out", str(out)]) == 0
    c = load_image(out)
    assert np.all(c.data[0] == 1.0)


def test_boundaries_subcommand(tmp_path, phantom_dir):
    out = tmp_path / "mask.pgm"
    assert run(["boundaries", "--image", f"{phantom_dir}/view0.pgm",
                "--out", str(out)]) == 0
    mask = load_image(out).data
    assert set(np.unique(mask)).issubset({0.0, 1.0})


# The suffix of --out picks the format: FMAP for ".fmap", PGM otherwise.
def test_confidence_out_pgm_writes_a_pgm(tmp_path, phantom_dir):
    pgm, fmap = tmp_path / "c.pgm", tmp_path / "c.fmap"
    for out in (pgm, fmap):
        assert run(["confidence", "--image", f"{phantom_dir}/view0.pgm",
                    "--out", str(out)]) == 0
    assert pgm.read_bytes().startswith(b"P5\n96 96\n255\n")
    assert np.abs(load_image(pgm).data - load_image(fmap).data).max() <= 1 / 510 + 1e-7


def test_boundaries_out_fmap_holds_the_mask(tmp_path, phantom_dir):
    pgm, fmap = tmp_path / "m.pgm", tmp_path / "m.fmap"
    for out in (pgm, fmap):
        assert run(["boundaries", "--image", f"{phantom_dir}/view0.pgm",
                    "--out", str(out)]) == 0
    assert fmap.read_bytes().startswith(b"FMAP 96 96\n")
    assert load_mask(pgm).any()
    assert np.array_equal(load_mask(fmap), load_mask(pgm))


@pytest.mark.parametrize("method", METHODS)
def test_compound_out_fmap_is_the_fusion_bit_for_bit(tmp_path, phantom_dir,
                                                     method):
    out = tmp_path / "o.fmap"
    assert run(["compound", "--method", method, *_view_args(phantom_dir),
                "--out", str(out)]) == 0
    views = [ViewInput(load_image(phantom_dir / f"view{i}.pgm"),
                       RigidTransform2D.from_dict(json.loads(
                           (phantom_dir / f"view{i}_transform.json").read_text())))
             for i in range(2)]
    expected = compound(prepare_views(views, 96, 96), method)
    assert out.read_bytes().startswith(b"FMAP 96 96\n")
    assert np.array_equal(load_image(out).data, expected)


# The pyramid path a user runs, on two 512² views: the traced peak was
# 24.48 MiB when the warp and the pyramid builds stacked each view's planes,
# 17.33 MiB with the planes read as given and the native views dropped once
# warped, and is 11.88 MiB with each pyramid layer fused in one row-block
# pass and the uniform structural confidence a broadcast view.
def test_compound_pyramid_subcommand_memory_is_bounded(tmp_path):
    scene = generate(two_view_phantom(0, size=512))
    args = []
    for i, v in enumerate(scene.views):
        image, transform = tmp_path / f"view{i}.pgm", tmp_path / f"view{i}.json"
        save_image(v.image, image)
        transform.write_text(json.dumps(v.to_common.to_dict()))
        args += ["--view", f"{image}:{transform}"]
    out = tmp_path / "out.pgm"
    rc = []
    peak = traced_peak_mib(lambda: rc.append(run(
        ["compound", "--method", "pyramid", *args, "--out", str(out)])))
    assert rc == [0] and load_image(out).width == 512
    assert peak <= 12.5


# The boundaries op on a 512² frame whose bright smooth tissue region
# growing floods: the traced peak is 5.42 MiB.  It was 5.90 MiB while
# refinement kept a copy of each edge mask and three bool temporaries of
# the box for the pairs it drops, 6.42 MiB while
# refinement numbered its runs by one cumulative sum over an int32 copy of
# the box, and 11.55 MiB while refinement copied the seed box to float64
# beside a float64 scratch of its size and the PGM encoder quantized a
# float64 copy of the whole mask.
def test_boundaries_subcommand_memory_is_bounded(tmp_path):
    view = generate(replace(two_view_phantom(0, size=512), speckle=None)).views[0]
    y, x = np.mgrid[0:512, 0:512]
    tissue = (0.3 + 0.004 * np.sin(2 * np.pi * x / 160)
              + 0.004 * np.sin(2 * np.pi * y / 208))
    image, out = tmp_path / "flood.pgm", tmp_path / "mask.pgm"
    save_image(Image(np.maximum(view.image.data, tissue)), image)
    rc = []
    peak = traced_peak_mib(lambda: rc.append(run(
        ["boundaries", "--image", str(image), "--out", str(out)])))
    assert rc == [0] and load_mask(out).mean() > 0.99
    assert peak <= 5.5


@pytest.mark.parametrize("method", ["average", "maximum", "ubf", "pyramid"])
def test_compound_subcommand(tmp_path, phantom_dir, method):
    out = tmp_path / "out.pgm"
    rc = run(["compound", "--method", method, *_view_args(phantom_dir),
              "--out", str(out)])
    assert rc == 0
    assert load_image(out).width == 96


def test_compound_average_duplicates_identity(tmp_path, phantom_dir):
    out = tmp_path / "o.pgm"
    ident = f"{phantom_dir}/view0.pgm:{phantom_dir}/view0_transform.json"
    assert run(["compound", "--method", "average", "--view", ident,
                "--view", ident, "--out", str(out)]) == 0
    src = load_image(f"{phantom_dir}/view0.pgm").data
    assert np.abs(load_image(out).data - src).max() < 1 / 255


def test_compound_provenance_log(tmp_path, phantom_dir, capsys):
    out = tmp_path / "o.pgm"
    run(["compound", "--method", "pyramid", *_view_args(phantom_dir),
         "--out", str(out)])
    log = json.loads(capsys.readouterr().err.strip().splitlines()[0])
    assert log["effective_config"]["compound"]["gamma"] == 0.05


def test_dump_intermediates(tmp_path):
    # Each array is dumped as the fusion holds it: the selections as uint8
    # view indices, and the layers as signed float32.
    shapes = layer_shapes(96, 96, 5)
    expected = {f"{kind}_layer{k}": (shapes[k - 1], dtype)
                for kind, dtype in (("selection", np.uint8),
                                    ("blended", np.float32))
                for k in range(1, 6)}
    expected.update({f"partial_layer3_{when}_enhance": (shapes[2], np.float32)
                     for when in ("pre", "post")})
    for n_views in (2, 3):
        d = tmp_path / f"views{n_views}"
        d.mkdir()
        plain, out, dump = d / "plain.pgm", d / "o.pgm", d / "layers"
        args = ["compound", "--method", "pyramid",
                *_view_args(_synth(d, n_views), n_views)]
        assert run([*args, "--out", str(plain)]) == 0
        assert run([*args, "--out", str(out), "--dump-intermediates", str(dump)]) == 0
        assert sorted(p.name for p in dump.iterdir()) == sorted(
            name + ".npy" for name in expected)
        arrays = {name: np.load(dump / f"{name}.npy") for name in expected}
        for name, (shape, dtype) in expected.items():
            assert (arrays[name].shape, arrays[name].dtype) == (shape, dtype), name
        assert max(arrays[f"selection_layer{k}"].max()
                   for k in range(1, 6)) == n_views - 1
        assert arrays["blended_layer1"].min() < -0.1
        assert out.read_bytes() == plain.read_bytes()


@pytest.mark.parametrize("method", ["average", "maximum", "ubf"])
def test_dump_intermediates_of_a_baseline_exit2(tmp_path, phantom_dir, capsys,
                                               method):
    out, dump = tmp_path / "o.pgm", tmp_path / "d"
    assert run(["compound", "--method", method, *_view_args(phantom_dir),
                "--out", str(out), "--dump-intermediates", str(dump)]) == 2
    assert "debug_sink" in capsys.readouterr().err
    assert not dump.exists() and not out.exists()


def test_metrics_subcommand(tmp_path, phantom_dir, capsys):
    out = tmp_path / "o.pgm"
    run(["compound", "--method", "average", *_view_args(phantom_dir),
         "--out", str(out)])
    patches = tmp_path / "patches.json"
    patches.write_text(json.dumps([
        {"x": 24, "y": 22, "width": 40, "height": 16, "label": "artifact"},
        {"x": 20, "y": 12, "width": 56, "height": 8, "label": "boundary"},
    ]))
    report_path = tmp_path / "report.json"
    assert run(["metrics", "--image", str(out), "--patches", str(patches),
                "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["artifact_avr"] >= 0
    assert report["boundary_avr"] >= 0


def _ring_pgm(tmp_path):
    """A 64x64 bright ring on a dark background, saved as PGM."""
    h = w = 64
    yy, xx = np.mgrid[0:h, 0:w]
    r = np.hypot(xx - 32, yy - 32)
    img = np.where(np.abs(r - 20) < 2, 0.9, 0.05).astype(np.float32)
    path = tmp_path / "ring.pgm"
    save_image(Image(img), path)
    return path


def test_segment_subcommand(tmp_path):
    # bright ring: segmentation succeeds
    path = _ring_pgm(tmp_path)
    assert run(["segment", "--image", str(path), "--patch", "0,0,64,64",
                "--out", str(tmp_path / "m.pgm")]) == 0


def test_segment_dark_patch_exit3(tmp_path):
    path = tmp_path / "dark.pgm"
    save_image(Image(np.zeros((32, 32))), path)
    assert run(["segment", "--image", str(path), "--patch", "0,0,32,32"]) == 3


@pytest.mark.parametrize("patch", ["-16,10,14,20", "10,-16,20,14",
                                   "30,0,40,64", "0,0,0,64"])
def test_segment_patch_outside_image_exit2(tmp_path, patch):
    # Negative offsets must not wrap around to the far edge of the image.
    path, out = _ring_pgm(tmp_path), tmp_path / "m.pgm"
    assert run(["segment", "--image", str(path), f"--patch={patch}",
                "--out", str(out)]) == 2
    assert not out.exists()


def test_usage_error_exit1():
    assert run(["compound", "--method", "bogus"]) == 1
    assert run([]) == 1


def test_run_builds_one_parser_and_keeps_each_result(tmp_path, phantom_dir,
                                                     capsys, monkeypatch):
    # The parser is built on the first `run` of a process and reused; a
    # usage error in between leaves nothing behind, so every call gives the
    # exit code, the printed text and the file of a parser of its own.
    cli = importlib.import_module("uscompound.cli")
    argvs = [["compound", "--method", "average", *_view_args(phantom_dir)],
             ["compound", "--method", "bogus"],
             ["boundaries", "--image", f"{phantom_dir}/view0.pgm"],
             ["compound", "--method", "average", *_view_args(phantom_dir)]]

    def results(runner, tag):
        got = []
        for i, argv in enumerate(argvs):
            out = tmp_path / f"{tag}{i}.pgm"
            code = runner(argv + ["--out", str(out)])
            printed = capsys.readouterr()
            got.append((code, printed.out, printed.err,
                        out.read_bytes() if out.exists() else None))
        return got

    def fresh(argv):
        cli._parser.cache_clear()
        return run(argv)

    expected = results(fresh, "fresh")
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    got = results(run, "shared")
    assert len(built) == 1
    assert [g[0] for g in got] == [0, 1, 0, 0]
    assert got == expected
    assert got[0][3] == got[3][3] and got[2][3] is not None


def test_data_error_exit2(tmp_path):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"nonsense")
    assert run(["boundaries", "--image", str(bad),
                "--out", str(tmp_path / "o.pgm")]) == 2


def test_config_defaults_match_documented_constants():
    cfg = Config()
    b = cfg.boundary_params()
    assert (b.alpha, b.beta, b.min_size, b.t1, b.t2) == (15, 20, 50, 30.0, 2.0)
    p = cfg.pyramid_params()
    assert (p.levels, p.gamma, p.enhance_layer) == (5, 0.05, 3)


def test_readme_defaults_block_is_the_config_default():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"^Defaults:\n\n```json\n(.*?)^```", readme,
                      re.S | re.M).group(1)
    assert json.loads(block) == json.loads(Config().dump())


def test_config_defaults_are_the_dataclass_defaults():
    cfg = Config()
    assert cfg.boundary_params() == BoundaryParams()
    assert cfg.pyramid_params() == PyramidParams()
    assert cfg.attenuation_params() == AttenuationParams()
    p = Config({"pyramid": {"K": 4},
                "compound": {"phi_overrides": [0.5] * 4}}).pyramid_params()
    assert (p.levels, p.phi_overrides) == (4, (0.5,) * 4)


def test_config_unknown_key_rejected():
    with pytest.raises(SpecError, match=r"^unknown config key 'boundary\.alhpa'$"):
        Config({"boundary": {"alhpa": 3}})
    with pytest.raises(SpecError, match="^unknown config key 'bogus'$"):
        Config({"bogus": {}})
    with pytest.raises(SpecError, match="^config key 'boundary' must be a table$"):
        Config({"boundary": 3})


def test_config_roundtrip_noop(tmp_path):
    cfg = Config({"compound": {"gamma": 0.1}})
    path = tmp_path / "cfg.json"
    path.write_text(cfg.dump())
    again = load_config(path)
    assert again.values == cfg.values
    assert again.dump() == cfg.dump()


def test_config_overrides_applied(tmp_path, phantom_dir):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"pyramid": {"K": 4},
                               "compound": {"enhance_layer": 2}}))
    out = tmp_path / "o.pgm"
    assert run(["compound", "--method", "pyramid", *_view_args(phantom_dir),
                "--out", str(out), "--config", str(cfg)]) == 0


@pytest.mark.parametrize("method,calls", [("average", 0), ("maximum", 0),
                                          ("ubf", 2), ("pyramid", 2)])
def test_compound_fills_maps_only_for_methods_that_read_them(
        tmp_path, phantom_dir, monkeypatch, method, calls):
    seen = []

    def counting(image, *args):
        seen.append(image)
        return attenuation_intensity_confidence(image, *args)

    for name in ("uscompound.cli", "uscompound.compound"):
        monkeypatch.setattr(importlib.import_module(name),
                            "attenuation_intensity_confidence", counting)
    assert run(["compound", "--method", method, *_view_args(phantom_dir),
                "--out", str(tmp_path / "o.pgm")]) == 0
    assert len(seen) == calls


@pytest.mark.parametrize("values,key", [
    ({"boundary": {"alpha": "x"}}, "boundary.alpha"),
    ({"boundary": {"alpha": 15.0}}, "boundary.alpha"),
    ({"boundary": {"min_size": True}}, "boundary.min_size"),
    ({"boundary": {"t1": "30"}}, "boundary.t1"),
    ({"boundary": {"t2": False}}, "boundary.t2"),
    ({"boundary": {"median_denoise": 1}}, "boundary.median_denoise"),
    ({"pyramid": {"K": 5.0}}, "pyramid.K"),
    ({"compound": {"gamma": None}}, "compound.gamma"),
    ({"compound": {"phi_overrides": 5}}, "compound.phi_overrides"),
    ({"compound": {"phi_overrides": [0.5, "x", 0.5, 0.5, 0.5]}},
     "compound.phi_overrides"),
    ({"compound": {"phi_overrides": [True] * 5}}, "compound.phi_overrides"),
    ({"confidence": {"decay": [0.1]}}, "confidence.decay"),
])
def test_config_wrongly_typed_value_exit2(tmp_path, phantom_dir, capsys,
                                          values, key):
    with pytest.raises(SpecError, match=key):
        Config(values)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    assert run(["boundaries", "--image", f"{phantom_dir}/view0.pgm",
                "--out", str(tmp_path / "m.pgm"), "--config", str(cfg)]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "m.pgm").exists()


def test_config_accepts_values_of_the_default_type():
    cfg = Config({"boundary": {"t1": 30, "alpha": 12, "median_denoise": False},
                  "compound": {"gamma": 0, "phi_overrides": [0, 1, 0.5, 1, 0]},
                  "confidence": {"decay": 0.01}})
    assert cfg.boundary_params().alpha == 12
    assert cfg.pyramid_params().phi_overrides == (0, 1, 0.5, 1, 0)
    assert Config({"compound": {"phi_overrides": None}}).values == Config().values
    # A large finite integer is still a number for a float key.
    assert Config({"boundary": {"t1": 64, "grad_threshold": 64}}
                  ).boundary_params().grad_threshold == 64


_COMMANDS = {
    "confidence": lambda d: ["confidence", "--image", f"{d}/view0.pgm"],
    "boundaries": lambda d: ["boundaries", "--image", f"{d}/view0.pgm"],
    "average": lambda d: ["compound", "--method", "average", *_view_args(d)],
    "pyramid": lambda d: ["compound", "--method", "pyramid", *_view_args(d)],
}


@pytest.mark.parametrize("command", list(_COMMANDS))
@pytest.mark.parametrize("values,message", [
    ({"compound": {"enhance_layer": 9}}, "enhance_layer must lie in 1..levels"),
    ({"pyramid": {"K": 1}, "compound": {"enhance_layer": 1}},
     "levels must be >= 2"),
    ({"boundary": {"alpha": 0}}, "alpha must be >= 1"),
    ({"boundary": {"min_size": 0}}, "min_size must be >= 1"),
    ({"confidence": {"decay": -1}}, "decay must not be negative"),
    ({"confidence": {"absorption": -0.5}}, "absorption must not be negative"),
])
def test_out_of_range_config_exit2_for_every_command(
        tmp_path, phantom_dir, capsys, command, values, message):
    cfg, out = tmp_path / "cfg.json", tmp_path / "o.pgm"
    cfg.write_text(json.dumps(values))
    assert run([*_COMMANDS[command](phantom_dir), "--out", str(out),
                "--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("levels", [10**4, 10**6])
def test_pyramid_deeper_than_the_frame_exit2(tmp_path, phantom_dir, capsys,
                                             levels):
    # The message printed 2 ** (levels - 1) in full: 3,010 digits at 10**4
    # levels, and past Python's integer-to-string limit at 10**6.
    cfg, out = tmp_path / "cfg.json", tmp_path / "o.pgm"
    cfg.write_text(json.dumps({"pyramid": {"K": levels},
                               "compound": {"enhance_layer": 1}}))
    assert run([*_COMMANDS["pyramid"](phantom_dir), "--out", str(out),
                "--config", str(cfg)]) == 2
    line, = [x for x in capsys.readouterr().err.splitlines() if "error" in x]
    assert f"too small for {levels} levels" in line
    assert f"2**{levels - 1}" in line and len(line) < 200
    assert not out.exists()


def test_config_builds_its_params_once():
    cfg = Config({"boundary": {"alpha": 6}, "pyramid": {"K": 4},
                  "confidence": {"decay": 0.01}})
    assert cfg.boundary_params() is cfg.boundary_params()
    assert cfg.pyramid_params() is cfg.pyramid_params()
    assert cfg.attenuation_params() is cfg.attenuation_params()
    assert (cfg.boundary_params().alpha, cfg.pyramid_params().levels,
            cfg.attenuation_params().decay) == (6, 4, 0.01)


# An integer too large for a float is not finite either: it raised
# OverflowError with a traceback.
_NON_FINITE = [float("nan"), float("inf"), float("-inf"), 10**400]
_NON_FINITE_IDS = ["NaN", "Infinity", "-Infinity", "401-digit"]


@pytest.mark.parametrize("x", _NON_FINITE, ids=_NON_FINITE_IDS)
@pytest.mark.parametrize("command,values,key", [
    ("compound", {"boundary": {"t1": None}}, "boundary.t1"),
    ("compound", {"boundary": {"grad_threshold": None}}, "boundary.grad_threshold"),
    ("compound", {"compound": {"phi_overrides": [0.5, None, 0.5, 0.5, 0.5]}},
     "compound.phi_overrides"),
    ("confidence", {"confidence": {"decay": None}}, "confidence.decay"),
    ("confidence", {"confidence": {"absorption": None}}, "confidence.absorption"),
])
def test_config_non_finite_number_exit2(tmp_path, phantom_dir, capsys,
                                        command, values, key, x):
    # `json.dumps` writes NaN and Infinity, which `json.load` reads back.
    text = json.dumps(values).replace("null", json.dumps(x))
    with pytest.raises(SpecError, match=f"{key}' must be finite"):
        Config(json.loads(text))
    cfg, out = tmp_path / "cfg.json", tmp_path / "o.pgm"
    cfg.write_text(text)
    args = ({"compound": ["--method", "pyramid", *_view_args(phantom_dir)],
             "confidence": ["--image", f"{phantom_dir}/view0.pgm"]}[command])
    assert run([command, *args, "--out", str(out), "--config", str(cfg)]) == 2
    assert f"config key {key!r} must be finite" in capsys.readouterr().err
    assert not out.exists()


def _write_spec(tmp_path, **changes):
    spec = {"width": 48, "height": 48,
            "vessel": {"cx": 24, "cy": 28, "a": 10, "b": 7},
            "reflectors": [{"row": 8, "col_start": 10, "col_end": 38,
                            "reverb": {"count": 2, "spacing": 8,
                                       "decay": 0.5}}],
            "speckle": {"scale": 0.02, "seed": 5}}
    spec.update(changes)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return path


@pytest.mark.parametrize("changes,message", [
    ({"vessel": {"cx": 24, "cy": 28, "a": 10, "b": 7, "r": 3}},
     "unknown vessel keys"),
    ({"vessel": {"cx": 24, "cy": 28, "a": 10}}, "vessel lacks keys"),
    ({"vessel": [24, 28, 10, 7]}, "vessel must be a JSON object"),
    ({"reflectors": [{"row": 8, "col_start": 10, "col_end": 38, "gain": 2}]},
     r"unknown reflectors\[0\] keys"),
    ({"reflectors": [{"row": 8, "col_start": 10, "col_end": 38,
                      "reverb": {"count": 2, "gap": 8}}]},
     r"unknown reflectors\[0\].reverb keys"),
    ({"speckle": {"scale": 0.02, "sed": 5}}, "unknown speckle keys"),
    ({"width": None}, "phantom spec key 'width' must be an integer"),
    ({"width": 48.0}, "phantom spec key 'width' must be an integer"),
    ({"vessel": {"cx": "a", "cy": 28, "a": 10, "b": 7}},
     "vessel key 'cx' must be a number"),
    ({"vessel": {"cx": 24, "cy": 28, "a": True, "b": 7}},
     "vessel key 'a' must be a number"),
    ({"reflectors": [{"row": "a", "col_start": 10, "col_end": 38}]},
     r"reflectors\[0\] key 'row' must be a number"),
    ({"reflectors": [{"row": 8, "col_start": 10, "col_end": 38,
                      "reverb": {"count": 1.5}}]},
     r"reflectors\[0\].reverb key 'count' must be an integer"),
    ({"reflectors": 5}, "phantom spec key 'reflectors' must be a list"),
    ({"speckle": {"scale": "x"}}, "speckle key 'scale' must be a number"),
    ({"views": [5]}, "transform must be a JSON object"),
    ({"views": [{"rotation": "0.5"}]}, "transform key 'rotation' must be a number"),
    ({"views": []}, "views must list at least one view"),
    ({"reflectors": [{"row": 3, "col_start": 10, "col_end": 38,
                      "reverb": {"spacing": -10}}]},
     "spacing must be at least 1 row"),
    ({"reflectors": [{"row": 3, "col_start": 10, "col_end": 38,
                      "reverb": {"spacing": 0}}]},
     "spacing must be at least 1 row"),
    ({"speckle": {"scale": -0.02}}, "scale must not be negative"),
    ({"reflectors": [{"row": 8, "col_start": 10, "col_end": 38,
                      "thickness": 0}]}, "thickness and intensity must be positive"),
    ({"reflectors": [{"row": 8, "col_start": 10, "col_end": 38,
                      "intensity": -0.5}]}, "thickness and intensity must be positive"),
    ({"vessel": {"cx": 24, "cy": 28, "a": 10, "b": 7, "wall_intensity": 0}},
     "wall_intensity must be positive"),
    # A falsy value is not an absent table: only null is.
    ({"vessel": {}}, "vessel lacks keys"),
    ({"vessel": 0}, "vessel must be a JSON object"),
    ({"vessel": False}, "vessel must be a JSON object"),
    ({"vessel": []}, "vessel must be a JSON object"),
    ({"speckle": 0}, "speckle must be a JSON object"),
    ({"speckle": False}, "speckle must be a JSON object"),
    ({"speckle": []}, "speckle must be a JSON object"),
    ({"reflectors": [{"row": 8, "col_start": 10, "col_end": 38, "reverb": 0}]},
     r"reflectors\[0\].reverb must be a JSON object"),
    ({"reflectors": [{"row": 8, "col_start": 10, "col_end": 38,
                      "reverb": False}]},
     r"reflectors\[0\].reverb must be a JSON object"),
    ({"reflectors": [{"row": 8, "col_start": 10, "col_end": 38, "reverb": []}]},
     r"reflectors\[0\].reverb must be a JSON object"),
])
def test_synth_malformed_spec_exit2(tmp_path, capsys, changes, message):
    spec = _write_spec(tmp_path, **changes)
    assert run(["synth", "--spec", str(spec),
                "--outdir", str(tmp_path / "scene")]) == 2
    assert re.search(message, capsys.readouterr().err)
    assert not (tmp_path / "scene").exists()


@pytest.mark.parametrize("x", _NON_FINITE, ids=_NON_FINITE_IDS)
@pytest.mark.parametrize("changes,message", [
    ({"views": [{}, {"rotation": None}]}, "transform key 'rotation' must be finite"),
    ({"reflectors": [{"row": 8, "col_start": 10, "col_end": 38,
                      "reverb": {"spacing": None}}]},
     r"reflectors\[0\].reverb key 'spacing' must be finite"),
    ({"vessel": {"cx": 24, "cy": None, "a": 10, "b": 7}},
     "vessel key 'cy' must be finite"),
])
def test_synth_non_finite_number_exit2(tmp_path, capsys, changes, message, x):
    spec = _write_spec(tmp_path, **changes)
    spec.write_text(spec.read_text().replace("null", json.dumps(x)))
    assert run(["synth", "--spec", str(spec),
                "--outdir", str(tmp_path / "scene")]) == 2
    assert re.search(message, capsys.readouterr().err)
    assert not (tmp_path / "scene").exists()


def test_synth_top_level_list_exit2(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text("[]")
    assert run(["synth", "--spec", str(spec), "--outdir", str(tmp_path)]) == 2
    assert "phantom spec must be a JSON object" in capsys.readouterr().err


def test_synth_empty_table_takes_the_defaults(tmp_path):
    def synth(name, **changes):
        outdir = tmp_path / name
        assert run(["synth", "--spec", str(_write_spec(tmp_path, **changes)),
                    "--outdir", str(outdir)]) == 0
        return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}

    def reflector(reverb):
        return [{"row": 8, "col_start": 10, "col_end": 38, "reverb": reverb}]

    assert (synth("empty_speckle", speckle={})
            == synth("default_speckle", speckle={"scale": 0.03, "seed": 1})
            != synth("no_speckle", speckle=None))
    assert (synth("empty_reverb", reflectors=reflector({}))
            == synth("default_reverb", reflectors=reflector(
                {"count": 3, "spacing": 30.0, "decay": 0.5}))
            != synth("no_reverb", reflectors=reflector(None)))


def test_synth_seed_overrides_speckle_seed(tmp_path):
    def synth(name, *extra, **changes):
        outdir = tmp_path / name
        assert run(["synth", "--spec", str(_write_spec(tmp_path, **changes)),
                    "--outdir", str(outdir), *extra]) == 0
        return (outdir / "view0.pgm").read_bytes()

    plain = synth("plain")
    assert synth("same", "--seed", "5") == plain
    assert synth("other", "--seed", "6") != plain
    # A null speckle table takes --seed like an absent one: default scale.
    absent = {"speckle": {"scale": 0.03, "seed": 3}}
    assert (synth("null", "--seed", "3", speckle=None)
            == synth("absent", **absent) != synth("none", speckle=None))


def test_synth_writes_four_files_per_view(phantom_dir):
    # It also wrote a transforms.json listing every view, which nothing read.
    assert sorted(p.name for p in phantom_dir.iterdir()) == sorted(
        f"view{i}{suffix}" for i in range(2)
        for suffix in (".pgm", "_boundary.pgm", "_artifact.pgm",
                       "_transform.json"))


def test_confidence_structural_is_all_ones(tmp_path, phantom_dir):
    out = tmp_path / "gs.fmap"
    assert run(["confidence", "--kind", "structural", "--image",
                f"{phantom_dir}/view0.pgm", "--out", str(out)]) == 0
    assert np.array_equal(load_image(out).data, np.ones((96, 96)))


def test_segment_truth_reports_dice(tmp_path, capsys):
    path, mask = _ring_pgm(tmp_path), tmp_path / "m.pgm"
    args = ["segment", "--image", str(path), "--patch", "0,0,64,64"]
    assert run([*args, "--out", str(mask)]) == 0
    first = json.loads(capsys.readouterr().out)
    assert "dice" not in first
    assert run([*args, "--truth", str(mask)]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["dice"] == 1.0 and result["pixels"] == first["pixels"]


def test_compound_single_view_exit2(tmp_path, phantom_dir, capsys):
    out = tmp_path / "o.pgm"
    assert run(["compound", "--method", "average", *_view_args(phantom_dir)[:2],
                "--out", str(out)]) == 2
    assert "at least two --view" in capsys.readouterr().err
    assert not out.exists()


def test_invalid_json_exit2(tmp_path, phantom_dir, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "o.pgm"
    assert run(["compound", "--method", "average", *_view_args(phantom_dir),
                "--out", str(out), "--config", str(bad)]) == 2
    assert f"{bad}: invalid JSON" in capsys.readouterr().err
    assert run(["compound", "--method", "average",
                "--view", f"{phantom_dir}/view0.pgm:{bad}",
                *_view_args(phantom_dir)[2:], "--out", str(out)]) == 2
    assert f"{bad}: invalid JSON" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("transform,message", [
    ([], "transform must be a JSON object"),
    ({"rotation": None}, "transform key 'rotation' must be a number"),
    ({"dx": [1]}, "transform key 'dx' must be a number"),
    ({"dy": False}, "transform key 'dy' must be a number"),
    ({"shear": 1}, "unknown transform keys"),
])
def test_compound_malformed_transform_exit2(tmp_path, phantom_dir, capsys,
                                            transform, message):
    bad, out = tmp_path / "t.json", tmp_path / "o.pgm"
    bad.write_text(json.dumps(transform))
    assert run(["compound", "--method", "average",
                "--view", f"{phantom_dir}/view0.pgm:{bad}",
                *_view_args(phantom_dir)[2:], "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("x", _NON_FINITE, ids=_NON_FINITE_IDS)
@pytest.mark.parametrize("key", ["rotation", "dx", "dy"])
def test_compound_non_finite_transform_exit2(tmp_path, phantom_dir, capsys,
                                             key, x):
    bad, out = tmp_path / "t.json", tmp_path / "o.pgm"
    bad.write_text(json.dumps({key: x}))
    assert run(["compound", "--method", "average",
                "--view", f"{phantom_dir}/view0.pgm:{bad}",
                *_view_args(phantom_dir)[2:], "--out", str(out)]) == 2
    assert f"transform key {key!r} must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_compound_view_far_off_the_frame_exit0(tmp_path, phantom_dir):
    far, out = tmp_path / "t.json", tmp_path / "o.pgm"
    far.write_text(json.dumps({"dx": 1e300}))
    assert run(["compound", "--method", "average",
                "--view", f"{phantom_dir}/view0.pgm:{far}",
                *_view_args(phantom_dir)[2:], "--out", str(out)]) == 0
    assert load_image(out).width == 96


_PATCH = {"x": 0, "y": 0, "width": 8, "height": 8, "label": "artifact"}


@pytest.mark.parametrize("patches,message", [
    ([5], "patch must be a JSON object"),
    ([{**_PATCH, "x": None}], "patch key 'x' must be an integer"),
    ([{**_PATCH, "width": 8.0}], "patch key 'width' must be an integer"),
    ([{**_PATCH, "label": 1}], "patch key 'label' must be a string"),
    ([{**_PATCH, "colour": "red"}], "unknown patch keys"),
    ([{"x": 0, "y": 0, "width": 8}], "patch lacks keys"),
])
def test_metrics_malformed_patch_exit2(tmp_path, phantom_dir, capsys,
                                       patches, message):
    path, out = tmp_path / "patches.json", tmp_path / "report.json"
    path.write_text(json.dumps(patches))
    assert run(["metrics", "--image", f"{phantom_dir}/view0.pgm",
                "--patches", str(path), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_metrics_report_has_no_dice(tmp_path, phantom_dir, capsys):
    path = tmp_path / "patches.json"
    path.write_text(json.dumps([_PATCH]))
    assert run(["metrics", "--image", f"{phantom_dir}/view0.pgm",
                "--patches", str(path)]) == 0
    assert set(json.loads(capsys.readouterr().out)) == {
        "artifact_amr", "artifact_avr", "boundary_avr"}


@pytest.mark.parametrize("method", ["average", "pyramid"])
@pytest.mark.parametrize("option", ["--width", "--height"])
def test_compound_zero_output_size_exit2(tmp_path, phantom_dir, capsys,
                                         method, option):
    out = tmp_path / "o.pgm"
    assert run(["compound", "--method", method, *_view_args(phantom_dir),
                option, "0", "--out", str(out)]) == 2
    assert "output dimensions must be positive" in capsys.readouterr().err
    assert not out.exists()


# sha256 of the views `synth` writes for the phantom_dir scene, pinned so
# that the speckle stays bit-identical to the serial xorshift64* stream.
@pytest.mark.parametrize("name,digest", [
    ("view0.pgm", "0bda085d966eab40be2b722a77c174db37aa4c361909a0c388ba05a73e62135a"),
    ("view1.pgm", "2a43903a64961627bed4180ecf9e67547bc093e761cc2292606dfa13d21140f6"),
])
def test_synth_view_bytes_pinned(phantom_dir, name, digest):
    assert hashlib.sha256((phantom_dir / name).read_bytes()).hexdigest() == digest


# sha256 of the FMAPs `confidence` writes for view0 of the phantom_dir scene,
# pinned so that the files stay byte-identical across refactors.
@pytest.mark.parametrize("kind,digest", [
    ("intensity", "3607ac40978b3d609e4d5c8b573c2ab8e0a6f9ada3021078a45c2cdafbafa333"),
    ("structural", "cdd2f00baec3820e8d3facfb014605fea095901cfa2b1492f5d6e19c7da4ec3e"),
])
def test_confidence_fmap_bytes_pinned(tmp_path, phantom_dir, kind, digest):
    out = tmp_path / "c.fmap"
    assert run(["confidence", "--kind", kind, "--image",
                f"{phantom_dir}/view0.pgm", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# Row blocks of the default size, and of one row each: every blocked loop
# (the warp, the detection, the pyramid, the fusion and the PGM encoder)
# must give the same bytes at any block size, so the pinned runs are made
# at both.
_BLOCK_SIZES = (blocks.BLOCK_PIXELS, 1)


# sha256 of the masks `synth` writes for the phantom_dir scene, pinned so
# that `save_mask` stays byte-identical across refactors.
@pytest.mark.parametrize("name,digest", [
    ("view0_boundary.pgm", "95b2c96f81c53f356c111b02c65662df2cc7c07a08c3abf982076703c7306e79"),
    ("view0_artifact.pgm", "5c8edd6ac91f320c45f714db556566819d6301b3de46cb170401541df08b4b31"),
    ("view1_boundary.pgm", "476941c335d5bbd91fa091d43f6790dcd99412adadf9e30ebdf41cd513768bae"),
    ("view1_artifact.pgm", "80811274ae32f835c400db785f7cd0a272e3c030bac7a4047c43f53e55236416"),
])
def test_synth_mask_bytes_pinned(phantom_dir, name, digest):
    assert hashlib.sha256((phantom_dir / name).read_bytes()).hexdigest() == digest


# sha256 of the masks `boundaries` writes for the views of the phantom_dir
# scene, as PGM and as FMAP, pinned so that detection and `save_mask` stay
# byte-identical across refactors.
@pytest.mark.parametrize("view,suffix,digest", [
    (0, "pgm", "b832ed56cc013f3644d687a63713ea9cca783e0a72273b7a426013702bc6f277"),
    (0, "fmap", "737bea9f9e477c16d7777b4545a7ad9de59880df9cf7d431ffb01c25c10c4ed8"),
    (1, "pgm", "233171b2037e3a2a32ea396b7e6960dc51b8ed114fb8187c498f28ac8ed4ca5e"),
    (1, "fmap", "bf642396d34bef43d36016452405750dac4c3705beff90395221b3fb1f4e2583"),
])
def test_boundaries_output_bytes_pinned(tmp_path, monkeypatch, phantom_dir,
                                        view, suffix, digest):
    for block_pixels in _BLOCK_SIZES:
        monkeypatch.setattr(blocks, "BLOCK_PIXELS", block_pixels)
        out = tmp_path / f"m{block_pixels}.{suffix}"
        assert run(["boundaries", "--image", f"{phantom_dir}/view{view}.pgm",
                    "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, block_pixels


# sha256 of the `compound` outputs for the phantom_dir scene, pinned so that
# the fusion stays byte-identical across refactors; 95 x 93 puts odd
# dimensions on every pyramid layer's border.
@pytest.mark.parametrize("size,method,digest", [
    ((), "average", "dfb05caee6dc77b9c083c4a752e52cb73d81d9d282e3e2cdbddf4ba06dfa2168"),
    ((), "maximum", "7aea502c7f6ee0501f1023ced12264b1d6b0d0b02af97913f48c587189947290"),
    ((), "ubf", "bde93ddf2c09f751434c2d1215e3adf8c303341e446095b9bac75224d492101b"),
    ((), "pyramid", "7e3f4f860c26d6c7dbaf5074bbfc8bf93c8264c410f90caae71863fa99c0ea86"),
    ((95, 93), "average", "640de38a56ae29140ad88f99b370e843e6c16c846d609d9c85715e5abfdd6eed"),
    ((95, 93), "maximum", "f36ad09663963bc4d19fe35a71c1d2da4e74713ab034763d11c1ce1e36ff0285"),
    ((95, 93), "ubf", "3ac7aad32cb21ff6e72a424dd877da097471ce05dd59919e7754686bb651a9bf"),
    ((95, 93), "pyramid", "206418c1e819a1f34aa69084a956a73b4fda5f916dd5c9149930a9b6ca486178"),
])
def test_compound_output_bytes_pinned(tmp_path, monkeypatch, phantom_dir, size,
                                      method, digest):
    dims = ["--width", str(size[0]), "--height", str(size[1])] if size else []
    for block_pixels in _BLOCK_SIZES:
        monkeypatch.setattr(blocks, "BLOCK_PIXELS", block_pixels)
        out = tmp_path / f"o{block_pixels}.pgm"
        assert run(["compound", "--method", method, *_view_args(phantom_dir),
                    *dims, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, block_pixels


# (dtype, shape, sha256 of the data) of each array `--dump-intermediates`
# writes for the pyramid run on the phantom_dir scene: the pyramid layers of
# the fusion, pinned.
_INTERMEDIATE_DIGESTS = {
    "blended_layer1": ("float32", (96, 96), "2381b582588e0d9447b48354714424c0a4156433b7fddc86df310ee7467aa32c"),
    "blended_layer2": ("float32", (48, 48), "2a27a5db3b2b97518b55ff9f382ffe3f55d95fed4a9a73f9555e7ca9e5940cd0"),
    "blended_layer3": ("float32", (24, 24), "0079dc60a74e185c1a360314874429f4c814001f6d3e93deebb36f9592250084"),
    "blended_layer4": ("float32", (12, 12), "adb262f30a24db886237a1981c5d13082b7d25a5181955a50e0cbd5fc4ab982f"),
    "blended_layer5": ("float32", (6, 6), "19f2f44e074f19e7860f21b30a61222d2c5b198e193e954c1c655b4b8c97a6ab"),
    "partial_layer3_post_enhance": ("float32", (24, 24), "003044f7d00c63261e31aabf4563b4ab14d5f7c4d24c1f76701d6df8d0cf6ddd"),
    "partial_layer3_pre_enhance": ("float32", (24, 24), "1783a1bf2dc0423bf8e13e18595517caf74308d40e1d260b301ecea33c59b264"),
    "selection_layer1": ("uint8", (96, 96), "b86a6c406b9238cf6fb157750cc43245c22c33248e78e42527411fe07dc364dc"),
    "selection_layer2": ("uint8", (48, 48), "a29063dde915ad2edd80e6c68d052fb97ea1c01f9afc72055a577476579aaa72"),
    "selection_layer3": ("uint8", (24, 24), "5ea11a8d2edd83f1029719571afff492b9a66e53544ffef061f094dd8c4859f6"),
    "selection_layer4": ("uint8", (12, 12), "767fc42c8a8d679e03feacdf81b4edcf5986276334c195463cef5711e89f1547"),
    "selection_layer5": ("uint8", (6, 6), "2a577c89322395179e10ef53b4b04d2aa20450676b3c830c0abf773229f75663"),
}


def test_pyramid_intermediate_bytes_pinned(tmp_path, monkeypatch, phantom_dir):
    for block_pixels in _BLOCK_SIZES:
        monkeypatch.setattr(blocks, "BLOCK_PIXELS", block_pixels)
        dump = tmp_path / f"layers{block_pixels}"
        assert run(["compound", "--method", "pyramid", *_view_args(phantom_dir),
                    "--out", str(tmp_path / "o.pgm"),
                    "--dump-intermediates", str(dump)]) == 0
        arrays = {p.stem: np.load(p) for p in dump.iterdir()}
        assert {name: (str(a.dtype), a.shape,
                       hashlib.sha256(a.tobytes()).hexdigest())
                for name, a in arrays.items()} == _INTERMEDIATE_DIGESTS, block_pixels


@pytest.mark.parametrize("option", ["--decay", "--absorption"])
def test_confidence_attenuation_is_set_by_config_only(tmp_path, phantom_dir,
                                                      option):
    image, out = f"{phantom_dir}/view0.pgm", tmp_path / "c.fmap"
    assert run(["confidence", "--image", image, "--out", str(out),
                option, "0.1"]) == 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"confidence": {"decay": 0.0, "absorption": 0.0}}))
    assert run(["confidence", "--image", image, "--out", str(out),
                "--config", str(cfg)]) == 0
    assert np.all(load_image(out).data == 1.0)
