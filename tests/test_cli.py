import hashlib
import importlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from uscompound.boundary import BoundaryParams
from uscompound.cli import run
from uscompound.compound import PyramidParams
from uscompound.confidence import (AttenuationParams,
                                   attenuation_intensity_confidence)
from uscompound.config import Config, load_config, merge_config
from uscompound.errors import SpecError
from uscompound.image import Image, load_image, save_image
from uscompound.pyramid import layer_shapes


@pytest.fixture
def phantom_dir(tmp_path):
    """Two-view phantom rendered to disk via the synth subcommand."""
    spec = {
        "width": 96, "height": 96,
        "vessel": {"cx": 48, "cy": 60, "a": 20, "b": 14,
                   "wall_thickness": 3, "wall_intensity": 0.85},
        "reflectors": [{"row": 16, "col_start": 20, "col_end": 76,
                        "intensity": 0.9,
                        "reverb": {"count": 2, "spacing": 10, "decay": 0.6}}],
        "speckle": {"scale": 0.02, "seed": 5},
        "views": [{}, {"rotation": 1.5707963267948966, "dx": 95.0}],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    outdir = tmp_path / "scene"
    assert run(["synth", "--spec", str(spec_path), "--outdir", str(outdir)]) == 0
    return outdir


def _view_args(outdir):
    return ["--view", f"{outdir}/view0.pgm:{outdir}/view0_transform.json",
            "--view", f"{outdir}/view1.pgm:{outdir}/view1_transform.json"]


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


def test_dump_intermediates(tmp_path, phantom_dir):
    plain, out = tmp_path / "plain.pgm", tmp_path / "o.pgm"
    dump = tmp_path / "layers"
    args = ["compound", "--method", "pyramid", *_view_args(phantom_dir)]
    assert run([*args, "--out", str(plain)]) == 0
    assert run([*args, "--out", str(out), "--dump-intermediates", str(dump)]) == 0
    shapes = layer_shapes(96, 96, 5)
    expected = {f"{kind}_layer{k}": shapes[k - 1]
                for kind in ("selection", "blended") for k in range(1, 6)}
    expected.update({f"partial_layer3_{when}_enhance": shapes[2]
                     for when in ("pre", "post")})
    assert sorted(p.name for p in dump.iterdir()) == sorted(
        name + ".fmap" for name in expected)
    for name, shape in expected.items():
        assert load_image(dump / f"{name}.fmap").data.shape == shape
    assert out.read_bytes() == plain.read_bytes()


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
    with pytest.raises(SpecError):
        Config({"boundary": {"alhpa": 3}})
    with pytest.raises(SpecError):
        merge_config({"a": 1}, {"b": 2})


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
                      "reverb": {"spacing": -10}}]}, "spacing must be positive"),
    ({"reflectors": [{"row": 3, "col_start": 10, "col_end": 38,
                      "reverb": {"spacing": 0}}]}, "spacing must be positive"),
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


# sha256 of the `compound` outputs for the phantom_dir scene, pinned so that
# the fusion stays byte-identical across refactors; 95 x 93 puts odd
# dimensions on every pyramid layer's border.
@pytest.mark.parametrize("size,method,digest", [
    ((), "average", "dfb05caee6dc77b9c083c4a752e52cb73d81d9d282e3e2cdbddf4ba06dfa2168"),
    ((), "maximum", "7aea502c7f6ee0501f1023ced12264b1d6b0d0b02af97913f48c587189947290"),
    ((), "ubf", "bde93ddf2c09f751434c2d1215e3adf8c303341e446095b9bac75224d492101b"),
    ((), "pyramid", "4b385c847dc7c1215acded1ef055f0aa8ee57931b275c1bebea2ed0d1a0d2df0"),
    ((95, 93), "average", "640de38a56ae29140ad88f99b370e843e6c16c846d609d9c85715e5abfdd6eed"),
    ((95, 93), "maximum", "f36ad09663963bc4d19fe35a71c1d2da4e74713ab034763d11c1ce1e36ff0285"),
    ((95, 93), "ubf", "3ac7aad32cb21ff6e72a424dd877da097471ce05dd59919e7754686bb651a9bf"),
    ((95, 93), "pyramid", "81369bd8f9164c5b0ec1f33971736f58055f2cb274f3a0cffb2894663f6bd894"),
])
def test_compound_output_bytes_pinned(tmp_path, phantom_dir, size, method,
                                      digest):
    out = tmp_path / "o.pgm"
    dims = ["--width", str(size[0]), "--height", str(size[1])] if size else []
    assert run(["compound", "--method", method, *_view_args(phantom_dir),
                *dims, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# sha256 of the intermediates `--dump-intermediates` writes for the pyramid
# run on the phantom_dir scene: the pyramid layers of the fusion, pinned.
_INTERMEDIATE_DIGESTS = {
    "blended_layer1": "03e70f1b83b0fb1e3b193c31749d07b50d66932931f1a46fdeab1e025273c786",
    "blended_layer2": "1fe07956313e3946c4d11c8841cdc2975867a8f5b14ed9c2dbba4e8c45c7d05f",
    "blended_layer3": "ff164a378a0f54395376fbaf8c9d6492dd9c29e4e753b9e332b137053a8d466f",
    "blended_layer4": "c8285e024ac79bb011baa62fe9212dcb6b46633753806ee2f079a2d65e655aed",
    "blended_layer5": "9c6f1eb1791a3a3fe271934c4bc43f0d2a774d8988a24aaa517f6905140df7b7",
    "partial_layer3_post_enhance": "7676190e9f1b4d0996d9b8b69f23394436005e936804312a8a986802dc93747e",
    "partial_layer3_pre_enhance": "c22828f154774e2aae90ac2d61fd0ad9cf04770dce87f582bc56e05390cadb0b",
    "selection_layer1": "c09c9dfccbfc7869082edaafcfd0bbd33ba831288c84a4adf8c8e8cfccf0f79b",
    "selection_layer2": "01c09123341ac6bcec801b0774b442bf15ee9bc6b528b54a4c8965dedee87708",
    "selection_layer3": "a9418e8f80bb33055a237663a4625028ae0b6f34b6cb0c4482802d273eb46830",
    "selection_layer4": "671633f80c353246fdb3017b64fb73aae09ec4c2d3378a026741742997b9f15f",
    "selection_layer5": "7c6229919be3327e8c2090bdb5cfcde531ef8fbe5a26b65641adff9194aceb54",
}


def test_pyramid_intermediate_bytes_pinned(tmp_path, phantom_dir):
    dump = tmp_path / "layers"
    assert run(["compound", "--method", "pyramid", *_view_args(phantom_dir),
                "--out", str(tmp_path / "o.pgm"),
                "--dump-intermediates", str(dump)]) == 0
    assert {p.stem: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in dump.iterdir()} == _INTERMEDIATE_DIGESTS


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
