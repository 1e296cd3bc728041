"""Command-line interface.

Subcommands: confidence, boundaries, compound, metrics, segment, synth.
Exit codes: 0 success, 1 usage error, 2 data/format error, 3 algorithmic
degenerate case (e.g. ellipse-fit failure).  The compounding path is fully
deterministic; phantom generation randomness is controlled by --seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .boundary import detect_boundaries
from .compound import METHODS, compound as compound_views, prepare_views
from .config import Config, load_config, read_json
from .confidence import attenuation_intensity_confidence
from .errors import DegenerateError, SpecError, UscompoundError
from .image import (Image, RigidTransform2D, ViewInput, load_image, load_mask,
                    save_image, save_mask, warp_to_common)
from .metrics import PatchSpec, amr_avr, dice, extract_patch, segment_vessel
from .phantom import PhantomSpec, SpeckleSpec, generate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_DEGENERATE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _parse_view(spec: str) -> ViewInput:
    """img.pgm:transform.json[:gc.fmap[:gs.fmap]]"""
    parts = spec.split(":")
    if not 2 <= len(parts) <= 4:
        raise SpecError(f"bad --view spec {spec!r}")
    image = load_image(parts[0])
    transform = RigidTransform2D.from_dict(read_json(parts[1]))
    gc = load_image(parts[2]).data if len(parts) > 2 and parts[2] else None
    gs = load_image(parts[3]).data if len(parts) > 3 and parts[3] else None
    return ViewInput(image, transform, intensity_confidence=gc,
                     structural_confidence=gs)


def _config_from_args(args) -> Config:
    return load_config(args.config) if getattr(args, "config", None) else Config()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_confidence(args) -> int:
    cfg = _config_from_args(args)
    image = load_image(args.image)
    if args.kind == "intensity":
        cmap = attenuation_intensity_confidence(image, cfg.attenuation_params())
    else:
        cmap = np.ones_like(image.data)
    save_image(Image(cmap), args.out)
    return EXIT_OK


def _cmd_boundaries(args) -> int:
    cfg = _config_from_args(args)
    image = load_image(args.image)
    mask = detect_boundaries(image.data, cfg.boundary_params())
    save_mask(mask, args.out)
    return EXIT_OK


def _cmd_compound(args) -> int:
    cfg = _config_from_args(args)
    views = [_parse_view(v) for v in args.view]
    if len(views) < 2:
        raise SpecError("compound needs at least two --view inputs")
    width = args.width if args.width is not None else views[0].image.width
    height = args.height if args.height is not None else views[0].image.height
    params = cfg.pyramid_params()
    if args.method in ("ubf", "pyramid"):
        warped = prepare_views(views, width, height,
                               boundary_params=cfg.boundary_params(),
                               attenuation_params=cfg.attenuation_params())
    else:
        warped = [warp_to_common(v, width, height) for v in views]
    del views  # the native frames are not read again

    sink = None
    if args.dump_intermediates:
        def sink(name, array):
            os.makedirs(args.dump_intermediates, exist_ok=True)
            np.save(os.path.join(args.dump_intermediates, name + ".npy"), array)

    print(json.dumps({"method": args.method, "effective_config":
                      json.loads(cfg.dump())}), file=sys.stderr)
    out = compound_views(warped, args.method, params, sink)
    save_image(Image(out), args.out)
    return EXIT_OK


def _cmd_metrics(args) -> int:
    image = load_image(args.image).data
    patch_list = read_json(args.patches)
    if not isinstance(patch_list, list):
        raise SpecError(f"{args.patches}: expected a JSON list of patches")
    patches = [PatchSpec.from_dict(p) for p in patch_list]
    report = amr_avr(image, patches)
    payload = json.dumps(report.to_dict(), indent=2)
    if args.out:
        with open(args.out, "w") as f:
            f.write(payload + "\n")
    print(payload)
    rows = [(k, v) for k, v in report.to_dict().items() if v is not None]
    width = max((len(k) for k, _ in rows), default=0)
    for k, v in rows:
        print(f"{k:<{width}}  {v}", file=sys.stderr)
    return EXIT_OK


def _parse_patch(text: str) -> PatchSpec:
    try:
        x, y, w, h = (int(p) for p in text.split(","))
    except ValueError:
        raise SpecError(f"bad --patch {text!r} (expected x,y,w,h)") from None
    # The vessel lies in a boundary region; the label is not read here.
    return PatchSpec(x, y, w, h, "boundary")


def _cmd_segment(args) -> int:
    image = load_image(args.image).data
    patch = extract_patch(image, _parse_patch(args.patch))
    mask, ellipse = segment_vessel(patch)
    if args.out:
        save_mask(mask, args.out)
    result = {"ellipse": ellipse.__dict__, "pixels": int(mask.sum())}
    if args.truth:
        result["dice"] = dice(mask, load_mask(args.truth))
    print(json.dumps(result, indent=2))
    return EXIT_OK


def _cmd_synth(args) -> int:
    spec = PhantomSpec.from_dict(read_json(args.spec))
    if args.seed is not None:
        spec = replace(spec, speckle=replace(spec.speckle or SpeckleSpec(),
                                             seed=args.seed))
    scene = generate(spec)
    os.makedirs(args.outdir, exist_ok=True)
    for i, view in enumerate(scene.views):
        save_image(view.image, os.path.join(args.outdir, f"view{i}.pgm"))
        save_mask(view.boundary_mask,
                  os.path.join(args.outdir, f"view{i}_boundary.pgm"))
        save_mask(view.artifact_mask,
                  os.path.join(args.outdir, f"view{i}_artifact.pgm"))
        with open(os.path.join(args.outdir, f"view{i}_transform.json"), "w") as f:
            json.dump(view.to_common.to_dict(), f)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="uscompound",
                     description="Multi-view ultrasound compounding toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("confidence", help="write a confidence map")
    p.add_argument("--image", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--kind", choices=["intensity", "structural"],
                   default="intensity")
    p.add_argument("--config")
    p.set_defaults(func=_cmd_confidence)

    p = sub.add_parser("boundaries", help="detect anatomic boundaries")
    p.add_argument("--image", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.set_defaults(func=_cmd_boundaries)

    p = sub.add_parser("compound", help="fuse views into one image")
    p.add_argument("--method", choices=list(METHODS), required=True)
    p.add_argument("--view", action="append", required=True,
                   metavar="IMG:TRANSFORM[:GC[:GS]]")
    p.add_argument("--out", required=True)
    p.add_argument("--width", type=int)
    p.add_argument("--height", type=int)
    p.add_argument("--config")
    p.add_argument("--dump-intermediates", metavar="DIR", help="pyramid "
                   "only: write each intermediate to DIR/<name>.npy as computed")
    p.set_defaults(func=_cmd_compound)

    p = sub.add_parser("metrics", help="patch mean/variance ratio report")
    p.add_argument("--image", required=True)
    p.add_argument("--patches", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("segment", help="Otsu + ellipse vessel segmentation")
    p.add_argument("--image", required=True)
    p.add_argument("--patch", required=True, metavar="X,Y,W,H")
    p.add_argument("--out")
    p.add_argument("--truth")
    p.set_defaults(func=_cmd_segment)

    p = sub.add_parser("synth", help="generate a synthetic phantom scene")
    p.add_argument("--spec", required=True)
    p.add_argument("--outdir", required=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_synth)

    return parser


@functools.cache
def _parser() -> _Parser:
    """`build_parser()`, built on first use and reused by every `run`:
    argparse keeps no state between `parse_args` calls, and each subcommand
    looks up the module's functions when it runs."""
    return build_parser()


def run(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except DegenerateError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (UscompoundError, OSError, KeyError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
