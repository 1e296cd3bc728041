"""Seeded benchmark scenes: inputs on disk plus the ground truth to score them.

Run as its own process, so that scene generation never sets the peak memory
of the process that runs the timed operations:

    python3 perfbench/scenes.py --workload pyramid-512x2 --seed 0 --outdir DIR

It writes, per scene, the views as PGM files, their transforms as JSON, the
native-frame ground-truth boundary masks as PGM, and one `manifest.json` that
holds the quality patches (derived from the phantom's ground truth in the
common frame).  The last line on stdout is a JSON object with the time spent
inside `phantom.generate`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import time
from dataclasses import replace

import numpy as np
from scipy import ndimage

# Geometry below is the 192-px two-view test phantom scaled to the frame
# size; echo spacing and thickness stay in absolute pixels so the echo
# train keeps the spacing the detector's look-ahead and beta assume.
BASE_SIZE = 192
PATCH_PAD = 4            # px of context around each ground-truth component
MIN_COMPONENT_PX = 20    # smaller ground-truth fragments get no patch

# "reference" names the host-speed kernel of perfbench/calibrate.py that
# tracks the workload's dominant work: array passes, or interpreted loops
# (region growing floods the frame pixel by pixel).
WORKLOADS = {
    "pyramid-512x2": {"kind": "compound", "size": 512, "scenes": 2,
                      "methods": ("pyramid",), "reference": "numpy"},
    "baselines-512x2": {"kind": "compound", "size": 512, "scenes": 2,
                        "methods": ("average", "maximum", "ubf"),
                        "reference": "numpy"},
    "boundaries-flood-512": {"kind": "boundaries", "size": 512, "scenes": 4,
                             "methods": ("boundaries",), "reference": "python"},
}


# ---------------------------------------------------------------------------
# PGM, written and read by the benchmark itself so that inputs do not depend
# on the program under test and outputs are decoded independently of it.
# ---------------------------------------------------------------------------

def quantize(a: np.ndarray) -> np.ndarray:
    return np.floor(np.asarray(a, np.float64) * 255.0 + 0.5).astype(np.uint8)


_PGM_HEADER = re.compile(rb"P5\s(\d+)\s(\d+)\s255\s")


def write_pgm(path: str, a: np.ndarray) -> None:
    q = quantize(a)
    with open(path, "wb") as f:
        f.write(f"P5\n{q.shape[1]} {q.shape[0]}\n255\n".encode())
        f.write(q.tobytes())


def decode_pgm(data: bytes) -> np.ndarray | None:
    """uint8 pixels of a binary maxval-255 PGM without comments, else None."""
    m = _PGM_HEADER.match(data)
    if m is None:
        return None
    w, h = int(m.group(1)), int(m.group(2))
    if w == 0 or h == 0 or len(data) - m.end() != w * h:
        return None
    return np.frombuffer(data, np.uint8, offset=m.end()).reshape(h, w)


# ---------------------------------------------------------------------------
# Scene specifications
# ---------------------------------------------------------------------------

def view_transforms(size: int):
    """Head-on view plus a side view rotated 90 degrees."""
    from uscompound.image import RigidTransform2D
    return (RigidTransform2D(),
            RigidTransform2D(rotation=math.radians(90), dx=size - 1, dy=0))


def compound_spec(size: int, speckle_seed: int):
    """Vessel plus a reverberating, shadowing reflector, with speckle."""
    from uscompound.phantom import (PhantomSpec, ReflectorSpec, ReverbSpec,
                                    SpeckleSpec, VesselSpec)
    s = size / BASE_SIZE
    return PhantomSpec(
        width=size, height=size,
        vessel=VesselSpec(cx=size / 2, cy=130 * s, a=40 * s, b=28 * s,
                          wall_thickness=4 * s, wall_intensity=0.85),
        reflectors=(ReflectorSpec(row=40 * s, col_start=40 * s,
                                  col_end=size - 42 * s, intensity=0.9,
                                  thickness=3, reverb=ReverbSpec(3, 15, 0.6),
                                  shadow=0.7),),
        speckle=SpeckleSpec(scale=0.02, seed=speckle_seed),
        views=view_transforms(size))


def flood_spec(size: int):
    """Speckle-free structures for the flood scenes; tissue is added later."""
    spec = compound_spec(size, 0)
    refl = replace(spec.reflectors[0], shadow=1.0, reverb=replace(
        spec.reflectors[0].reverb, count=2, decay=0.7))
    return replace(spec, reflectors=(refl,), speckle=None, views=spec.views[:1])


def tissue_field(size: int, rng: np.random.Generator) -> np.ndarray:
    """Bright, smooth tissue: level above t1 and neighbour steps below t2
    (30 and 2 in 8-bit units at the default boundary parameters)."""
    y, x = np.mgrid[0:size, 0:size].astype(np.float64)
    px, py = rng.uniform(0.0, 1.0, 2)
    return (0.3 + 0.004 * np.sin(2 * math.pi * (x / 160 + px))
            + 0.004 * np.sin(2 * math.pi * (y / 208 + py)))


# ---------------------------------------------------------------------------
# Ground truth in the common frame
# ---------------------------------------------------------------------------

def to_common(mask: np.ndarray, transform, width: int, height: int) -> np.ndarray:
    """Nearest-neighbour resampling of a native-frame mask into the common
    frame (independent of the program's own warp)."""
    qy, qx = np.mgrid[0:height, 0:width].astype(np.float64)
    px, py = transform.inverse_apply(qx, qy)
    ix, iy = np.rint(px).astype(np.intp), np.rint(py).astype(np.intp)
    h, w = mask.shape
    inside = (ix >= 0) & (ix < w) & (iy >= 0) & (iy < h)
    out = np.zeros((height, width), dtype=bool)
    out[inside] = mask[iy[inside], ix[inside]]
    return out


def component_patches(mask: np.ndarray, pad: int = PATCH_PAD,
                      min_px: int = MIN_COMPONENT_PX) -> list[list[int]]:
    """[x, y, w, h] of the padded bounding box of each 8-connected component
    with at least `min_px` pixels, clipped to the frame, in label order."""
    labels, n = ndimage.label(mask, structure=np.ones((3, 3), int))
    sizes = np.bincount(labels.ravel(), minlength=n + 1)
    h, w = mask.shape
    out = []
    for idx, sl in enumerate(ndimage.find_objects(labels), start=1):
        if sl is None or sizes[idx] < min_px:
            continue
        y0, x0 = max(sl[0].start - pad, 0), max(sl[1].start - pad, 0)
        y1, x1 = min(sl[0].stop + pad, h), min(sl[1].stop + pad, w)
        out.append([int(x0), int(y0), int(x1 - x0), int(y1 - y0)])
    return out


def lumen_mask(vessel: dict, patch: list[int]) -> np.ndarray:
    """Ground-truth lumen inside `patch`: the ellipse through the wall's
    centre line, sampled at pixel centres of the common frame."""
    x, y, w, h = patch
    yy, xx = np.mgrid[y:y + h, x:x + w].astype(np.float64)
    c, s = math.cos(vessel["rotation"]), math.sin(vessel["rotation"])
    dx, dy = xx - vessel["cx"], yy - vessel["cy"]
    u, v = c * dx + s * dy, -s * dx + c * dy
    return (u / vessel["a"]) ** 2 + (v / vessel["b"]) ** 2 <= 1.0


def ground_truth(spec, scene, generate) -> dict:
    """Quality patches from the phantom's own ground truth, common frame."""
    from uscompound.image import RigidTransform2D
    w, h = spec.width, spec.height
    ident = (RigidTransform2D(),)
    echoes = np.zeros((h, w), dtype=bool)
    for v in scene.views:
        echoes |= to_common(v.artifact_mask, v.to_common, w, h)
    reflectors = generate(replace(spec, vessel=None, speckle=None,
                                  views=ident)).views[0].boundary_mask
    wall = generate(replace(spec, reflectors=(), speckle=None,
                            views=ident)).views[0].boundary_mask
    vessel_patch = component_patches(wall)[0]
    return {
        "artifact_patches": component_patches(echoes),
        "boundary_patches": component_patches(reflectors) + [vessel_patch],
        "vessel_patch": vessel_patch,
        "vessel": {"cx": spec.vessel.cx, "cy": spec.vessel.cy,
                   "a": spec.vessel.a, "b": spec.vessel.b,
                   "rotation": spec.vessel.rotation},
    }


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

def scene_seed(seed: int, index: int) -> int:
    return seed * 1009 + index + 1


def generate_scenes(workload: str, seed: int, outdir: str,
                    size: int | None = None) -> dict:
    """Write every scene of `workload` for `seed` under `outdir`; return the
    manifest (also written as manifest.json)."""
    from uscompound import phantom
    cfg = WORKLOADS[workload]
    size = size or cfg["size"]
    generate_s = 0.0

    def generate(spec):
        nonlocal generate_s
        t0 = time.perf_counter()
        result = phantom.generate(spec)
        generate_s += time.perf_counter() - t0
        return result

    os.makedirs(outdir, exist_ok=True)
    scenes = []
    for i in range(cfg["scenes"]):
        sid = f"scene{i}"
        if cfg["kind"] == "boundaries":
            spec = flood_spec(size)
            scene = generate(spec)
            tissue = tissue_field(size, np.random.default_rng(scene_seed(seed, i)))
            images = [np.maximum(scene.views[0].image.data, tissue)]
        else:
            spec = compound_spec(size, scene_seed(seed, i))
            scene = generate(spec)
            images = [v.image.data for v in scene.views]
        entry = {"id": sid, "views": []}
        for j, (v, img) in enumerate(zip(scene.views, images)):
            stem = f"{sid}_view{j}"
            write_pgm(os.path.join(outdir, stem + ".pgm"), np.clip(img, 0, 1))
            write_pgm(os.path.join(outdir, stem + "_gt.pgm"), v.boundary_mask)
            with open(os.path.join(outdir, stem + ".json"), "w") as f:
                json.dump(v.to_common.to_dict(), f)
            entry["views"].append({"image": stem + ".pgm",
                                   "transform": stem + ".json",
                                   "gt_boundary": stem + "_gt.pgm"})
        entry.update(ground_truth(spec, scene, generate))
        scenes.append(entry)
    manifest = {"workload": workload, "seed": seed, "size": size,
                "methods": list(cfg["methods"]), "scenes": scenes}
    with open(os.path.join(outdir, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=1)
    manifest["generate_s"] = generate_s
    return manifest


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--outdir", required=True)
    p.add_argument("--size", type=int)
    args = p.parse_args(argv)
    manifest = generate_scenes(args.workload, args.seed, args.outdir, args.size)
    print(json.dumps({"generate_s": manifest["generate_s"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
