"""Outside-in tracing of the program's layers for the benchmark's traced run.

`Tracer.install()` replaces each public function listed in `TARGETS` by a
wrapper that records a span, at every place the package binds it: modules
that did `from .x import f` hold their own reference, so every module of
the package is scanned for the original function object.  Nothing inside
the program is changed on disk, and `uninstall()` restores the originals.

A span is (name, start, end, parent span, op id, counts).  Spans stay in
memory and are written out by `dump()` when the run ends.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import os
import sys
import time

import numpy as np

# (module, function, span name).  A span's layer is the text before the dot.
TARGETS = [
    ("uscompound.cli", "run", "cli.run"),
    ("uscompound.image", "load_image", "image.load"),
    ("uscompound.image", "save_image", "image.save"),
    ("uscompound.image", "warp_array", "image.warp"),
    ("uscompound.image", "warp_to_common", "image.warp_view"),
    ("uscompound.confidence", "attenuation_intensity_confidence",
     "confidence.attenuation"),
    ("uscompound.boundary", "detect_boundaries", "boundary.detect"),
    ("uscompound.boundary", "vertical_gradient", "boundary.gradient"),
    ("uscompound.boundary", "extract_clusters", "boundary.cluster"),
    ("uscompound.boundary", "filter_clusters", "boundary.filter"),
    ("uscompound.boundary", "refine_boundaries", "boundary.refine"),
    ("uscompound.pyramid", "gaussian_pyramid", "pyramid.gaussian"),
    ("uscompound.pyramid", "laplacian_pyramid", "pyramid.laplacian"),
    ("uscompound.pyramid", "upsample", "pyramid.upsample"),
    ("uscompound.compound", "prepare_views", "compound.prepare"),
    ("uscompound.compound", "compound", "compound.fuse"),
    ("uscompound.compound", "select_view_layer", "compound.select"),
    ("uscompound.compound", "weighted_average_layer", "compound.average"),
    ("uscompound.compound", "enhance_boundaries", "compound.enhance"),
    ("uscompound.metrics", "amr_avr", "metrics.amr_avr"),
    ("uscompound.metrics", "segment_vessel", "metrics.segment"),
    ("uscompound.metrics", "dice", "metrics.dice"),
]

# Layers that must record at least one span on each workload.
EXPECTED_LAYERS = {
    "pyramid-512x2": {"cli", "image", "confidence", "boundary", "pyramid",
                "compound", "metrics"},
    "baselines-512x2": {"cli", "image", "confidence", "boundary", "compound",
                        "metrics"},
    "boundaries-flood-512": {"cli", "image", "boundary", "metrics"},
}


class TraceError(RuntimeError):
    """The traced run's own consistency checks failed."""


def image_key(a) -> str:
    return hashlib.sha1(np.ascontiguousarray(a, np.float32).tobytes()).hexdigest()


class Tracer:
    def __init__(self, truth: dict[str, tuple] | None = None):
        # truth: image_key(native image) -> (view label, ground-truth mask)
        self.truth = truth or {}
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int | None = None
        self._patched: list[tuple[object, str, object]] = []

    # -- counts recorded after a span has ended (outside its timed region) --

    def _counts(self, name, args, result) -> dict:
        if name == "image.warp":
            out_w, out_h = args[2], args[3]
            return {"mpix": out_w * out_h / 1e6,
                    "valid_px": int(np.count_nonzero(result[1])),
                    "px": out_w * out_h}
        if name == "image.load":
            return {"bytes": os.path.getsize(args[0])}
        if name == "image.save":
            return {"bytes": os.path.getsize(args[1])}
        if name == "boundary.cluster" or name == "boundary.filter":
            return {"n": len(result)}
        if name == "boundary.refine":
            return {"grown_px": int(np.count_nonzero(result))}
        if name == "boundary.detect":
            label, gt = self.truth.get(image_key(args[0]), (None, None))
            if gt is None:
                return {}
            return {"gt_px": int(gt.sum()),
                    "hit_px": int(np.count_nonzero(result & gt)),
                    "view": label}
        if name == "pyramid.gaussian":
            return {"mpix": np.asarray(args[0]).size / 1e6}
        return {}

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            rec[5] = self._counts(name, args, result)
            return result

        wrapper.__wrapped_original__ = fn
        return wrapper

    def install(self) -> None:
        """Patch every binding of every target; fail if any is left over."""
        for modname, attr, name in TARGETS:
            original = getattr(importlib.import_module(modname), attr)
            wrapper = self.wrap(name, original)
            sites = 0
            for mod in _package_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)
                        sites += 1
            if sites == 0:
                raise TraceError(f"{modname}.{attr} has no binding to patch")
        originals = {id(o) for _, _, o in self._patched}
        for mod in _package_modules():
            for key, value in vars(mod).items():
                if id(value) in originals:
                    raise TraceError(f"{mod.__name__}.{key} escaped patching")

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    # -- checks and summaries -------------------------------------------------

    def check(self, workload: str) -> None:
        """Fail loudly on a missing layer or a child outlasting its parent."""
        seen = {rec[0].split(".")[0] for rec in self.spans}
        missing = EXPECTED_LAYERS[workload] - seen
        if missing:
            raise TraceError(f"no spans recorded for layers {sorted(missing)}")
        for rec in self.spans:
            if rec[3] is not None:
                parent = self.spans[rec[3]]
                if rec[1] < parent[1] or rec[2] > parent[2]:
                    raise TraceError(f"span {rec[0]} outlasts its parent "
                                     f"{parent[0]}")

    def self_time(self, name: str) -> float:
        """Total duration of `name` spans minus what their children cover."""
        total = {i: r[2] - r[1] for i, r in enumerate(self.spans) if r[0] == name}
        for rec in self.spans:
            if rec[3] in total:
                total[rec[3]] -= rec[2] - rec[1]
        return sum(total.values())

    def recall_by_view(self) -> dict[str, float]:
        """boundary.recall of each native view that has ground truth."""
        out = {}
        for name, _, _, _, _, c in self.spans:
            if name == "boundary.detect" and c and "view" in c:
                out[c["view"]] = c["hit_px"] / c["gt_px"] if c["gt_px"] else 0.0
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            for i, (name, start, end, parent, op, counts) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": start,
                                    "end": end, "parent": parent, "op": op,
                                    "counts": counts}) + "\n")

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-layer metrics, each a total over the measured ops divided by
        the number of ops (so counts are per op)."""
        dur: dict[str, float] = {}
        calls: dict[str, int] = {}
        counts: dict[str, dict[str, float]] = {}
        for name, start, end, _, _, c in self.spans:
            dur[name] = dur.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
            acc = counts.setdefault(name, {})
            for k, v in (c or {}).items():
                if not isinstance(v, str):
                    acc[k] = acc.get(k, 0) + v

        def d(name):
            return dur.get(name, 0.0) / ops

        def n(name):
            return calls.get(name, 0) / ops

        def c(name, key):
            return counts.get(name, {}).get(key, 0) / ops

        def ratio(name, num, den):
            acc = counts.get(name, {})
            return acc.get(num, 0) / acc[den] if acc.get(den) else 0.0

        return {
            "image.warp_s": d("image.warp"),
            "image.warp_calls": n("image.warp"),
            "image.warp_mpix": c("image.warp", "mpix"),
            "image.valid_frac": ratio("image.warp", "valid_px", "px"),
            "image.load_s": d("image.load"),
            "image.save_s": d("image.save"),
            "image.bytes_io": c("image.load", "bytes") + c("image.save", "bytes"),
            "cli.self_s": self.self_time("cli.run") / ops,
            "confidence.attenuation_s": d("confidence.attenuation"),
            "confidence.attenuation_calls": n("confidence.attenuation"),
            "boundary.detect_calls": n("boundary.detect"),
            "boundary.gradient_s": d("boundary.gradient"),
            "boundary.cluster_s": d("boundary.cluster"),
            "boundary.filter_s": d("boundary.filter"),
            "boundary.refine_s": d("boundary.refine"),
            "boundary.grown_px": c("boundary.refine", "grown_px"),
            "boundary.clusters": c("boundary.cluster", "n"),
            "boundary.kept": c("boundary.filter", "n"),
            "boundary.recall": ratio("boundary.detect", "hit_px", "gt_px"),
            "pyramid.gaussian_s": d("pyramid.gaussian"),
            "pyramid.gaussian_calls": n("pyramid.gaussian"),
            "pyramid.mpix_in": c("pyramid.gaussian", "mpix"),
            "pyramid.laplacian_s": d("pyramid.laplacian"),
            "pyramid.upsample_s": d("pyramid.upsample"),
            "pyramid.upsample_calls": n("pyramid.upsample"),
            "compound.prepare_s": d("compound.prepare"),
            "compound.fuse_s": d("compound.fuse"),
            "compound.select_s": d("compound.select"),
            "compound.average_s": d("compound.average"),
            "compound.enhance_s": d("compound.enhance"),
            "compound.fuse_self_s": self.self_time("compound.fuse") / ops,
            "metrics.eval_s": (d("metrics.amr_avr") + d("metrics.segment")
                               + d("metrics.dice")),
        }


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "uscompound"
                                  or name.startswith("uscompound."))]
