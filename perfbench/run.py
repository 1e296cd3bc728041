"""Benchmark of the uscompound command-line pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one client, closed loop: each op is one in-process
`uscompound.cli.run([...])` invocation on files generated from the seed,
followed by the op's evaluation (decode the output, check its shape and that
it is byte-identical to the same input's earlier output, score its quality).
Scenes are generated beforehand by `perfbench/scenes.py` in a separate
process.  The last line on stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with `--trace 0`,
the per-layer metrics of `perfbench/spans.py` with `--trace 1`.

Op times in the end-to-end metrics are wall times rescaled to a host running
at nominal speed (see `perfbench/calibrate.py`); the raw wall times are
printed alongside.  Per-layer times are raw span durations.

`--workload all` runs every workload in turn.  `--smoke` shrinks every frame
to 64 px for a quick functional check.  Working files go to `.bench_run/`.
"""

from __future__ import annotations

import os

# One thread everywhere, set before numpy loads its BLAS.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import scenes  # noqa: E402
import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = Path(".bench_run")
GEN_ROUNDS = 3          # scene generation is repeated, its median reported
SMOKE_SIZE = 64
TAIL_BEYOND = 10        # samples that must lie beyond the tail percentile
OVERRUN_S = 90.0        # stop mid-cycle this long past the deadline
BASELINE = HERE / "baseline.json"


class BenchError(Exception):
    """The benchmark cannot run here (no program, bad set-up)."""


# ---------------------------------------------------------------------------
# statistics and error accounting
# ---------------------------------------------------------------------------

def tail_latency(samples, beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least `beyond`
    samples above it; with `beyond` or fewer samples, the maximum (p100)."""
    xs = sorted(samples)
    n = len(xs)
    if n <= beyond:
        return xs[-1], 100.0
    k = n - beyond - 1
    return xs[k], 100.0 * (k + 1) / n


@dataclass
class Ledger:
    """Op outcomes: failures count against ops attempted."""

    attempted: int = 0
    failed: int = 0
    reasons: dict = field(default_factory=dict)

    def record(self, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.reasons[reason] = self.reasons.get(reason, 0) + 1

    @property
    def success_rate(self) -> float:
        return (self.attempted - self.failed) / self.attempted


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def _tree_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.iterdir()):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def generate(workload: str, seed: int, outdir: Path, size: int | None):
    """Run the scene generator in its own process; (wall s, generate s,
    digest of every file written)."""
    shutil.rmtree(outdir, ignore_errors=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "scenes.py"), "--workload", workload,
           "--seed", str(seed), "--outdir", str(outdir)]
    if size:
        cmd += ["--size", str(size)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=150)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"scene generation failed:\n{proc.stderr}")
    generate_s = json.loads(proc.stdout.strip().splitlines()[-1])["generate_s"]
    return wall, generate_s, _tree_digest(outdir)


def import_program():
    """Import the package from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("uscompound")
    if Path(pkg.__file__).resolve().parent != (src / "uscompound").resolve():
        raise BenchError(f"uscompound imported from {pkg.__file__}, not {src}")
    return {name: importlib.import_module(f"uscompound.{name}")
            for name in ("cli", "metrics", "errors")}


@dataclass
class Op:
    key: str
    scene: dict
    method: str
    argv: list
    out: Path
    mpix: float


def build_ops(manifest: dict, scene_dir: Path, out_dir: Path) -> list[Op]:
    ops = []
    size = manifest["size"]
    for sc in manifest["scenes"]:
        views = sc["views"]
        for method in manifest["methods"]:
            key = f"{sc['id']}-{method}"
            out = out_dir / f"{key}.pgm"
            if method == "boundaries":
                argv = ["boundaries", "--image",
                        str(scene_dir / views[0]["image"]), "--out", str(out)]
            else:
                argv = ["compound", "--method", method]
                for v in views:
                    argv += ["--view", f"{scene_dir / v['image']}:"
                                       f"{scene_dir / v['transform']}"]
                argv += ["--out", str(out)]
            ops.append(Op(key, sc, method, argv, out,
                          len(views) * size * size / 1e6))
    return ops


def load_scene_truth(manifest: dict, scene_dir: Path, metrics_mod) -> dict:
    """Per scene: quality patches, lumen mask, native image; and the
    native-frame ground-truth boundary masks keyed by image content."""
    truth = {}
    for sc in manifest["scenes"]:
        sc["patches"] = (
            [metrics_mod.PatchSpec(*p, "artifact") for p in sc["artifact_patches"]]
            + [metrics_mod.PatchSpec(*p, "boundary") for p in sc["boundary_patches"]])
        sc["lumen"] = scenes.lumen_mask(sc["vessel"], sc["vessel_patch"])
        for v in sc["views"]:
            img = scenes.decode_pgm((scene_dir / v["image"]).read_bytes())
            gt = scenes.decode_pgm((scene_dir / v["gt_boundary"]).read_bytes())
            v["pixels"] = img.astype(np.float32) / np.float32(255.0)
            truth[spans.image_key(v["pixels"])] = (v["image"][:-4], gt == 255)
    return truth


# ---------------------------------------------------------------------------
# one op: CLI invocation plus evaluation
# ---------------------------------------------------------------------------

class Runner:
    def __init__(self, mods, size: int):
        self.cli, self.metrics = mods["cli"], mods["metrics"]
        self.degenerate = mods["errors"].DegenerateError
        self.size = size
        self.first: dict[str, str] = {}      # key -> sha256 of first output
        self.quality: dict[str, tuple] = {}  # key -> (artifact, boundary, dice)

    def __call__(self, op: Op) -> str | None:
        """Run one op; return None on success, else the failure reason."""
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                code = self.cli.run(op.argv)
        except Exception:
            print(f"{op.key}: uncaught exception\n{traceback.format_exc()}",
                  file=sys.stderr)
            return "exception"
        if code != 0:
            print(f"{op.key}: exit {code}: {err.getvalue().strip()}",
                  file=sys.stderr)
            return "exit_nonzero"
        try:
            raw = op.out.read_bytes()
        except OSError:
            return "no_output"
        digest = hashlib.sha256(raw).hexdigest()
        px = scenes.decode_pgm(raw)
        if px is None:
            return "undecodable"
        if px.shape != (self.size, self.size):
            return "wrong_shape"
        if self.first.setdefault(op.key, digest) != digest:
            return "output_changed"
        image = px.astype(np.float32) / np.float32(255.0)
        if op.method == "boundaries":
            if not np.isin(px, (0, 255)).all():
                return "not_a_mask"
            image = op.scene["views"][0]["pixels"] * (px == 255)
        try:
            self.quality[op.key] = self.score(image, op.scene)
        except self.degenerate:
            return "unscorable"
        return None

    def score(self, image: np.ndarray, scene: dict) -> tuple:
        # Module attributes are looked up per call so the traced run sees them.
        report = self.metrics.amr_avr(image, scene["patches"])
        x, y, w, h = scene["vessel_patch"]
        try:
            mask, _ = self.metrics.segment_vessel(image[y:y + h, x:x + w])
            vessel_dice = self.metrics.dice(mask, scene["lumen"])
        except self.degenerate:
            vessel_dice = 0.0
        return report.artifact_avr, report.boundary_avr, vessel_dice


def measure(ops: list[Op], runner, seconds: float, ledger: Ledger,
            reference: str, on_op=None) -> tuple[list[float], list[float]]:
    """Closed loop over whole cycles of `ops` until `seconds` have passed.

    Returns each op's wall time and that time rescaled to nominal host
    speed by the reference kernel gauged before and after the op.
    """
    clock = time.perf_counter
    latencies, nominal = [], []
    gauge = calibrate.kernel_seconds(reference)
    start = clock()
    i = 0
    while True:
        op = ops[i % len(ops)]
        if on_op:
            on_op(i, op)
        t0 = clock()
        reason = runner(op)
        latencies.append(clock() - t0)
        after = calibrate.kernel_seconds(reference)
        nominal.append(calibrate.rescale(latencies[-1], reference, gauge, after))
        gauge = after
        ledger.record(reason)
        i += 1
        elapsed = clock() - start
        if (i % len(ops) == 0 and elapsed >= seconds) or elapsed >= seconds + OVERRUN_S:
            return latencies, nominal


# ---------------------------------------------------------------------------
# a run
# ---------------------------------------------------------------------------

@dataclass
class Setup:
    ops: list[Op]
    runner: Runner
    truth: dict
    work: Path
    scene_dir: Path
    inputs_digest: str
    deterministic: bool
    warm_reason: str | None
    generate_s: float          # median time inside phantom.generate
    setup_s: float             # rescaled to nominal host speed
    setup_wall_s: float


def set_up(workload: str, seed: int, smoke: bool) -> Setup:
    """Generate the scenes GEN_ROUNDS times, import the program, warm up.

    Set-up time is the median generation round plus this process's imports,
    both in wall time (they are mostly interpreter start-up and imports,
    which the reference kernels do not track), plus one warm-up op rescaled
    to nominal host speed.
    """
    if not (ROOT / "src" / "uscompound" / "__init__.py").is_file():
        raise BenchError(f"no program at {ROOT / 'src'}")
    reference = scenes.WORKLOADS[workload]["reference"]
    work = RUN_DIR / f"{workload}-s{seed}{'-smoke' if smoke else ''}"
    scene_dir, out_dir = work / "scenes", work / "out"
    shutil.rmtree(work, ignore_errors=True)
    out_dir.mkdir(parents=True)
    import_s = time.perf_counter() - T_START   # this process's own imports

    rounds = []
    for _ in range(GEN_ROUNDS):
        wall, gen_s, digest = generate(workload, seed, scene_dir,
                                       SMOKE_SIZE if smoke else None)
        rounds.append((wall, gen_s, digest))

    t0 = time.perf_counter()
    mods = import_program()
    import_s += time.perf_counter() - t0
    manifest = json.loads((scene_dir / "manifest.json").read_text())
    truth = load_scene_truth(manifest, scene_dir, mods["metrics"])
    ops = build_ops(manifest, scene_dir, out_dir)
    runner = Runner(mods, manifest["size"])
    before = calibrate.kernel_seconds(reference)
    t0 = time.perf_counter()
    warm_reason = runner(ops[0])
    warm_s = time.perf_counter() - t0
    warm_nominal = calibrate.rescale(warm_s, reference, before,
                                     calibrate.kernel_seconds(reference))

    return Setup(
        ops=ops, runner=runner, truth=truth, work=work, scene_dir=scene_dir,
        inputs_digest=rounds[0][2],
        deterministic=all(r[2] == rounds[0][2] for r in rounds),
        warm_reason=warm_reason,
        generate_s=statistics.median(r[1] for r in rounds),
        setup_s=statistics.median(r[0] for r in rounds) + import_s + warm_nominal,
        setup_wall_s=statistics.median(r[0] for r in rounds) + import_s + warm_s)


@dataclass
class Traced:
    tracer: spans.Tracer
    methods: dict[int, str]      # op id -> compound method
    untraced: list[float]        # wall s of one untraced cycle


def run_traced(setup: Setup, workload: str, seconds: float, ledger: Ledger):
    """Measure with every layer wrapped, check the trace, then run one cycle
    untraced: its outputs must be byte-identical to the traced ones."""
    tracer = spans.Tracer(setup.truth)
    methods = {}

    def on_op(i, op):
        tracer.op = i
        methods[i] = op.method

    tracer.install()
    try:
        latencies, nominal = measure(
            setup.ops, tracer.wrap("bench.op", setup.runner), seconds, ledger,
            scenes.WORKLOADS[workload]["reference"], on_op)
    finally:
        tracer.uninstall()
    tracer.check(workload)
    plain = Ledger()
    untraced = []
    for op in setup.ops:
        t0 = time.perf_counter()
        plain.record(setup.runner(op))
        untraced.append(time.perf_counter() - t0)
    return latencies, nominal, Traced(tracer, methods, untraced), plain.failed == 0


def layer_metrics(traced: Traced, setup: Setup, ledger: Ledger,
                  latencies: list[float]) -> dict[str, float]:
    tracer = traced.tracer
    metrics = tracer.layer_metrics(len(latencies))
    metrics["cli.exit_nonzero"] = (ledger.reasons.get("exit_nonzero", 0)
                                   / len(latencies))
    metrics["phantom.generate_s"] = setup.generate_s
    metrics["trace.overhead_s"] = (statistics.median(latencies)
                                   - statistics.median(traced.untraced))
    calls: dict[str, list[int]] = {}
    for method in traced.methods.values():
        calls.setdefault(method, [0, 0])[1] += 1
    for rec in tracer.spans:
        if rec[0] == "boundary.detect" and rec[4] in traced.methods:
            calls[traced.methods[rec[4]]][0] += 1
    print("boundary.detect calls per op: " + ", ".join(
        f"{m} {c / n:g}" for m, (c, n) in sorted(calls.items())))
    print("boundary.recall per view: " + ", ".join(
        f"{k} {v:.3f}" for k, v in sorted(tracer.recall_by_view().items())))
    tracer.dump(str(setup.work / "trace.jsonl"))
    return metrics


def end_to_end_metrics(setup: Setup, ledger: Ledger, latencies: list[float],
                       nominal: list[float], runner: Runner) -> dict[str, float]:
    tail, tail_pct = tail_latency(nominal)
    print(f"latency_tail_s is p{tail_pct:.1f} of {len(nominal)} samples")
    print(f"wall clock: latency p50 {statistics.median(latencies):.4f} s, "
          f"set-up {setup.setup_wall_s:.3f} s; host speed p50 "
          f"{statistics.median(n / w for n, w in zip(nominal, latencies)):.3f}"
          f" of nominal")
    q = np.array([runner.quality[k] for k in sorted(runner.quality)]
                 or [(0.0, 0.0, 0.0)])
    return {
        "latency_p50_s": statistics.median(nominal),
        "latency_tail_s": tail,
        "throughput_mpix_s": (sum(o.mpix for o in _cycle(setup.ops, len(nominal)))
                              / sum(nominal)),
        "setup_s": setup.setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_rate": ledger.success_rate,
        "artifact_avr": float(q[:, 0].mean()),
        "boundary_avr": float(q[:, 1].mean()),
        "vessel_dice": float(q[:, 2].mean()),
    }


def combined_digest(first: dict[str, str]) -> str:
    return hashlib.sha256("\n".join(f"{k} {first[k]}" for k in sorted(first))
                          .encode()).hexdigest()


def digest_status(workload: str, seed: int, digest: str, smoke: bool) -> str:
    if smoke or not BASELINE.is_file():
        return "not recorded"
    recorded = json.loads(BASELINE.read_text()).get("digests", {})
    want = recorded.get(workload, {}).get(str(seed))
    if want is None:
        return "not recorded"
    return "match" if want == digest else "mismatch"


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> dict:
    setup = set_up(workload, seed, smoke)
    ops, runner = setup.ops, setup.runner
    ledger = Ledger()
    if trace:
        latencies, nominal, traced, identical = run_traced(setup, workload,
                                                           seconds, ledger)
    else:
        latencies, nominal = measure(ops, runner, seconds, ledger,
                                     scenes.WORKLOADS[workload]["reference"])
        identical = True
    unchanged = _tree_digest(setup.scene_dir) == setup.inputs_digest
    correct = (ledger.failed == 0 and setup.warm_reason is None
               and setup.deterministic and unchanged and identical)

    digest = combined_digest(runner.first)
    print(f"workload {workload} seed {seed}: {ledger.attempted} ops "
          f"({len(ops)} inputs per cycle), {ledger.failed} failed "
          f"{ledger.reasons or ''}")
    print(f"checks: generation deterministic={setup.deterministic}, "
          f"inputs unchanged={unchanged}, traced==untraced={identical}")
    by_key: dict[str, list[float]] = {}
    for op, lat in zip(_cycle(ops, len(latencies)), latencies):
        by_key.setdefault(op.key, []).append(lat)
    print("wall latency p50 by input: " + ", ".join(
        f"{k} {statistics.median(v):.4f}" for k, v in by_key.items()))
    print(f"output digest {digest}: "
          f"{digest_status(workload, seed, digest, smoke)} against "
          f"{BASELINE.relative_to(ROOT)}")

    if trace:
        metrics = layer_metrics(traced, setup, ledger, latencies)
        kind = "per_layer"
    else:
        metrics = end_to_end_metrics(setup, ledger, latencies, nominal, runner)
        kind = "end_to_end"
    units = {m["name"]: m["unit"] for m in _spec()[kind]}
    for name, value in metrics.items():
        print(f"  {name:<30} {value:.6g} {units[name]}")
    return {"correct": bool(correct), "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": {k: {"value": float(v), "unit": units[k]}
                        for k, v in metrics.items()}}


def _cycle(ops, n):
    return (ops[i % len(ops)] for i in range(n))


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_all(seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Every workload, each in its own process; metrics prefixed by workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in scenes.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(int(trace))] + (["--smoke"] if smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{workload} exited {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = m
    return merged


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(scenes.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help=f"{SMOKE_SIZE}-px frames, for a quick check")
    args = p.parse_args(argv)
    os.chdir(ROOT)
    try:
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, bool(args.trace), args.smoke)
        else:
            result = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace), args.smoke)
    except (BenchError, spans.TraceError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
