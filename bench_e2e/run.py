#!/usr/bin/env python3
"""End-to-end benchmark of the bicam CLI, run in process through cli.main.

    python3 bench_e2e/run.py --workload attribute-56 --seed 0 --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src/``. The
workload's inputs come from ``--seed`` alone: stripe images from
``toytrain.make_pattern_dataset`` written as PPM, and a model written by
``bicam init-model --seed``. Each workload is a closed loop with one
client: the next CLI call starts when the previous one returns.

Workloads ("56" = 56x56 px, patch 4, 6 layers, 4 heads, d=32, ffn=64,
10 classes; "16" = 16x16 px, patch 4, 4 layers, 2 heads, d=16, ffn=32,
2 classes):

* attribute-56 -- one ``bicam attribute`` per image. Weight loading,
  netpbm IO, a class-pick forward, a capture forward, one backward and map
  building: the latency a user waits for on a single image.
* attack-56 -- ``bicam attack --method pgd --steps 10 --jobs 2`` over
  directories of 2 images, one per pool thread. Backward passes to the
  input dominate; the only workload that drives the CLI thread pool.
* faith-16 -- ``bicam eval-faith --seeds 5`` over directories of 1
  image: 206 inference forwards and 1 backward per image on tiny tensors,
  so Python and tape overhead dominate and kernel arithmetic barely
  matters.

The timings of ``--trace 0`` are given at a reference host speed, because
the shared host this benchmark was tuned on runs the same code at two
speeds about 1.5x apart, switching every few seconds (see
calibration.py). A fixed set of numpy-only kernels (``calibrate``, about
12 ms) runs before and after every call, and each call's wall time is
scaled by ``calibration.REF_S`` over the geometric mean of the two
calibrations around it. Each set-up process calibrates itself right after
its set-up and is scaled the same way. A faster program still reads
faster by the same factor; the raw wall-clock figures are printed in the
``details`` line. Directories are small so that a call is short against
a phase of host speed.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` makes every
call twice, untraced and then with the wrappers of ``tracing.py``
installed, and reports per-layer metrics from the traced calls.
Every output is checked; the last line of stdout is one JSON object, and
the exit code is 1 when a check failed. BLAS is pinned to one thread so
that jobs x BLAS threads fits the 2-core machine the benchmark was tuned
on; every result records nproc and the BLAS setting.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".bench_work"
REFERENCE_FILE = BENCH_DIR / "reference.json"

if not (SRC / "bicam" / "cli.py").is_file():
    sys.exit(f"error: no bicam sources under {SRC}; run from a repository checkout")
sys.path[:0] = [str(SRC), str(BENCH_DIR)]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from bicam import cli, counters, kernels, netpbm, weightfile  # noqa: E402
from bicam.detection import pnr  # noqa: E402
from bicam.toytrain import make_pattern_dataset  # noqa: E402
from bicam.vit import ViTConfig  # noqa: E402

import tracing  # noqa: E402
from calibration import REF_S, calibrate  # noqa: E402

CONFIG_56 = dict(image_size=56, patch_size=4, layers=6, heads=4,
                 embed_dim=32, ffn_dim=64, classes=10)
CONFIG_16 = dict(image_size=16, patch_size=4, layers=4, heads=2,
                 embed_dim=16, ffn_dim=32, classes=2)
SETUP_REPEATS = 7
# stated tolerances for the seed-0 reference comparison: patch scores
# relative to the largest reference magnitude, curves absolute
PATCH_RTOL = 1e-7
CURVE_ATOL = 1e-9
PNR_RTOL = 1e-12
PIXEL_TOL = 1e-9
EPSILON = 8.0 / 255.0

SETUP_SNIPPET = """\
import sys, time
t0 = time.perf_counter()
import bicam.cli
from bicam import weightfile
weightfile.load_model(sys.argv[1])
dt = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
from calibration import calibrate
calibrate()
print(dt, sorted(calibrate() for _ in range(3))[1])
"""


def vit_config(c: dict) -> ViTConfig:
    return ViTConfig(image_height=c["image_size"], image_width=c["image_size"],
                     patch_size=c["patch_size"], num_layers=c["layers"],
                     num_heads=c["heads"], embed_dim=c["embed_dim"],
                     ffn_dim=c["ffn_dim"], num_classes=c["classes"])


def call_cli(argv: list[str]) -> tuple[int, float, str, str]:
    """Run one CLI command in process; returns (exit code, seconds, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        rc = cli.main(argv)
        dt = time.perf_counter() - t0
    return rc, dt, out.getvalue(), err.getvalue()


def make_model(path: Path, c: dict, seed: int) -> str:
    argv = ["init-model", "--out", str(path), "--seed", str(seed)]
    for key, value in c.items():
        argv += ["--" + key.replace("_", "-"), str(value)]
    rc, _, out, err = call_cli(argv)
    if rc:
        raise RuntimeError(f"init-model failed ({rc}): {err}")
    return str(path)


def write_images(directory: Path, images) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, img in enumerate(images):
        paths.append(directory / f"img{i:03d}.ppm")
        netpbm.write_ppm(str(paths[-1]), img)
    return paths


def grid_errors(path: Path, shape) -> tuple[list[str], np.ndarray | None]:
    try:
        grid = cli.read_grid_csv(str(path))
    except (OSError, ValueError) as e:
        return [f"{path.name}: {e}"], None
    if grid.shape != shape:
        return [f"{path.name}: shape {grid.shape}, expected {shape}"], None
    if not np.isfinite(grid).all():
        return [f"{path.name}: non-finite values"], None
    return [], grid


def read_curves(path: Path) -> dict[tuple[str, str], list[float]]:
    curves: dict[tuple[str, str], list[float]] = {}
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            ident, kind, step, value = line.strip().split(",")
            points = curves.setdefault((ident, kind), [])
            if int(step) != len(points):
                raise ValueError(f"{ident} {kind}: step {step} out of order")
            points.append(float(value))
    return curves


# -- workloads ------------------------------------------------------------------


class Attribute56:
    """One ``bicam attribute`` per image over a pool of 16 images."""

    min_calls = 100  # so that p90 has ten samples beyond it
    jobs = 1

    def __init__(self, work: Path, seed: int, reference: dict | None):
        self.model = make_model(work / "model.bw", CONFIG_56, seed)
        images, _ = make_pattern_dataset(vit_config(CONFIG_56), 8, seed)
        self.paths = write_images(work / "images", images)
        self.reference = reference
        self.grid = (CONFIG_56["image_size"] // CONFIG_56["patch_size"],) * 2

    def call(self, i: int, out: Path) -> tuple[list[str], int]:
        image = self.paths[i % len(self.paths)]
        return ["attribute", "--model", self.model, "--image", str(image),
                "--out-prefix", str(out / "attr")], 1

    def check(self, i: int, out: Path, stdout: str) -> list[str]:
        errors, patches = grid_errors(out / "attr.patches.csv", self.grid)
        heat_errors, _ = grid_errors(out / "attr.heatmap.csv",
                                     (CONFIG_56["image_size"],) * 2)
        errors += heat_errors
        printed = [ln[4:] for ln in stdout.splitlines() if ln.startswith("pnr=")]
        if len(printed) != 1:
            errors.append("no pnr= line printed")
        elif patches is not None:
            value = float(printed[0])
            if not math.isclose(value, pnr(patches), rel_tol=PNR_RTOL):
                errors.append(f"printed pnr {value!r} != recomputed {pnr(patches)!r}")
        key = str(i % len(self.paths))
        if self.reference and patches is not None and key in self.reference:
            ref = np.asarray(self.reference[key])
            tol = PATCH_RTOL * np.abs(ref).max()
            if np.abs(patches - ref).max() > tol:
                errors.append(f"image {key}: patch scores differ from reference "
                              f"by {np.abs(patches - ref).max():.3g} > {tol:.3g}")
        return errors

    def reference_values(self, i: int, out: Path) -> dict:
        return {str(i): cli.read_grid_csv(str(out / "attr.patches.csv")).tolist()}


class _DirectoryWorkload:
    """A CLI command over a pool of directories of ``per_dir`` images."""

    min_calls = 1

    def __init__(self, work: Path, seed: int, reference: dict | None):
        self.seed = seed
        self.reference = reference
        self.model = make_model(work / "model.bw", self.config, seed)
        images, _ = make_pattern_dataset(vit_config(self.config),
                                         self.per_dir * self.dirs // 2, seed)
        self.dir_paths = [work / f"images{d}" for d in range(self.dirs)]
        self.images = [write_images(self.dir_paths[d],
                                    images[d * self.per_dir:(d + 1) * self.per_dir])
                       for d in range(self.dirs)]


class Attack56(_DirectoryWorkload):
    config = CONFIG_56
    jobs = 2
    per_dir = 2  # one image per pool thread
    dirs = 3

    def call(self, i: int, out: Path) -> tuple[list[str], int]:
        d = self.dir_paths[i % self.dirs]
        return ["attack", "--model", self.model, "--images", str(d),
                "--out", str(out), "--method", "pgd", "--steps", "10",
                "--jobs", str(self.jobs), "--seed", str(self.seed)], self.per_dir

    def check(self, i: int, out: Path, stdout: str) -> list[str]:
        # PGD outputs are checked by invariants only: a sign flip on a
        # near-zero gradient legitimately changes pixels
        errors = []
        if f"images={self.per_dir} " not in stdout:
            errors.append(f"summary does not report {self.per_dir} images")
        for clean_path in self.images[i % self.dirs]:
            adv_path = out / clean_path.name
            if not adv_path.is_file():
                errors.append(f"{adv_path.name}: missing")
                continue
            clean = netpbm.read_ppm(str(clean_path))
            adv = netpbm.read_ppm(str(adv_path))
            if adv.shape != clean.shape or adv.min() < 0.0 or adv.max() > 1.0:
                errors.append(f"{adv_path.name}: shape or range invalid")
            elif np.abs(adv - clean).max() > EPSILON + PIXEL_TOL:
                errors.append(f"{adv_path.name}: |adv-clean| "
                              f"{np.abs(adv - clean).max():.6g} > 8/255")
        return errors


class Faith16(_DirectoryWorkload):
    config = CONFIG_16
    jobs = 1
    per_dir = 1
    dirs = 4
    points = (CONFIG_16["image_size"] // CONFIG_16["patch_size"]) ** 2 + 1

    def call(self, i: int, out: Path) -> tuple[list[str], int]:
        d = self.dir_paths[i % self.dirs]
        return ["eval-faith", "--model", self.model, "--images", str(d),
                "--seeds", "5", "--seed", str(self.seed),
                "--out-prefix", str(out / "faith")], self.per_dir

    def check(self, i: int, out: Path, stdout: str) -> list[str]:
        errors = []
        stems = [p.stem for p in self.images[i % self.dirs]]
        try:
            with open(out / "faith.csv", encoding="utf-8") as fh:
                rows = [ln.strip().split(",") for ln in fh.readlines()[1:]]
            curves = read_curves(out / "faith.curves.csv")
        except (OSError, ValueError) as e:
            return [f"faith outputs unreadable: {e}"]
        if [r[0] for r in rows] != stems or any(len(r) != 5 for r in rows):
            return [f"rows {rows} do not match images {stems}"]
        for ident, mif_auc, lif_auc, faith, _ in rows:
            mif, lif = curves.get((ident, "mif"), []), curves.get((ident, "lif"), [])
            bad = [kind for kind, curve in (("mif", mif), ("lif", lif))
                   if len(curve) != self.points
                   or not all(0.0 <= v <= 1.0 for v in curve)]
            if bad:
                errors.append(f"{ident} {bad}: not {self.points} points in [0,1]")
                continue
            if mif[0] != lif[0]:
                errors.append(f"{ident}: MIF and LIF curves differ at point 0")
            if not math.isclose(float(faith), float(lif_auc) - float(mif_auc),
                                rel_tol=1e-12, abs_tol=1e-15):
                errors.append(f"{ident}: faithfulness != lif_auc - mif_auc")
            ref = (self.reference or {}).get(f"{i % self.dirs}/{ident}")
            if ref:
                diff = max(abs(a - b) for a, b in zip(mif + lif, ref["mif"] + ref["lif"]))
                if diff > CURVE_ATOL:
                    errors.append(f"{ident}: curves differ from reference by {diff:.3g}")
        return errors

    def reference_values(self, i: int, out: Path) -> dict:
        curves = read_curves(out / "faith.curves.csv")
        ident = self.images[i % self.dirs][0].stem
        return {f"{i % self.dirs}/{ident}": {"mif": curves[(ident, "mif")],
                                             "lif": curves[(ident, "lif")]}}


WORKLOADS = {"attribute-56": Attribute56, "attack-56": Attack56,
             "faith-16": Faith16}


# -- identity -------------------------------------------------------------------


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "bicam").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def identity(args, model: str) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS, "jobs": WORKLOADS[args.workload].jobs,
        "kernels_backend": kernels.ACTIVE_BACKEND, "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "model_checksum": weightfile.load_weights(model).checksum(),
    }


# -- measurement ----------------------------------------------------------------


def measure_setup(model: str) -> tuple[list[float], list[float]]:
    """Seconds for fresh processes to import bicam.cli and load the model.

    Returns the wall seconds and the calibration each process took right
    after its set-up.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, calibrations = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, model,
                               str(BENCH_DIR)],
                              capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=60, check=True)
        dt, cal = proc.stdout.split()
        times.append(float(dt))
        calibrations.append(float(cal))
    return times, calibrations


class Loop:
    """Runs workload calls, checks each output, and keeps the tallies."""

    def __init__(self, workload, work: Path):
        self.workload = workload
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def one(self, i: int, tracer=None) -> tuple[float, int]:
        out = self.work / f"call{i}"
        out.mkdir()
        argv, images = self.workload.call(i, out)
        if tracer is None:
            rc, dt, stdout, stderr = call_cli(argv)
        else:
            with tracer.span("cli.call", "cli"):
                rc, dt, stdout, stderr = call_cli(argv)
        errors = ([f"exit code {rc}: {stderr.strip()}"] if rc
                  else self.workload.check(i, out, stdout))
        shutil.rmtree(out)
        self.attempted += images
        if errors:
            self.failed += images if rc else min(images, len(errors))
            self.errors += [f"call {i}: {e}" for e in errors]
        return dt, images

    def for_seconds(self, seconds: float) -> tuple[list[tuple[float, int]], list[float]]:
        """Calls until ``seconds`` have passed, with a calibration around each.

        Returns (seconds, images) per call and the calibrations.
        """
        calls, calibrations = [], [calibrate()]
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < seconds or len(calls) < self.workload.min_calls:
            calls.append(self.one(len(calls)))
            calibrations.append(calibrate())
        return calls, calibrations


def at_reference_speed(seconds: list[float], calibrations: list[float]) -> list[float]:
    """Wall times scaled to the reference host speed.

    ``calibrations[i]`` and ``calibrations[i + 1]`` were taken just before
    and just after ``seconds[i]``; their geometric mean is the host speed
    during that call.
    """
    return [dt * REF_S / math.sqrt(before * after)
            for dt, before, after in zip(seconds, calibrations, calibrations[1:])]


def end_to_end(calls, calibrations, setup, setup_calibrations) -> dict:
    seconds = at_reference_speed([dt for dt, _ in calls], calibrations)
    images = sum(n for _, n in calls)
    setup_s = [dt * REF_S / cal for dt, cal in zip(setup, setup_calibrations)]
    return {
        "images_per_s": (images / sum(seconds), "1/s"),
        "call_ms_p50": (float(np.percentile(seconds, 50)) * 1000.0, "ms"),
        "call_ms_p90": (float(np.percentile(seconds, 90)) * 1000.0, "ms"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
                        "MB"),
    }


def traced_run(loop: Loop, seconds: float) -> tuple[dict, list[str]]:
    """Each call twice, untraced then traced, until ``seconds`` have passed.

    Pairing the calls keeps slow drift of the machine out of the overhead
    ratio, and every untraced call after the first follows a traced one.
    """
    tracer = tracing.Tracer()
    plain = traced = 0.0
    images = 0
    problems = []
    passes = {"forward": 0, "backward": 0}
    t0 = time.perf_counter()
    i = 0
    while time.perf_counter() - t0 < seconds:
        if not tracing.originals_restored():
            problems.append(f"call {i}: wrappers still installed")
        dt, n = loop.one(i)
        plain += dt
        images += n
        before = counters.snapshot()
        with tracing.traced(tracer):
            traced += loop.one(i, tracer)[0]
        after = counters.snapshot()
        for k in passes:
            passes[k] += after[k] - before[k]
        i += 1
    # bicam's counters are thread-local, so they miss the pool threads
    wrapped = {k: tracer.counts[k] for k in passes}
    if loop.workload.jobs == 1 and passes != wrapped:
        problems.append(f"wrapper counts {wrapped} != bicam counters {passes}")
    metrics = tracing.layer_metrics(tracer, images)
    metrics["trace.overhead_frac"] = (traced / plain - 1.0, "frac")
    print(json.dumps({"details": {"calls": i, "images": images,
                                  "passes_by_counters": passes}}))
    return metrics, problems


def run(args) -> dict:
    reference = None
    if args.seed == 0 and REFERENCE_FILE.is_file():
        reference = json.loads(REFERENCE_FILE.read_text()).get(args.workload)
    WORK_ROOT.mkdir(exist_ok=True)
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work.mkdir()
    try:
        workload = WORKLOADS[args.workload](work, args.seed, reference)
        print(json.dumps({"identity": identity(args, workload.model)}))
        setup, setup_cal = measure_setup(workload.model) if not args.trace else ([], [])
        loop = Loop(workload, work)
        loop.one(-1)  # warm-up: lazy imports, BLAS and allocator set-up
        loop.attempted = loop.failed = 0  # a warm-up failure stays in errors
        if args.trace:
            metrics, problems = traced_run(loop, args.seconds)
            loop.errors += problems
        else:
            calls, calibrations = loop.for_seconds(args.seconds)
            metrics = end_to_end(calls, calibrations, setup, setup_cal)
            wall = [dt for dt, _ in calls]
            print(json.dumps({"details": {
                "calls": len(calls), "images": sum(n for _, n in calls),
                "wall_images_per_s": sum(n for _, n in calls) / sum(wall),
                "wall_call_ms_p50": float(np.percentile(wall, 50)) * 1000.0,
                "wall_call_ms_p90": float(np.percentile(wall, 90)) * 1000.0,
                "wall_setup_s": setup,
                "setup_calibration_ms": [c * 1000.0 for c in setup_cal],
                "calibration_ms_p50": statistics.median(calibrations) * 1000.0}}))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for e in loop.errors:
        print(f"check failed: {e}", file=sys.stderr)
    return {"correct": not loop.errors, "attempted": loop.attempted,
            "failed": loop.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result = run(args)
    print(json.dumps(result))
    return 0 if result["correct"] and not result["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
