#!/usr/bin/env python3
"""sha256 of the program's numeric outputs, for this checkout and a parent.

    python3 tools/output_hashes.py --parent 9a6d92f [--models 16 56]

Hashed, for each model (``16``: the 16x16 model, plain and with a
distillation token; ``56``: the 56x56 model), at batch sizes 1 and 2:

- the ``bicam`` map (patch scores and heatmap) of every class at every
  layer window;
- the attention rollout map;
- ``predict_logits``, and ``loss_and_input_grad``'s loss and gradient;

and once, 30 steps of toy training on the 16x16 model: the losses and the
trained weights' checksum.

The CLI is hashed too, per model (``16``: a 16x16 ``init-model --seed 5``
model; ``56``: the 56x56 one), on two seeded stripe PPMs: ``attribute``,
``rollout``, ``attack --jobs 2``, ``pnr-detect`` (the attack's images as
the adversarial set), ``eval-loc`` (each image with a ``_target.pgm`` mask,
the first with a ``_nontarget.pgm`` one too) and ``eval-faith``. Every
file a command writes and its stdout are hashed, under
``cli/<model>/<command>/<file>`` and ``cli/<model>/<command>/stdout``.

Each tree is hashed in its own interpreter, this file run with ``--emit``
and the tree's ``src`` as PYTHONPATH, with one BLAS thread unless the
environment sets another count. The parent tree is the committed files of
``--parent``, extracted with ``git archive`` as ``tools/bench_pairs.py``
does; the change tree is this checkout. Without ``--parent`` the change's
hashes are printed as JSON. With it, every output that differs is named,
and the exit code is 1 if any does, else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from bench_pairs import ROOT, archive

MODELS = ("16", "56")
TRAIN_STEPS = 30
# init-model options of each model the CLI runs use
CLI_MODELS = {"16": [],
              "56": ["--image-size", 56, "--layers", 6, "--heads", 4, "--embed-dim", 32,
                     "--ffn-dim", 64, "--classes", 10]}


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.asarray(arr)
        h.update(np.asarray(arr.shape, dtype="<i8").tobytes())
        h.update(arr.astype("<f8").tobytes())
    return h.hexdigest()


def emit(models) -> dict[str, str]:
    """{output name: sha256} of the outputs above, computed by the ``bicam``
    package first on sys.path."""
    from bicam.attribution import attention_rollout, bicam
    from bicam.toytrain import train_toy_model
    from bicam.vit import ViTConfig, new_model

    tiny = dict(image_height=16, image_width=16, patch_size=4, num_layers=4, num_heads=2,
                embed_dim=16, ffn_dim=32, num_classes=3)
    configs = {"16-plain": ViTConfig(**tiny),
               "16-distillation": ViTConfig(distillation_token=True, **tiny),
               "56": ViTConfig(image_height=56, image_width=56, patch_size=4, num_layers=6,
                               num_heads=4, embed_dim=32, ffn_dim=64, num_classes=10)}
    out = {}
    for name, cfg in configs.items():
        if name.split("-")[0] not in models:
            continue
        model = new_model(cfg, seed=3)
        for b in (1, 2):
            img = np.random.default_rng(b).random((b, 3, cfg.image_height, cfg.image_width))
            key = f"{name}/B{b}"
            for window in range(1, cfg.num_layers + 1):
                for c in range(cfg.num_classes):
                    m = bicam(model, img, c, layer_window=window)
                    out[f"{key}/bicam/window{window}/class{c}"] = _digest(m.patch_scores,
                                                                         m.heatmap)
            m = attention_rollout(model, img)
            out[f"{key}/rollout"] = _digest(m.patch_scores, m.heatmap)
            out[f"{key}/predict_logits"] = _digest(model.predict_logits(img))
            loss, grad = model.loss_and_input_grad(img, list(range(b)))
            out[f"{key}/loss_and_input_grad"] = _digest(loss, grad)
    if "16" in models:
        model, losses = train_toy_model(ViTConfig(**dict(tiny, num_classes=2)), seed=7,
                                        steps=TRAIN_STEPS)
        out["16-train/losses"] = _digest(losses)
        out["16-train/weights"] = model.weights.checksum()
    with tempfile.TemporaryDirectory(prefix="output_hashes_cli_") as tmp:
        for name in models:
            out.update(emit_cli(name, Path(tmp) / name))
    return out


def _run_cli(argv) -> str:
    """The stdout of one in-process ``bicam`` command, which must exit 0."""
    from bicam import cli
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main([str(a) for a in argv])
    if code:
        raise RuntimeError(f"bicam {argv[0]} exited {code}")
    return stdout.getvalue()


def emit_cli(name: str, work: Path) -> dict[str, str]:
    """{cli/<model>/<command>/<file>: sha256} of the CLI runs above on
    model ``name``, made in ``work``."""
    from bicam import netpbm
    from bicam.toytrain import make_pattern_dataset
    from bicam.weightfile import load_model

    model, images, loc = work / "model.bw", work / "images", work / "loc"
    for d in (images, loc):
        d.mkdir(parents=True)
    _run_cli(["init-model", "--out", model, "--seed", 5, *CLI_MODELS[name]])
    cfg = load_model(str(model)).config
    target = np.zeros((cfg.image_height, cfg.image_width), np.uint8)
    target[:, :cfg.image_width // 2] = 1
    for i, img in enumerate(make_pattern_dataset(cfg, per_class=1, seed=11)[0]):
        for d in (images, loc):
            netpbm.write_ppm(str(d / f"img{i}.ppm"), img)
        netpbm.write_pgm(str(loc / f"img{i}_target.pgm"), target)
    netpbm.write_pgm(str(loc / "img0_nontarget.pgm"), 1 - target)

    runs = {"attribute": ["--image", images / "img0.ppm", "--out-prefix"],
            "rollout": ["--image", images / "img0.ppm", "--out-prefix"],
            "attack": ["--images", images, "--jobs", 2, "--out"],
            "pnr-detect": ["--clean", images, "--adv", work / "attack" / "out",
                           "--out-prefix"],
            "eval-loc": ["--data", loc, "--out-prefix"],
            "eval-faith": ["--images", images, "--seeds", 2, "--out-prefix"]}
    out = {}
    for command, args in runs.items():
        d = work / command
        d.mkdir()
        key = f"cli/{name}/{command}"
        out[f"{key}/stdout"] = hashlib.sha256(
            _run_cli([command, "--model", model, *args, d / "out"]).encode()).hexdigest()
        for path in sorted(p for p in d.rglob("*") if p.is_file()):
            out[f"{key}/{path.relative_to(d).as_posix()}"] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return out


def tree_hashes(tree: Path, models) -> dict[str, str]:
    """emit(models) run in a fresh interpreter on ``tree``'s ``src``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, "1")
    proc = subprocess.run([sys.executable, __file__, "--emit", "--models", *models],
                          env=env, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"hashing {tree} failed:\n{proc.stdout}{proc.stderr}")
    doc = json.loads(proc.stdout)
    if not Path(doc["package"]).resolve().is_relative_to((tree / "src").resolve()):
        raise RuntimeError(f"hashing {tree} imported bicam from {doc['package']}")
    return doc["hashes"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", help="the commit to compare with")
    ap.add_argument("--models", nargs="+", choices=MODELS, default=list(MODELS))
    ap.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.emit:
        import bicam
        print(json.dumps({"package": bicam.__file__, "hashes": emit(args.models)}))
        return 0
    change = tree_hashes(ROOT, args.models)
    if args.parent is None:
        print(json.dumps(change, indent=1))
        return 0
    with tempfile.TemporaryDirectory(prefix="output_hashes_") as tmp:
        parent = tree_hashes(archive(args.parent, Path(tmp) / "parent"), args.models)
    differ = [key for key in dict.fromkeys([*parent, *change])
              if parent.get(key) != change.get(key)]
    for key in differ:
        print(f"DIFFERS {key}: parent {parent.get(key)} change {change.get(key)}")
    print(f"{len(change)} outputs hashed, {len(differ)} differ from {args.parent}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
