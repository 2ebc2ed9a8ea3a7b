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
import hashlib
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
