"""Command-line drivers for the attribution, attack, and evaluation flows.

Commands: init-model, attribute, rollout, attack, pnr-detect, eval-loc,
eval-faith. Exit codes: 0 success, 2 usage, 3 data/format, 4 numeric.

Reproducibility rules: every command takes one --seed; per-item randomness
is derived by numpy SeedSequence(seed).spawn(k), with children assigned to
items in sorted-filename order, so results do not depend on execution
order or --jobs. Floats in CSV output are written with repr-exact
precision (%.17g), making re-runs byte-identical.

A flat key=value config file (--config) supplies defaults for the invoked
subcommand; explicit flags win; unknown keys are rejected.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import kernels, netpbm
from .attacks import (DEFAULT_EPSILON, DEFAULT_NUM_STEPS, DEFAULT_STEP_SIZE,
                      AttackConfig, run_attack)
from .attribution import attention_rollout, bicam, split_channels
from .detection import (DEFAULT_PNR_EPSILON, PNRRecord, pnr, read_records,
                        roc_analysis, write_records)
from .errors import (BicamError, ContractError, DataFormatError, NumericError,
                     ParameterError)
from .evaluation import (class_probability_fn, evaluate_bidirectional,
                         faithfulness, random_order_faithfulness)
from .vit import ViTConfig, VisionTransformer, init_weights
from . import weightfile


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def write_grid_csv(path: str, grid: np.ndarray) -> None:
    arr = np.atleast_2d(np.asarray(grid, dtype=np.float64))
    with open(path, "w", encoding="utf-8") as fh:
        for row in arr:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def read_grid_csv(path: str) -> np.ndarray:
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append([float(v) for v in line.split(",")])
    return np.array(rows)


def load_config_file(path: str) -> dict:
    """Flat key=value lines; '#' comments; values coerced to int/float/bool."""
    out = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise DataFormatError(f"cannot read config file: {e}") from None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataFormatError(f"{path}:{ln}: expected key=value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise DataFormatError(f"{path}:{ln}: empty key")
        if value.lower() in ("true", "false"):
            out[key] = value.lower() == "true"
            continue
        for conv in (int, float):
            try:
                out[key] = conv(value)
                break
            except ValueError:
                continue
        else:
            out[key] = value
    return out


def _sub_seeds(seed: int, n: int) -> list[int]:
    children = np.random.SeedSequence(seed).spawn(n)
    return [int(c.generate_state(1)[0]) for c in children]


def _list_images(directory: str) -> list[Path]:
    d = Path(directory)
    if not d.is_dir():
        raise DataFormatError(f"not a directory: {directory}")
    return sorted(p for p in d.iterdir() if p.suffix == ".ppm")


def _map_items(names, fn, jobs: int, skip_errors: bool):
    """Apply fn to each name; aggregation order is the given (sorted) order."""
    results, failures = {}, []
    if jobs <= 1:
        for n in names:
            try:
                results[n] = fn(n)
            except BicamError as e:
                if not skip_errors:
                    raise
                failures.append((n, str(e)))
    else:
        with ThreadPoolExecutor(max_workers=jobs) as ex:
            futures = {n: ex.submit(fn, n) for n in names}
            for n in names:
                try:
                    results[n] = futures[n].result()
                except BicamError as e:
                    if not skip_errors:
                        raise
                    failures.append((n, str(e)))
    for n, msg in failures:
        print(f"skipped {n}: {msg}", file=sys.stderr)
    return results


def _load_model(args) -> VisionTransformer:
    model = weightfile.load_model(args.model)
    return model


def _pick_class(model, image, args) -> int:
    if getattr(args, "class_index", None) is not None:
        return int(args.class_index)
    return int(np.argmax(model.predict_logits(image[None])[0]))


def _table(headers, rows) -> str:
    cols = [max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
            for i, h in enumerate(headers)]
    fmt_row = lambda r: "  ".join(str(v).ljust(c) for v, c in zip(r, cols))
    lines = [fmt_row(headers), fmt_row(["-" * c for c in cols])]
    lines.extend(fmt_row(r) for r in rows)
    return "\n".join(lines)


# -- commands -----------------------------------------------------------------


def cmd_init_model(args) -> int:
    cfg = ViTConfig(
        image_height=args.image_size,
        image_width=args.image_width or args.image_size,
        patch_size=args.patch_size, num_layers=args.layers,
        num_heads=args.heads, embed_dim=args.embed_dim, ffn_dim=args.ffn_dim,
        num_classes=args.classes, distillation_token=args.distillation,
        layer_window=args.window, temperature=args.temperature)
    weights = init_weights(cfg, args.seed)
    weightfile.save_weights(weights, args.out)
    print(f"wrote {args.out}")
    print(f"checksum={weights.checksum()}")
    return 0


def cmd_attribute(args) -> int:
    model = _load_model(args)
    image = netpbm.read_ppm(args.image)
    c = _pick_class(model, image, args)
    amap = bicam(model, image[None], c, layer_window=args.window,
                 temperature=args.temperature, interpolation=args.interpolation)
    _write_map_outputs(args.out_prefix, amap, channels=True)
    print(f"class={c}")
    print(f"pnr={_fmt(pnr(amap, args.pnr_epsilon))}")
    return 0


def cmd_rollout(args) -> int:
    model = _load_model(args)
    image = netpbm.read_ppm(args.image)
    amap = attention_rollout(model, image[None], interpolation=args.interpolation)
    _write_map_outputs(args.out_prefix, amap, channels=False)
    return 0


def _write_map_outputs(prefix: str, amap, channels: bool) -> None:
    write_grid_csv(prefix + ".patches.csv", amap.patch_scores[0])
    write_grid_csv(prefix + ".heatmap.csv", amap.heatmap[0, 0])
    heat = amap.heatmap[0, 0]
    scale = netpbm.signed_scale(heat)
    netpbm.write_rendered(prefix + ".ppm", netpbm.render_signed(heat, scale))
    if channels:
        pos, neg = split_channels(heat)
        netpbm.write_rendered(prefix + ".pos.ppm",
                              netpbm.render_channel(pos, scale, "positive"))
        netpbm.write_rendered(prefix + ".neg.ppm",
                              netpbm.render_channel(neg, scale, "negative"))


def cmd_attack(args) -> int:
    model = _load_model(args)
    files = _list_images(args.images)
    if not files:
        raise ContractError(f"no .ppm images in {args.images}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    seeds = _sub_seeds(args.seed, len(files))

    def one(i_path):
        i, path = i_path
        image = netpbm.read_ppm(str(path))
        # one clean forward gives both the label and the clean probability
        logits = model.predict_logits(image[None])
        label = (int(np.argmax(logits[0])) if args.class_index is None
                 else int(args.class_index))
        cfg = AttackConfig(method=args.method, epsilon=args.epsilon,
                           step_size=args.step_size, num_steps=args.steps,
                           momentum_decay=args.momentum, seed=seeds[i])
        before = float(kernels.softmax_rows(logits, 1.0)[0, label])
        adv = run_attack(model, image[None], label, cfg)[0]
        netpbm.write_ppm(str(out_dir / path.name), adv)
        after = float(model.predict_proba(adv[None])[0, label])
        return before, after

    results = _map_items(list(enumerate(files)), one, args.jobs, args.skip_errors)
    if not results:
        raise ContractError("all attack items failed")
    before = float(np.mean([r[0] for r in results.values()]))
    after = float(np.mean([r[1] for r in results.values()]))
    print(f"images={len(results)} mean_true_prob_before={before:.4f} "
          f"mean_true_prob_after={after:.4f}")
    return 0


def cmd_pnr_detect(args) -> int:
    model = _load_model(args)
    clean_files = _list_images(args.clean)
    adv_files = _list_images(args.adv)
    if not clean_files or not adv_files:
        raise ContractError("pnr-detect needs non-empty clean and adversarial dirs")

    def score(path_label):
        path, label = path_label
        image = netpbm.read_ppm(str(path))
        c = _pick_class(model, image, args)
        amap = bicam(model, image[None], c, layer_window=args.window,
                     temperature=args.temperature)
        return PNRRecord(path.stem, pnr(amap, args.pnr_epsilon), label)

    items = [(p, "clean") for p in clean_files] + [(p, "adversarial") for p in adv_files]
    results = _map_items(items, score, args.jobs, args.skip_errors)
    records = [results[k] for k in items if k in results]
    write_records(args.out_prefix + ".records.csv", records)
    report = roc_analysis(records)
    with open(args.out_prefix + ".report.csv", "w", encoding="utf-8") as fh:
        fh.write("auroc,aupr,threshold,sensitivity,specificity,"
                 "delta_pnr_mean,delta_pnr_std,num_clean,num_adversarial\n")
        fh.write(",".join([
            _fmt(report.auroc), _fmt(report.aupr), _fmt(report.threshold),
            _fmt(report.sensitivity), _fmt(report.specificity),
            _fmt(report.delta_pnr_mean), _fmt(report.delta_pnr_std),
            str(report.num_clean), str(report.num_adversarial)]) + "\n")
    print(_table(
        ["metric", "value"],
        [["auroc", f"{report.auroc:.4f}"],
         ["aupr", f"{report.aupr:.4f}"],
         ["threshold", f"{report.threshold:.6g}"],
         ["sensitivity", f"{report.sensitivity:.4f}"],
         ["specificity", f"{report.specificity:.4f}"],
         ["delta_pnr_mean", f"{report.delta_pnr_mean:.6g}"],
         ["delta_pnr_std", f"{report.delta_pnr_std:.6g}"]]))
    return 0


def cmd_detect_from_records(args) -> int:
    records = read_records(args.records)
    report = roc_analysis(records)
    print(_table(
        ["metric", "value"],
        [["auroc", f"{report.auroc:.4f}"], ["aupr", f"{report.aupr:.4f}"],
         ["threshold", f"{report.threshold:.6g}"]]))
    return 0


def cmd_eval_loc(args) -> int:
    model = _load_model(args)
    files = _list_images(args.data)
    if not files:
        raise ContractError(f"no .ppm images in {args.data}")

    def one(path):
        target_path = path.with_name(path.stem + "_target.pgm")
        if not target_path.exists():
            raise DataFormatError(f"missing target mask {target_path.name}")
        nontarget_path = path.with_name(path.stem + "_nontarget.pgm")
        image = netpbm.read_ppm(str(path))
        c = _pick_class(model, image, args)
        amap = bicam(model, image[None], c, layer_window=args.window,
                     temperature=args.temperature)
        target = netpbm.read_pgm(str(target_path))
        nontarget = netpbm.read_pgm(str(nontarget_path)) if nontarget_path.exists() else None
        pos_rep, neg_rep = evaluate_bidirectional(amap, target, nontarget)
        return [r for r in (pos_rep, neg_rep) if r is not None]

    results = _map_items(files, one, args.jobs, args.skip_errors)
    if not results:
        raise ContractError("all localization items failed")
    rows = []
    for path in files:
        if path not in results:
            continue
        for rep in results[path]:
            rows.append([path.stem, rep.channel, rep.pixel_accuracy, rep.iou,
                         rep.f1, rep.precision, rep.recall, int(rep.fallback_unified)])
    with open(args.out_prefix + ".csv", "w", encoding="utf-8") as fh:
        fh.write("id,channel,pixel_accuracy,iou,f1,precision,recall,fallback_unified\n")
        for r in rows:
            fh.write(",".join([r[0], r[1]] + [_fmt(v) for v in r[2:7]] + [str(r[7])]) + "\n")
    display = [[r[0], r[1]] + [f"{v:.4f}" for v in r[2:7]] for r in rows]
    for channel in ("unified", "positive", "negative"):
        sel = [r for r in rows if r[1] == channel]
        if sel:
            means = [float(np.mean([r[i] for r in sel])) for i in range(2, 7)]
            display.append([f"mean({len(sel)})", channel] + [f"{v:.4f}" for v in means])
    print(_table(["id", "channel", "pix_acc", "iou", "f1", "prec", "rec"], display))
    return 0


def cmd_eval_faith(args) -> int:
    model = _load_model(args)
    files = _list_images(args.images)
    if not files:
        raise ContractError(f"no .ppm images in {args.images}")
    cfg = model.config
    seeds = _sub_seeds(args.seed, len(files) * args.seeds)

    def one(i_path):
        i, path = i_path
        image = netpbm.read_ppm(str(path))
        c = _pick_class(model, image, args)
        amap = bicam(model, image[None], c, layer_window=args.window,
                     temperature=args.temperature)
        prob_fn = class_probability_fn(model, c)
        rep = faithfulness(prob_fn, image, amap.patch_scores[0], cfg.patch_size)
        rand = [random_order_faithfulness(
                    prob_fn, image, amap.patch_scores[0].shape, cfg.patch_size,
                    seeds[i * args.seeds + s]).faithfulness
                for s in range(args.seeds)]
        return rep, float(np.mean(rand)) if rand else float("nan")

    results = _map_items(list(enumerate(files)), one, args.jobs, args.skip_errors)
    if not results:
        raise ContractError("all faithfulness items failed")
    rows, curve_lines = [], []
    for i, path in enumerate(files):
        if (i, path) not in results:
            continue
        rep, rand_mean = results[(i, path)]
        rows.append([path.stem, rep.mif_auc, rep.lif_auc, rep.faithfulness, rand_mean])
        for kind, curve in (("mif", rep.mif_curve), ("lif", rep.lif_curve)):
            for k, v in enumerate(curve):
                curve_lines.append(f"{path.stem},{kind},{k},{_fmt(v)}")
    with open(args.out_prefix + ".csv", "w", encoding="utf-8") as fh:
        fh.write("id,mif_auc,lif_auc,faithfulness,random_faithfulness_mean\n")
        for r in rows:
            fh.write(",".join([r[0]] + [_fmt(v) for v in r[1:]]) + "\n")
    with open(args.out_prefix + ".curves.csv", "w", encoding="utf-8") as fh:
        fh.write("id,curve,step,value\n")
        fh.write("\n".join(curve_lines) + "\n")
    display = [[r[0]] + [f"{v:.4f}" for v in r[1:]] for r in rows]
    means = [float(np.mean([r[i] for r in rows])) for i in range(1, 5)]
    display.append([f"mean({len(rows)})"] + [f"{v:.4f}" for v in means])
    print(_table(["id", "mif_auc", "lif_auc", "faith", "rand_faith"], display))
    return 0


# -- parser -------------------------------------------------------------------


def _add_common_model_args(sp, window_temp: bool = True):
    sp.add_argument("--model", required=True, help="BICAMW1 weight file")
    if window_temp:
        sp.add_argument("--window", type=int, default=None,
                        help="layer aggregation window (default: from model config)")
        sp.add_argument("--temperature", type=float, default=None,
                        help="attribution softmax temperature (default: from config)")


def _add_driver_args(sp):
    sp.add_argument("--jobs", type=int, default=1, help="parallel workers")
    sp.add_argument("--skip-errors", action="store_true",
                    help="skip failing items instead of aborting")
    sp.add_argument("--seed", type=int, default=0)


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="bicam",
        description="Signed attribution maps and PNR adversarial detection "
                    "for small vision transformers.")
    parser.add_argument("--config", help="flat key=value defaults file")
    subs = parser.add_subparsers(dest="command", required=True)
    registry: dict[str, argparse.ArgumentParser] = {}

    sp = subs.add_parser("init-model", help="create and save a seeded model")
    sp.add_argument("--out", required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--image-size", type=int, default=16)
    sp.add_argument("--image-width", type=int, default=None)
    sp.add_argument("--patch-size", type=int, default=4)
    sp.add_argument("--layers", type=int, default=4)
    sp.add_argument("--heads", type=int, default=2)
    sp.add_argument("--embed-dim", type=int, default=16)
    sp.add_argument("--ffn-dim", type=int, default=32)
    sp.add_argument("--classes", type=int, default=2)
    sp.add_argument("--distillation", action="store_true")
    sp.add_argument("--window", type=int, default=None)
    sp.add_argument("--temperature", type=float, default=2.0)
    sp.set_defaults(func=cmd_init_model)
    registry["init-model"] = sp

    sp = subs.add_parser("attribute", help="signed attribution map for one image")
    _add_common_model_args(sp)
    sp.add_argument("--image", required=True)
    sp.add_argument("--class-index", type=int, default=None,
                    help="target class (default: model argmax)")
    sp.add_argument("--interpolation", choices=["bilinear", "nearest"],
                    default="bilinear")
    sp.add_argument("--pnr-epsilon", type=float, default=DEFAULT_PNR_EPSILON)
    sp.add_argument("--out-prefix", required=True)
    sp.set_defaults(func=cmd_attribute)
    registry["attribute"] = sp

    sp = subs.add_parser("rollout", help="attention-rollout baseline map")
    _add_common_model_args(sp, window_temp=False)
    sp.add_argument("--image", required=True)
    sp.add_argument("--interpolation", choices=["bilinear", "nearest"],
                    default="bilinear")
    sp.add_argument("--out-prefix", required=True)
    sp.set_defaults(func=cmd_rollout)
    registry["rollout"] = sp

    sp = subs.add_parser("attack", help="attack a directory of images")
    _add_common_model_args(sp, window_temp=False)
    sp.add_argument("--images", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--method", choices=["pgd", "mifgsm"], default="pgd")
    sp.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    sp.add_argument("--step-size", type=float, default=DEFAULT_STEP_SIZE)
    sp.add_argument("--steps", type=int, default=DEFAULT_NUM_STEPS)
    sp.add_argument("--momentum", type=float, default=1.0)
    sp.add_argument("--class-index", type=int, default=None,
                    help="true class (default: model argmax per image)")
    _add_driver_args(sp)
    sp.set_defaults(func=cmd_attack)
    registry["attack"] = sp

    sp = subs.add_parser("pnr-detect", help="PNR detection report from clean+adv dirs")
    _add_common_model_args(sp)
    sp.add_argument("--clean", required=True)
    sp.add_argument("--adv", required=True)
    sp.add_argument("--pnr-epsilon", type=float, default=DEFAULT_PNR_EPSILON)
    sp.add_argument("--class-index", type=int, default=None)
    sp.add_argument("--out-prefix", required=True)
    _add_driver_args(sp)
    sp.set_defaults(func=cmd_pnr_detect)
    registry["pnr-detect"] = sp

    sp = subs.add_parser("detect-from-records", help="score an existing records CSV")
    sp.add_argument("--records", required=True)
    sp.set_defaults(func=cmd_detect_from_records)
    registry["detect-from-records"] = sp

    sp = subs.add_parser("eval-loc", help="localization metrics over image+mask dir")
    _add_common_model_args(sp)
    sp.add_argument("--data", required=True,
                    help="dir with NAME.ppm, NAME_target.pgm, optional NAME_nontarget.pgm")
    sp.add_argument("--class-index", type=int, default=None)
    sp.add_argument("--out-prefix", required=True)
    _add_driver_args(sp)
    sp.set_defaults(func=cmd_eval_loc)
    registry["eval-loc"] = sp

    sp = subs.add_parser("eval-faith", help="faithfulness curves over an image dir")
    _add_common_model_args(sp)
    sp.add_argument("--images", required=True)
    sp.add_argument("--class-index", type=int, default=None)
    sp.add_argument("--seeds", type=int, default=5,
                    help="random-order baselines per image")
    sp.add_argument("--out-prefix", required=True)
    _add_driver_args(sp)
    sp.set_defaults(func=cmd_eval_faith)
    registry["eval-faith"] = sp

    for sub in registry.values():
        sub.add_argument("--config", help="flat key=value defaults file")

    return parser, registry


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, registry = build_parser()

    try:
        command = next((a for a in argv if a in registry), None)
        pre = argparse.ArgumentParser(add_help=False)
        pre.add_argument("--config")
        known, _ = pre.parse_known_args(argv)
        if known.config:
            overrides = load_config_file(known.config)
            if command is None:
                raise DataFormatError("--config requires a subcommand")
            valid = {a.dest for a in registry[command]._actions}
            unknown = sorted(set(overrides) - valid)
            if unknown:
                raise DataFormatError(
                    f"unknown config keys for {command}: {', '.join(unknown)}")
            registry[command].set_defaults(**overrides)

        args = parser.parse_args(argv)
        return args.func(args)
    except NumericError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 4
    except (DataFormatError, ContractError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except ParameterError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except BicamError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
