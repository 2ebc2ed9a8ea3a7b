"""Command-line drivers for the attribution, attack, and evaluation flows.

Commands: init-model, attribute, rollout, attack, pnr-detect,
detect-from-records, eval-loc, eval-faith. Exit codes: 0 success, 2 usage,
3 data/format, 4 numeric.

The four attribution commands (attribute, pnr-detect, eval-loc,
eval-faith) share one per-image step: read the PPM, take the class from
--class-index or the model's argmax, and run ``bicam``. The directory
commands run their items through one loop (``_map_items``): on the calling
thread with --jobs 1, on a thread pool otherwise; results come back in
sorted-filename order, --skip-errors drops failed items with a ``skipped``
line on stderr, and a run where every item failed is an error. A bad
option is a usage error, never a skipped item: --class-index and the
attack options are checked before any item runs, and a ParameterError
inside an item stops the run.

Reproducibility rules: every command takes one --seed; per-item randomness
is derived by numpy SeedSequence(seed).spawn(k), with children assigned to
items in sorted-filename order, so results do not depend on execution
order or --jobs. Floats in CSV output are written with repr-exact
precision (%.17g), making re-runs byte-identical.

A flat key=value config file (--config PATH, --config=PATH or a unique
prefix such as --conf, before or after the subcommand) supplies options of
the invoked subcommand: its values become --flag=value items right after
the command name, so they pass the same argparse type and choice checks as
typed flags and a flag on the command line wins. Unknown keys are
rejected, and flag options take only true or false.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import kernels, netpbm
from .attacks import (DEFAULT_EPSILON, DEFAULT_NUM_STEPS, DEFAULT_STEP_SIZE,
                      AttackConfig, run_attack)
from .attribution import attention_rollout, bicam, split_channels
from .detection import (DEFAULT_PNR_EPSILON, FLOAT_FORMAT, PNRRecord, check_pnr_epsilon,
                        format_float as _fmt, pnr, read_records, roc_analysis, write_records,
                        write_table)
from .errors import (BicamError, ContractError, DataFormatError, NumericError,
                     ParameterError)
from .evaluation import (class_probability_fn, evaluate_bidirectional,
                         faithfulness, random_order_faithfulness)
from .vit import ViTConfig, init_weights
from . import weightfile


def write_grid_csv(path: str, grid: np.ndarray) -> None:
    """One line per row, every value as _fmt writes it; each row is one
    format step, as a call per value made ``attribute`` measurably slower."""
    arr = np.atleast_2d(np.asarray(grid, dtype=np.float64))
    line = ",".join([FLOAT_FORMAT] * arr.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(line % tuple(row) for row in arr.tolist())


def read_grid_csv(path: str) -> np.ndarray:
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append([float(v) for v in line.split(",")])
    return np.array(rows)


def load_config_file(path: str) -> dict[str, str]:
    """Flat key=value lines; '#' comments; keys and values stripped, values
    kept as strings (``_with_config_flags`` gives them the flags' checks)."""
    if not path:   # Path("") is the working directory
        raise DataFormatError("cannot read config file: the path is empty")
    out = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise DataFormatError(f"cannot read config file: {e}") from None
    except UnicodeDecodeError as e:
        raise DataFormatError(f"{path}: config file is not utf-8 text (byte {e.start})") from None
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
        out[key] = value
    return out


def _sub_seed(seed: int, k: int) -> int:
    """Item k's seed: the first state word of child k of
    ``SeedSequence(seed).spawn(n)`` for any n > k, made without the k
    children before it."""
    return int(np.random.SeedSequence(seed, spawn_key=(k,)).generate_state(1)[0])


def _list_images(directory: str) -> list[Path]:
    d = Path(directory)
    if not d.is_dir():
        raise DataFormatError(f"not a directory: {directory}")
    files = sorted(p for p in d.iterdir() if p.suffix == ".ppm")
    if not files:
        raise ContractError(f"no .ppm images in {directory}")
    return files


def _map_items(names, fn, jobs: int, skip_errors: bool):
    """Apply fn to each name; return the results of the items that did not
    fail, in the given (sorted) order.

    An item fails with a BicamError or an OSError (an entry it cannot
    open, say). A ParameterError is never skipped: it comes from a bad
    option, which fails every item alike. With jobs 1 every item runs on
    the calling thread, so its thread-local pass counters see every pass.
    """
    results, failures = [], []
    with (ThreadPoolExecutor(jobs) if jobs > 1 else contextlib.nullcontext()) as pool:
        pending = [pool.submit(fn, n) for n in names] if pool else names
        for n, item in zip(names, pending):
            try:
                results.append(item.result() if pool else fn(n))
            except (BicamError, OSError) as e:
                if not skip_errors or isinstance(e, ParameterError):
                    raise
                failures.append((n, str(e)))
    for n, msg in failures:
        print(f"skipped {n}: {msg}", file=sys.stderr)
    if not results:
        raise ContractError(f"all {len(names)} items failed")
    return results


def _check_class_index(model, args) -> None:
    """Reject an out-of-range --class-index before any image is read, with
    a message that names the range; in ``attack`` an out-of-range label
    would otherwise reach the logits' index as an IndexError traceback."""
    classes = model.config.num_classes
    if args.class_index is not None and not 0 <= args.class_index < classes:
        raise ParameterError(f"class index {args.class_index} out of range [0, {classes})")


def _attribute(model, path, args, interpolation: str = "bilinear"):
    """Read one PPM, pick its class and attribute it: (image, class, map)."""
    image = netpbm.read_ppm(str(path))
    c = args.class_index
    if c is None:
        c = int(np.argmax(model.predict_logits(image[None])[0]))
    amap = bicam(model, image[None], c, layer_window=args.window,
                 temperature=args.temperature, interpolation=interpolation)
    return image, c, amap


def _table(headers, rows) -> str:
    cols = [max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
            for i, h in enumerate(headers)]
    fmt_row = lambda r: "  ".join(str(v).ljust(c) for v, c in zip(r, cols))
    lines = [fmt_row(headers), fmt_row(["-" * c for c in cols])]
    lines.extend(fmt_row(r) for r in rows)
    return "\n".join(lines)


# (DetectionReport field, display format): the pnr-detect table and report
# CSV columns; detect-from-records prints the first three
REPORT_ROWS = [("auroc", ".4f"), ("aupr", ".4f"), ("threshold", ".6g"),
               ("sensitivity", ".4f"), ("specificity", ".4f"),
               ("delta_pnr_mean", ".6g"), ("delta_pnr_std", ".6g")]


def _report_table(report, rows=REPORT_ROWS) -> str:
    return _table(["metric", "value"],
                  [[name, format(getattr(report, name), spec)] for name, spec in rows])


# -- commands -----------------------------------------------------------------


def cmd_init_model(args) -> int:
    cfg = ViTConfig(
        image_height=args.image_size,
        image_width=args.image_size if args.image_width is None else args.image_width,
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
    model = weightfile.load_model(args.model)
    _check_class_index(model, args)
    check_pnr_epsilon(args.pnr_epsilon)
    _, c, amap = _attribute(model, args.image, args, args.interpolation)
    value = pnr(amap, args.pnr_epsilon)
    _write_map_outputs(args.out_prefix, amap, channels=True)
    print(f"class={c}")
    print(f"pnr={_fmt(value)}")
    return 0


def cmd_rollout(args) -> int:
    model = weightfile.load_model(args.model)
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
        netpbm.write_rendered(prefix + ".pos.ppm", netpbm.render_signed(pos, scale))
        netpbm.write_rendered(prefix + ".neg.ppm", netpbm.render_signed(-neg, scale))


def cmd_attack(args) -> int:
    model = weightfile.load_model(args.model)
    cfg = AttackConfig(method=args.method, epsilon=args.epsilon, step_size=args.step_size,
                       num_steps=args.steps, momentum_decay=args.momentum)
    _check_class_index(model, args)
    files = _list_images(args.images)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    def one(i_path):
        i, path = i_path
        image = netpbm.read_ppm(str(path))
        # one clean forward gives both the label and the clean probability
        logits = model.predict_logits(image[None])
        label = (int(np.argmax(logits[0])) if args.class_index is None
                 else int(args.class_index))
        before = float(kernels.softmax_rows(logits, 1.0)[0, label])
        item_cfg = dataclasses.replace(cfg, seed=_sub_seed(args.seed, i))
        adv = run_attack(model, image[None], label, item_cfg)[0]
        netpbm.write_ppm(str(out_dir / path.name), adv)
        after = float(model.predict_proba(adv[None])[0, label])
        return before, after

    results = _map_items(list(enumerate(files)), one, args.jobs, args.skip_errors)
    before = float(np.mean([r[0] for r in results]))
    after = float(np.mean([r[1] for r in results]))
    print(f"images={len(results)} mean_true_prob_before={before:.4f} "
          f"mean_true_prob_after={after:.4f}")
    return 0


def cmd_pnr_detect(args) -> int:
    model = weightfile.load_model(args.model)
    _check_class_index(model, args)
    check_pnr_epsilon(args.pnr_epsilon)
    items = ([(p, "clean") for p in _list_images(args.clean)]
             + [(p, "adversarial") for p in _list_images(args.adv)])

    def score(path_label):
        path, label = path_label
        _, _, amap = _attribute(model, path, args)
        return PNRRecord(path.stem, pnr(amap, args.pnr_epsilon), label)

    records = _map_items(items, score, args.jobs, args.skip_errors)
    write_records(args.out_prefix + ".records.csv", records)
    report = roc_analysis(records)
    write_table(args.out_prefix + ".report.csv",
                [name for name, _ in REPORT_ROWS] + ["num_clean", "num_adversarial"],
                [[getattr(report, name) for name, _ in REPORT_ROWS]
                 + [report.num_clean, report.num_adversarial]])
    print(_report_table(report))
    return 0


def cmd_detect_from_records(args) -> int:
    print(_report_table(roc_analysis(read_records(args.records)), REPORT_ROWS[:3]))
    return 0


def cmd_eval_loc(args) -> int:
    model = weightfile.load_model(args.model)
    _check_class_index(model, args)
    files = _list_images(args.data)

    def one(path):
        target_path = path.with_name(path.stem + "_target.pgm")
        if not target_path.exists():
            raise DataFormatError(f"missing target mask {target_path.name}")
        nontarget_path = path.with_name(path.stem + "_nontarget.pgm")
        _, _, amap = _attribute(model, path, args)
        target = netpbm.read_pgm(str(target_path))
        nontarget = netpbm.read_pgm(str(nontarget_path)) if nontarget_path.exists() else None
        return [[path.stem, rep.channel, rep.pixel_accuracy, rep.iou, rep.f1,
                 rep.precision, rep.recall, int(rep.fallback_unified)]
                for rep in evaluate_bidirectional(amap, target, nontarget) if rep is not None]

    rows = [row for item in _map_items(files, one, args.jobs, args.skip_errors)
            for row in item]
    write_table(args.out_prefix + ".csv", ["id", "channel", "pixel_accuracy", "iou", "f1",
                                           "precision", "recall", "fallback_unified"], rows)
    display = [[r[0], r[1]] + [f"{v:.4f}" for v in r[2:7]] for r in rows]
    for channel in ("unified", "positive", "negative"):
        sel = [r for r in rows if r[1] == channel]
        if sel:
            means = [float(np.mean([r[i] for r in sel])) for i in range(2, 7)]
            display.append([f"mean({len(sel)})", channel] + [f"{v:.4f}" for v in means])
    print(_table(["id", "channel", "pix_acc", "iou", "f1", "prec", "rec"], display))
    return 0


def cmd_eval_faith(args) -> int:
    model = weightfile.load_model(args.model)
    _check_class_index(model, args)
    files = _list_images(args.images)
    patch = model.config.patch_size

    def one(i_path):
        i, path = i_path
        image, c, amap = _attribute(model, path, args)
        prob_fn = class_probability_fn(model, c)
        rep = faithfulness(prob_fn, image, amap.patch_scores[0], patch)
        rand = [random_order_faithfulness(
                    prob_fn, image, amap.patch_scores[0].shape, patch,
                    _sub_seed(args.seed, i * args.seeds + s)).faithfulness
                for s in range(args.seeds)]
        return path.stem, rep, float(np.mean(rand)) if rand else float("nan")

    results = _map_items(list(enumerate(files)), one, args.jobs, args.skip_errors)
    rows = [[stem, rep.mif_auc, rep.lif_auc, rep.faithfulness, rand_mean]
            for stem, rep, rand_mean in results]
    write_table(args.out_prefix + ".csv",
                ["id", "mif_auc", "lif_auc", "faithfulness", "random_faithfulness_mean"], rows)
    write_table(args.out_prefix + ".curves.csv", ["id", "curve", "step", "value"],
                [[stem, kind, k, v] for stem, rep, _ in results
                 for kind, curve in (("mif", rep.mif_curve), ("lif", rep.lif_curve))
                 for k, v in enumerate(curve)])
    display = [[r[0]] + [f"{v:.4f}" for v in r[1:]] for r in rows]
    means = [float(np.mean([r[i] for r in rows])) for i in range(1, 5)]
    display.append([f"mean({len(rows)})"] + [f"{v:.4f}" for v in means])
    print(_table(["id", "mif_auc", "lif_auc", "faith", "rand_faith"], display))
    return 0


# -- parser -------------------------------------------------------------------


def _int_at_least(text: str, low: int) -> int:
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    return _int_at_least(text, 0)


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def _add_common_model_args(sp, attribution: bool = True):
    sp.add_argument("--model", required=True, help="BICAMW1 weight file")
    if attribution:
        sp.add_argument("--window", type=int, default=None,
                        help="layer aggregation window (default: from model config)")
        sp.add_argument("--temperature", type=float, default=None,
                        help="attribution softmax temperature (default: from config)")
        sp.add_argument("--class-index", type=int, default=None,
                        help="target class (default: model argmax per image)")


def _add_driver_args(sp):
    sp.add_argument("--jobs", type=_positive_int, default=1, help="parallel workers")
    sp.add_argument("--skip-errors", action="store_true",
                    help="skip failing items instead of aborting")
    sp.add_argument("--seed", type=_non_negative_int, default=0)


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="bicam",
        description="Signed attribution maps and PNR adversarial detection "
                    "for small vision transformers.")
    # main's pre-pass takes --config out of argv, before or after the command
    parser.add_argument("--config", help="flat key=value file of the command's options, "
                                         "before or after the command")
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary):
        sp = subs.add_parser(name, help=summary)
        sp.set_defaults(func=func)
        return sp

    sp = command("init-model", cmd_init_model, "create and save a seeded model")
    sp.add_argument("--out", required=True)
    sp.add_argument("--seed", type=_non_negative_int, default=0)
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

    sp = command("attribute", cmd_attribute, "signed attribution map for one image")
    _add_common_model_args(sp)
    sp.add_argument("--image", required=True)
    sp.add_argument("--interpolation", choices=["bilinear", "nearest"],
                    default="bilinear")
    sp.add_argument("--pnr-epsilon", type=float, default=DEFAULT_PNR_EPSILON)
    sp.add_argument("--out-prefix", required=True)

    sp = command("rollout", cmd_rollout, "attention-rollout baseline map")
    _add_common_model_args(sp, attribution=False)
    sp.add_argument("--image", required=True)
    sp.add_argument("--interpolation", choices=["bilinear", "nearest"],
                    default="bilinear")
    sp.add_argument("--out-prefix", required=True)

    sp = command("attack", cmd_attack, "attack a directory of images")
    _add_common_model_args(sp, attribution=False)
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

    sp = command("pnr-detect", cmd_pnr_detect, "PNR detection report from clean+adv dirs")
    _add_common_model_args(sp)
    sp.add_argument("--clean", required=True)
    sp.add_argument("--adv", required=True)
    sp.add_argument("--pnr-epsilon", type=float, default=DEFAULT_PNR_EPSILON)
    sp.add_argument("--out-prefix", required=True)
    _add_driver_args(sp)

    sp = command("detect-from-records", cmd_detect_from_records,
                 "score an existing records CSV")
    sp.add_argument("--records", required=True)

    sp = command("eval-loc", cmd_eval_loc, "localization metrics over image+mask dir")
    _add_common_model_args(sp)
    sp.add_argument("--data", required=True,
                    help="dir with NAME.ppm, NAME_target.pgm, optional NAME_nontarget.pgm")
    sp.add_argument("--out-prefix", required=True)
    _add_driver_args(sp)

    sp = command("eval-faith", cmd_eval_faith, "faithfulness curves over an image dir")
    _add_common_model_args(sp)
    sp.add_argument("--images", required=True)
    sp.add_argument("--seeds", type=_non_negative_int, default=5,
                    help="random-order baselines per image")
    sp.add_argument("--out-prefix", required=True)
    _add_driver_args(sp)

    return parser, subs.choices


def _with_config_flags(argv: list[str], path: str, commands: dict) -> list[str]:
    """argv with the config file's values placed right after the command
    name as ``--flag=value`` items, so argparse checks them as it checks
    typed flags and a flag typed later wins. A flag option set to true
    becomes the bare flag; set to false it is left out."""
    command = next((a for a in argv if not a.startswith("-")), None)
    if command not in commands:
        return argv  # argparse reports the missing or unknown command
    actions = {a.dest: a for a in commands[command]._actions if a.dest != "help"}
    values = load_config_file(path)
    unknown = sorted(set(values) - set(actions))
    if unknown:
        raise DataFormatError(f"unknown config keys for {command}: {', '.join(unknown)}")
    flags = []
    for key, value in values.items():
        action = actions[key]
        option = action.option_strings[0]
        if action.choices is not None and value not in action.choices:
            raise ParameterError(f"{path}: {key} must be one of {', '.join(action.choices)}, "
                                 f"got {value!r}")
        if action.nargs != 0:
            flags.append(f"{option}={value}")
        elif value.lower() in ("true", "false"):
            flags += [option] * (value.lower() == "true")
        else:
            raise DataFormatError(f"{path}: {key} takes true or false, got {value!r}")
    at = argv.index(command) + 1
    return argv[:at] + flags + argv[at:]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict, argparse.ArgumentParser]:
    """The command parser, its subparsers and the --config pre-pass, built
    once per process and never changed."""
    parser, commands = build_parser()
    prepass = argparse.ArgumentParser(prog=parser.prog, usage=argparse.SUPPRESS,
                                      add_help=False)
    prepass.add_argument("--config")
    return parser, commands, prepass


def main(argv=None) -> int:
    parser, commands, prepass = _parsers()
    argv = sys.argv[1:] if argv is None else argv
    try:
        # --config PATH, --config=PATH or a prefix, anywhere in argv
        known, argv = prepass.parse_known_args(argv)
        if known.config is not None:   # an empty path is refused, as a missing one
            argv = _with_config_flags(argv, known.config, commands)
        args = parser.parse_args(argv)
        return args.func(args)
    except NumericError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 4
    except ParameterError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except (BicamError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
