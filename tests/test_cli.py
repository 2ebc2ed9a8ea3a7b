import csv
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bicam import cli, counters, netpbm, weightfile
from bicam.attribution import bicam
from bicam.cli import _sub_seed, load_config_file, main, read_grid_csv
from bicam.detection import read_records, roc_analysis
from bicam.errors import DataFormatError
from bicam.toytrain import make_pattern_dataset


@pytest.fixture(scope="module")
def model_file(tmp_path_factory, toy_trained):
    path = tmp_path_factory.mktemp("model") / "toy.bw"
    weightfile.save_weights(toy_trained.weights, str(path))
    return str(path)


@pytest.fixture(scope="module")
def image_dir(tmp_path_factory, toy_config):
    d = tmp_path_factory.mktemp("images")
    images, labels = make_pattern_dataset(toy_config, per_class=2, seed=99,
                                          amp_lo=0.03, amp_hi=0.07)
    for i, img in enumerate(images):
        netpbm.write_ppm(str(d / f"img{i}.ppm"), img)
    return d


def run(argv):
    return main([str(a) for a in argv])


def test_ids_with_commas_quotes_and_newlines_round_trip(tmp_path, model_file, image_dir,
                                                        capsys):
    names = ["a,b", 'say "hi"', "two\nlines", "plain"]
    src = sorted(image_dir.glob("*.ppm"))
    for d in ("clean", "adv"):
        (tmp_path / d).mkdir()
        for name, path in zip(names, src):
            (tmp_path / d / (name + ".ppm")).write_bytes(path.read_bytes())
    prefix = tmp_path / "det"
    assert run(["pnr-detect", "--model", model_file, "--clean", tmp_path / "clean",
                "--adv", tmp_path / "adv", "--out-prefix", prefix]) == 0
    records = read_records(f"{prefix}.records.csv")
    assert sorted(r.sample_id for r in records) == sorted(names * 2)
    assert "plain,clean," in (tmp_path / "det.records.csv").read_text()   # unquoted
    assert run(["detect-from-records", "--records", f"{prefix}.records.csv"]) == 0
    assert run(["eval-faith", "--model", model_file, "--images", tmp_path / "clean",
                "--seeds", 0, "--out-prefix", tmp_path / "f"]) == 0
    with open(tmp_path / "f.csv", newline="") as fh:
        rows = list(csv.reader(fh, strict=True))
    assert [row[0] for row in rows] == ["id"] + sorted(names)
    assert {len(row) for row in rows} == {5}
    capsys.readouterr()


def test_ids_with_carriage_returns_round_trip(tmp_path, model_file, image_dir, capsys):
    # csv.reader ends a record at an unquoted carriage return, so an id
    # holding one is quoted in the records and the per-image CSVs
    names = ["a\rb", "c\r\nd", "\re", "plain"]
    src = sorted(image_dir.glob("*.ppm"))
    for d in ("clean", "adv"):
        (tmp_path / d).mkdir()
        for name, path in zip(names, src):
            (tmp_path / d / (name + ".ppm")).write_bytes(path.read_bytes())
    prefix = tmp_path / "det"
    assert run(["pnr-detect", "--model", model_file, "--clean", tmp_path / "clean",
                "--adv", tmp_path / "adv", "--out-prefix", prefix]) == 0
    text = (tmp_path / "det.records.csv").read_bytes()
    assert b'"a\rb",clean,' in text and b"plain,clean," in text
    records = read_records(f"{prefix}.records.csv")
    assert sorted(r.sample_id for r in records) == sorted(names * 2)
    assert run(["detect-from-records", "--records", f"{prefix}.records.csv"]) == 0
    assert run(["eval-faith", "--model", model_file, "--images", tmp_path / "clean",
                "--seeds", 0, "--out-prefix", tmp_path / "f"]) == 0
    with open(tmp_path / "f.csv", newline="") as fh:
        rows = list(csv.reader(fh, strict=True))
    assert [row[0] for row in rows] == ["id"] + sorted(names)
    assert {len(row) for row in rows} == {5}
    capsys.readouterr()


def test_init_model_deterministic(tmp_path, capsys):
    args = ["init-model", "--out", tmp_path / "a.bw", "--seed", 3,
            "--image-size", 16, "--classes", 2]
    assert run(args) == 0
    first = capsys.readouterr().out
    args[2] = tmp_path / "b.bw"
    assert run(args) == 0
    second = capsys.readouterr().out
    checks = [line for line in first.splitlines() if line.startswith("checksum=")]
    assert checks == [line for line in second.splitlines() if line.startswith("checksum=")]
    assert (tmp_path / "a.bw").read_bytes() == (tmp_path / "b.bw").read_bytes()


@pytest.mark.parametrize("width", ["0", "-4"])
def test_non_positive_image_width_is_a_usage_error(tmp_path, width, capsys):
    # 0 is a width, not "unset": it must not fall back to a square image
    assert run(["init-model", "--out", tmp_path / "m.bw", "--image-width", width]) == 2
    assert capsys.readouterr().err.startswith(
        f"usage error: image_width must be a positive integer, got {width}")
    assert list(tmp_path.iterdir()) == []
    assert run(["init-model", "--out", tmp_path / "m.bw", "--image-width", 8]) == 0
    cfg = weightfile.load_model(str(tmp_path / "m.bw")).config
    assert (cfg.image_height, cfg.image_width) == (16, 8)


@pytest.mark.parametrize("seed", [0, 7, 2**32 + 5])
def test_item_seeds_are_the_spawned_children(seed):
    # each item's seed is derived on its own, and equals the one a spawn of
    # every item's child gives
    children = np.random.SeedSequence(seed).spawn(40)
    for k in (0, 1, 2, 17, 39):
        assert _sub_seed(seed, k) == int(children[k].generate_state(1)[0])


def test_init_model_round_trip(tmp_path):
    out = tmp_path / "m.bw"
    assert run(["init-model", "--out", out, "--seed", 1, "--classes", 4,
                "--distillation"]) == 0
    model = weightfile.load_model(str(out))
    assert model.config.num_classes == 4
    assert model.config.distillation_token


def test_attribute_outputs_match_api(tmp_path, model_file, image_dir, toy_trained):
    img_path = sorted(image_dir.glob("*.ppm"))[0]
    prefix = str(tmp_path / "out")
    assert run(["attribute", "--model", model_file, "--image", img_path,
                "--class-index", 0, "--out-prefix", prefix]) == 0
    image = netpbm.read_ppm(str(img_path))
    amap = bicam(toy_trained, image[None], 0)
    assert np.array_equal(read_grid_csv(prefix + ".patches.csv"),
                          amap.patch_scores[0])
    assert np.array_equal(read_grid_csv(prefix + ".heatmap.csv"),
                          amap.heatmap[0, 0])
    for suffix in (".ppm", ".pos.ppm", ".neg.ppm"):
        assert (tmp_path / ("out" + suffix)).exists()


def test_attribute_rerun_byte_identical(tmp_path, model_file, image_dir, capsys):
    img_path = sorted(image_dir.glob("*.ppm"))[0]
    outs = []
    for name in ("r1", "r2"):
        prefix = str(tmp_path / name)
        assert run(["attribute", "--model", model_file, "--image", img_path,
                    "--out-prefix", prefix]) == 0
        outs.append({s: (tmp_path / (name + s)).read_bytes()
                     for s in (".patches.csv", ".heatmap.csv", ".ppm")})
    assert outs[0] == outs[1]
    assert "pnr=" in capsys.readouterr().out


def test_rollout_command(tmp_path, model_file, image_dir):
    img_path = sorted(image_dir.glob("*.ppm"))[0]
    prefix = str(tmp_path / "roll")
    assert run(["rollout", "--model", model_file, "--image", img_path,
                "--out-prefix", prefix]) == 0
    scores = read_grid_csv(prefix + ".patches.csv")
    assert scores.shape == (4, 4)
    assert (scores >= 0).all()


def _files_at_1_and_2_blas_threads(tmp_path, command, stem):
    """The files ``command`` writes on a 56x56/6-layer model (N = 197
    tokens) in a subprocess at 1 and at 2 BLAS threads, by name."""
    model, image = tmp_path / "m.bw", tmp_path / "img.ppm"
    assert run(["init-model", "--out", model, "--seed", 0, "--image-size", 56,
                "--patch-size", 4, "--layers", 6, "--heads", 4, "--embed-dim", 32,
                "--ffn-dim", 64, "--classes", 10]) == 0
    netpbm.write_ppm(str(image), np.random.default_rng(0).random((3, 56, 56)))
    script = "import sys\nfrom bicam.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        out.mkdir()
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "MKL_NUM_THREADS": threads,
               "PYTHONPATH": str(Path(weightfile.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", script, command, "--model", str(model),
                               "--image", str(image), "--out-prefix", str(out / stem)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        written.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    return written


def test_rollout_files_do_not_depend_on_the_blas_thread_count(tmp_path):
    # a chain of full [N, N] products wrote different last digits at 1 and
    # 2 BLAS threads, the chain of one CLS row does not
    written = _files_at_1_and_2_blas_threads(tmp_path, "rollout", "roll")
    assert set(written[0]) == {"roll.patches.csv", "roll.heatmap.csv", "roll.ppm"}
    assert written[0] == written[1]


def test_attribute_files_do_not_depend_on_the_blas_thread_count(tmp_path):
    written = _files_at_1_and_2_blas_threads(tmp_path, "attribute", "attr")
    assert set(written[0]) == {f"attr{s}" for s in (".patches.csv", ".heatmap.csv", ".ppm",
                                                     ".pos.ppm", ".neg.ppm")}
    assert written[0] == written[1]


def test_attack_command_and_quantized_ball(tmp_path, model_file, image_dir, capsys):
    out_dir = tmp_path / "adv"
    assert run(["attack", "--model", model_file, "--images", image_dir,
                "--out", out_dir, "--method", "pgd", "--seed", 0]) == 0
    msg = capsys.readouterr().out
    assert "mean_true_prob_before=" in msg
    for p in sorted(image_dir.glob("*.ppm")):
        clean = netpbm.read_ppm(str(p))
        adv = netpbm.read_ppm(str(out_dir / p.name))
        assert np.abs(adv - clean).max() <= 8.0 / 255.0 + 1.0 / 255.0


def test_attack_then_detect_end_to_end(tmp_path, model_file, image_dir, toy_trained,
                                       weak_test_set, capsys):
    out_dir = tmp_path / "adv"
    assert run(["attack", "--model", model_file, "--images", image_dir,
                "--out", out_dir, "--seed", 1]) == 0
    before, after = _parse_attack_line(capsys.readouterr().out)
    assert after < before  # the attack moved the mean true-class probability

    prefix = str(tmp_path / "det")
    assert run(["pnr-detect", "--model", model_file, "--clean", image_dir,
                "--adv", out_dir, "--out-prefix", prefix]) == 0
    capsys.readouterr()
    records = read_records(prefix + ".records.csv")
    assert len(records) == 2 * len(list(image_dir.glob("*.ppm")))
    rep = roc_analysis(records)
    assert 0.0 <= rep.auroc <= 1.0
    assert np.isfinite(rep.delta_pnr_mean)
    report_lines = (tmp_path / "det.report.csv").read_text().splitlines()
    assert report_lines[0].startswith("auroc,aupr,threshold")

    # re-run byte-identical
    prefix2 = str(tmp_path / "det2")
    assert run(["pnr-detect", "--model", model_file, "--clean", image_dir,
                "--adv", out_dir, "--out-prefix", prefix2]) == 0
    assert (tmp_path / "det.records.csv").read_bytes() == \
        (tmp_path / "det2.records.csv").read_bytes()
    assert (tmp_path / "det.report.csv").read_bytes() == \
        (tmp_path / "det2.report.csv").read_bytes()


def _parse_attack_line(out):
    line = next(l for l in out.splitlines() if "mean_true_prob_before" in l)
    parts = dict(kv.split("=") for kv in line.split() if "=" in kv)
    return float(parts["mean_true_prob_before"]), float(parts["mean_true_prob_after"])


def test_detect_from_records(tmp_path, capsys):
    p = tmp_path / "recs.csv"
    p.write_text("id,label,pnr\na,clean,0.1\nb,clean,0.2\na2,adversarial,0.8\n"
                 "b2,adversarial,0.9\n")
    assert run(["detect-from-records", "--records", p]) == 0
    out = capsys.readouterr().out
    assert "auroc" in out and "1.0000" in out


def test_eval_loc_command(tmp_path, model_file, image_dir):
    data = tmp_path / "locdata"
    data.mkdir()
    for i, p in enumerate(sorted(image_dir.glob("*.ppm"))[:2]):
        img = netpbm.read_ppm(str(p))
        netpbm.write_ppm(str(data / p.name), img)
        target = np.zeros((16, 16), np.uint8)
        target[:, :8] = 1
        netpbm.write_pgm(str(data / f"{p.stem}_target.pgm"), target)
        if i == 0:  # one image also gets a non-target mask
            netpbm.write_pgm(str(data / f"{p.stem}_nontarget.pgm"), 1 - target)
    prefix = str(tmp_path / "loc")
    assert run(["eval-loc", "--model", model_file, "--data", data,
                "--out-prefix", prefix]) == 0
    assert run(["eval-loc", "--model", model_file, "--data", data,
                "--out-prefix", str(tmp_path / "loc2")]) == 0
    assert (tmp_path / "loc.csv").read_bytes() == (tmp_path / "loc2.csv").read_bytes()
    lines = (tmp_path / "loc.csv").read_text().splitlines()
    assert lines[0] == "id,channel,pixel_accuracy,iou,f1,precision,recall,fallback_unified"
    channels = [l.split(",")[1] for l in lines[1:]]
    assert "positive" in channels and "negative" in channels and "unified" in channels


def test_eval_faith_command(tmp_path, model_file, image_dir):
    prefix = str(tmp_path / "faith")
    assert run(["eval-faith", "--model", model_file, "--images", image_dir,
                "--seeds", 2, "--seed", 5, "--out-prefix", prefix]) == 0
    lines = (tmp_path / "faith.csv").read_text().splitlines()
    assert lines[0] == "id,mif_auc,lif_auc,faithfulness,random_faithfulness_mean"
    assert len(lines) == 1 + len(list(image_dir.glob("*.ppm")))
    curves = (tmp_path / "faith.curves.csv").read_text().splitlines()
    assert curves[0] == "id,curve,step,value"
    # 4x4 grid -> 17 points per curve, 2 curves per image
    assert len(curves) == 1 + len(lines[1:]) * 2 * 17

    prefix2 = str(tmp_path / "faith2")
    assert run(["eval-faith", "--model", model_file, "--images", image_dir,
                "--seeds", 2, "--seed", 5, "--out-prefix", prefix2]) == 0
    assert (tmp_path / "faith.csv").read_bytes() == (tmp_path / "faith2.csv").read_bytes()
    assert (tmp_path / "faith.curves.csv").read_bytes() == \
        (tmp_path / "faith2.curves.csv").read_bytes()


def test_jobs_parallel_matches_serial(tmp_path, model_file, image_dir):
    p1, p2 = str(tmp_path / "s"), str(tmp_path / "p")
    for prefix, jobs in ((p1, 1), (p2, 3)):
        assert run(["pnr-detect", "--model", model_file, "--clean", image_dir,
                    "--adv", image_dir, "--out-prefix", prefix, "--jobs", jobs,
                    "--skip-errors"]) in (0, 3)
    if (tmp_path / "s.records.csv").exists() and (tmp_path / "p.records.csv").exists():
        assert (tmp_path / "s.records.csv").read_bytes() == \
            (tmp_path / "p.records.csv").read_bytes()


def test_exit_codes(tmp_path, model_file, image_dir):
    empty = tmp_path / "empty"
    empty.mkdir()
    # empty adversarial dir -> contract error -> 3
    assert run(["pnr-detect", "--model", model_file, "--clean", image_dir,
                "--adv", empty, "--out-prefix", tmp_path / "x"]) == 3
    # missing model file -> 3
    assert run(["attribute", "--model", tmp_path / "nope.bw",
                "--image", tmp_path / "nope.ppm", "--out-prefix", tmp_path / "y"]) == 3
    # usage error -> 2 (argparse exits via SystemExit)
    with pytest.raises(SystemExit) as e:
        run(["attribute"])
    assert e.value.code == 2


def test_config_file_defaults_and_rejection(tmp_path, model_file, image_dir, capsys):
    img_path = sorted(image_dir.glob("*.ppm"))[0]
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("# attribution defaults\ntemperature=3.5\nclass_index=1\n")
    prefix = str(tmp_path / "cfg_out")
    assert run(["attribute", "--config", cfgfile, "--model", model_file,
                "--image", img_path, "--out-prefix", prefix]) == 0
    assert "class=1" in capsys.readouterr().out

    bad = tmp_path / "bad.cfg"
    bad.write_text("not_a_key=1\n")
    assert run(["attribute", "--config", bad, "--model", model_file,
                "--image", img_path, "--out-prefix", prefix]) == 3

    malformed = tmp_path / "malformed.cfg"
    malformed.write_text("just a line\n")
    assert run(["attribute", "--config", malformed, "--model", model_file,
                "--image", img_path, "--out-prefix", prefix]) == 3


def test_a_config_call_leaves_the_next_call_the_built_in_defaults(tmp_path, monkeypatch):
    # every call, with --config or without, shares one parser that no call changes
    built = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    cli._parsers.cache_clear()
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("layers=2\nheads=4\n")
    for name, config in (("a", False), ("b", True), ("c", False), ("d", False)):
        argv = ["init-model", "--out", tmp_path / f"{name}.bw"]
        assert run(argv + (["--config", cfgfile] if config else [])) == 0
    assert len(built) == 1
    shapes = [(cfg.num_layers, cfg.num_heads) for cfg in
              (weightfile.load_model(str(tmp_path / f"{name}.bw")).config for name in "abcd")]
    assert shapes == [(4, 2), (2, 4), (4, 2), (4, 2)]


def test_a_config_file_can_supply_a_required_option(tmp_path, model_file, image_dir, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"model={model_file}\nseeds=0\n")
    common = ["--images", image_dir, "--out-prefix"]
    assert run(["--config", cfgfile, "eval-faith", *common, tmp_path / "file"]) == 0
    assert run(["eval-faith", "--model", model_file, "--seeds", 0,
                *common, tmp_path / "flags"]) == 0
    assert (tmp_path / "file.csv").read_bytes() == (tmp_path / "flags.csv").read_bytes()
    # the command line overrides the file's value
    assert run(["eval-faith", "--config", cfgfile, "--model", tmp_path / "missing.bw",
                *common, tmp_path / "over"]) == 3
    assert "missing.bw" in capsys.readouterr().err
    # an option the file does not supply stays required
    with pytest.raises(SystemExit) as e:
        run(["eval-faith", "--config", cfgfile, "--images", image_dir])
    assert e.value.code == 2
    assert "required: --out-prefix" in capsys.readouterr().err
    assert not (tmp_path / "over.csv").exists()


CONFIG_FORMS = [
    ("--conf before the command", "seeds=0", ["--conf", "{cfg}", "eval-faith"], 0),
    ("--conf after the command", "seeds=0", ["eval-faith", "--conf", "{cfg}"], 0),
    ("--config=PATH", "seeds=0", ["eval-faith", "--config={cfg}"], 0),
    ("a value that starts with a dash", "class_index=-1", ["eval-faith", "--config", "{cfg}"], 2),
    ("a help key", "help=true", ["eval-faith", "--config", "{cfg}"], 3),
    ("a config key", "config=other.cfg", ["eval-faith", "--config", "{cfg}"], 3)]


@pytest.mark.parametrize("line, head, code", [form[1:] for form in CONFIG_FORMS],
                         ids=[form[0] for form in CONFIG_FORMS])
def test_config_forms(tmp_path, model_file, image_dir, line, head, code, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(line + "\n")
    common = ["--model", model_file, "--images", image_dir, "--out-prefix"]
    argv = [a.format(cfg=cfgfile) for a in head]
    assert run([*argv, *common, tmp_path / "file"]) == code
    err = capsys.readouterr().err
    if code == 0:
        assert run(["eval-faith", "--seeds", 0, *common, tmp_path / "flags"]) == 0
        assert (tmp_path / "file.csv").read_bytes() == (tmp_path / "flags.csv").read_bytes()
    elif code == 2:
        # -1 reached the range check as the value, not as an option
        assert err.startswith("usage error: class index -1 out of range [0, 2)")
    else:
        assert err == f"error: unknown config keys for eval-faith: {line.partition('=')[0]}\n"
    assert (tmp_path / "file.csv").exists() == (code == 0)


@pytest.mark.parametrize("config", [["--config", ""], ["--config="]], ids=["spaced", "equals"])
def test_an_empty_config_path_exits_3(tmp_path, model_file, image_dir, config, capsys):
    img_path = sorted(image_dir.glob("*.ppm"))[0]
    assert run(["attribute", *config, "--model", model_file, "--image", img_path,
                "--out-prefix", tmp_path / "a"]) == 3
    # Path("") is the working directory: the message names the empty path,
    # not a directory the user never typed
    assert capsys.readouterr().err == "error: cannot read config file: the path is empty\n"
    assert list(tmp_path.iterdir()) == []


def test_config_file_parsing(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("# comment\nalpha=3\nbeta=0.5\ngamma=hello\nflag=true\n\n")
    cfg = load_config_file(str(p))
    assert cfg == {"alpha": "3", "beta": "0.5", "gamma": "hello", "flag": "true"}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numeric_error_exit_code(tmp_path, toy_config, image_dir):
    from bicam.vit import ViTWeights, init_weights
    weights = init_weights(toy_config, seed=0)
    tensors = {k: v.copy() for k, v in weights.tensors.items()}
    tensors["blocks.0.attn.q.weight"][:] = 1e308
    poisoned = tmp_path / "poison.bw"
    weightfile.save_weights(ViTWeights(toy_config, tensors), str(poisoned))
    img_path = sorted(image_dir.glob("*.ppm"))[0]
    assert run(["attribute", "--model", poisoned, "--image", img_path,
                "--out-prefix", tmp_path / "z"]) == 4


def test_pass_counts_per_command(tmp_path, model_file, image_dir, capsys):
    one = tmp_path / "one"
    one.mkdir()
    img_path = sorted(image_dir.glob("*.ppm"))[0]
    (one / img_path.name).write_bytes(img_path.read_bytes())
    counters.reset()
    assert run(["attribute", "--model", model_file, "--image", img_path,
                "--out-prefix", tmp_path / "a"]) == 0
    # class pick + capture forward, one backward
    assert counters.snapshot() == {"forward": 2, "backward": 1}
    counters.reset()
    assert run(["eval-faith", "--model", model_file, "--images", one,
                "--seeds", 1, "--out-prefix", tmp_path / "f"]) == 0
    # class pick + capture forward, then 17-point MIF and LIF curves for the
    # map and for one random order
    assert counters.snapshot() == {"forward": 2 + 2 * 17 + 2 * 17, "backward": 1}
    capsys.readouterr()


def test_non_finite_weight_file_exits_3(tmp_path, model_file, image_dir, capsys):
    raw = bytearray(Path(model_file).read_bytes())
    # the payload ends with head.bias; overwrite its last element
    raw[-8:] = struct.pack("<d", float("nan"))
    poisoned = tmp_path / "nan.bw"
    poisoned.write_bytes(bytes(raw))
    with pytest.raises(DataFormatError, match="'head.bias' has non-finite values"):
        weightfile.load_weights(str(poisoned))
    img_path = sorted(image_dir.glob("*.ppm"))[0]
    assert run(["attribute", "--model", poisoned, "--image", img_path,
                "--out-prefix", tmp_path / "n"]) == 3
    assert "non-finite" in capsys.readouterr().err


def test_attack_pass_counts(tmp_path, model_file, image_dir, capsys):
    one = tmp_path / "one"
    one.mkdir()
    img_path = sorted(image_dir.glob("*.ppm"))[0]
    (one / img_path.name).write_bytes(img_path.read_bytes())
    counters.reset()
    assert run(["attack", "--model", model_file, "--images", one, "--out",
                tmp_path / "adv", "--steps", 2, "--jobs", 1]) == 0
    # one clean forward (label and clean probability), a forward and a
    # backward per step, one forward on the adversarial image
    assert counters.snapshot() == {"forward": 4, "backward": 2}
    capsys.readouterr()


@pytest.mark.parametrize("class_index", [5, -1])
def test_attack_class_index_out_of_range_is_a_usage_error(tmp_path, model_file, image_dir,
                                                          class_index, capsys):
    assert run(["attack", "--model", model_file, "--images", image_dir, "--out",
                tmp_path / "adv", "--steps", 1, "--class-index", class_index]) == 2
    assert "usage error: class index" in capsys.readouterr().err


@pytest.mark.parametrize("image", ["present", "missing"])
def test_attribute_class_index_out_of_range_is_a_usage_error(tmp_path, model_file, image_dir,
                                                             image, capsys):
    # checked before the image is read, as in pnr-detect, eval-loc and
    # eval-faith: no forward runs, and a missing image is not what is reported
    img_path = sorted(image_dir.glob("*.ppm"))[0] if image == "present" else tmp_path / "no.ppm"
    counters.reset()
    assert run(["attribute", "--model", model_file, "--image", img_path, "--class-index", 7,
                "--out-prefix", tmp_path / "a"]) == 2
    assert capsys.readouterr().err == "usage error: class index 7 out of range [0, 2)\n"
    assert counters.snapshot() == {"forward": 0, "backward": 0}
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["init-model", "--seed", "-1"],
    ["attack", "--seed", "-3"],
    ["eval-faith", "--seed", "-1"],
    ["eval-faith", "--seeds", "-1"],
])
def test_negative_seed_is_a_usage_error(tmp_path, model_file, image_dir, argv, capsys):
    common = {"init-model": ["--out", tmp_path / "m.bw"],
              "attack": ["--model", model_file, "--images", image_dir, "--out", tmp_path / "adv"],
              "eval-faith": ["--model", model_file, "--images", image_dir,
                             "--out-prefix", tmp_path / "f"]}[argv[0]]
    with pytest.raises(SystemExit) as e:
        run(argv + common)
    assert e.value.code == 2
    assert "must be >= 0" in capsys.readouterr().err


JOBS_RUNS = [(command, jobs, via) for command in ("attack", "pnr-detect", "eval-loc", "eval-faith")
             for jobs in ("0", "-3") for via in ("flag", "config")]


@pytest.mark.parametrize("command, jobs, via", JOBS_RUNS,
                         ids=[" ".join(run) for run in JOBS_RUNS])
def test_jobs_below_one_is_a_usage_error(tmp_path, model_file, image_dir, command, jobs, via,
                                         monkeypatch, capsys):
    passes = []   # every thread's passes, pool threads' too
    monkeypatch.setattr(counters, "bump", passes.append)
    args = {"attack": ["--images", image_dir, "--out", tmp_path / "adv"],
            "pnr-detect": ["--clean", image_dir, "--adv", image_dir,
                           "--out-prefix", tmp_path / "d"],
            "eval-loc": ["--data", image_dir, "--out-prefix", tmp_path / "l"],
            "eval-faith": ["--images", image_dir, "--out-prefix", tmp_path / "f"]}[command]
    if via == "flag":
        option = [f"--jobs={jobs}"]
    else:
        (tmp_path / "run.cfg").write_text(f"jobs={jobs}\n")
        option = ["--config", tmp_path / "run.cfg"]
    with pytest.raises(SystemExit) as e:
        run([command, "--model", model_file, *args, *option])
    assert e.value.code == 2
    assert "must be >= 1" in capsys.readouterr().err
    assert passes == []
    assert [p.name for p in tmp_path.iterdir()] == (["run.cfg"] if via == "config" else [])


@pytest.mark.parametrize("line, code", [
    ("seeds=1.5", 2), ("window=2.5", 2), ("skip_errors=no", 3), ("skip_errors=1", 3)])
def test_config_values_get_the_flag_checks(tmp_path, model_file, image_dir, line, code):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(line + "\n")
    argv = ["eval-faith", "--config", cfgfile, "--model", model_file, "--images", image_dir,
            "--out-prefix", tmp_path / "f"]
    if code == 2:
        with pytest.raises(SystemExit) as e:
            run(argv)
        assert e.value.code == 2
    else:
        assert run(argv) == 3
    assert not (tmp_path / "f.csv").exists()


def test_config_before_and_after_the_command_agree(tmp_path, model_file, image_dir, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("seeds=1\nseed=7\ntemperature=3.0\nclass_index=1\n")
    common = ["--model", model_file, "--images", image_dir]
    assert run(["--config", cfgfile, "eval-faith", *common,
                "--out-prefix", tmp_path / "before"]) == 0
    assert run(["eval-faith", "--config", cfgfile, *common,
                "--out-prefix", tmp_path / "after"]) == 0
    assert run(["eval-faith", *common, "--seeds", 1, "--seed", 7, "--temperature", 3.0,
                "--class-index", 1, "--out-prefix", tmp_path / "flags"]) == 0
    for suffix in (".csv", ".curves.csv"):
        flags = (tmp_path / ("flags" + suffix)).read_bytes()
        assert (tmp_path / ("before" + suffix)).read_bytes() == flags
        assert (tmp_path / ("after" + suffix)).read_bytes() == flags
    # the config's seeds=1 took effect: 17-point MIF and LIF curves per image
    assert len(flags.splitlines()) == 1 + 2 * 17 * len(list(image_dir.glob("*.ppm")))
    capsys.readouterr()


@pytest.mark.parametrize("command", ["attack", "eval-faith", "eval-loc"])
def test_jobs_two_writes_the_same_bytes_as_jobs_one(tmp_path, model_file, image_dir,
                                                    command, capsys):
    # the files and the stdout summary; attack's pool threads walk one graph
    # per PGD step at once
    data = image_dir
    if command == "eval-loc":
        data = tmp_path / "loc"
        data.mkdir()
        for p in sorted(image_dir.glob("*.ppm")):
            (data / p.name).write_bytes(p.read_bytes())
            target = np.zeros((16, 16), np.uint8)
            target[:, :8] = 1
            netpbm.write_pgm(str(data / f"{p.stem}_target.pgm"), target)
    flag = "--data" if command == "eval-loc" else "--images"
    outs = []
    for jobs in (1, 2):
        out = tmp_path / f"j{jobs}"
        option = "--out" if command == "attack" else "--out-prefix"
        argv = [command, "--model", model_file, flag, data, option, out,
                "--jobs", jobs] + (["--seeds", 2] if command == "eval-faith" else [])
        assert run(argv) == 0
        written = out.iterdir() if command == "attack" else tmp_path.glob(f"j{jobs}.*")
        outs.append(({p.name.removeprefix(out.name): p.read_bytes() for p in written},
                     capsys.readouterr().out))
    assert outs[0] == outs[1] and outs[0][0] and outs[0][1]


@pytest.mark.parametrize("command", ["attack", "pnr-detect", "eval-loc", "eval-faith"])
def test_every_item_failing_under_skip_errors_exits_3(tmp_path, model_file, image_dir,
                                                      command, capsys):
    bad = tmp_path / "bad"
    bad.mkdir()
    good = sorted(image_dir.glob("*.ppm"))[0].read_bytes()
    (bad / "t.ppm").write_bytes(good[:len(good) // 2])
    (bad / "t_target.pgm").write_bytes(b"P5\n16 16\n255\n" + bytes(256))
    args = {"attack": ["--images", bad, "--out", tmp_path / "adv"],
            "pnr-detect": ["--clean", bad, "--adv", bad, "--out-prefix", tmp_path / "d"],
            "eval-loc": ["--data", bad, "--out-prefix", tmp_path / "l"],
            "eval-faith": ["--images", bad, "--out-prefix", tmp_path / "f"]}[command]
    assert run([command, "--model", model_file, *args, "--skip-errors"]) == 3
    err = capsys.readouterr().err
    assert "skipped" in err and "truncated" in err
    assert "items failed" in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("command", ["pnr-detect", "eval-faith"])
def test_entries_that_cannot_be_opened_are_skipped(tmp_path, model_file, image_dir,
                                                   command, jobs, capsys):
    # a directory and a dangling symlink named like images fail with an
    # OSError, not a BicamError; a mode-000 file would not, as root reads it
    mixed, good = tmp_path / "mixed", tmp_path / "good"
    mixed.mkdir()
    good.mkdir()
    img = sorted(image_dir.glob("*.ppm"))[0].read_bytes()
    (mixed / "a.ppm").write_bytes(img)
    (good / "b.ppm").write_bytes(img)
    (mixed / "dir.ppm").mkdir()
    (mixed / "gone.ppm").symlink_to(tmp_path / "missing.ppm")
    prefix = tmp_path / "out"
    args = {"pnr-detect": ["--clean", mixed, "--adv", good],
            "eval-faith": ["--images", mixed, "--seeds", 1]}[command]
    argv = [command, "--model", model_file, *args, "--out-prefix", prefix, "--jobs", jobs]
    assert run(argv) == 3
    assert capsys.readouterr().err.startswith("error: ")
    assert run(argv + ["--skip-errors"]) == 0
    skipped = [line for line in capsys.readouterr().err.splitlines()
               if line.startswith("skipped ")]
    assert len(skipped) == 2, skipped
    if command == "pnr-detect":
        ids = sorted(r.sample_id for r in read_records(f"{prefix}.records.csv"))
        assert ids == ["a", "b"]
    else:
        with open(f"{prefix}.csv", newline="") as fh:
            assert [row[0] for row in csv.reader(fh)] == ["id", "a"]


def _first_record(raw: bytes):
    """Offsets of the first tensor record's name and rank fields."""
    name_at = 7 + 40 + 8 + 4 + 4
    (nlen,) = struct.unpack_from("<i", raw, name_at - 4)
    return name_at, name_at + nlen


@pytest.mark.parametrize("damage", ["name_byte", "negative_dim", "huge_dims"])
def test_malformed_tensor_record_exits_3(tmp_path, model_file, image_dir, damage, capsys):
    raw = bytearray(Path(model_file).read_bytes())
    name_at, rank_at = _first_record(raw)
    if damage == "name_byte":
        raw[name_at] = 0xFF
    elif damage == "negative_dim":
        struct.pack_into("<i", raw, rank_at + 4, -3)
    else:
        struct.pack_into("<4i", raw, rank_at, 3, *[2**31 - 1] * 3)
    bad = tmp_path / "bad.bw"
    bad.write_bytes(bytes(raw))
    img_path = sorted(image_dir.glob("*.ppm"))[0]
    assert run(["attribute", "--model", bad, "--image", img_path,
                "--out-prefix", tmp_path / "n"]) == 3
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", ["attack", "pnr-detect", "eval-loc", "eval-faith"])
def test_out_of_range_class_index_is_a_usage_error_under_skip_errors(
        tmp_path, model_file, image_dir, command, capsys):
    args = {"attack": ["--images", image_dir, "--out", tmp_path / "adv"],
            "pnr-detect": ["--clean", image_dir, "--adv", image_dir,
                           "--out-prefix", tmp_path / "d"],
            "eval-loc": ["--data", image_dir, "--out-prefix", tmp_path / "l"],
            "eval-faith": ["--images", image_dir, "--out-prefix", tmp_path / "f"]}[command]
    assert run([command, "--model", model_file, *args, "--class-index", 9,
                "--skip-errors"]) == 2
    err = capsys.readouterr().err
    assert "usage error: class index 9 out of range" in err
    assert "skipped" not in err


@pytest.mark.parametrize("command, option", [("pnr-detect", ["--window", 9]),
                                             ("eval-faith", ["--temperature", 0]),
                                             ("attack", ["--epsilon", -1])])
def test_bad_options_checked_inside_items_are_usage_errors_under_skip_errors(
        tmp_path, model_file, image_dir, command, option, capsys):
    args = {"attack": ["--images", image_dir, "--out", tmp_path / "adv"],
            "pnr-detect": ["--clean", image_dir, "--adv", image_dir,
                           "--out-prefix", tmp_path / "d"],
            "eval-faith": ["--images", image_dir, "--out-prefix", tmp_path / "f"]}[command]
    assert run([command, "--model", model_file, *args, *option, "--skip-errors",
                "--jobs", 2]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "skipped" not in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command, line", [("attack", "method=bogus"),
                                           ("attribute", "interpolation=1")])
def test_config_values_outside_the_choices_are_usage_errors(tmp_path, model_file, image_dir,
                                                            command, line, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(line + "\n")
    img_path = sorted(image_dir.glob("*.ppm"))[0]
    args = {"attack": ["--images", image_dir, "--out", tmp_path / "adv", "--skip-errors"],
            "attribute": ["--image", img_path, "--out-prefix", tmp_path / "a"]}[command]
    assert run([command, "--config", cfgfile, "--model", model_file, *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "must be one of" in err
    assert "skipped" not in err


def test_non_utf8_config_file_exits_3(tmp_path, model_file, image_dir, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_bytes(b"temperature=2.0\n# \xff\n")
    with pytest.raises(DataFormatError, match="not utf-8"):
        load_config_file(str(cfgfile))
    img_path = sorted(image_dir.glob("*.ppm"))[0]
    assert run(["attribute", "--config", cfgfile, "--model", model_file, "--image", img_path,
                "--out-prefix", tmp_path / "a"]) == 3
    assert "not utf-8" in capsys.readouterr().err


@pytest.mark.parametrize("body", [b"a,clean,0.1\nb,adversarial,\xff\n",
                                  b"a,clean,nan\nb,adversarial,0.9\n",
                                  b"a,clean,0.1\nb,adversarial,inf\n",
                                  b"a,clean,-inf\nb,adversarial,0.9\n",
                                  b'"a"b,clean,0.1\n', b'"a,clean,0.1\n'],
                         ids=["non-utf8", "nan", "inf", "-inf", "text-after-quote",
                              "unclosed-quote"])
def test_detect_from_bad_records_exits_3(tmp_path, body, capsys):
    p = tmp_path / "recs.csv"
    p.write_bytes(b"id,label,pnr\n" + body)
    assert run(["detect-from-records", "--records", p]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "auroc" not in captured.out


def test_start_up_loads_erf_without_the_scipy_special_package():
    # scipy.special's package init (its array-API layer, numpy.f2py) was
    # most of the CLI's start-up; GELU needs its erf ufunc alone
    script = ("import sys\n"
              "import numpy as np\n"
              "import bicam.cli\n"
              "from bicam import kernels\n"
              "kernels.gelu(np.linspace(-3.0, 3.0, 7))\n"
              "print(sorted({'scipy.special', 'numpy.f2py', 'scipy._lib._array_api'}\n"
              "             & set(sys.modules)))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(weightfile.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_forged_layer_count_fails_fast_under_an_address_space_cap(tmp_path, model_file,
                                                                   image_dir):
    raw = bytearray(Path(model_file).read_bytes())
    struct.pack_into("<i", raw, 7 + 3 * 4, 5_000_000)   # num_layers
    forged = tmp_path / "forged.bw"
    forged.write_bytes(bytes(raw))
    img_path = sorted(image_dir.glob("*.ppm"))[0]
    argv = ["attribute", "--model", str(forged), "--image", str(img_path),
            "--out-prefix", str(tmp_path / "a")]
    # the cap turns an allocation sized by the header into a MemoryError
    # (exit 1) instead of letting it take the machine's memory
    script = ("import resource, sys\n"
              "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
              "from bicam.cli import main\n"
              "sys.exit(main(sys.argv[1:]))\n")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": str(Path(weightfile.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert "tensor count" in proc.stderr


def test_tensor_count_must_fit_in_the_file(tmp_path, model_file):
    raw = bytearray(Path(model_file).read_bytes())
    struct.pack_into("<i", raw, 7 + 3 * 4, 5_000_000)   # num_layers
    struct.pack_into("<i", raw, 7 + 40 + 8, 8 + 16 * 5_000_000)
    forged = tmp_path / "forged.bw"
    forged.write_bytes(bytes(raw))
    with pytest.raises(DataFormatError, match="too small for 80000008 tensors"):
        weightfile.load_weights(str(forged))


NON_FINITE_OPTIONS = [
    (["attribute", "--temperature", "nan"], "temperature"),
    (["attribute", "--temperature", "inf"], "temperature"),
    (["attribute", "--pnr-epsilon", "nan"], "pnr epsilon"),
    (["attack", "--epsilon", "nan"], "epsilon"),
    (["attack", "--epsilon", "inf"], "epsilon"),
    (["attack", "--step-size", "inf"], "step_size"),
    (["attack", "--step-size", "nan"], "step_size"),
    (["pnr-detect", "--pnr-epsilon", "nan"], "pnr epsilon"),
    (["eval-faith", "--temperature=-inf"], "temperature"),
    (["init-model", "--temperature", "nan"], "temperature"),
]


@pytest.mark.parametrize("argv, option", NON_FINITE_OPTIONS,
                         ids=[" ".join(argv) for argv, _ in NON_FINITE_OPTIONS])
def test_non_finite_float_options_are_usage_errors(tmp_path, model_file, image_dir, argv,
                                                   option, capsys):
    img_path = sorted(image_dir.glob("*.ppm"))[0]
    common = {"init-model": ["--out", tmp_path / "m.bw"],
              "attribute": ["--model", model_file, "--image", img_path,
                            "--out-prefix", tmp_path / "a"],
              "attack": ["--model", model_file, "--images", image_dir, "--out", tmp_path / "adv"],
              "pnr-detect": ["--model", model_file, "--clean", image_dir, "--adv", image_dir,
                             "--out-prefix", tmp_path / "d"],
              "eval-faith": ["--model", model_file, "--images", image_dir,
                             "--out-prefix", tmp_path / "f"]}[argv[0]]
    assert run(argv + common) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: {option} must be finite")
    assert list(tmp_path.iterdir()) == []


def test_non_finite_temperature_in_a_weight_header_exits_3(tmp_path, model_file, image_dir,
                                                           capsys):
    raw = bytearray(Path(model_file).read_bytes())
    struct.pack_into("<d", raw, 7 + 40, float("nan"))   # temperature
    bad = tmp_path / "nan_temperature.bw"
    bad.write_bytes(bytes(raw))
    img_path = sorted(image_dir.glob("*.ppm"))[0]
    assert run(["attribute", "--model", bad, "--image", img_path,
                "--out-prefix", tmp_path / "a"]) == 3
    assert "temperature must be finite" in capsys.readouterr().err
    assert not list(tmp_path.glob("a.*"))


def test_bad_attack_option_fails_before_any_image_is_read(tmp_path, model_file, image_dir,
                                                          capsys):
    counters.reset()
    assert run(["attack", "--model", model_file, "--images", image_dir, "--out",
                tmp_path / "adv", "--epsilon", -1, "--skip-errors"]) == 2
    assert counters.snapshot() == {"forward": 0, "backward": 0}
    assert capsys.readouterr().err.startswith("usage error: epsilon must be finite")
    assert not (tmp_path / "adv").exists()


BAD_PNR_EPSILON_RUNS = [(cmd, eps, flags) for eps in ("nan", "0", "-1")
                        for cmd, flags in [("attribute", []), ("pnr-detect", []),
                                           ("pnr-detect", ["--jobs", "2"]),
                                           ("pnr-detect", ["--skip-errors"])]]


@pytest.mark.parametrize("command, epsilon, flags", BAD_PNR_EPSILON_RUNS,
                         ids=[" ".join([c, e, *f]) for c, e, f in BAD_PNR_EPSILON_RUNS])
def test_bad_pnr_epsilon_fails_before_any_image_is_read(tmp_path, model_file, image_dir,
                                                        command, epsilon, flags, monkeypatch,
                                                        capsys):
    passes = []   # every thread's passes, pool threads' too
    monkeypatch.setattr(counters, "bump", passes.append)
    img_path = sorted(image_dir.glob("*.ppm"))[0]
    inputs = {"attribute": ["--image", img_path],
              "pnr-detect": ["--clean", image_dir, "--adv", image_dir]}[command]
    assert run([command, "--model", model_file, *inputs, "--out-prefix", tmp_path / "o",
                f"--pnr-epsilon={epsilon}", *flags]) == 2
    assert passes == []
    assert capsys.readouterr().err.startswith("usage error: pnr epsilon must be finite")
    assert list(tmp_path.iterdir()) == []
