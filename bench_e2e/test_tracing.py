"""The traced run's wrappers count passes and come off again afterwards.

    python3 -m pytest bench_e2e/test_tracing.py
"""

import sys
from pathlib import Path

import pytest

sys.path[:0] = [str(Path(__file__).resolve().parent.parent / "src"),
                str(Path(__file__).resolve().parent)]

from bicam import attribution, cli, counters, evaluation, netpbm  # noqa: E402
from bicam.toytrain import make_pattern_dataset  # noqa: E402
from bicam.vit import ViTConfig  # noqa: E402

import tracing  # noqa: E402

CONFIG = ViTConfig(image_height=16, image_width=16, patch_size=4, num_layers=4,
                   num_heads=2, embed_dim=16, ffn_dim=32, num_classes=2)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("bench")
    model = d / "model.bw"
    assert cli.main(["init-model", "--out", str(model), "--seed", "0"]) == 0
    images, _ = make_pattern_dataset(CONFIG, 1, 0)
    (d / "images").mkdir()
    for i, img in enumerate(images):
        netpbm.write_ppm(str(d / "images" / f"img{i}.ppm"), img)
    return d, str(model)


def attribute(d, model):
    return cli.main(["attribute", "--model", model, "--image",
                     str(d / "images" / "img0.ppm"), "--out-prefix", str(d / "a")])


def faith(d, model):
    return cli.main(["eval-faith", "--model", model, "--images", str(d / "images"),
                     "--seeds", "1", "--out-prefix", str(d / "f")])


def test_traced_pass_counts_both_bindings(inputs, capsys):
    d, model = inputs
    tracer = tracing.Tracer()
    counters.reset()
    with tracing.traced(tracer):
        assert cli.bicam is attribution.bicam
        assert cli.faithfulness is evaluation.faithfulness
        assert attribute(d, model) == 0
        assert faith(d, model) == 0
    c = tracer.counts
    # attribute: 2 forwards, 1 backward; eval-faith on 2 images with one
    # random order: (1 + 1 + 34 + 34) forwards and 1 backward each
    assert (c["forward"], c["backward"]) == (2 + 2 * 70, 1 + 2)
    assert counters.snapshot() == {"forward": c["forward"], "backward": c["backward"]}
    # faithfulness is reached through cli's binding (MIF/LIF) and through
    # evaluation's own name (inside random_order_faithfulness)
    assert len(tracer.durations["evaluation.faithfulness"]) == 2 * 2
    assert len(tracer.durations["evaluation.random_order_faithfulness"]) == 2
    assert len(tracer.durations["attribution.bicam"]) == 1 + 2
    assert len(tracer.durations["cli.item"]) == 2
    capsys.readouterr()


def test_untraced_run_after_traced_run_calls_originals(inputs, capsys):
    d, model = inputs
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        assert not tracing.originals_restored()
        assert attribute(d, model) == 0
    seen = dict(tracer.counts)
    assert seen["forward"] == 2
    assert tracing.originals_restored()
    assert attribute(d, model) == 0
    assert faith(d, model) == 0
    assert dict(tracer.counts) == seen
    capsys.readouterr()


def test_wrappers_come_off_when_the_run_fails(inputs, capsys):
    d, model = inputs
    with pytest.raises(ZeroDivisionError):
        with tracing.traced(tracing.Tracer()):
            1 / 0
    assert tracing.originals_restored()
    capsys.readouterr()
