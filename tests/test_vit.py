import dataclasses

import numpy as np
import pytest

from bicam import counters
from bicam.autodiff import Graph
from bicam.errors import (DimensionError, NumericError, ParameterError, StateError)
from bicam.kernels import softmax_rows
from bicam.toytrain import make_pattern_dataset, train_step
from bicam.vit import (ViTConfig, ViTWeights, VisionTransformer, cross_entropy,
                       default_layer_window, expected_shapes, init_weights,
                       new_model)

from conftest import TINY, bit_equal, finite_difference, grad_rel_error


def test_config_validation():
    with pytest.raises(ParameterError):
        ViTConfig(num_classes=3, **{**TINY, "image_height": 15})
    with pytest.raises(ParameterError):
        ViTConfig(num_classes=3, **{**TINY, "embed_dim": 15})
    with pytest.raises(ParameterError):
        ViTConfig(num_classes=3, layer_window=5, **TINY)
    with pytest.raises(ParameterError):
        ViTConfig(num_classes=3, temperature=0.0, **TINY)
    with pytest.raises(ParameterError):
        ViTConfig(num_classes=0, **TINY)


@pytest.mark.parametrize("num_layers", [4, 6, 12])
@pytest.mark.parametrize("num_heads", [2, 4])
@pytest.mark.parametrize("grid", [4, 14])
def test_token_count_and_capture_window_matrix(num_layers, num_heads, grid):
    cfg = ViTConfig(image_height=4 * grid, image_width=4 * grid, patch_size=4,
                    num_layers=num_layers, num_heads=num_heads, embed_dim=16,
                    ffn_dim=16, num_classes=2)
    assert cfg.num_tokens == grid * grid + 1
    assert int(np.sqrt(cfg.num_tokens - 1)) ** 2 == cfg.num_tokens - 1
    assert 1 <= cfg.layer_window <= num_layers
    assert cfg.layer_window == default_layer_window(num_layers)

    model = new_model(cfg, seed=1)
    img = np.random.default_rng(0).random((1, 3, cfg.image_height, cfg.image_width))
    res = model.forward(img, capture=True)
    want = list(range(num_layers - cfg.layer_window + 1, num_layers + 1))
    assert [c.layer for c in res.captures] == want
    assert len(res.captures) == cfg.layer_window


def test_distillation_token_counts():
    cfg = ViTConfig(num_classes=2, distillation_token=True, **TINY)
    assert cfg.num_special_tokens == 2
    assert cfg.num_tokens == 16 + 2
    model = new_model(cfg, seed=0)
    res = model.forward(np.zeros((1, 3, 16, 16)), capture=True)
    n = cfg.num_tokens
    assert res.captures[-1].attn_logits.shape == (1, 2, n, n)


def test_init_determinism_and_seed_sensitivity(tiny_config):
    w1 = init_weights(tiny_config, seed=5)
    w2 = init_weights(tiny_config, seed=5)
    w3 = init_weights(tiny_config, seed=6)
    assert w1.checksum() == w2.checksum()
    assert w1.checksum() != w3.checksum()


def test_initialized_model_produces_finite_logits(tiny_model, tiny_config):
    img = np.random.default_rng(3).random((1, 3, 16, 16))
    logits = tiny_model.predict_logits(img)
    assert logits.shape == (1, tiny_config.num_classes)
    assert np.isfinite(logits).all()


def test_zero_weights_zero_image_gives_equal_logits(tiny_config):
    zeros = {n: np.zeros(s) for n, s in expected_shapes(tiny_config).items()}
    model = VisionTransformer(tiny_config, ViTWeights(tiny_config, zeros))
    logits = model.predict_logits(np.zeros((1, 3, 16, 16)))[0]
    assert np.array_equal(logits, np.full(tiny_config.num_classes, logits[0]))


def test_weight_validation_rejects_mismatch(tiny_config):
    shapes = expected_shapes(tiny_config)
    tensors = {n: np.zeros(s) for n, s in shapes.items()}
    bad = dict(tensors)
    bad["head.weight"] = np.zeros((2, 2))
    with pytest.raises(DimensionError):
        ViTWeights(tiny_config, bad)
    missing = dict(tensors)
    del missing["cls_token"]
    with pytest.raises(DimensionError):
        ViTWeights(tiny_config, missing)
    extra = dict(tensors)
    extra["rogue"] = np.zeros(3)
    with pytest.raises(DimensionError):
        ViTWeights(tiny_config, extra)
    nan = dict(tensors)
    nan["blocks.0.ln1.gain"] = np.full(tiny_config.embed_dim, np.nan)
    with pytest.raises(ParameterError, match="non-finite"):
        ViTWeights(tiny_config, nan)


def test_forward_shape_check(tiny_model):
    with pytest.raises(DimensionError):
        tiny_model.forward(np.zeros((1, 3, 8, 8)))


@pytest.mark.parametrize("probe", ["tiny", "distillation", "cls_out_offsets"])
def test_tape_free_forward_is_bit_equal_to_tape(tiny_model, tiny_config, probe):
    model, kwargs = tiny_model, {}
    if probe == "distillation":
        model = new_model(dataclasses.replace(tiny_config, distillation_token=True), seed=2)
    elif probe == "cls_out_offsets":
        delta = np.random.default_rng(12).standard_normal((1, tiny_config.embed_dim))
        kwargs["cls_out_offsets"] = {2: 1e-3 * delta}
    img = np.random.default_rng(13).random((2, 3, 16, 16))
    taped = model.forward(img, capture=True, layer_window=tiny_config.num_layers, **kwargs)
    plain = model.forward(img, capture=True, layer_window=tiny_config.num_layers,
                          tape=False, **kwargs)
    assert np.array_equal(plain.logits.data, taped.logits.data)
    assert len(plain.captures) == len(taped.captures) == tiny_config.num_layers
    for a, b in zip(plain.captures, taped.captures):
        assert a.layer == b.layer
        assert np.array_equal(a.attn_logits, b.attn_logits)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.cls_out, b.cls_out)
        assert a.merged_node == -1 and b.merged_node >= 0
    assert not plain.graph.nodes and not plain.weight_nodes


def test_predict_logits_records_no_tape(tiny_model, monkeypatch):
    recorded = []
    record = Graph._record

    def counting(self, *args):
        recorded.append(args[0])
        return record(self, *args)

    monkeypatch.setattr(Graph, "_record", counting)
    img = np.random.default_rng(14).random((1, 3, 16, 16))
    counters.reset()
    logits = tiny_model.predict_logits(img)
    assert recorded == []
    assert counters.snapshot() == {"forward": 1, "backward": 0}
    assert np.array_equal(logits, tiny_model.forward(img).logits.data)
    assert recorded


def test_backward_class_refuses_tape_free_result(tiny_model):
    res = tiny_model.forward(np.zeros((1, 3, 16, 16)), capture=True, tape=False)
    with pytest.raises(StateError, match="forward ran without a tape"):
        tiny_model.backward_class(res, 0)


def test_forward_is_pure(tiny_model):
    img = np.random.default_rng(4).random((1, 3, 16, 16))
    r1 = tiny_model.forward(img, capture=True)
    r2 = tiny_model.forward(img, capture=True)
    assert np.array_equal(r1.logits.data, r2.logits.data)
    for a, b in zip(r1.captures, r2.captures):
        assert np.array_equal(a.attn_logits, b.attn_logits)
        assert np.array_equal(a.cls_out, b.cls_out)


def test_capture_recompute_oracle(tiny_model, tiny_config):
    """cls_out must equal concat_h softmax(cls logit row) . V_h to 1e-10."""
    img = np.random.default_rng(5).random((1, 3, 16, 16))
    res = tiny_model.forward(img, capture=True, layer_window=tiny_config.num_layers)
    for cap in res.captures:
        b, h, n, dh = cap.values.shape
        for bi in range(b):
            parts = []
            for hi in range(h):
                alpha = softmax_rows(
                    np.ascontiguousarray(cap.attn_logits[bi, hi, 0:1, :]), 1.0)
                parts.append((alpha @ cap.values[bi, hi]).ravel())
            rec = np.concatenate(parts)
            assert np.abs(rec - cap.cls_out[bi]).max() < 1e-10


def test_capture_gradient_lifecycle(tiny_model):
    img = np.random.default_rng(6).random((1, 3, 16, 16))
    res = tiny_model.forward(img, capture=True)
    assert all(c.cls_out_grad is None for c in res.captures)
    tiny_model.backward_class(res, 0)
    d = tiny_model.config.embed_dim
    assert all(c.cls_out_grad is not None and c.cls_out_grad.shape == (1, d)
               for c in res.captures)


def test_backward_class_requires_capture(tiny_model):
    img = np.zeros((1, 3, 16, 16))
    res = tiny_model.forward(img, capture=False)
    with pytest.raises(StateError):
        tiny_model.backward_class(res, 0)
    res = tiny_model.forward(img, capture=True)
    with pytest.raises(ParameterError):
        tiny_model.backward_class(res, 99)


def test_cls_out_grad_matches_finite_differences(tiny_model, tiny_config):
    """Perturb the captured CLS attention output directly and compare."""
    img = np.random.default_rng(7).random((1, 3, 16, 16))
    c = 1
    d = tiny_config.embed_dim
    res = tiny_model.forward(img, capture=True, layer_window=tiny_config.num_layers)
    tiny_model.backward_class(res, c)
    for layer in (tiny_config.num_layers, tiny_config.num_layers - 1):
        cap = next(cp for cp in res.captures if cp.layer == layer)

        def f(delta):
            r = tiny_model.forward(img, cls_out_offsets={layer: delta[None, :]})
            return float(r.logits.data[0, c])

        fd = finite_difference(f, np.zeros(d))
        assert grad_rel_error(cap.cls_out_grad[0], fd) < 1e-4


def test_different_classes_give_different_gradients(tiny_model):
    img = np.random.default_rng(8).random((1, 3, 16, 16))
    r1 = tiny_model.forward(img, capture=True)
    tiny_model.backward_class(r1, 0)
    r2 = tiny_model.forward(img, capture=True)
    tiny_model.backward_class(r2, 1)
    assert not np.allclose(r1.captures[-1].cls_out_grad, r2.captures[-1].cls_out_grad)


def test_head_row_scaling_scales_gradient_linearly(tiny_model, tiny_config):
    img = np.random.default_rng(9).random((1, 3, 16, 16))
    c = 2
    res = tiny_model.forward(img, capture=True)
    tiny_model.backward_class(res, c)

    tensors = {k: v.copy() for k, v in tiny_model.weights.tensors.items()}
    tensors["head.weight"][:, c] *= 2.0
    scaled = VisionTransformer(tiny_config, ViTWeights(tiny_config, tensors))
    res2 = scaled.forward(img, capture=True)
    scaled.backward_class(res2, c)
    for a, b in zip(res.captures, res2.captures):
        assert np.array_equal(2.0 * a.cls_out_grad, b.cls_out_grad)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("tape", [True, False], ids=["tape", "tape_free"])
@pytest.mark.parametrize("weight, prefix", [
    ("patch_embed.weight", "patch embedding: "),
    ("blocks.1.attn.q.weight", "block 2: "),
    ("head.weight", "classifier head: "),
], ids=["patch_embed", "block", "head"])
def test_numeric_error_names_the_layer(tiny_config, weight, prefix, tape):
    weights = init_weights(tiny_config, seed=0)
    tensors = {k: v.copy() for k, v in weights.tensors.items()}
    tensors[weight][:] = 1e308
    model = VisionTransformer(tiny_config, ViTWeights(tiny_config, tensors))
    with pytest.raises(NumericError, match=f"^{prefix}non-finite values produced by matmul$"):
        model.forward(np.random.default_rng(0).random((1, 3, 16, 16)), tape=tape)


def test_full_input_gradient_matches_finite_differences(tiny_model):
    """Logit gradient wrt every pixel of a small input, against central FD."""
    rng = np.random.default_rng(10)
    img = rng.random((1, 3, 16, 16))
    c = 0
    res = tiny_model.forward(img, capture=True)
    tiny_model.backward_class(res, c)
    ad = res.graph.gradients[res.image_node]

    # spot-check a pixel subset here; the acceptance suite sweeps all pixels
    idx = [(0, ch, r, cc) for ch in range(3) for r in (0, 7, 15) for cc in (3, 12)]
    h = 1e-5
    for i in idx:
        per = img.copy()
        per[i] += h
        up = tiny_model.forward(per).logits.data[0, c]
        per[i] -= 2 * h
        dn = tiny_model.forward(per).logits.data[0, c]
        fd = (up - dn) / (2 * h)
        assert abs(fd - ad[i]) / max(abs(fd), np.abs(ad).max(), 1e-12) < 1e-4


def test_loss_and_input_grad_shapes(tiny_model):
    img = np.random.default_rng(11).random((3, 16, 16))
    loss, grad = tiny_model.loss_and_input_grad(img, [1])
    assert np.isfinite(loss)
    assert grad.shape == img.shape

    img4 = img[None]
    loss4, grad4 = tiny_model.loss_and_input_grad(img4, [1])
    assert grad4.shape == img4.shape
    assert loss == loss4


def test_weights_rejects_config_mismatch(tiny_config):
    other = dataclasses.replace(tiny_config, num_classes=5)
    w = init_weights(other, 0)
    with pytest.raises(ParameterError):
        VisionTransformer(tiny_config, w)


@pytest.mark.parametrize("distillation", [False, True], ids=["cls", "distillation"])
def test_weights_are_tape_leaves_only_when_weight_grads_are_asked(tiny_config, distillation):
    cfg = dataclasses.replace(tiny_config, distillation_token=distillation)
    model = new_model(cfg, seed=1)
    img = np.random.default_rng(20).random((1, 3, 16, 16))
    shapes = expected_shapes(cfg)

    plain = model.forward(img)
    leaves = [nid for nid, n in enumerate(plain.graph.nodes) if n.op == "leaf"]
    # the image and the special tokens, which concat takes as tape operands
    assert len(leaves) == 1 + cfg.num_special_tokens
    assert leaves[0] == plain.image_node
    assert not plain.weight_nodes

    full = model.forward(img, weight_grads=True)
    assert set(full.weight_nodes) == set(shapes)
    for name, nid in full.weight_nodes.items():
        node = full.graph.nodes[nid]
        assert node.op == "leaf" and node.shape == shapes[name]
    assert sum(n.op == "leaf" for n in full.graph.nodes) == 1 + len(shapes)


@pytest.mark.parametrize("distillation", [False, True], ids=["cls", "distillation"])
def test_input_gradients_do_not_depend_on_weight_grads(tiny_config, distillation):
    cfg = dataclasses.replace(tiny_config, distillation_token=distillation)
    model = new_model(cfg, seed=2)
    img = np.random.default_rng(21).random((2, 3, 16, 16))
    runs = []
    for weight_grads in (False, True):
        res = model.forward(img, capture=True, layer_window=cfg.num_layers,
                            weight_grads=weight_grads)
        model.backward_class(res, 1)
        runs.append(res)
    const, leaves = runs
    assert bit_equal(const.logits.data, leaves.logits.data)
    for a, b in zip(const.captures, leaves.captures):
        assert bit_equal(a.cls_out_grad, b.cls_out_grad)
    assert bit_equal(const.graph.gradients[const.image_node],
                      leaves.graph.gradients[leaves.image_node])

    loss, grad = model.loss_and_input_grad(img, [0, 2])
    res = model.forward(img, weight_grads=True)
    ce = cross_entropy(res.logits, [0, 2])
    res.graph.backward(ce)
    assert loss == ce.item()
    assert bit_equal(grad, res.graph.gradients[res.image_node])


def test_train_step_weight_gradient_matches_finite_differences(toy_config):
    model = new_model(toy_config, seed=3)
    images, labels = make_pattern_dataset(toy_config, per_class=2, seed=4)

    class Recorder:
        def update(self, weights, grads):
            self.grads = grads

    opt = Recorder()
    train_step(model, opt, images, labels)
    assert set(opt.grads) == set(expected_shapes(toy_config))

    h = 1e-5
    for name, idx in (("blocks.0.attn.q.weight", (3, 5)), ("head.bias", (1,))):
        w = model.weights.tensors[name]
        orig = w[idx]
        losses = []
        for delta in (h, -h):
            w[idx] = orig + delta
            losses.append(cross_entropy(model.forward(images).logits, labels).item())
        w[idx] = orig
        fd = (losses[0] - losses[1]) / (2 * h)
        ad = opt.grads[name][idx]
        assert abs(ad - fd) <= 1e-5 * abs(fd)
