import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicam import autodiff, counters, vit
from bicam.autodiff import Graph
from bicam.errors import (ContractError, DimensionError, NumericError, ParameterError,
                          StateError)
from bicam.kernels import softmax_rows
from bicam.toytrain import make_pattern_dataset, train_step
from bicam.vit import (ViTConfig, ViTWeights, VisionTransformer, cross_entropy,
                       default_layer_window, expected_shapes, init_weights,
                       new_model, tensor_count)

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


@pytest.mark.parametrize("distillation", [False, True], ids=["plain", "distillation"])
def test_attention_is_one_tape_node_per_block(tiny_config, distillation):
    cfg = dataclasses.replace(tiny_config, distillation_token=distillation)
    res = new_model(cfg, seed=0).forward(np.random.default_rng(0).random((1, 3, 16, 16)))
    ops = [node.op for node in res.graph.nodes]
    # the five-node chain (transpose, matmul, scale, softmax, matmul) it
    # replaces recorded 136 (plain) or 139 (distillation) nodes here
    assert len(ops) == (139 if distillation else 136) - 4 * cfg.num_layers
    assert ops.count("attention") == cfg.num_layers
    assert "softmax" not in ops and "scale" not in ops


def _capture_forwards(model, monkeypatch):
    """Record every ForwardResult the model's own methods produce."""
    results = []
    forward = model.forward

    def recording(*args, **kwargs):
        results.append(forward(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(model, "forward", recording)
    return results


def _keep_all(graph, root):
    graph.retain = None
    graph.backward(root)
    return graph.gradients


@pytest.mark.parametrize("distillation", [False, True], ids=["plain", "distillation"])
def test_backward_class_keeps_only_the_image_and_merged_gradients(tiny_config, distillation):
    cfg = dataclasses.replace(tiny_config, distillation_token=distillation)
    model = new_model(cfg, seed=4)
    img = np.random.default_rng(22).random((2, 3, 16, 16))
    res = model.forward(img, capture=True, layer_window=2)
    model.backward_class(res, 1)
    retained = {res.image_node} | {cap.merged_node for cap in res.captures}
    assert len(retained) == 3
    assert set(res.graph.gradients) == retained
    kept = {nid: res.graph.gradients[nid] for nid in retained}
    with pytest.raises(ContractError, match="not retained"):
        res.graph.grad(res.logits)

    full = _keep_all(res.graph, res.logits.narrow(-1, 1, 1).sum())
    assert len(full) > 10 * len(retained)
    for nid, grad in kept.items():
        assert bit_equal(grad, full[nid])
    for cap in res.captures:
        assert bit_equal(cap.cls_out_grad, full[cap.merged_node][:, 0, :])


@pytest.mark.parametrize("distillation", [False, True], ids=["plain", "distillation"])
def test_loss_and_input_grad_keeps_only_the_image_gradient(tiny_config, distillation,
                                                          monkeypatch):
    cfg = dataclasses.replace(tiny_config, distillation_token=distillation)
    model = new_model(cfg, seed=5)
    img = np.random.default_rng(23).random((2, 3, 16, 16))
    results = _capture_forwards(model, monkeypatch)
    loss, grad = model.loss_and_input_grad(img, [0, 2])
    (res,) = results
    assert set(res.graph.gradients) == {res.image_node}
    with pytest.raises(ContractError, match="not retained"):
        res.graph.grad(res.logits)

    again = model.forward(img)
    full = _keep_all(again.graph, cross_entropy(again.logits, [0, 2]))
    assert bit_equal(grad, full[again.image_node])


@pytest.mark.parametrize("distillation", [False, True], ids=["plain", "distillation"])
def test_train_step_keeps_only_the_weight_gradients(toy_config, distillation, monkeypatch):
    cfg = dataclasses.replace(toy_config, distillation_token=distillation)
    model = new_model(cfg, seed=6)
    images, labels = make_pattern_dataset(cfg, per_class=2, seed=7)

    class Recorder:
        def update(self, weights, grads):
            self.grads = grads

    opt = Recorder()
    results = _capture_forwards(model, monkeypatch)
    train_step(model, opt, images, labels)
    (res,) = results
    assert set(res.graph.gradients) == set(res.weight_nodes.values())
    with pytest.raises(ContractError, match="not retained"):
        res.graph.grad(res.logits)

    again = model.forward(images, weight_grads=True)
    full = _keep_all(again.graph, cross_entropy(again.logits, labels))
    for name, nid in again.weight_nodes.items():
        assert bit_equal(opt.grads[name], full[nid])


def test_retained_backward_class_peak_memory_is_lower(tiny_model):
    img = np.random.default_rng(24).random((1, 3, 16, 16))

    def peak(run):
        res = tiny_model.forward(img, capture=True)
        tracemalloc.start()
        try:
            run(res)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(lambda res: tiny_model.backward_class(res, 0))  # warm up lazy imports
    retained = peak(lambda res: tiny_model.backward_class(res, 0))
    keep_all = peak(lambda res: res.graph.backward(res.logits.narrow(-1, 0, 1).sum()))
    assert retained <= 0.8 * keep_all, (retained, keep_all)


@pytest.mark.parametrize("distillation", [False, True], ids=["plain", "distillation"])
def test_tensor_count_matches_expected_shapes(tiny_config, distillation):
    for layers in (1, 2, 4):
        cfg = dataclasses.replace(tiny_config, num_layers=layers, layer_window=1,
                                  distillation_token=distillation)
        assert tensor_count(cfg) == len(expected_shapes(cfg))


# the attribute-56 model shape: 14x14 patch grid, N = 197 tokens
SHAPE_56 = dict(image_height=56, image_width=56, patch_size=4, num_layers=6, num_heads=4,
                embed_dim=32, ffn_dim=64, num_classes=10)


@pytest.mark.parametrize("shape", ["tiny", "56x56"])
def test_fused_qkv_forward_is_bit_equal_to_tape(tiny_config, shape):
    # the tape-free forward runs one [Wq|Wk|Wv] product per block, the tape
    # three separate ones: equal only if BLAS computes each output column
    # from its own weight column in the same order
    cfg = tiny_config if shape == "tiny" else ViTConfig(**SHAPE_56)
    model = new_model(cfg, seed=5)
    batch = 2 if shape == "tiny" else 1
    img = np.random.default_rng(15).random((batch, 3, cfg.image_height, cfg.image_width))
    taped = model.forward(img, capture=True, layer_window=cfg.num_layers)
    plain = model.forward(img, capture=True, layer_window=cfg.num_layers, tape=False)
    assert plain.captures[0].attn_logits.shape[-1] == cfg.num_tokens
    assert bit_equal(plain.logits.data, taped.logits.data)
    assert len(plain.captures) == len(taped.captures) == cfg.num_layers
    for a, b in zip(plain.captures, taped.captures):
        for name in ("attn_logits", "attn_probs", "values", "cls_out"):
            assert bit_equal(getattr(a, name), getattr(b, name)), (a.layer, name)


def test_tape_free_forward_reads_weights_updated_in_place(tiny_config):
    model = new_model(tiny_config, seed=6)
    img = np.random.default_rng(16).random((1, 3, 16, 16))
    model.predict_logits(img)   # anything it cached is stale after the update
    model.weights.tensors["blocks.0.attn.k.weight"] += 0.05
    fresh = VisionTransformer(tiny_config, ViTWeights(
        tiny_config, {k: v.copy() for k, v in model.weights.tensors.items()}))
    before = new_model(tiny_config, seed=6).predict_logits(img)
    assert bit_equal(model.predict_logits(img), fresh.predict_logits(img))
    assert not np.array_equal(model.predict_logits(img), before)


# Block 2 (blocks.1) made to overflow in one linear at a time. Its layer
# norms get gain 0 and bias 1, so the linear inputs are all ones and each
# product is sum(weight column): d = 16 entries of w give 16 * w, ffn_dim =
# 32 entries 32 * w. 1e308 overflows a product; 6.25e306 gives a finite
# product of 1e308, which a 1e308 bias takes over the top.
_ONES_IN = {"blocks.1.ln1.gain": 0.0, "blocks.1.ln1.bias": 1.0,
            "blocks.1.ln2.gain": 0.0, "blocks.1.ln2.bias": 1.0}
_BIG, _HALF = 1e308, 1e308 / 16
OVERFLOWS = {
    "q_product": ({"blocks.1.attn.q.weight": _BIG}, "matmul"),
    "k_bias_add": ({"blocks.1.attn.k.weight": _HALF, "blocks.1.attn.k.bias": _BIG}, "add"),
    "v_product": ({"blocks.1.attn.v.weight": _BIG}, "matmul"),
    # the tape stops at q's add before it reaches v's product
    "q_bias_add_before_v_product": ({"blocks.1.attn.q.weight": _HALF,
                                     "blocks.1.attn.q.bias": _BIG,
                                     "blocks.1.attn.v.weight": _BIG}, "add"),
    # v = ones, so every head's attention output is ones too
    "out_product": ({"blocks.1.attn.v.weight": 0.0, "blocks.1.attn.v.bias": 1.0,
                     "blocks.1.attn.out.weight": _BIG}, "matmul"),
    "out_bias_add": ({"blocks.1.attn.v.weight": 0.0, "blocks.1.attn.v.bias": 1.0,
                      "blocks.1.attn.out.weight": _HALF,
                      "blocks.1.attn.out.bias": _BIG}, "add"),
    "fc1_product": ({"blocks.1.ffn.fc1.weight": _BIG}, "matmul"),
    "fc1_bias_add": ({"blocks.1.ffn.fc1.weight": _HALF,
                      "blocks.1.ffn.fc1.bias": _BIG}, "add"),
    # fc1 gives ones, so fc2's input is gelu(1) ~ 0.84 everywhere
    "fc2_product": ({"blocks.1.ffn.fc1.weight": 0.0, "blocks.1.ffn.fc1.bias": 1.0,
                     "blocks.1.ffn.fc2.weight": _BIG}, "matmul"),
    "fc2_bias_add": ({"blocks.1.ffn.fc1.weight": 0.0, "blocks.1.ffn.fc1.bias": 1.0,
                      "blocks.1.ffn.fc2.weight": _BIG / 32,
                      "blocks.1.ffn.fc2.bias": 1.7e308}, "add"),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("case", list(OVERFLOWS))
def test_numeric_error_text_is_the_same_on_both_paths(tiny_config, case):
    overrides, op = OVERFLOWS[case]
    tensors = {k: v.copy() for k, v in init_weights(tiny_config, seed=0).tensors.items()}
    for name, value in {**_ONES_IN, **overrides}.items():
        tensors[name][...] = value
    model = VisionTransformer(tiny_config, ViTWeights(tiny_config, tensors))
    img = np.random.default_rng(0).random((1, 3, 16, 16))
    messages = []
    for tape in (True, False):
        with pytest.raises(NumericError) as info:
            model.forward(img, tape=tape)
        messages.append(str(info.value))
    assert messages == [f"block 2: non-finite values produced by {op}"] * 2


def _neg_inf_scores(t):
    # block 1 sees zero patch rows and a CLS row of +-1: ln1 gives patch
    # rows of 0 and a CLS row of about +-1, so k is 0 for every patch and
    # about -1e308 for the CLS token; q = 1 makes the CLS column of every
    # score row -inf while the patch columns are 0, and softmax hides it
    t["patch_embed.weight"][...] = 0.0
    t["pos_embed"][...] = 0.0
    t["cls_token"][...] = np.resize([1.0, -1.0], t["cls_token"].shape)
    t["blocks.0.attn.q.weight"][...] = 0.0
    t["blocks.0.attn.q.bias"][...] = 1.0
    t["blocks.0.attn.k.weight"][...] = 0.0
    t["blocks.0.attn.k.weight"][0] = -1e308


def _ln_f_overflow_off_cls(t):
    # the blocks add nothing, so ln_f sees the embedding: a CLS row of +-1
    # (|xhat| < 1 times a gain of 1e308 stays finite) and one patch row with
    # a single spike (xhat ~ 3.9 overflows); narrow then drops that row
    for i in range(4):
        for name in ("attn.out.weight", "attn.out.bias", "ffn.fc2.weight", "ffn.fc2.bias"):
            t[f"blocks.{i}.{name}"][...] = 0.0
    t["patch_embed.weight"][...] = 0.0
    t["pos_embed"][...] = 0.0
    t["pos_embed"][5, 0] = 3.0
    t["cls_token"][...] = np.resize([1.0, -1.0], t["cls_token"].shape)
    t["ln_f.gain"][...] = 1e308


def _ln1_overflow_into_zero_rows(t):
    # feature 3 of block 2's ln1 overflows wherever xhat > ~0.8, and no q,
    # k or v column reads it: off the tape that inf reaches the scores only
    # as inf * 0, which BLAS must keep a NaN
    t["blocks.1.ln1.gain"][3] = 1e308
    t["blocks.1.ln1.bias"][3] = 1e308
    for p in "qkv":
        t[f"blocks.1.attn.{p}.weight"][3] = 0.0


HIDDEN = {
    "neg_inf_scores": (_neg_inf_scores, "block 1: non-finite values produced by matmul"),
    "ln_f_off_cls_row": (_ln_f_overflow_off_cls,
                         "classifier head: non-finite values produced by layernorm"),
    "ln1_into_zero_weight_rows": (_ln1_overflow_into_zero_rows,
                                  "block 2: non-finite values produced by layernorm"),
}


def _forward_outcome(model, img, tape):
    """The logits, or the NumericError text."""
    try:
        return model.forward(img, tape=tape).logits.data
    except NumericError as e:
        return str(e)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("case", list(HIDDEN))
def test_numeric_error_text_is_the_same_where_a_non_finite_can_hide(tiny_config, case):
    # the tape-free forward checks only some values; these cases make a
    # non-finite value that no later op would carry to the logits unchecked
    edit, message = HIDDEN[case]
    tensors = {k: v.copy() for k, v in init_weights(tiny_config, seed=0).tensors.items()}
    edit(tensors)
    model = VisionTransformer(tiny_config, ViTWeights(tiny_config, tensors))
    img = np.random.default_rng(0).random((1, 3, 16, 16))
    assert [_forward_outcome(model, img, tape) for tape in (True, False)] == [message] * 2


_SCALED_NAMES = [name for name in expected_shapes(ViTConfig(num_classes=3, **TINY))
                 if not name.endswith(".bias")]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_SCALED_NAMES), st.integers(150, 308),
                          st.sampled_from([1.0, -1.0])),
                min_size=1, max_size=4, unique_by=lambda s: s[0]))
def test_huge_weights_raise_the_same_text_or_give_the_same_logits(tiny_config, scalings):
    tensors = {k: v.copy() for k, v in init_weights(tiny_config, seed=3).tensors.items()}
    for name, exponent, sign in scalings:
        t = tensors[name]
        t /= np.abs(t).max()          # then its largest entry is 10 ** exponent
        t *= sign * 10.0 ** exponent
    model = VisionTransformer(tiny_config, ViTWeights(tiny_config, tensors))
    img = np.random.default_rng(18).random((1, 3, 16, 16))
    taped, plain = (_forward_outcome(model, img, tape) for tape in (True, False))
    if isinstance(taped, str) or isinstance(plain, str):
        assert taped == plain
    else:
        assert bit_equal(taped, plain)


@pytest.mark.parametrize("tape, products", [(True, 8 * 4 + 2), (False, 6 * 4 + 2)],
                         ids=["tape", "tape_free"])
def test_matmul_calls_per_forward(tiny_model, tiny_config, monkeypatch, tape, products):
    # per block: q, k, v (one fused product off the tape), out, fc1, fc2 and
    # attention's two; plus the patch embedding and the head
    calls = []
    matmul = np.matmul

    def counting(*args, **kwargs):
        calls.append(1)
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", counting)
    tiny_model.forward(np.random.default_rng(17).random((1, 3, 16, 16)), tape=tape)
    assert tiny_config.num_layers == 4 and len(calls) == products


def test_finite_checks_per_tape_free_forward(tiny_model, tiny_config, monkeypatch):
    # the input, the embedding's output, each block's attention scores,
    # attention output and block output, ln_f and the logits
    ops = []
    check = autodiff.check_finite

    def counting(out, op):
        ops.append(op)
        return check(out, op)

    monkeypatch.setattr(autodiff, "check_finite", counting)
    monkeypatch.setattr(vit, "check_finite", counting)
    tiny_model.forward(np.random.default_rng(17).random((1, 3, 16, 16)), tape=False)
    assert tiny_config.num_layers == 4 and len(ops) == 3 * 4 + 4


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_failing_tape_free_forward_counts_one_forward(tiny_config):
    # the tape re-run that names the op is part of the same forward
    tensors = {k: v.copy() for k, v in init_weights(tiny_config, seed=0).tensors.items()}
    tensors["head.weight"][:] = 1e308
    model = VisionTransformer(tiny_config, ViTWeights(tiny_config, tensors))
    message = "^classifier head: non-finite values produced by matmul$"
    counters.reset()
    with pytest.raises(NumericError, match=message):
        model.forward(np.random.default_rng(0).random((1, 3, 16, 16)), tape=False)
    assert counters.snapshot() == {"forward": 1, "backward": 0}
