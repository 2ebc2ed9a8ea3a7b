import dataclasses
import gc
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from bicam import autodiff, counters, kernels, vit
from bicam.attribution import attention_rollout, bicam
from bicam.autodiff import INPUT
from bicam.errors import (ContractError, DimensionError, NumericError, ParameterError,
                          StateError)
from bicam.kernels import softmax_rows
from bicam.toytrain import make_pattern_dataset, train_step
from bicam.vit import (ViTConfig, ViTWeights, VisionTransformer, class_score,
                       cross_entropy, default_layer_window, expected_shapes, init_weights,
                       new_model, tensor_count)

from conftest import (SHAPE_56, TINY, bit_equal, finite_difference, grad_rel_error,
                      stage_names)


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
    assert res.captures[-1].attn_logits.shape == (1, 2, 1, n)


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
    model = VisionTransformer(ViTWeights(tiny_config, zeros))
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
                          wrt=None, **kwargs)
    assert np.array_equal(plain.logits.data, taped.logits.data)
    assert len(plain.captures) == len(taped.captures) == tiny_config.num_layers
    for a, b in zip(plain.captures, taped.captures):
        assert a.layer == b.layer
        assert np.array_equal(a.attn_logits, b.attn_logits)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.cls_out, b.cls_out)
    assert not plain.graph.nodes


def test_predict_logits_records_no_tape(tiny_model, monkeypatch):
    results = _capture_forwards(tiny_model, monkeypatch)
    img = np.random.default_rng(14).random((1, 3, 16, 16))
    counters.reset()
    logits = tiny_model.predict_logits(img)
    (res,) = results
    assert res.graph.nodes == []
    assert counters.snapshot() == {"forward": 1, "backward": 0}
    assert np.array_equal(logits, tiny_model.forward(img).logits.data)
    assert results[-1].graph.nodes


def test_predict_logits_hands_each_caller_its_own_array(tiny_model):
    img = np.random.default_rng(15).random((1, 3, 16, 16))
    taped = tiny_model.forward(img).logits.data
    first = tiny_model.predict_logits(img)
    assert bit_equal(first, taped)
    first[:] = np.nan
    second = tiny_model.predict_logits(img)
    assert second is not first
    assert bit_equal(second, taped)


def test_backward_class_refuses_tape_free_result(tiny_model):
    res = tiny_model.forward(np.zeros((1, 3, 16, 16)), capture=True, wrt=None)
    with pytest.raises(StateError, match="forward ran without a tape"):
        tiny_model.backward_class(res, 0)
    # and neither backward root takes detached logits
    with pytest.raises(ContractError, match="requires logits recorded on a tape"):
        class_score(res.logits, 0)
    with pytest.raises(ContractError, match="requires logits recorded on a tape"):
        cross_entropy(res.logits, [0])


def test_cross_entropy_checks_its_labels():
    logits = autodiff.Tensor(np.zeros((2, 3)), autodiff.Graph())
    with pytest.raises(DimensionError, match="does not match batch 2"):
        cross_entropy(logits, [0, 1, 2])
    with pytest.raises(ParameterError, match="label out of range"):
        cross_entropy(logits, [0, 3])
    with pytest.raises(ParameterError, match="label out of range"):
        cross_entropy(logits, [-1, 0])


def test_roots_carry_the_gradient_of_their_value():
    # each root's gradient with respect to the logits, against finite
    # differences of the root's value
    rng = np.random.default_rng(27)
    logits0 = rng.standard_normal((3, 4))
    roots = [lambda t: class_score(t, 2), lambda t: cross_entropy(t, [0, 3, 3])]
    for root in roots:
        made = root(autodiff.Tensor(logits0, autodiff.Graph()))
        fd = finite_difference(lambda x: root(autodiff.Tensor(x, autodiff.Graph())).item(),
                               logits0)
        assert made.grad.shape == logits0.shape
        assert grad_rel_error(made.grad, fd) < 1e-8
    score = class_score(autodiff.Tensor(logits0, autodiff.Graph()), 2)
    assert bit_equal(score.grad, np.eye(4)[[2, 2, 2]])


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
    # class_score, a public root, checks the range itself: no wrap-around
    for c in (-1, tiny_model.config.num_classes):
        with pytest.raises(ParameterError, match="out of range"):
            class_score(res.logits, c)


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
    scaled = VisionTransformer(ViTWeights(tiny_config, tensors))
    res2 = scaled.forward(img, capture=True)
    scaled.backward_class(res2, c)
    for a, b in zip(res.captures, res2.captures):
        assert np.array_equal(2.0 * a.cls_out_grad, b.cls_out_grad)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("wrt", ["input", None], ids=["tape", "tape_free"])
@pytest.mark.parametrize("weight, prefix", [
    ("patch_embed.weight", "patch embedding: "),
    ("blocks.1.attn.q.weight", "block 2: "),
    ("head.weight", "classifier head: "),
], ids=["patch_embed", "block", "head"])
def test_numeric_error_names_the_layer(tiny_config, weight, prefix, wrt):
    weights = init_weights(tiny_config, seed=0)
    tensors = {k: v.copy() for k, v in weights.tensors.items()}
    tensors[weight][:] = 1e308
    model = VisionTransformer(ViTWeights(tiny_config, tensors))
    with pytest.raises(NumericError, match=f"^{prefix}non-finite values produced by matmul$"):
        model.forward(np.random.default_rng(0).random((1, 3, 16, 16)), wrt=wrt)


def test_full_input_gradient_matches_finite_differences(tiny_model):
    """Logit gradient wrt every pixel of a small input, against central FD."""
    rng = np.random.default_rng(10)
    img = rng.random((1, 3, 16, 16))
    c = 0
    res = tiny_model.forward(img, capture=True)
    tiny_model.backward_class(res, c)
    ad = res.graph.gradients[INPUT]

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


@pytest.mark.parametrize("distillation", [False, True], ids=["cls", "distillation"])
def test_weight_grads_are_filled_only_when_asked(tiny_config, distillation):
    cfg = dataclasses.replace(tiny_config, distillation_token=distillation)
    model = new_model(cfg, seed=1)
    img = np.random.default_rng(20).random((1, 3, 16, 16))
    shapes = expected_shapes(cfg)

    plain = model.forward(img)
    assert plain.weight_grads is None
    assert model.forward(img, wrt=None).weight_grads is None
    assert model.forward(img, capture=True, wrt="captures").weight_grads is None

    full = model.forward(img, wrt="weights")
    assert full.weight_grads == {}   # filled by the backward, not the forward
    full.graph.backward(cross_entropy(full.logits, [1]))
    assert list(full.weight_grads) != list(shapes)   # stored in walk order, by name
    assert set(full.weight_grads) == set(shapes)
    for name, grad in full.weight_grads.items():
        assert grad.shape == shapes[name] and grad.flags.c_contiguous, name
    # the weights are no tape node: the tape is the same stage chain either way
    assert stage_names(full.graph.nodes) == stage_names(plain.graph.nodes)
    # and the weights are the walk's one target: the embedding's backward
    # hands on no image gradient
    assert full.graph.gradients == {}


@pytest.mark.parametrize("distillation", [False, True], ids=["cls", "distillation"])
def test_input_gradients_do_not_depend_on_weight_grads(tiny_config, distillation):
    # the gradient each stage hands to the stage below is the same bits with
    # the weights as the target, as every layer's cls_out_grad shows; only
    # the embedding hands on no image gradient
    cfg = dataclasses.replace(tiny_config, distillation_token=distillation)
    model = new_model(cfg, seed=2)
    img = np.random.default_rng(21).random((2, 3, 16, 16))
    runs = []
    for wrt in ("input", "weights"):
        res = model.forward(img, capture=True, layer_window=cfg.num_layers, wrt=wrt)
        model.backward_class(res, 1)
        runs.append(res)
    image, weights = runs
    assert bit_equal(image.logits.data, weights.logits.data)
    for a, b in zip(image.captures, weights.captures, strict=True):
        assert bit_equal(a.cls_out_grad, b.cls_out_grad), a.layer
    assert list(image.graph.gradients) == [INPUT]
    assert weights.graph.gradients == {}

    loss, _ = model.loss_and_input_grad(img, [0, 2])
    res = model.forward(img, wrt="weights")
    assert cross_entropy(res.logits, [0, 2]).item() == loss


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

    # one entry of every tensor name, on the plain and the distillation model
    for distillation in (False, True):
        cfg = dataclasses.replace(toy_config, distillation_token=distillation)
        model = new_model(cfg, seed=3)
        train_step(model, opt, images, labels)
        assert set(opt.grads) == set(expected_shapes(cfg))
        for name, w in model.weights.tensors.items():
            # the entry with the largest gradient, where it stands clearest
            # above the differences' own rounding (~1e-11 here)
            idx = np.unravel_index(np.argmax(np.abs(opt.grads[name])), w.shape)
            orig = w[idx]
            losses = []
            for delta in (h, -h):
                w[idx] = orig + delta
                losses.append(cross_entropy(model.forward(images).logits, labels).item())
            w[idx] = orig
            fd = (losses[0] - losses[1]) / (2 * h)
            ad = opt.grads[name][idx]
            # a k bias adds q . b_k to a whole score row, which softmax
            # ignores: its gradient is zero, and only an absolute bound holds
            bound = 1e-12 if name.endswith("attn.k.bias") else 1e-5 * abs(fd)
            assert abs(ad - fd) <= bound, (distillation, name, idx, ad, fd)


def test_train_step_counts_one_forward_and_one_backward(toy_config):
    model = new_model(toy_config, seed=8)
    images, labels = make_pattern_dataset(toy_config, per_class=1, seed=9)

    class Discard:
        def update(self, weights, grads):
            pass

    counters.reset()
    train_step(model, Discard(), images, labels)
    assert counters.snapshot() == {"forward": 1, "backward": 1}


@pytest.mark.parametrize("distillation, wrt", [(False, "input"), (True, "input"),
                                               (False, "weights"), (True, "weights")],
                         ids=["plain", "distillation", "plain-weight_grads",
                              "distillation-weight_grads"])
def test_attention_is_one_tape_node_per_block(tiny_config, distillation, wrt):
    cfg = dataclasses.replace(tiny_config, distillation_token=distillation)
    res = new_model(cfg, seed=0).forward(np.random.default_rng(0).random((1, 3, 16, 16)),
                                         wrt=wrt)
    ops = stage_names(res.graph.nodes)
    # one node per stage, a block's attention and MLP halves in one: L + 2,
    # with or without weight gradients
    assert ops == ["embedding", *["block"] * cfg.num_layers, "head"]
    assert len(ops) == cfg.num_layers + 2


@pytest.mark.parametrize("distillation", [False, True], ids=["plain", "distillation"])
def test_an_attribution_tape_starts_at_the_lowest_captured_layer(tiny_config, distillation):
    # with wrt="captures" the embedding and the blocks below the window run
    # off the tape, and a walk stops at the lowest captured block with the
    # full walk's cls_out_grads and no input gradient
    cfg = dataclasses.replace(tiny_config, distillation_token=distillation)
    model = new_model(cfg, seed=4)
    img = np.random.default_rng(27).random((2, 3, 16, 16))
    for window in range(1, cfg.num_layers + 1):
        res = model.forward(img, capture=True, layer_window=window, wrt="captures")
        assert stage_names(res.graph.nodes) == ["block"] * window + ["head"]
        full = model.forward(img, capture=True, layer_window=window)
        assert bit_equal(res.logits.data, full.logits.data)
        for c in range(cfg.num_classes):
            assert model.backward_class(res, c) is res
            assert res.graph.gradients == {}
            model.backward_class(full, c)
            for cap, want in zip(res.captures, full.captures, strict=True):
                assert bit_equal(cap.cls_out_grad, want.cls_out_grad), (window, c, cap.layer)


@pytest.mark.parametrize("wrt, error, message", [
    ("image", ParameterError, "wrt 'image' is not None, 'input', 'captures' or 'weights'"),
    (True, ParameterError, "wrt True is not None"),
    ("captures", ContractError, "wrt='captures' needs capture=True"),
], ids=["unknown", "boolean", "captures-without-capture"])
def test_wrt_is_checked_before_a_forward_counts(tiny_model, wrt, error, message):
    img = np.random.default_rng(28).random((1, 3, 16, 16))
    counters.reset()
    with pytest.raises(error, match=re.escape(message)):
        tiny_model.forward(img, wrt=wrt)
    assert counters.snapshot()["forward"] == 0


def _capture_forwards(model, monkeypatch):
    """Record every ForwardResult the model's own methods produce."""
    results = []
    forward = model.forward

    def recording(*args, **kwargs):
        results.append(forward(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(model, "forward", recording)
    return results


def _fresh(model, img, backward, **kwargs):
    """The result of a fresh forward with ``kwargs`` and ``backward(result)``."""
    res = model.forward(img, **kwargs)
    backward(res)
    return res


@pytest.mark.parametrize("distillation", [False, True], ids=["plain", "distillation"])
def test_backward_class_keeps_only_the_image_gradient(tiny_config, distillation):
    cfg = dataclasses.replace(tiny_config, distillation_token=distillation)
    model = new_model(cfg, seed=4)
    img = np.random.default_rng(22).random((2, 3, 16, 16))
    res = model.forward(img, capture=True, layer_window=2)
    assert model.backward_class(res, 1) is res
    assert list(res.graph.gradients) == [INPUT]
    assert res.graph.gradients[INPUT].shape == img.shape
    assert [cap.layer for cap in res.captures] == [cfg.num_layers - 1, cfg.num_layers]
    for cap in res.captures:
        assert cap.cls_out_grad.shape == (2, cfg.embed_dim)

    # backward_class is the class score's walk, behind its checks
    ref = _fresh(model, img, lambda r: r.graph.backward(class_score(r.logits, 1)),
                 capture=True, layer_window=2)
    assert bit_equal(res.graph.gradients[INPUT], ref.graph.gradients[INPUT])
    for cap, want in zip(res.captures, ref.captures, strict=True):
        assert bit_equal(cap.cls_out_grad, want.cls_out_grad)


@pytest.mark.parametrize("distillation", [False, True], ids=["plain", "distillation"])
def test_a_second_backward_on_one_forward_is_a_fresh_one(tiny_config, distillation):
    # a root is no tape node, so one forward serves several walks, each the
    # same bits as a fresh forward and backward
    cfg = dataclasses.replace(tiny_config, distillation_token=distillation)
    model = new_model(cfg, seed=4)
    img = np.random.default_rng(26).random((2, 3, 16, 16))

    res = model.forward(img, capture=True, layer_window=cfg.num_layers)
    for c in (0, 1):
        model.backward_class(res, c)
        ref = _fresh(model, img, lambda r: model.backward_class(r, c),
                     capture=True, layer_window=cfg.num_layers)
        assert bit_equal(res.graph.gradients[INPUT], ref.graph.gradients[INPUT]), c
        for cap, want in zip(res.captures, ref.captures, strict=True):
            assert bit_equal(cap.cls_out_grad, want.cls_out_grad), (c, cap.layer)

    roots = [lambda logits: cross_entropy(logits, [0, 2]),
             lambda logits: class_score(logits, 1)]
    res = model.forward(img, wrt="weights")
    for root in roots:
        res.graph.backward(root(res.logits))
        ref = _fresh(model, img, lambda r: r.graph.backward(root(r.logits)), wrt="weights")
        assert res.graph.gradients == ref.graph.gradients == {}
        assert list(res.weight_grads) == list(ref.weight_grads)
        for name, grad in ref.weight_grads.items():
            assert bit_equal(res.weight_grads[name], grad), name


@pytest.mark.parametrize("distillation", [False, True], ids=["plain", "distillation"])
def test_loss_and_input_grad_keeps_only_the_image_gradient(tiny_config, distillation,
                                                          monkeypatch):
    cfg = dataclasses.replace(tiny_config, distillation_token=distillation)
    model = new_model(cfg, seed=5)
    img = np.random.default_rng(23).random((2, 3, 16, 16))
    results = _capture_forwards(model, monkeypatch)
    loss, grad = model.loss_and_input_grad(img, [0, 2])
    (res,) = results
    assert list(res.graph.gradients) == [INPUT]
    assert bit_equal(grad, res.graph.gradients[INPUT])

    again = model.forward(img)
    ce = cross_entropy(again.logits, [0, 2])
    assert loss == ce.item()
    assert bit_equal(grad, again.graph.backward(ce)[INPUT])


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
    # the weight gradients are not tape gradients, and the walk computes no
    # image gradient below them: the tape keeps none
    assert res.graph.gradients == {}
    assert opt.grads is res.weight_grads
    assert set(opt.grads) == set(expected_shapes(cfg))

    again = model.forward(images, wrt="weights")
    again.graph.backward(cross_entropy(again.logits, labels))
    assert list(again.weight_grads) == list(opt.grads)
    for name, grad in again.weight_grads.items():
        assert bit_equal(opt.grads[name], grad), name


def test_graphs_are_freed_without_the_cycle_collector(tiny_model):
    # a node's backward must not hold its graph (say, through a Tensor):
    # the saved activations would then live until a gc pass
    img = np.random.default_rng(25).random((1, 3, 16, 16))
    roots = [lambda res: tiny_model.backward_class(res, 1),
             lambda res: res.graph.backward(cross_entropy(res.logits, [1])),
             lambda res: res.graph.backward(class_score(res.logits, 0))]
    gc.disable()
    try:
        for wrt in ("input", "weights", "captures"):
            for run in roots:
                res = tiny_model.forward(img, capture=True, wrt=wrt)
                run(res)
                graph = weakref.ref(res.graph)
                del res
                assert graph() is None
    finally:
        gc.enable()


def _least_peak(run):
    """The least tracemalloc peak of three calls of ``run()``, in bytes. A
    one-off allocation (a cache or a free list filled, a global dict grown)
    lands in one call; what the code under test keeps lands in every call."""
    peaks = []
    for _ in range(3):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return min(peaks)


def _one_block_model(config):
    """The reference model and an image for it: a one-block model of
    ``config``'s width (the embedding, one CLS-only block and the head). The
    bounds below are set over what it measures in this process, so the array
    headers and allocator caches of the numpy and CPython at hand, and what
    ran before in the process, move both sides alike."""
    model = new_model(dataclasses.replace(config, num_layers=1, layer_window=1), seed=0)
    return model, np.random.default_rng(2).random((1, 3, 16, 16))


def _reference_peak(config):
    """The peak of the one-block model's tape-free forward."""
    model, img = _one_block_model(config)
    model.forward(img, wrt=None)   # warm up lazy imports and caches
    return _least_peak(lambda: model.forward(img, wrt=None))


def _traced_backward(model, img):
    """(result, bytes held after backward_class, peak bytes during it) of a
    captured forward of ``img``, each the least of three calls, as
    _least_peak. A full collection before the call and before the held
    bytes are read empties CPython's free lists: the small objects numpy's
    einsum frees there stay counted at the call that made them, and how many
    varies with the hash seed (840 bytes more in some processes)."""

    def traced():
        res = model.forward(img, capture=True)
        gc.collect()
        tracemalloc.start()
        try:
            model.backward_class(res, 0)
            gc.collect()
            return res, *tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

    traced()  # warm up lazy imports
    runs = [traced() for _ in range(3)]
    return runs[-1][0], *(min(run[i] for run in runs) for i in (1, 2))


def _payload(res):
    """What a caller reads after a backward: the image gradient and the
    captures' CLS rows."""
    return res.graph.gradients[INPUT].nbytes + sum(cap.cls_out_grad.nbytes for cap in res.captures)


# The backward bounds are over the one-block model's backward_class, with
# 640 bytes of slack over what they measured (numpy 2.4, CPython 3.11): the
# same in a full tier-1 run, with this file alone, after tests/test_cli.py
# and with this test alone, for every hash seed tried. The reference's held
# bytes less its payload, array headers, the dict and numpy's own caches,
# measured 1,272 (1,464 in a full run), and a stage gradient left behind,
# [1, 17, 16] here, would add 2,176 to them. Over it, the tiny model's held
# bytes less its extra payload measured 256 (the tape's arrays predate the
# walk, so the exps it no longer keeps do not show here), and its peak
# 10,456. A score-sized array, [1, 2, 17, 17] here, is 4,624 bytes. When
# the tape kept every full block's exps, the peak measured 5,672: a walk
# allocated one score-sized work array per attention backward. It now
# rebuilds the exps there too, a second score-sized array beside the work
# array, so the peak rose by 4,784 (the array and its 160-byte header)
# while the tape, and the end-to-end peaks below, lost L - 1 of them. A
# work array kept for the whole walk raised the peak by 864.
BACKWARD_HELD_OVER_PAYLOAD = 1_920
BACKWARD_HELD_OVER_REFERENCE = 896
BACKWARD_PEAK_OVER_REFERENCE = 11_096
# The forward bounds over the one-block model's tape-free forward peak are
# the absolute bounds these tests had before, less that peak as measured
# with this file alone (20,904 bytes, numpy 2.4, CPython 3.11; 20,680 in a
# full tier-1 run, where the forward peaks moved with it): the forward peaks
# at or under those of the forwards whose blocks were still two stages,
# attention and MLP (35,504, 50,760 and 118,112 bytes). An uncaptured
# layer's exps ([1, 2, 17, 17] here, 4,624 bytes) alive while the next layer
# allocates its own, or its attention arrays kept through its MLP half,
# exceed them. The taped capture's bound is 640 bytes over what it
# measured in a full tier-1 run, 74,896 (74,736 with this test alone): its
# tape keeps no exps. With every full block's exps on it, it measured 88,128
FORWARD_PEAK_OVER_REFERENCE = {"tape-free": 14_600, "tape-free capture": 29_856,
                               "taped capture": 75_536}


def test_retained_backward_class_peak_memory_is_lower(tiny_model, tiny_config):
    img = np.random.default_rng(24).random((1, 3, 16, 16))
    res, held, peak = _traced_backward(tiny_model, img)
    ref, ref_held, ref_peak = _traced_backward(*_one_block_model(tiny_config))
    assert ref_held - _payload(ref) <= BACKWARD_HELD_OVER_PAYLOAD, (ref_held, _payload(ref))
    extra = _payload(res) - _payload(ref)
    assert held - ref_held - extra <= BACKWARD_HELD_OVER_REFERENCE, (held, ref_held, extra)
    assert peak - ref_peak <= BACKWARD_PEAK_OVER_REFERENCE, (peak, ref_peak)


def test_forward_peak_memory_is_bounded(tiny_model, tiny_config):
    # an uncaptured layer's scores, and the statistics and output of its ln1,
    # are freed before the MLP half and the next layer allocate their own
    img = np.random.default_rng(2).random((1, 3, 16, 16))
    kinds = {"tape-free": dict(wrt=None), "tape-free capture": dict(capture=True, wrt=None),
             "taped capture": dict(capture=True)}

    def peak(kwargs):
        tiny_model.forward(img, **kwargs)   # warm up lazy imports and caches
        return _least_peak(lambda: tiny_model.forward(img, **kwargs))

    reference = _reference_peak(tiny_config)
    over = {kind: peak(kwargs) - reference for kind, kwargs in kinds.items()}
    assert all(over[kind] <= bound for kind, bound in FORWARD_PEAK_OVER_REFERENCE.items()), (
        over, reference)


# The 56x56 model's peaks over its own tape-free forward's peak (1,777,960
# bytes, numpy 2.4, CPython 3.11), each 256 KB over what it measured with
# this test alone: bicam 2,481,760 and loss_and_input_grad 3,676,688.
# A score-sized array there, [1, 4, 197, 197], is 1,241,888 bytes. A tape
# keeps none: with each full block's exps on it, the peaks measured
# 3,672,960 and 8,575,080, and the lowest captured layer's exps kept in
# its capture raised bicam's by 1,299,584
PEAK_56_OVER_FORWARD = {"bicam": 2_743_904, "loss_and_input_grad": 3_938_832}


def test_attribution_and_input_gradient_peaks_on_the_56x56_model():
    model = new_model(ViTConfig(**SHAPE_56), seed=0)
    img = np.random.default_rng(2).random((1, 3, 56, 56))
    runs = {"forward": lambda: model.forward(img, wrt=None),
            "bicam": lambda: bicam(model, img, 0),
            "loss_and_input_grad": lambda: model.loss_and_input_grad(img, [0])}
    for run in runs.values():
        run()   # warm up lazy imports and caches
    peaks = {name: _least_peak(run) for name, run in runs.items()}
    over = {name: peaks[name] - peaks["forward"] for name in PEAK_56_OVER_FORWARD}
    assert all(over[name] <= bound for name, bound in PEAK_56_OVER_FORWARD.items()), (
        over, peaks["forward"])


@pytest.mark.parametrize("distillation", [False, True], ids=["plain", "distillation"])
def test_tensor_count_matches_expected_shapes(tiny_config, distillation):
    for layers in (1, 2, 4):
        cfg = dataclasses.replace(tiny_config, num_layers=layers, layer_window=1,
                                  distillation_token=distillation)
        assert tensor_count(cfg) == len(expected_shapes(cfg))


def _no_exps(captures):
    """Whether every capture holds neither exps nor row sums, as a taped one."""
    return all(cap.attn_exp is None and cap.attn_rowsums is None for cap in captures)


@pytest.mark.parametrize("shape", ["tiny", "56x56"])
def test_fused_qkv_forward_is_bit_equal_to_tape(tiny_config, shape, monkeypatch):
    # both paths run one [Wq|Wk|Wv] product per block, and attention splits
    # and merges the heads the same way on each; a taped capture holds no
    # exps, so the taped forward's own, recorded from attention, are
    # compared with the tape-free captures'
    cfg = tiny_config if shape == "tiny" else ViTConfig(**SHAPE_56)
    model = new_model(cfg, seed=5)
    batch = 2 if shape == "tiny" else 1
    img = np.random.default_rng(15).random((batch, 3, cfg.image_height, cfg.image_width))
    saved = []

    def recording(*args):
        out = attention_arrays(*args)
        saved.append(out[2:])
        return out

    attention_arrays = vit.attention_arrays
    monkeypatch.setattr(vit, "attention_arrays", recording)
    taped = model.forward(img, capture=True, layer_window=cfg.num_layers)
    monkeypatch.undo()
    plain = model.forward(img, capture=True, layer_window=cfg.num_layers, wrt=None)
    assert plain.captures[0].attn_logits.shape[-1] == cfg.num_tokens
    assert bit_equal(plain.logits.data, taped.logits.data)
    assert len(plain.captures) == len(taped.captures) == len(saved) == cfg.num_layers
    assert _no_exps(taped.captures)
    for a, b, (e, tape) in zip(plain.captures, taped.captures, saved):
        for name in ("attn_logits", "values", "cls_out"):
            assert bit_equal(getattr(a, name), getattr(b, name)), (a.layer, name)
        assert bit_equal(a.attn_exp, e), a.layer
        assert bit_equal(a.attn_rowsums, tape.l), a.layer


@pytest.mark.parametrize("wrt", ["input", "captures", "weights"])
def test_attn_probs_of_a_taped_capture_is_a_state_error(tiny_model, wrt):
    # only a tape-free forward keeps the exps that attn_probs divides
    img = np.random.default_rng(26).random((1, 3, 16, 16))
    res = tiny_model.forward(img, capture=True, wrt=wrt)
    assert res.captures and _no_exps(res.captures)
    for cap in res.captures:
        with pytest.raises(StateError, match=rf"layer {cap.layer} .*wrt=None"):
            cap.attn_probs


def _full_rows_forward(weights, img):
    """A plain-numpy forward that runs every token's row through every block:
    (logits, per layer (CLS score row [B, H, 1, N], values [B, H, N, d_h],
    CLS attention output [B, d], probabilities [B, H, N, N]))."""
    cfg, t = weights.config, weights.tensors
    b, p, d, h = img.shape[0], cfg.patch_size, cfg.embed_dim, cfg.num_heads
    gh, gw, dh = cfg.grid_height, cfg.grid_width, cfg.head_dim

    def layernorm(x, name):
        mean = x.mean(axis=-1, keepdims=True)
        var = ((x - mean) ** 2).mean(axis=-1, keepdims=True)
        xhat = (x - mean) / np.sqrt(var + vit.LAYERNORM_EPS)
        return xhat * t[name + ".gain"] + t[name + ".bias"]

    def heads(x):
        return x.reshape(b, -1, h, dh).transpose(0, 2, 1, 3)

    patches = img.reshape(b, 3, gh, p, gw, p).transpose(0, 2, 4, 1, 3, 5).reshape(b, gh * gw, -1)
    specials = [np.broadcast_to(t[name], (b, 1, d)) for name in ("cls_token", "dist_token")
                if name in t]
    x = np.concatenate(specials + [patches @ t["patch_embed.weight"] + t["patch_embed.bias"]],
                       axis=1) + t["pos_embed"]
    layers = []
    for i in range(cfg.num_layers):
        w = {name[len(f"blocks.{i}."):]: arr for name, arr in t.items()
             if name.startswith(f"blocks.{i}.")}
        y = layernorm(x, f"blocks.{i}.ln1")
        q, k, v = (heads(y @ w[f"attn.{m}.weight"] + w[f"attn.{m}.bias"]) for m in "qkv")
        scores = q @ k.transpose(0, 1, 3, 2) / np.sqrt(dh)
        probs = np.exp(scores - scores.max(axis=-1, keepdims=True))
        probs /= probs.sum(axis=-1, keepdims=True)
        merged = (probs @ v).transpose(0, 2, 1, 3).reshape(b, -1, d)
        layers.append((scores[:, :, :1], v, merged[:, 0], probs))
        x = x + merged @ w["attn.out.weight"] + w["attn.out.bias"]
        a1 = layernorm(x, f"blocks.{i}.ln2") @ w["ffn.fc1.weight"] + w["ffn.fc1.bias"]
        f = 0.5 * a1 * (1.0 + erf(a1 / np.sqrt(2.0)))
        x = x + f @ w["ffn.fc2.weight"] + w["ffn.fc2.bias"]
    logits = layernorm(x, "ln_f")[:, 0] @ t["head.weight"] + t["head.bias"]
    return logits, layers


def _rel_error(a, ref):
    return float(np.abs(a - ref).max() / np.abs(ref).max())


@pytest.mark.parametrize("shape", ["tiny", "distillation", "56x56"])
def test_forward_matches_a_full_rows_reference(tiny_config, shape):
    # after the last block's keys and values only the CLS row is computed;
    # a forward that carries every row to the end gives the same outputs
    cfg = {"tiny": tiny_config, "56x56": ViTConfig(**SHAPE_56),
           "distillation": dataclasses.replace(tiny_config, distillation_token=True)}[shape]
    model = new_model(cfg, seed=8)
    img = np.random.default_rng(19).random((2, 3, cfg.image_height, cfg.image_width))
    ref_logits, ref_layers = _full_rows_forward(model.weights, img)
    for wrt in ("input", None):
        res = model.forward(img, capture=True, layer_window=cfg.num_layers, wrt=wrt)
        assert _rel_error(res.logits.data, ref_logits) < 1e-12
        for cap, (scores, values, cls_out, _) in zip(res.captures, ref_layers, strict=True):
            assert _rel_error(cap.attn_logits, scores) < 1e-12
            assert _rel_error(cap.values, values) < 1e-12
            assert _rel_error(cap.cls_out, cls_out) < 1e-12


ROW_OUTPUTS = ("predict_logits", "predict_proba", "bicam patch scores", "bicam heatmap",
               "rollout patch scores", "rollout heatmap", "backward_class image gradient")


@pytest.mark.parametrize("shape", ["tiny", "distillation", "56x56"])
def test_a_batch_row_gets_the_bits_of_a_single_image_call(tiny_config, shape):
    # every linear, the head's included, is a stacked product and the
    # heatmap upsamples each grid alone, so no output of a row depends on
    # the batch it is in; weights x5 keep the logits well away from 0
    cfg = {"tiny": tiny_config, "56x56": ViTConfig(**SHAPE_56),
           "distillation": dataclasses.replace(tiny_config, distillation_token=True)}[shape]
    tensors = init_weights(cfg, seed=3).tensors
    model = VisionTransformer(ViTWeights(cfg, {k: 5 * v for k, v in tensors.items()}))
    c = cfg.num_classes - 1

    def outputs(img):
        res = model.backward_class(model.forward(img, capture=True), c)
        amap, roll = bicam(model, img, c), attention_rollout(model, img)
        return (model.predict_logits(img), model.predict_proba(img), amap.patch_scores,
                amap.heatmap, roll.patch_scores, roll.heatmap, res.graph.gradients[INPUT])

    images = np.random.default_rng(23).random((17, 3, cfg.image_height, cfg.image_width))
    singles = [outputs(images[i:i + 1]) for i in range(len(images))]
    for b in (2, 8, 17):
        for name, batched, *rows in zip(ROW_OUTPUTS, outputs(images[:b]), *singles[:b]):
            for i, row in enumerate(rows):
                assert bit_equal(batched[i:i + 1], row), f"{name}, row {i} of a batch of {b}"


@pytest.mark.parametrize("shape", ["tiny", "distillation", "56x56"])
def test_attn_probs_are_the_reference_probabilities(tiny_config, shape):
    # the forward keeps its scores unnormalized; attn_probs divides them by
    # their row sums on each read, the last layer's CLS row included
    cfg = {"tiny": tiny_config, "56x56": ViTConfig(**SHAPE_56),
           "distillation": dataclasses.replace(tiny_config, distillation_token=True)}[shape]
    model = new_model(cfg, seed=8)
    img = np.random.default_rng(21).random((2, 3, cfg.image_height, cfg.image_width))
    _, ref_layers = _full_rows_forward(model.weights, img)
    # a taped capture holds no exps: they are read from a tape-free one
    taped = model.forward(img, capture=True, layer_window=cfg.num_layers)
    assert len(taped.captures) == cfg.num_layers and _no_exps(taped.captures)
    res = model.forward(img, capture=True, layer_window=cfg.num_layers, wrt=None)
    for cap, (*_, probs) in zip(res.captures, ref_layers, strict=True):
        rows = cap.attn_probs.shape[2]
        assert rows == (1 if cap.layer == cfg.num_layers else cfg.num_tokens)
        assert np.abs(cap.attn_probs.sum(axis=-1) - 1.0).max() < 1e-14
        assert _rel_error(cap.attn_probs, probs[:, :, :rows]) < 1e-12


@pytest.mark.parametrize("shape", ["tiny", "56x56"])
def test_softmax_elements_per_forward_and_backward(tiny_config, shape, monkeypatch):
    # every block but the last softmaxes [N, N] scores per head, the last
    # its CLS row alone: (L - 1) H N^2 + H N elements, forward and backward,
    # all of them in attention's own passes, none in the softmax kernels
    cfg = tiny_config if shape == "tiny" else ViTConfig(**SHAPE_56)
    model = new_model(cfg, seed=9)
    counted = dict.fromkeys(["forward", "backward", "softmax_rows", "softmax_rows_grad"], 0)

    def counting_forward(*args):
        out = attention_arrays(*args)
        counted["forward"] += out[2].size
        return out

    def counting_backward(grad, saved):   # the exps it rebuilds: M x N per head
        counted["backward"] += saved.l.size * saved.k.shape[2]
        return attention_grad(grad, saved)

    attention_arrays, attention_grad = vit.attention_arrays, vit.attention_grad
    monkeypatch.setattr(vit, "attention_arrays", counting_forward)
    monkeypatch.setattr(vit, "attention_grad", counting_backward)
    for name in ("softmax_rows", "softmax_rows_grad"):
        kernel = getattr(kernels, name)

        def counting(*args, kernel=kernel, name=name):
            counted[name] += args[0].size
            return kernel(*args)

        monkeypatch.setattr(kernels, name, counting)
    n, h, layers = cfg.num_tokens, cfg.num_heads, cfg.num_layers
    want = (layers - 1) * h * n * n + h * n
    img = np.random.default_rng(20).random((1, 3, cfg.image_height, cfg.image_width))
    for wrt in ("input", None):
        counted.update(dict.fromkeys(counted, 0))
        res = model.forward(img, capture=True, layer_window=layers, wrt=wrt)
        assert counted == {"forward": want, "backward": 0, "softmax_rows": 0,
                           "softmax_rows_grad": 0}
        if wrt:
            assert _no_exps(res.captures)   # only the tape holds them
            model.backward_class(res, 1)
            assert counted == {"forward": want, "backward": want, "softmax_rows": 0,
                               "softmax_rows_grad": 0}
        else:
            assert [cap.attn_probs.shape for cap in res.captures] == (
                [(1, h, n, n)] * (layers - 1) + [(1, h, 1, n)])


@pytest.mark.parametrize("wrt", ["input", "captures", "weights", None])
def test_a_forward_runs_one_erf_per_block_and_a_backward_none(tiny_model, wrt, monkeypatch):
    # a taped block makes gelu and its derivative from one erf, so the
    # backward's gelu step is a product alone
    calls = []
    erf = kernels._erf

    def counting(*args, **kwargs):
        calls.append(args)
        return erf(*args, **kwargs)

    monkeypatch.setattr(kernels, "_erf", counting)
    img = np.random.default_rng(27).random((2, 3, 16, 16))
    res = tiny_model.forward(img, capture=True, wrt=wrt)
    assert len(calls) == tiny_model.config.num_layers
    if wrt is not None:
        res.graph.backward(cross_entropy(res.logits, [0, 1]))
        assert len(calls) == tiny_model.config.num_layers


@pytest.mark.parametrize("shape", ["tiny", "56x56"])
def test_an_attribution_walk_runs_attention_backward_above_its_lowest_layer(
        tiny_config, shape, monkeypatch):
    # the lowest captured block stops before attention's backward, so of a
    # window of w the blocks above it run theirs: w - 2 of [N, N] scores per
    # head and the last block's CLS row, (w - 2) H N^2 + H N elements, and
    # none for w = 1; the forward softmaxes every layer as before
    cfg = tiny_config if shape == "tiny" else ViTConfig(**SHAPE_56)
    model = new_model(cfg, seed=9)
    counted = dict.fromkeys(["forward", "backward"], 0)

    def counting_forward(*args):
        out = attention_arrays(*args)
        counted["forward"] += out[2].size
        return out

    def counting_backward(grad, saved):   # the exps it rebuilds: M x N per head
        counted["backward"] += saved.l.size * saved.k.shape[2]
        return attention_grad(grad, saved)

    attention_arrays, attention_grad = vit.attention_arrays, vit.attention_grad
    monkeypatch.setattr(vit, "attention_arrays", counting_forward)
    monkeypatch.setattr(vit, "attention_grad", counting_backward)
    n, h, layers = cfg.num_tokens, cfg.num_heads, cfg.num_layers
    img = np.random.default_rng(20).random((1, 3, cfg.image_height, cfg.image_width))
    for window in range(1, layers + 1):
        counted.update(dict.fromkeys(counted, 0))
        res = model.forward(img, capture=True, layer_window=window, wrt="captures")
        model.backward_class(res, 1)
        walked = (window - 2) * h * n * n + h * n if window >= 2 else 0
        assert counted == {"forward": (layers - 1) * h * n * n + h * n, "backward": walked}


def test_tape_free_forward_reads_weights_updated_in_place(tiny_config):
    # on every path: off the tape, on it, and on it with weight gradients
    paths = [dict(wrt=None), dict(wrt="input"), dict(wrt="weights")]
    model = new_model(tiny_config, seed=6)
    img = np.random.default_rng(16).random((1, 3, 16, 16))
    before = [model.forward(img, **kw).logits.data for kw in paths]
    # anything cached is stale after updates in place, as AdamState.update makes
    model.weights.tensors["blocks.0.attn.k.weight"] += 0.05
    model.weights.tensors["blocks.1.ffn.fc2.bias"] -= 0.05
    fresh = VisionTransformer(ViTWeights(
        tiny_config, {k: v.copy() for k, v in model.weights.tensors.items()}))
    for kw, old in zip(paths, before):
        logits = model.forward(img, **kw).logits.data
        assert bit_equal(logits, fresh.forward(img, **kw).logits.data)
        assert not np.array_equal(logits, old)


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
    # the one fused product overflows at v's columns before q's bias add
    "v_product_before_q_bias_add": ({"blocks.1.attn.q.weight": _HALF,
                                     "blocks.1.attn.q.bias": _BIG,
                                     "blocks.1.attn.v.weight": _BIG}, "matmul"),
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
    model = VisionTransformer(ViTWeights(tiny_config, tensors))
    img = np.random.default_rng(0).random((1, 3, 16, 16))
    messages = []
    for wrt in ("input", None):
        with pytest.raises(NumericError) as info:
            model.forward(img, wrt=wrt)
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


def _blocks_add_nothing(t):
    # zero attention and MLP outputs: every layer norm sees the embedding,
    # whose patch rows are 0 (the patch embedding and pos_embed are zeroed)
    for i in range(4):
        for name in ("attn.out.weight", "attn.out.bias", "ffn.fc2.weight", "ffn.fc2.bias"):
            t[f"blocks.{i}.{name}"][...] = 0.0
    t["patch_embed.weight"][...] = 0.0
    t["pos_embed"][...] = 0.0


def _ln_f_overflow_in_cls(t):
    # a CLS row with a single spike: its xhat ~ 3.9 times ln_f's gain of
    # 1e308 overflows in the one row the head reads
    _blocks_add_nothing(t)
    t["cls_token"][...] = 0.0
    t["cls_token"][0] = 3.0
    t["ln_f.gain"][...] = 1e308


def _overflow_off_cls_after_last_kv(t):
    # a CLS row of +-1 (|xhat| < 1 times a gain of 1e308 stays finite) and
    # one patch row with a single spike (xhat ~ 3.9 overflows): the last
    # block's ln2 and ln_f would overflow in that row, which no op after
    # the last block's keys and values computes
    _blocks_add_nothing(t)
    t["pos_embed"][5, 0] = 3.0
    t["cls_token"][...] = np.resize([1.0, -1.0], t["cls_token"].shape)
    t["blocks.3.ln2.gain"][...] = 1e308
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
    "ln_f_cls_row": (_ln_f_overflow_in_cls,
                     "classifier head: non-finite values produced by layernorm"),
    "off_cls_rows_after_last_kv": (_overflow_off_cls_after_last_kv, None),
    "ln1_into_zero_weight_rows": (_ln1_overflow_into_zero_rows,
                                  "block 2: non-finite values produced by layernorm"),
}


def _forward_outcome(model, img, wrt):
    """The logits, or the NumericError text."""
    try:
        return model.forward(img, wrt=wrt).logits.data
    except NumericError as e:
        return str(e)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("case", list(HIDDEN))
def test_numeric_error_text_is_the_same_where_a_non_finite_can_hide(tiny_config, case):
    # the tape-free forward checks only some values; these cases make a
    # non-finite value that no later op would carry to the logits unchecked,
    # or (message None) one in a row that no op reads, which is no error
    edit, message = HIDDEN[case]
    tensors = {k: v.copy() for k, v in init_weights(tiny_config, seed=0).tensors.items()}
    edit(tensors)
    model = VisionTransformer(ViTWeights(tiny_config, tensors))
    img = np.random.default_rng(0).random((1, 3, 16, 16))
    taped, plain = (_forward_outcome(model, img, wrt) for wrt in ("input", None))
    if message is None:
        assert np.isfinite(taped).all() and bit_equal(taped, plain)
    else:
        assert [taped, plain] == [message] * 2


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
    model = VisionTransformer(ViTWeights(tiny_config, tensors))
    img = np.random.default_rng(18).random((1, 3, 16, 16))
    taped, plain = (_forward_outcome(model, img, wrt) for wrt in ("input", None))
    if isinstance(taped, str) or isinstance(plain, str):
        assert taped == plain
    else:
        assert bit_equal(taped, plain)


@pytest.mark.parametrize("wrt, products", [("input", 6 * 4 + 2), (None, 6 * 4 + 2)],
                         ids=["tape", "tape_free"])
def test_matmul_calls_per_forward(tiny_model, tiny_config, monkeypatch, wrt, products):
    # per block: the fused q|k|v product, out, fc1, fc2 and attention's two;
    # plus the patch embedding and the head
    calls = []
    matmul = np.matmul

    def counting(*args, **kwargs):
        calls.append(1)
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", counting)
    tiny_model.forward(np.random.default_rng(17).random((1, 3, 16, 16)), wrt=wrt)
    assert tiny_config.num_layers == 4 and len(calls) == products


def test_finite_checks_per_tape_free_forward(tiny_model, tiny_config, monkeypatch):
    # the input, the embedding's output, each block's attention scores,
    # attention output and block output, ln_f and the logits, on either path
    ops = []
    check = autodiff.check_finite

    def counting(out, op):
        ops.append(op)
        return check(out, op)

    monkeypatch.setattr(autodiff, "check_finite", counting)
    monkeypatch.setattr(vit, "check_finite", counting)
    for wrt in (None, "input"):
        ops.clear()
        tiny_model.forward(np.random.default_rng(17).random((1, 3, 16, 16)), wrt=wrt)
        assert tiny_config.num_layers == 4 and len(ops) == 3 * 4 + 4


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_failing_tape_free_forward_counts_one_forward(tiny_config):
    # the tape re-run that names the op is part of the same forward
    tensors = {k: v.copy() for k, v in init_weights(tiny_config, seed=0).tensors.items()}
    tensors["head.weight"][:] = 1e308
    model = VisionTransformer(ViTWeights(tiny_config, tensors))
    message = "^classifier head: non-finite values produced by matmul$"
    counters.reset()
    with pytest.raises(NumericError, match=message):
        model.forward(np.random.default_rng(0).random((1, 3, 16, 16)), wrt=None)
    assert counters.snapshot() == {"forward": 1, "backward": 0}
