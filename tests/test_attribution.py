import dataclasses
import math
import re

import numpy as np
import pytest

from bicam import counters, kernels
from bicam.attribution import (AttributionMap, attention_rollout,
                               attribution_alpha, bicam, layer_mask,
                               rollout_chain, split_channels)
from bicam.errors import ParameterError, StateError
from bicam.vit import LayerCapture, ViTConfig, new_model

from conftest import SHAPE_56, bit_equal


def make_capture(rng, b=1, h=2, n=6, dh=4, with_grad=True):
    logits = rng.standard_normal((b, h, n, n))
    values = rng.standard_normal((b, h, n, dh))
    cap = LayerCapture(layer=1, attn_logits=logits, values=values,
                       cls_out=np.zeros((b, h * dh)))
    if with_grad:
        cap.cls_out_grad = rng.standard_normal((b, h * dh))
    return cap


# -- alpha ----------------------------------------------------------------------


def test_alpha_uniform_for_constant_logits():
    cap = make_capture(np.random.default_rng(0))
    cap.attn_logits[:, :, 0, :] = 3.7
    alpha = attribution_alpha(cap, temperature=2.0)
    n = cap.attn_logits.shape[-1]
    assert np.allclose(alpha, 1.0 / n, atol=1e-15)


def test_alpha_large_temperature_approaches_uniform():
    rng = np.random.default_rng(1)
    cap = make_capture(rng)
    n = cap.attn_logits.shape[-1]
    alpha = attribution_alpha(cap, temperature=1e4)
    assert np.abs(alpha - 1.0 / n).max() < 1e-3


def test_alpha_worked_two_token_case():
    cap = make_capture(np.random.default_rng(2), h=1, n=2, dh=1)
    cap.attn_logits[0, 0, 0, :] = [0.0, 2.0 * math.log(3.0)]
    alpha = attribution_alpha(cap, temperature=2.0)
    assert np.allclose(alpha[0, 0], [0.25, 0.75], atol=1e-12)


def test_alpha_sums_to_one_per_head():
    cap = make_capture(np.random.default_rng(3), h=4, n=9)
    alpha = attribution_alpha(cap, 0.7)
    assert np.abs(alpha.sum(axis=-1) - 1.0).max() < 1e-12


def test_alpha_temperature_validation():
    cap = make_capture(np.random.default_rng(4))
    with pytest.raises(ParameterError):
        attribution_alpha(cap, 0.0)


# -- layer mask --------------------------------------------------------------------


def test_layer_mask_zero_gradient_gives_zero_mask():
    cap = make_capture(np.random.default_rng(5))
    cap.cls_out_grad = np.zeros_like(cap.cls_out_grad)
    mask = layer_mask(cap, attribution_alpha(cap, 2.0))
    assert np.array_equal(mask, np.zeros_like(mask))


def test_layer_mask_unit_projection_case():
    rng = np.random.default_rng(6)
    cap = make_capture(rng, h=1, n=5, dh=3)
    cap.cls_out_grad = np.array([[1.0, 0.0, 0.0]])
    alpha = attribution_alpha(cap, 1.0)
    mask = layer_mask(cap, alpha)
    want = cap.values[0, 0, :, 0] * alpha[0, 0]
    assert np.allclose(mask[0], want, atol=1e-14)


def test_layer_mask_missing_gradient_raises():
    cap = make_capture(np.random.default_rng(7), with_grad=False)
    with pytest.raises(StateError):
        layer_mask(cap, attribution_alpha(cap, 2.0))


def naive_layer_mask(cap, alpha):
    b, h, n, dh = cap.values.shape
    out = np.zeros((b, n))
    for bi in range(b):
        for ni in range(n):
            acc = 0.0
            for hi in range(h):
                w = cap.cls_out_grad[bi, hi * dh:(hi + 1) * dh]
                dot = 0.0
                for j in range(dh):
                    dot += cap.values[bi, hi, ni, j] * w[j]
                acc += dot * alpha[bi, hi, ni]
            out[bi, ni] = acc
    return out


def test_layer_mask_matches_naive_loop():
    rng = np.random.default_rng(8)
    cap = make_capture(rng, b=2, h=3, n=7, dh=5)
    alpha = attribution_alpha(cap, 2.0)
    assert np.abs(layer_mask(cap, alpha) - naive_layer_mask(cap, alpha)).max() < 1e-12


def test_head_sum_decomposition():
    rng = np.random.default_rng(9)
    cap = make_capture(rng, h=4, n=6, dh=4)
    alpha = attribution_alpha(cap, 2.0)
    total = layer_mask(cap, alpha)
    acc = np.zeros_like(total)
    dh = cap.values.shape[-1]
    for hi in range(cap.values.shape[1]):
        grad = np.zeros_like(cap.cls_out_grad)
        grad[:, hi * dh:(hi + 1) * dh] = cap.cls_out_grad[:, hi * dh:(hi + 1) * dh]
        single = dataclasses.replace(cap, cls_out_grad=grad)
        acc += layer_mask(single, alpha)
    assert np.abs(total - acc).max() < 1e-12


# -- bicam ---------------------------------------------------------------------------


@pytest.fixture
def rnd_image():
    return np.random.default_rng(10).random((1, 3, 16, 16))


def test_bicam_window_one_equals_final_layer_mask(tiny_model, tiny_config, rnd_image):
    amap = bicam(tiny_model, rnd_image, 1, layer_window=1)
    res = tiny_model.forward(rnd_image, capture=True, layer_window=1)
    tiny_model.backward_class(res, 1)
    cap = res.captures[0]
    mask = layer_mask(cap, attribution_alpha(cap, tiny_config.temperature))
    patch = mask[:, tiny_config.num_special_tokens:].reshape(1, 4, 4)
    assert np.array_equal(amap.patch_scores, patch)


@pytest.mark.parametrize("shape", ["tiny", "distillation", "56x56"])
def test_bicam_maps_are_those_of_the_full_walk(tiny_config, shape):
    # bicam tapes and walks only its captured layers; the maps are the bits
    # of a full-tape forward and backward_class, for every window
    cfg = {"tiny": tiny_config,
           "distillation": dataclasses.replace(tiny_config, distillation_token=True),
           "56x56": ViTConfig(**SHAPE_56)}[shape]
    model = new_model(cfg, seed=3)
    img = np.random.default_rng(12).random((2, 3, cfg.image_height, cfg.image_width))
    classes = range(cfg.num_classes) if shape != "56x56" else (0, cfg.num_classes - 1)
    for window in range(1, cfg.num_layers + 1):
        res = model.forward(img, capture=True, layer_window=window)
        for c in classes:
            model.backward_class(res, c)
            total = None
            for cap in res.captures:
                m = layer_mask(cap, attribution_alpha(cap, cfg.temperature))
                total = m if total is None else total + m
            patch = total[:, cfg.num_special_tokens:].reshape(2, cfg.grid_height, cfg.grid_width)
            amap = bicam(model, img, c, layer_window=window)
            assert bit_equal(amap.patch_scores, patch), (window, c)


@pytest.mark.parametrize("shape", ["tiny", "distillation", "56x56"])
def test_a_layer_mask_at_temperature_one_sums_to_the_cls_output_term(tiny_config, shape):
    # at temperature 1 alpha is the forward's own CLS attention row, and
    # each head's CLS output is sum_j p_hj V_hj, so a layer's mask summed
    # over tokens is cls_out . cls_out_grad: the map splits the first-order
    # term of the class score at each captured CLS output, token by token
    cfg = {"tiny": tiny_config,
           "distillation": dataclasses.replace(tiny_config, distillation_token=True),
           "56x56": ViTConfig(**SHAPE_56)}[shape]
    model = new_model(cfg, seed=7)
    img = np.random.default_rng(16).random((2, 3, cfg.image_height, cfg.image_width))
    for wrt in ("input", "captures"):
        for window in range(1, cfg.num_layers + 1):
            res = model.forward(img, capture=True, layer_window=window, wrt=wrt)
            model.backward_class(res, window % cfg.num_classes)
            for cap in res.captures:
                total = layer_mask(cap, attribution_alpha(cap, 1.0)).sum(axis=-1)
                want = (cap.cls_out * cap.cls_out_grad).sum(axis=-1)
                err = np.abs(total - want).max() / np.abs(want).max()
                assert err <= 1e-12, (wrt, window, cap.layer, err)


def test_bicam_equals_sum_of_independent_layer_masks(tiny_model, tiny_config, rnd_image):
    c = 2
    for window in (1, math.ceil(2 * tiny_config.num_layers / 3), tiny_config.num_layers):
        amap = bicam(tiny_model, rnd_image, c, layer_window=window)
        total = None
        first = tiny_config.num_layers - window + 1
        for layer in range(first, tiny_config.num_layers + 1):
            res = tiny_model.forward(rnd_image, capture=True,
                                     layer_window=tiny_config.num_layers)
            tiny_model.backward_class(res, c)
            cap = next(cp for cp in res.captures if cp.layer == layer)
            m = layer_mask(cap, attribution_alpha(cap, tiny_config.temperature))
            total = m if total is None else total + m
        patch = total[:, tiny_config.num_special_tokens:].reshape(1, 4, 4)
        assert np.abs(amap.patch_scores - patch).max() < 1e-12


def test_bicam_window_difference_is_single_layer(tiny_model, tiny_config, rnd_image):
    c = 0
    L = tiny_config.num_layers
    maps = {w: bicam(tiny_model, rnd_image, c, layer_window=w).patch_scores
            for w in range(1, L + 1)}
    for w in range(2, L + 1):
        res = tiny_model.forward(rnd_image, capture=True, layer_window=L)
        tiny_model.backward_class(res, c)
        cap = next(cp for cp in res.captures if cp.layer == L - w + 1)
        m = layer_mask(cap, attribution_alpha(cap, tiny_config.temperature))
        single = m[:, tiny_config.num_special_tokens:].reshape(1, 4, 4)
        assert np.abs((maps[w] - maps[w - 1]) - single).max() < 1e-12


def test_bicam_head_row_doubling_doubles_scores(tiny_model, tiny_config, rnd_image):
    from bicam.vit import VisionTransformer, ViTWeights
    c = 1
    base = bicam(tiny_model, rnd_image, c)
    tensors = {k: v.copy() for k, v in tiny_model.weights.tensors.items()}
    tensors["head.weight"][:, c] *= 2.0
    doubled_model = VisionTransformer(ViTWeights(tiny_config, tensors))
    doubled = bicam(doubled_model, rnd_image, c)
    assert np.abs(doubled.patch_scores - 2.0 * base.patch_scores).max() < 1e-10


def test_bicam_single_forward_backward(tiny_model, rnd_image):
    counters.reset()
    bicam(tiny_model, rnd_image, 0)
    snap = counters.snapshot()
    assert snap == {"forward": 1, "backward": 1}


@pytest.mark.parametrize("run, option, message", [
    (bicam, dict(temperature=0), "temperature must be finite and > 0, got 0.0"),
    (bicam, dict(temperature=math.nan), "temperature must be finite and > 0, got nan"),
    (bicam, dict(interpolation="cubic"), "interpolation must be one of"),
    (attention_rollout, dict(interpolation="cubic"), "interpolation must be one of")],
    ids=["bicam-zero-temperature", "bicam-nan-temperature", "bicam-interpolation",
         "rollout-interpolation"])
def test_a_bad_option_costs_no_pass(tiny_model, rnd_image, run, option, message):
    args = (0,) if run is bicam else ()
    counters.reset()
    with pytest.raises(ParameterError, match=re.escape(message)):
        run(tiny_model, rnd_image, *args, **option)
    assert counters.snapshot() == {"forward": 0, "backward": 0}


def test_bicam_heatmap_is_upsampled_patch_grid(tiny_model, tiny_config, rnd_image):
    from bicam.kernels import upsample_nearest
    amap = bicam(tiny_model, rnd_image, 0, interpolation="nearest")
    want = upsample_nearest(np.ascontiguousarray(amap.patch_scores[0]), 16, 16)
    assert np.array_equal(amap.heatmap[0, 0], want)
    # integer upsampling ratio: every patch value fills its pixel block exactly
    assert np.array_equal(amap.heatmap[0, 0, :4, :4], np.full((4, 4), amap.patch_scores[0, 0, 0]))


def test_bicam_signed_values_survive(tiny_model, rnd_image):
    amap = bicam(tiny_model, rnd_image, 0)
    assert (amap.patch_scores > 0).any()
    assert (amap.patch_scores < 0).any()
    pos, neg = split_channels(amap)
    assert np.array_equal(pos - neg, amap.patch_scores)


def test_bicam_distillation_token_dropped():
    from bicam.vit import new_model
    from conftest import TINY
    from bicam.vit import ViTConfig
    cfg = ViTConfig(num_classes=2, distillation_token=True, **TINY)
    model = new_model(cfg, seed=3)
    img = np.random.default_rng(11).random((1, 3, 16, 16))
    amap = bicam(model, img, 0)
    assert amap.patch_scores.shape == (1, 4, 4)  # 18 tokens, 2 dropped


# -- split channels ---------------------------------------------------------------


def test_split_channels_worked_example():
    pos, neg = split_channels(np.array([1.0, -2.0, 0.0]))
    assert np.array_equal(pos, [1.0, 0.0, 0.0])
    assert np.array_equal(neg, [0.0, 2.0, 0.0])


def test_split_channels_all_positive():
    pos, neg = split_channels(np.array([3.0, 0.5]))
    assert np.array_equal(neg, np.zeros(2))


def test_split_channels_reconstruction_random():
    m = np.random.default_rng(12).standard_normal((5, 7))
    pos, neg = split_channels(m)
    assert np.array_equal(pos - neg, m)
    assert (pos >= 0).all() and (neg >= 0).all()


# -- attention rollout ---------------------------------------------------------------


def test_rollout_single_layer_uniform():
    n = 4
    uniform = np.full((1, n, n), 1.0 / n)
    out = rollout_chain([uniform])
    # (uniform + I) row-normalized: diagonal (1 + 1/n)/2... off-diagonal (1/n)/2
    want = (uniform[0] + np.eye(n)) / 2.0
    assert np.allclose(out[0], want, atol=1e-12)
    assert np.abs(out.sum(axis=-1) - 1.0).max() < 1e-10


def test_rollout_identity_attention_is_fixed_point():
    n = 5
    eye = np.tile(np.eye(n), (1, 1, 1))
    out = rollout_chain([eye, eye, eye])
    assert np.allclose(out[0], np.eye(n), atol=1e-12)
    # CLS row keeps all mass on CLS: patch entries are ~0
    assert np.abs(out[0, 0, 1:]).max() < 1e-12


def test_rollout_two_layer_hand_product():
    a1 = np.array([[[0.6, 0.2, 0.2],
                    [0.1, 0.8, 0.1],
                    [0.3, 0.3, 0.4]]])
    a2 = np.array([[[0.5, 0.25, 0.25],
                    [0.2, 0.6, 0.2],
                    [0.1, 0.1, 0.8]]])
    n1 = (a1[0] + np.eye(3)) / 2.0
    n2 = (a2[0] + np.eye(3)) / 2.0
    out = rollout_chain([a1, a2])
    assert np.allclose(out[0], n2 @ n1, atol=1e-14)
    for a, n in ((a1, n1), (a2, n2)):
        step = rollout_chain([a])
        assert np.allclose(step[0], n, atol=1e-15)
        assert np.abs(step.sum(axis=-1) - 1.0).max() < 1e-10


def test_rollout_rows_stay_stochastic_random():
    rng = np.random.default_rng(13)
    mats = [np.abs(rng.random((2, 6, 6))) for _ in range(4)]
    mats = [m / m.sum(axis=-1, keepdims=True) for m in mats]
    out = rollout_chain(mats)
    for m in mats:
        assert np.abs(rollout_chain([m]).sum(axis=-1) - 1.0).max() < 1e-10
    assert np.abs(out.sum(axis=-1) - 1.0).max() < 1e-10


def test_rollout_chain_takes_the_last_layer_as_its_cls_row():
    rng = np.random.default_rng(21)
    mats = [rng.random((2, 7, 7)) for _ in range(5)]
    mats = [m / m.sum(axis=-1, keepdims=True) for m in mats]
    full = rollout_chain(mats)
    row = rollout_chain(mats[:-1] + [mats[-1][:, :1]])
    assert row.shape == (2, 1, 7)
    assert np.abs(row - full[:, :1]).max() < 1e-14
    last_row = rollout_chain([mats[-1][:, :1]])   # the last layer's normalized CLS row
    assert last_row.shape == (2, 1, 7)
    assert np.array_equal(last_row, rollout_chain([mats[-1]])[:, :1])


def test_attention_rollout_end_to_end(tiny_model, rnd_image):
    amap = attention_rollout(tiny_model, rnd_image)
    assert amap.class_index is None
    assert amap.patch_scores.shape == (1, 4, 4)
    assert (amap.patch_scores >= 0).all()
    assert isinstance(amap, AttributionMap)


def test_rollout_tape_free_matches_tape_captures(tiny_model, rnd_image):
    # rollout reads the probabilities of a tape-free forward's captures; a
    # taped forward's hold none (its backward rebuilds its exps, and
    # test_fused_qkv_forward_is_bit_equal_to_tape pins the taped forward's
    # e / l against the tape-free probabilities), and every other field is
    # the same bits
    window = tiny_model.config.num_layers
    free = tiny_model.forward(rnd_image, capture=True, layer_window=window, wrt=None)
    taped = tiny_model.forward(rnd_image, capture=True, layer_window=window, wrt="input")
    assert not free.graph.nodes and taped.graph.nodes
    for cap, ref in zip(taped.captures, free.captures, strict=True):
        assert cap.attn_probs is None and ref.attn_probs is not None
        for name in ("attn_logits", "values", "cls_out"):
            assert bit_equal(getattr(cap, name), getattr(ref, name)), name


def test_rollout_reads_the_forward_probabilities(tiny_model, rnd_image, monkeypatch):
    calls = {"exp": 0, "softmax_rows": 0}
    exp, softmax_rows = np.exp, kernels.softmax_rows

    def counting_exp(*args, **kwargs):
        calls["exp"] += 1
        return exp(*args, **kwargs)

    def counting_softmax(*args):
        calls["softmax_rows"] += 1
        return softmax_rows(*args)

    monkeypatch.setattr(np, "exp", counting_exp)
    monkeypatch.setattr(kernels, "softmax_rows", counting_softmax)
    amap = attention_rollout(tiny_model, rnd_image)
    # one exp per layer, inside the forward's attention, and no softmax:
    # rollout normalizes the forward's own exps by their row sums
    assert calls == {"exp": tiny_model.config.num_layers, "softmax_rows": 0}
    monkeypatch.undo()
    res = tiny_model.forward(rnd_image, capture=True,
                             layer_window=tiny_model.config.num_layers, wrt=None)
    want = rollout_chain(cap.attn_probs.mean(axis=1) for cap in res.captures)[:, 0, 1:]
    assert np.array_equal(amap.patch_scores, want.reshape(amap.patch_scores.shape))


def test_bicam_rectangular_image():
    from bicam.vit import ViTConfig, new_model
    cfg = ViTConfig(image_height=16, image_width=32, patch_size=4, num_layers=2,
                    num_heads=2, embed_dim=16, ffn_dim=16, num_classes=2)
    model = new_model(cfg, seed=1)
    img = np.random.default_rng(14).random((1, 3, 16, 32))
    amap = bicam(model, img, 0)
    assert amap.patch_scores.shape == (1, 4, 8)
    assert amap.heatmap.shape == (1, 1, 16, 32)
