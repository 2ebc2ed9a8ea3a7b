"""Signed attribution maps from layer captures, plus attention rollout.

The signed map for one layer weighs each token three ways: the per-head
value projections are projected onto the gradient of the class score at
that layer's CLS attention output (supplying sign and class specificity),
then modulated by the temperature-scaled CLS attention row. Per-head
contributions are summed, then layer masks are summed over the capture
window. No ReLU or clipping anywhere: negative evidence survives to the
final map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ParameterError, StateError
from .vit import LayerCapture, VisionTransformer

INTERPOLATIONS = ("bilinear", "nearest")


@dataclass
class AttributionMap:
    """Signed per-patch scores plus their upsampled pixel heatmap."""

    patch_scores: np.ndarray       # [B, grid_h, grid_w], signed
    heatmap: np.ndarray            # [B, 1, H, W], signed
    class_index: int | None        # None for class-agnostic baselines


def attribution_alpha(capture: LayerCapture, temperature: float) -> np.ndarray:
    """Temperature-scaled softmax of the CLS attention-logit row, per head.

    Returns [B, H, N]; each (batch, head) slice sums to 1.
    """
    if not 0 < temperature < math.inf:
        raise ParameterError(f"temperature must be finite and > 0, got {temperature}")
    cls_row = np.ascontiguousarray(capture.attn_logits[:, :, 0, :])
    b, h, n = cls_row.shape
    out = kernels.softmax_rows(cls_row.reshape(b * h, n), float(temperature))
    return out.reshape(b, h, n)


def layer_mask(capture: LayerCapture, alpha: np.ndarray) -> np.ndarray:
    """Signed per-token mask for one layer: sum_h (V_h . w_h) * alpha_h.

    w_h is the head-h slice of the CLS-output gradient, so V_h . w_h is a
    per-token scalar projection along the head dimension.
    """
    if capture.cls_out_grad is None:
        raise StateError("cls_out_grad missing; run backward_class first")
    b, h, n, dh = capture.values.shape
    w = capture.cls_out_grad.reshape(b, h, dh)
    val_grad = np.matmul(capture.values, w[:, :, :, None])[:, :, :, 0]  # [B, H, N]
    return (val_grad * alpha).sum(axis=1)


def _grid_to_heatmap(patch_grid: np.ndarray, out_h: int, out_w: int,
                     interpolation: str) -> np.ndarray:
    if interpolation not in INTERPOLATIONS:
        raise ParameterError(f"interpolation must be one of {INTERPOLATIONS}")
    up = (kernels.upsample_bilinear if interpolation == "bilinear"
          else kernels.upsample_nearest)
    b = patch_grid.shape[0]
    out = np.empty((b, 1, out_h, out_w))
    for i in range(b):
        out[i, 0] = up(np.ascontiguousarray(patch_grid[i]), out_h, out_w)
    return out


def _tokens_to_map(token_mask: np.ndarray, model: VisionTransformer, class_index,
                   interpolation: str) -> AttributionMap:
    cfg = model.config
    patches = token_mask[:, cfg.num_special_tokens:]
    grid = patches.reshape(-1, cfg.grid_height, cfg.grid_width)
    heat = _grid_to_heatmap(grid, cfg.image_height, cfg.image_width, interpolation)
    return AttributionMap(patch_scores=grid, heatmap=heat, class_index=class_index)


def bicam(model: VisionTransformer, image: np.ndarray, class_index: int,
          layer_window: int | None = None, temperature: float | None = None,
          interpolation: str = "bilinear") -> AttributionMap:
    """Signed attribution map for one class, in one forward and one
    backward that stops at the lowest captured layer.

    The map reads the class score's gradient at the captured layers' CLS
    attention outputs alone, so the forward tapes only the captured blocks
    and the head (``wrt="captures"``), and no gradient below them is
    computed. Layer masks from the last ``layer_window`` blocks are summed,
    the special-token entries dropped, and the per-patch grid upsampled to
    image resolution. Defaults for the window and temperature come from
    the model config; ``attribution_alpha`` checks the temperature.
    """
    cfg = model.config
    temp = cfg.temperature if temperature is None else float(temperature)

    res = model.forward(image, capture=True, layer_window=layer_window, wrt="captures")
    model.backward_class(res, class_index)

    total = None
    for cap in res.captures:  # ascending layer order
        m = layer_mask(cap, attribution_alpha(cap, temp))
        total = m if total is None else total + m
    return _tokens_to_map(total, model, int(class_index), interpolation)


def rollout_chain(head_mean_attn) -> np.ndarray:
    """Multiply head-averaged attention matrices through the layers.

    Each layer's [B, N, N] matrix gets the identity added and its rows
    renormalized, and the product runs from the last layer down: the
    running product is right-multiplied by each layer below it, so it stays
    row-stochastic. The last layer may be given as its CLS row alone,
    [B, 1, N] (the identity's first row is added to it): the product is
    then that one row, at O(L N^2) instead of O(L N^3). A one-layer chain
    is that layer's normalized matrix.
    """
    mats = list(head_mean_attn)
    n = mats[0].shape[-1]
    eye = np.eye(n)
    rollout = None
    for attn in reversed(mats):
        attn = attn + eye[:attn.shape[-2]]
        attn = attn / attn.sum(axis=2, keepdims=True)
        rollout = attn if rollout is None else np.matmul(rollout, attn)
    return rollout


def attention_rollout(model: VisionTransformer, image: np.ndarray,
                      interpolation: str = "bilinear") -> AttributionMap:
    """Class-agnostic rollout baseline: per layer, average the post-softmax
    attention (the forward's own probabilities, the last layer's CLS row
    alone) over heads, add identity, row-normalize, and multiply through
    all layers; the CLS row of the product gives unsigned patch scores."""
    cfg = model.config
    res = model.forward(image, capture=True, layer_window=cfg.num_layers, wrt=None)
    rollout = rollout_chain(cap.attn_probs.mean(axis=1) for cap in res.captures)
    cls_row = rollout[:, 0, :]
    return _tokens_to_map(cls_row, model, None, interpolation)


def split_channels(values) -> tuple[np.ndarray, np.ndarray]:
    """Split a signed array into nonnegative positive/negative channels.

    positive - negative reconstructs the input exactly. Accepts an
    AttributionMap (splits its patch grid) or any ndarray.
    """
    arr = values.patch_scores if isinstance(values, AttributionMap) else np.asarray(values)
    return np.maximum(arr, 0.0), np.maximum(-arr, 0.0)
