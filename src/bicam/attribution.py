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
    layer_window: int
    temperature: float
    interpolation: str = "bilinear"


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


def _tokens_to_map(token_mask: np.ndarray, model: VisionTransformer,
                   class_index, window: int, temperature: float,
                   interpolation: str) -> AttributionMap:
    cfg = model.config
    patches = token_mask[:, cfg.num_special_tokens:]
    grid = patches.reshape(-1, cfg.grid_height, cfg.grid_width)
    heat = _grid_to_heatmap(grid, cfg.image_height, cfg.image_width, interpolation)
    return AttributionMap(patch_scores=grid, heatmap=heat, class_index=class_index,
                          layer_window=window, temperature=temperature,
                          interpolation=interpolation)


def bicam(model: VisionTransformer, image: np.ndarray, class_index: int,
          layer_window: int | None = None, temperature: float | None = None,
          interpolation: str = "bilinear") -> AttributionMap:
    """Signed attribution map for one class, in one forward + one backward.

    Layer masks from the last ``layer_window`` blocks are summed, the
    special-token entries dropped, and the per-patch grid upsampled to
    image resolution. Defaults for the window and temperature come from
    the model config.
    """
    cfg = model.config
    window = cfg.layer_window if layer_window is None else int(layer_window)
    temp = cfg.temperature if temperature is None else float(temperature)
    if not 0 < temp < math.inf:
        raise ParameterError(f"temperature must be finite and > 0, got {temp}")

    res = model.forward(image, capture=True, layer_window=window)
    model.backward_class(res, class_index)

    total = None
    for cap in res.captures:  # ascending layer order
        m = layer_mask(cap, attribution_alpha(cap, temp))
        total = m if total is None else total + m
    return _tokens_to_map(total, model, int(class_index), window, temp, interpolation)


def rollout_chain(head_mean_attn, keep_steps: bool = False):
    """Multiply head-averaged attention matrices through the layers.

    Each [B, N, N] matrix gets the identity added and its rows renormalized
    before being left-multiplied onto the running product, so the result
    stays row-stochastic. With keep_steps, also returns the per-layer
    normalized matrices (for stochasticity checks).
    """
    mats = list(head_mean_attn)
    b, n = mats[0].shape[0], mats[0].shape[-1]
    rollout = np.tile(np.eye(n), (b, 1, 1))
    eye = np.eye(n)
    steps = []
    for attn in mats:
        attn = attn + eye
        attn = attn / attn.sum(axis=2, keepdims=True)
        if keep_steps:
            steps.append(attn)
        rollout = np.matmul(attn, rollout)
    return (rollout, steps) if keep_steps else rollout


def attention_rollout(model: VisionTransformer, image: np.ndarray,
                      interpolation: str = "bilinear") -> AttributionMap:
    """Class-agnostic rollout baseline: per layer, average the post-softmax
    attention (the forward's own probabilities) over heads, add identity,
    row-normalize, and multiply through all layers; the CLS row gives
    unsigned patch scores."""
    cfg = model.config
    res = model.forward(image, capture=True, layer_window=cfg.num_layers, tape=False)
    rollout = rollout_chain(cap.attn_probs.mean(axis=1) for cap in res.captures)
    cls_row = rollout[:, 0, :]
    return _tokens_to_map(cls_row, model, None, cfg.num_layers, 1.0, interpolation)


def split_channels(values) -> tuple[np.ndarray, np.ndarray]:
    """Split a signed array into nonnegative positive/negative channels.

    positive - negative reconstructs the input exactly. Accepts an
    AttributionMap (splits its patch grid) or any ndarray.
    """
    arr = values.patch_scores if isinstance(values, AttributionMap) else np.asarray(values)
    return np.maximum(arr, 0.0), np.maximum(-arr, 0.0)
