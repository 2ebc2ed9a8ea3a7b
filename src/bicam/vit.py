"""A minimal vision transformer with per-layer capture points.

The model is a standard pre-norm ViT: patch embedding, learned positional
embeddings, a [CLS] token (plus an optional distillation token), L
transformer blocks, and a classifier head on the final [CLS] state.

Attribution needs three things recorded per captured layer: the CLS row of
the pre-softmax attention logits (already scaled by 1/sqrt(head_dim), i.e.
exactly what the softmax consumes), the per-head value projections, and
the concatenated per-head CLS attention output *before* the block's output
projection, together with its gradient after a class-score backward pass,
which the layer's block backward stores in its LayerCapture.
Attention keeps its softmax unnormalized (see ``autodiff.attention_arrays``),
so a capture of a tape-free forward (``wrt=None``, rollout's) also holds
the exps of its scores and their row sums, and its ``attn_probs`` divides
one by the other when read. A taped capture holds neither, and neither
does the tape: only rollout reads them, and attention's backward rebuilds
the exps from the rows' score maxima, so every block frees its exps as it
returns. A taped block makes gelu and its derivative from one erf
(``kernels.gelu_grad``) and keeps the derivative in place of gelu's input,
so its backward's gelu step is one product.

The forward body is written once, on plain ndarrays, as one loop over
L + 2 stages: the embedding, each block (x -> next x) and the head. A
block's q, k and v projections are one product on its fused [Wq|Wk|Wv]
weight, built once at load, so a forward runs 6L + 2 products. Each is a
stacked product on a [B, rows, k] input, the head's on ln_f's [B, 1, d]
output, so a batch row's outputs are the bits of that image alone. When a
tape is asked for, each stage returns its hand-chained VJP (vector-Jacobian
product) on the same kernels, one output gradient to one input gradient,
and the tape records the chain of L + 2 nodes: the embedding, one per
block (which walks back its MLP, then its attention, and adds the
residual's gradient to ln1's) and the head. A forward names the one
gradient its backwards read (``wrt``) and computes none below it: an
attribution reads the captured layers' CLS outputs, so only the captured
blocks and the head are taped and the lowest captured block's backward
stops after storing its capture's gradient, before its attention;
training reads the weights', stored by name, so the embedding's backward
makes no image gradient. The backward roots, ``class_score`` and
``cross_entropy``, are scalars of the logits that carry their gradient.

The logits read only the final CLS state, so the last block computes only
the CLS row after its ln1 and q|k|v product (which cover every token, as
the CLS query attends to every key and value): its scores are [B, H, 1, N]
and its merged heads, block output and ln_f one row, [B, 1, d]. Its
backward walks back that one row, and the residual's gradient reaches the
block's input as that row, with zeros in the rows no op read. Every other
block runs every token's row.

Every forward checks the 3L + 4 values a NaN/Inf can hide behind: the
input, the embedding's output, each block's attention scores and output
(in attention_arrays) and block output, ln_f's output, and the logits.
Weights are finite, and every other op turns a non-finite input element
into a non-finite output on the way to one of those: a matmul row (BLAS
makes inf * 0 a NaN), an add, a layer norm row and gelu; a finite input to
a scale of at most 1, the exp of max-subtracted scores, the division by
their row sums (each at least 1) or gelu gives a finite output. A failing
check does not name the op: forward re-runs the body with every op
checked, which raises the NumericError that names the stage and the op.
The last block's q of a non-CLS row is the one value computed (in the
q|k|v product) and read by no op: a non-finite one is no error, though a
re-run for another failure checks it with the rest of that product.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import counters, kernels
from .autodiff import (INPUT, Graph, Tensor, attention_arrays, attention_grad,
                       check_finite)
from .errors import ContractError, DimensionError, NumericError, ParameterError, StateError

LAYERNORM_EPS = 1e-6
INIT_STD = 0.02


def check_temperature(temperature: float) -> None:
    """ParameterError unless an attribution temperature is finite and > 0."""
    if not 0 < temperature < math.inf:
        raise ParameterError(f"temperature must be finite and > 0, got {temperature}")


def default_layer_window(num_layers: int) -> int:
    """Default aggregation window: the last round(2L/3) blocks."""
    return max(1, min(num_layers, round(2.0 * num_layers / 3.0)))


@dataclass(frozen=True)
class ViTConfig:
    image_height: int
    image_width: int
    patch_size: int
    num_layers: int
    num_heads: int
    embed_dim: int
    ffn_dim: int
    num_classes: int
    distillation_token: bool = False
    layer_window: int | None = None
    temperature: float = 2.0

    def __post_init__(self):
        if self.layer_window is None:
            object.__setattr__(self, "layer_window", default_layer_window(self.num_layers))
        ints = {
            "image_height": self.image_height,
            "image_width": self.image_width,
            "patch_size": self.patch_size,
            "num_layers": self.num_layers,
            "num_heads": self.num_heads,
            "embed_dim": self.embed_dim,
            "ffn_dim": self.ffn_dim,
            "num_classes": self.num_classes,
        }
        for name, v in ints.items():
            if int(v) != v or v <= 0:
                raise ParameterError(f"{name} must be a positive integer, got {v}")
        if self.image_height % self.patch_size or self.image_width % self.patch_size:
            raise ParameterError(
                f"image {self.image_height}x{self.image_width} not divisible by "
                f"patch size {self.patch_size}")
        if self.embed_dim % self.num_heads:
            raise ParameterError(
                f"embed_dim {self.embed_dim} not divisible by num_heads {self.num_heads}")
        if not 1 <= self.layer_window <= self.num_layers:
            raise ParameterError(
                f"layer_window must be in [1, {self.num_layers}], got {self.layer_window}")
        check_temperature(self.temperature)

    @property
    def grid_height(self) -> int:
        return self.image_height // self.patch_size

    @property
    def grid_width(self) -> int:
        return self.image_width // self.patch_size

    @property
    def num_patches(self) -> int:
        return self.grid_height * self.grid_width

    @property
    def num_special_tokens(self) -> int:
        return 2 if self.distillation_token else 1

    @property
    def num_tokens(self) -> int:
        return self.num_patches + self.num_special_tokens

    @property
    def head_dim(self) -> int:
        return self.embed_dim // self.num_heads


def tensor_count(config: ViTConfig) -> int:
    """len(expected_shapes(config)), without building the map."""
    return 8 + 16 * config.num_layers + (1 if config.distillation_token else 0)


def _qkv_parts(name: str) -> list[str]:
    """The q, k and v tensor names of a fused ``attn.qkv.*`` name, with the
    block prefix it has, if any."""
    return [name.replace(".qkv.", f".{p}.") for p in "qkv"]


def expected_shapes(config: ViTConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape map for every weight tensor, in canonical order."""
    d, f, c = config.embed_dim, config.ffn_dim, config.num_classes
    p = config.patch_size
    shapes: dict[str, tuple[int, ...]] = {"cls_token": (d,)}
    if config.distillation_token:
        shapes["dist_token"] = (d,)
    shapes["patch_embed.weight"] = (3 * p * p, d)
    shapes["patch_embed.bias"] = (d,)
    shapes["pos_embed"] = (config.num_tokens, d)
    for i in range(config.num_layers):
        b = f"blocks.{i}"
        shapes[f"{b}.ln1.gain"] = (d,)
        shapes[f"{b}.ln1.bias"] = (d,)
        for proj in ("q", "k", "v", "out"):
            shapes[f"{b}.attn.{proj}.weight"] = (d, d)
            shapes[f"{b}.attn.{proj}.bias"] = (d,)
        shapes[f"{b}.ln2.gain"] = (d,)
        shapes[f"{b}.ln2.bias"] = (d,)
        shapes[f"{b}.ffn.fc1.weight"] = (d, f)
        shapes[f"{b}.ffn.fc1.bias"] = (f,)
        shapes[f"{b}.ffn.fc2.weight"] = (f, d)
        shapes[f"{b}.ffn.fc2.bias"] = (d,)
    shapes["ln_f.gain"] = (d,)
    shapes["ln_f.bias"] = (d,)
    shapes["head.weight"] = (d, c)
    shapes["head.bias"] = (c,)
    return shapes


class BlockWeights(NamedTuple):
    """One block's weights: ``arrays`` maps each name ``ViTWeights.tensors``
    holds under ``prefix`` (``blocks.{i}.``), with the prefix dropped, to
    its array there, plus the fused ``attn.qkv.weight`` and ``.bias``."""

    prefix: str
    arrays: dict[str, np.ndarray]


class ViTWeights:
    """Named, finite weight tensors whose shapes are pinned by a ViTConfig.

    ``tensors`` holds the per-name tensors of the weight file, and
    ``blocks`` one BlockWeights per block, built once (the same arrays, not
    copies). Each block's q, k and v projections live in one fused weight
    [d, 3d] and one fused bias [3d], kept in its BlockWeights as
    ``attn.qkv.weight`` and ``.bias``; their entries in ``tensors`` are
    column views of those, so a weight updated in place (training, tests)
    is seen by both. The forward reads weights as constants: they are never
    nodes of a tape (see ``VisionTransformer.forward``).
    """

    def __init__(self, config: ViTConfig, tensors: dict[str, np.ndarray]):
        spec = expected_shapes(config)
        missing = sorted(set(spec) - set(tensors))
        extra = sorted(set(tensors) - set(spec))
        if missing or extra:
            raise DimensionError(
                f"weight names do not match config (missing={missing}, extra={extra})")
        store: dict[str, np.ndarray] = {}
        for name, shape in spec.items():
            arr = np.ascontiguousarray(tensors[name], dtype=np.float64)
            if arr.shape != shape:
                raise DimensionError(
                    f"weight {name!r} has shape {arr.shape}, expected {shape}")
            if not np.isfinite(arr).all():
                raise ParameterError(f"weight {name!r} has non-finite values")
            store[name] = arr
        d = config.embed_dim
        self.config = config
        self.tensors = store
        self.blocks = []
        for i in range(config.num_layers):
            prefix = f"blocks.{i}."
            arrays = {name[len(prefix):]: arr for name, arr in store.items()
                      if name.startswith(prefix)}
            for kind in ("weight", "bias"):
                parts = _qkv_parts(f"attn.qkv.{kind}")
                whole = arrays[f"attn.qkv.{kind}"] = np.concatenate(
                    [arrays[m] for m in parts], axis=-1)
                for j, m in enumerate(parts):
                    arrays[m] = store[prefix + m] = whole[..., j * d:(j + 1) * d]
            self.blocks.append(BlockWeights(prefix, arrays))

    def __getitem__(self, name: str) -> np.ndarray:
        return self.tensors[name]

    def checksum(self) -> str:
        h = hashlib.sha256()
        for name, arr in self.tensors.items():
            h.update(name.encode())
            h.update(np.asarray(arr.shape, dtype="<i8").tobytes())
            h.update(arr.astype("<f8").tobytes())
        return h.hexdigest()


def _trunc_normal(rng: np.random.Generator, shape, std: float) -> np.ndarray:
    """Normal(0, std) with resampling outside two sigma."""
    x = rng.standard_normal(shape)
    bad = np.abs(x) > 2.0
    while bad.any():
        x[bad] = rng.standard_normal(int(bad.sum()))
        bad = np.abs(x) > 2.0
    return x * std


def init_weights(config: ViTConfig, seed: int) -> ViTWeights:
    """Deterministic truncated-normal initialization keyed by seed."""
    rng = np.random.Generator(np.random.PCG64(seed))
    tensors = {}
    for name, shape in expected_shapes(config).items():
        if name.endswith(".bias"):
            tensors[name] = np.zeros(shape)
        elif name.endswith(".gain"):
            tensors[name] = np.ones(shape)
        else:
            tensors[name] = _trunc_normal(rng, shape, INIT_STD)
    return ViTWeights(config, tensors)


@dataclass
class LayerCapture:
    """Per-layer record used by attribution (layer index is 1-based)."""

    layer: int
    attn_logits: np.ndarray   # [B, H, 1, N], CLS row, pre-softmax, scaled by 1/sqrt(d_h)
    values: np.ndarray        # [B, H, N, d_h] (a view of the forward's own, not a copy)
    cls_out: np.ndarray       # [B, d], concat of per-head CLS attention output
    # [B, d], the gradient of cls_out that the layer's attention backward
    # stores on each walk (so after several, the last walk's); None before one
    cls_out_grad: np.ndarray | None = None
    # on a tape-free forward (wrt=None) alone, else None: the forward's own
    # softmax numerators exp(logits - row max) (not a copy): [B, H, N, N],
    # or for the last layer its CLS row alone, [B, H, 1, N]; and their row
    # sums, [B, H, N, 1] or [B, H, 1, 1]
    attn_exp: np.ndarray | None = field(default=None, repr=False)
    attn_rowsums: np.ndarray | None = field(default=None, repr=False)

    @property
    def attn_probs(self) -> np.ndarray:
        """The attention probabilities attn_exp / attn_rowsums, made on each
        read: a forward keeps its scores unnormalized. StateError on a
        taped capture, which holds no exps."""
        if self.attn_exp is None:
            raise StateError(f"layer {self.layer} capture holds no attention exps: "
                             "only a tape-free forward (wrt=None) keeps them")
        return self.attn_exp / self.attn_rowsums


@dataclass
class ForwardResult:
    logits: Tensor
    captures: list[LayerCapture]
    graph: Graph
    # tensor name -> gradient, filled by a backward; None unless wrt="weights"
    weight_grads: dict[str, np.ndarray] | None
    # the key of the image's gradient in graph.gradients, the same for every
    # result: a class constant, not a field
    image_node = INPUT


def _unchecked(out, op):
    return out


def _check_stage(out):
    return check_finite(out, "the forward")


def _linear(x, weight, bias, check):
    out = check(np.matmul(x, weight), "matmul")
    out += bias
    return check(out, "add")


def _linear_grads(x, grad):
    """Gradients of the weight and bias of ``x[B, rows, k] @ weight + bias``
    from the output gradient, summed over the batch and the rows."""
    return (np.swapaxes(x, -1, -2) @ grad).sum(0), grad.sum(0).sum(0)


def _layernorm(x, gain, bias, check, taped):
    """Layer norm over the last axis: (out, xhat, inv_std). With ``taped``
    (a backward will read xhat) xhat is kept, else the gain and bias are
    applied to it in place."""
    xhat, inv_std = kernels.layernorm_rows(x.reshape(-1, x.shape[-1]), LAYERNORM_EPS)
    out = np.multiply(xhat, gain, out=None if taped else xhat)
    out += bias
    return check(out.reshape(x.shape), "layernorm"), xhat, inv_std


def _layernorm_grads(grad, xhat, inv_std, gain, grads, name):
    """The input gradient of a layer norm; with a ``grads`` dict, the
    gradients of its ``name``.gain and ``name``.bias are stored there."""
    rows = np.ascontiguousarray(grad.reshape(xhat.shape))
    dxhat = rows * gain
    dx = kernels.layernorm_rows_grad(xhat, inv_std, dxhat).reshape(grad.shape)
    if grads is not None:
        grads[name + ".gain"], grads[name + ".bias"] = (rows * xhat).sum(axis=0), rows.sum(axis=0)
    return dx


class _Stages:
    """The stages of one forward on ``weights``, numbered in chain order:
    0 the embedding, 1..L the blocks and L + 1 the head; ``check(out, op)``
    runs after every op. Stage i returns its output and, when i >=
    ``first_taped``, its backward, else None (off the tape
    ``first_taped`` is L + 2). Weights are constants on the tape, so a
    backward maps the output gradient to the gradient of the stage's input;
    the lowest block on the tape above an untaped stage hands on no
    gradient and returns None.
    When ``grads`` is a dict, a backward also stores there the gradient of
    every weight its stage read, under the weight's name in
    ``ViTWeights.tensors`` (q, k and v as the column thirds of the fused
    gradient), and the embedding's returns None, making no image gradient.
    Blocks ``first_captured``..L are captured, into ``captures`` in layer order."""

    def __init__(self, weights, check, first_taped: int, first_captured: int,
                 grads: dict | None):
        self.weights, self.check, self.grads = weights, check, grads
        self.first_taped, self.first_captured = first_taped, first_captured
        self.captures: list[LayerCapture] = []

    def embedding(self, img):
        cfg, w, check = self.weights.config, self.weights.tensors, self.check
        b, d, p = img.shape[0], cfg.embed_dim, cfg.patch_size
        gh, gw, ns = cfg.grid_height, cfg.grid_width, cfg.num_special_tokens
        patches = np.ascontiguousarray(
            img.reshape(b, 3, gh, p, gw, p).transpose(0, 2, 4, 1, 3, 5)
        ).reshape(b, gh * gw, 3 * p * p)
        tok = _linear(patches, w["patch_embed.weight"], w["patch_embed.bias"], check)
        specials = ("cls_token", "dist_token")[:ns]
        x = np.concatenate([np.broadcast_to(w[name].reshape(1, 1, d), (b, 1, d))
                            for name in specials] + [tok], axis=1)
        x += w["pos_embed"]
        x = check(x, "add")
        if self.first_taped > 0:
            return x, None
        grads, pe_weight, shape = self.grads, w["patch_embed.weight"], img.shape
        patches = patches if grads is not None else None

        def backward(g):
            dtok = np.ascontiguousarray(g[:, ns:])
            if grads is None:
                dpatches = np.matmul(dtok, pe_weight.T).reshape(b, gh, gw, 3, p, p)
                return np.ascontiguousarray(dpatches.transpose(0, 3, 1, 4, 2, 5)).reshape(shape)
            for i, name in enumerate(specials):
                grads[name] = np.ascontiguousarray(g[:, i:i + 1]).sum(axis=0).reshape(d)
            grads["patch_embed.weight"], grads["patch_embed.bias"] = _linear_grads(patches, dtok)
            grads["pos_embed"] = g.sum(axis=0)
            return None

        return x, backward

    def block(self, blk: BlockWeights, x, layer: int, offset):
        """Block ``layer`` (1-based): ln1, the fused q|k|v product,
        attention, the output projection and its residual add, ln2, the MLP
        and its residual add: (next x, backward). A captured layer appends
        its LayerCapture to ``captures`` (with the exps and row sums off the
        tape alone), and its backward stores the CLS row of the merged
        heads' gradient there as ``cls_out_grad``; the lowest block on the
        tape returns there, before attention's backward. ``offset`` is a
        [B, d] term added to the merged CLS row, or None. ln1 and the
        product cover every token; in the last block only the CLS token
        queries, so the merged heads and every op after them are its row
        alone, [B, 1, d]."""
        cfg, check, w = self.weights.config, self.check, blk.arrays
        grads, prefix = self.grads, blk.prefix
        taped = layer >= self.first_taped
        hand_on = layer > self.first_taped   # the stage below is on the tape
        captured = layer >= self.first_captured
        h, xhat1, inv_std1 = _layernorm(x, w["ln1.gain"], w["ln1.bias"], check, hand_on)
        merged, kept, e, saved = attention_arrays(
            _linear(h, w["attn.qkv.weight"], w["attn.qkv.bias"], check), cfg.num_heads,
            captured, layer == cfg.num_layers)
        if offset is not None:
            pad = np.zeros(merged.shape)
            pad[:, 0, :] = offset
            merged = check(merged + pad, "add")
        cap = None
        if captured:
            cap = LayerCapture(layer=layer, attn_logits=kept, values=saved.vx[..., :-1],
                               cls_out=merged[:, 0, :].copy())
            if not taped:   # rollout's exps; a backward rebuilds its own
                cap.attn_exp, cap.attn_rowsums = e, saved.l
            self.captures.append(cap)
        # ln1's output is read again by a weight gradient alone, and ln1's
        # statistics and attention's saved arrays by a backward that hands on
        # its input gradient alone: they are freed before the MLP half
        # allocates, as are the exps unless a tape-free capture holds them,
        # and the merged heads after their product
        e = None
        h = h if grads is not None else None
        if not hand_on:
            saved = xhat1 = inv_std1 = None
        rows, shape = merged.shape[1], x.shape
        x1 = check(x[:, :rows] + _linear(merged, w["attn.out.weight"], w["attn.out.bias"], check),
                   "add")
        merged = merged if grads is not None else None
        h2, xhat2, inv_std2 = _layernorm(x1, w["ln2.gain"], w["ln2.bias"], check, taped)
        a1 = _linear(h2, w["ffn.fc1.weight"], w["ffn.fc1.bias"], check)
        # a taped block's backward reads gelu'(a1), made from gelu's own erf
        f, dgelu = kernels.gelu_grad(a1) if taped else (kernels.gelu(a1), None)
        a1 = None
        f = check(f, "gelu")
        x2 = check(x1 + _linear(f, w["ffn.fc2.weight"], w["ffn.fc2.bias"], check), "add")
        if not taped:
            return x2, None
        h2, f = (h2, f) if grads is not None else (None, None)

        # reads the weights from ``w`` and the rows from dx1: each name the
        # closure reads is a cell the forward holds from its first op, taped
        # or not
        def backward(g):
            da1 = np.matmul(g, w["ffn.fc2.weight"].T)
            da1 *= dgelu
            dh2 = np.matmul(da1, w["ffn.fc1.weight"].T)
            if grads is not None:
                grads[prefix + "ffn.fc1.weight"], grads[prefix + "ffn.fc1.bias"] = (
                    _linear_grads(h2, da1))
                grads[prefix + "ffn.fc2.weight"], grads[prefix + "ffn.fc2.bias"] = (
                    _linear_grads(f, g))
            da1 = None   # freed before the layer norm's backward
            dx1 = g + _layernorm_grads(dh2, xhat2, inv_std2, w["ln2.gain"], grads,
                                       prefix + "ln2")
            g = dh2 = None   # freed before attention's backward, the walk's peak
            if grads is not None:
                grads[prefix + "attn.out.weight"], grads[prefix + "attn.out.bias"] = (
                    _linear_grads(merged, dx1))
            dmerged = np.matmul(dx1, w["attn.out.weight"].T)
            if cap is not None:
                cap.cls_out_grad = dmerged[:, 0, :].copy()
            if not hand_on:
                return None   # no stage below reads a gradient
            if dx1.shape == shape:
                dres = dx1
            else:
                dres = np.zeros(shape)   # the residual read the CLS row alone
                dres[:, :1] = dx1
            dx1 = None
            dqkv = attention_grad(dmerged, saved)
            dmerged = None
            dh = np.matmul(dqkv, w["attn.qkv.weight"].T)
            if grads is not None:
                for kind, fused in zip(("weight", "bias"), _linear_grads(h, dqkv)):
                    for name, part in zip(_qkv_parts(f"{prefix}attn.qkv.{kind}"),
                                          np.split(fused, 3, axis=-1)):
                        grads[name] = np.ascontiguousarray(part)
            dqkv = None   # freed before the layer norm's backward
            return dres + _layernorm_grads(dh, xhat1, inv_std1, w["ln1.gain"], grads,
                                           prefix + "ln1")

        return x2, backward

    def head(self, x):
        """ln_f and the classifier, a stacked product as every linear is, on
        the final CLS state ``x`` [B, 1, d]: (logits [B, C], backward)."""
        w, check = self.weights.tensors, self.check
        taped = self.first_taped <= self.weights.config.num_layers + 1
        xf, xhat, inv_std = _layernorm(x, w["ln_f.gain"], w["ln_f.bias"], check, taped)
        logits = _linear(_check_stage(xf), w["head.weight"], w["head.bias"], check)[:, 0]
        if not taped:
            return logits, None
        grads, gain, head_weight = self.grads, w["ln_f.gain"], w["head.weight"]
        xf = xf if grads is not None else None

        def backward(g):
            dxf = np.matmul(g[:, None], head_weight.T)
            if grads is not None:
                grads["head.weight"], grads["head.bias"] = _linear_grads(xf, g[:, None])
            return _layernorm_grads(dxf, xhat, inv_std, gain, grads, "ln_f")

        return logits, backward


def _root(op: str, logits: Tensor, value, grad) -> Tensor:
    """A scalar backward root of ``logits``, carrying its gradient ``grad``
    with respect to them."""
    if logits.graph is None:
        raise ContractError(f"{op} requires logits recorded on a tape")
    return Tensor(np.asarray(value), logits.graph, grad)


def class_score(logits: Tensor, class_index: int) -> Tensor:
    """The summed logit of one class over the batch, as a backward root."""
    c = int(class_index)
    if not 0 <= c < logits.shape[-1]:
        raise ParameterError(f"class index {c} out of range")
    seed = np.zeros(logits.shape)
    seed[:, c] = 1.0
    return _root("class_score", logits, logits.data[:, c].sum(), seed)


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean cross-entropy of logits [B, C] against integer labels [B], as a
    backward root: -mean over rows of the log-softmax at each label."""
    labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    b, c = logits.shape
    if labels.shape != (b,):
        raise DimensionError(f"labels shape {labels.shape} does not match batch {b}")
    if (labels < 0).any() or (labels >= c).any():
        raise ParameterError("label out of range")
    onehot = np.zeros((b, c))
    onehot[np.arange(b), labels] = 1.0
    z = logits.data - logits.data.max(axis=-1, keepdims=True)
    logp = check_finite(z - np.log(np.exp(z).sum(axis=-1, keepdims=True)), "log_softmax")
    k = -1.0 / b
    loss = check_finite(np.asarray((logp * onehot).sum()), "sum") * k
    g = k * onehot
    return _root("cross_entropy", logits, loss, g - np.exp(logp) * g.sum(axis=-1, keepdims=True))


class VisionTransformer:
    """Weights and their config; immutable after construction.

    Each forward/backward owns a private Graph, so one model instance can
    serve many concurrent attributions.
    """

    def __init__(self, weights: ViTWeights):
        self.config = weights.config
        self.weights = weights

    # -- forward ------------------------------------------------------------

    def forward(self, image: np.ndarray, capture: bool = False,
                layer_window: int | None = None,
                cls_out_offsets: dict[int, np.ndarray] | None = None,
                *, wrt: str | None = "input") -> ForwardResult:
        """Run the network; optionally record LayerCaptures.

        With capture on, layers L-window+1 .. L are recorded. The forward
        softmax always runs at temperature 1; the attribution temperature
        only enters when maps are built from the captures. cls_out_offsets
        maps a 1-based layer index to a [B, d] perturbation added to that
        layer's CLS attention output (a probe point for sensitivity checks).

        ``wrt`` names the one gradient a backward of the result reads; the
        logits and captures are the same bits for every value. Weights are
        never tape nodes: each stage's backward maps its output gradient to
        the gradient of its input.

        "input" (the default): the graph holds the L + 2 stage nodes (the
        embedding, one per block and the head), a backward stores the
        image's gradient under INPUT in graph.gradients, and a captured
        layer's block backward stores its cls_out_grad on every walk.

        "captures" (needs capture on, else ContractError): the tape starts
        at the lowest captured layer, and the graph holds window + 1 nodes.
        A backward stops once that layer has stored its cls_out_grad (the
        same bits as under "input"), before its attention backward, and
        leaves graph.gradients empty.

        "weights": the tape of "input", and weight_grads is a dict that a
        backward fills with every weight tensor's gradient, under its name
        in ``ViTWeights.tensors`` (for training), leaving graph.gradients
        empty. Under any other value weight_grads is None.

        None: no tape. The logits are a Tensor with no graph, the graph is
        empty, and backward_class refuses the result.

        Another value raises ParameterError. Neither check counts a forward.

        A non-finite value raises NumericError naming the stage and the op
        that made it, with tape on or off (see the module docstring).
        """
        cfg = self.config
        img = np.asarray(image, dtype=np.float64)
        if img.ndim == 3:
            img = img[None]
        if img.ndim != 4 or img.shape[1:] != (3, cfg.image_height, cfg.image_width):
            raise DimensionError(
                f"image shape {np.shape(image)} does not match config "
                f"(3, {cfg.image_height}, {cfg.image_width})")
        window = cfg.layer_window if layer_window is None else int(layer_window)
        if not 1 <= window <= cfg.num_layers:
            raise ParameterError(f"layer_window must be in [1, {cfg.num_layers}]")
        if wrt not in (None, "input", "captures", "weights"):
            raise ParameterError(f"wrt {wrt!r} is not None, 'input', 'captures' or 'weights'")
        if wrt == "captures" and not capture:
            raise ContractError("wrt='captures' needs capture=True")
        first_captured = cfg.num_layers + 1 - (window if capture else 0)
        # the chain's stages are 0 (the embedding) .. L + 1 (the head)
        off_tape = cfg.num_layers + 2
        first_taped = {None: off_tape, "captures": first_captured}.get(wrt, 0)

        counters.bump("forward")
        args = (img, first_captured, cls_out_offsets or {})
        try:
            return self._run(*args, first_taped, wrt == "weights", _unchecked)
        except NumericError:
            self._run(*args, off_tape, False, check_finite)  # raises the named error
            raise

    def _run(self, img: np.ndarray, first_captured: int, cls_out_offsets,
             first_taped: int, weight_grads: bool, check) -> ForwardResult:
        """The forward body, capturing layers first_captured..L and taping
        stages first_taped..L + 1 (see _Stages), with ``check(out, op)``
        after every op."""
        graph = Graph()
        grads = {} if weight_grads else None
        stages = _Stages(self.weights, check, first_taped, first_captured, grads)

        img = check_finite(np.ascontiguousarray(img), "leaf")

        def stage(name, run, *args):
            """One stage: its output, checked, and its backward appended to
            the tape if it returned one."""
            try:
                out, backward = run(*args)
                _check_stage(out)
            except NumericError as e:
                raise NumericError(f"{name}: {e}") from None
            if backward is not None:
                graph.nodes.append(backward)
            return out

        x = stage("patch embedding", stages.embedding, img)
        for layer, blk in enumerate(self.weights.blocks, 1):
            x = stage(f"block {layer}", stages.block, blk, x, layer, cls_out_offsets.get(layer))
        logits = stage("classifier head", stages.head, x)

        return ForwardResult(
            logits=Tensor(logits, graph if graph.nodes else None), captures=stages.captures,
            graph=graph, weight_grads=grads)

    # -- gradients ------------------------------------------------------------

    def backward_class(self, result: ForwardResult, class_index: int) -> ForwardResult:
        """Backpropagate the class score; each captured layer's block
        backward fills its capture's cls_out_grad on the way.

        The graph keeps the image's gradient alone, in
        ``graph.gradients[INPUT]``; on a forward with wrt="captures" the
        walk stops at the lowest captured layer and graph.gradients is
        empty, with the same cls_out_grads. The tape outlives the walk,
        so a later call on the same result (another class, say) gives the
        same bits as a fresh forward and backward.
        """
        if not result.graph.nodes:
            raise StateError("forward ran without a tape (wrt=None); backward_class needs one")
        if not result.captures:
            raise StateError("backward_class requires a forward run with capture=True")
        result.graph.backward(class_score(result.logits, class_index))
        return result

    def loss_and_input_grad(self, image: np.ndarray, labels) -> tuple[float, np.ndarray]:
        """Cross-entropy loss and its gradient with respect to the image (the
        one gradient a backward keeps), in the image's shape."""
        res = self.forward(image, capture=False)
        loss = cross_entropy(res.logits, labels)
        grad = res.graph.backward(loss)[INPUT]
        return loss.item(), grad.reshape(np.shape(image))

    # -- inference ------------------------------------------------------------

    def predict_logits(self, image: np.ndarray) -> np.ndarray:
        """The tape-free forward's own logits array, fresh on each call."""
        return self.forward(image, wrt=None).logits.data

    def predict_proba(self, image: np.ndarray) -> np.ndarray:
        logits = self.predict_logits(image)
        return kernels.softmax_rows(np.ascontiguousarray(logits), 1.0)


def new_model(config: ViTConfig, seed: int) -> VisionTransformer:
    """Convenience: config + seeded init in one call."""
    return VisionTransformer(init_weights(config, seed))
