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
so a capture holds the exps of its scores and their row sums, and its
``attn_probs`` divides one by the other when read (rollout reads them).

The forward body is written once, on plain ndarrays, as one loop over
L + 2 stages: the embedding, each block (x -> next x) and the head. A
block's q, k and v projections are one product on its fused [Wq|Wk|Wv]
weight, built once at load, so a forward runs 6L + 2 products. When a tape
is asked for, each stage returns its hand-chained VJP (vector-Jacobian
product) on the same kernels, one output gradient to one input gradient,
and the tape records the chain of L + 2 nodes: the embedding, one per
block (which walks back its MLP, then its attention, and adds the
residual's gradient to ln1's) and the head. The backward roots,
``class_score`` and ``cross_entropy``, are scalars of the logits that carry
their gradient, not nodes. Weights are never nodes; a backward asked for
weight gradients stores them by name.

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
from .autodiff import (INPUT, Graph, Node, Tensor, attention_arrays, attention_grad,
                       check_finite)
from .errors import ContractError, DimensionError, NumericError, ParameterError, StateError

LAYERNORM_EPS = 1e-6
INIT_STD = 0.02


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
        if not 0 < self.temperature < math.inf:
            raise ParameterError(f"temperature must be finite and > 0, got {self.temperature}")

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
        if name.endswith(".bias") or name == "ln_f.bias":
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
    # the forward's own softmax numerators exp(logits - row max) (not a
    # copy): [B, H, N, N], or for the last layer its CLS row alone,
    # [B, H, 1, N]; and their row sums, [B, H, N, 1] or [B, H, 1, 1]
    attn_exp: np.ndarray | None = field(default=None, repr=False)
    attn_rowsums: np.ndarray | None = field(default=None, repr=False)

    @property
    def attn_probs(self) -> np.ndarray:
        """The attention probabilities attn_exp / attn_rowsums, made on each
        read: a forward keeps its scores unnormalized."""
        return self.attn_exp / self.attn_rowsums


@dataclass
class ForwardResult:
    logits: Tensor
    captures: list[LayerCapture]
    graph: Graph
    image_node: int   # the key of the image's gradient in graph.gradients
    # tensor name -> gradient, filled by a backward; None without weight_grads
    weight_grads: dict[str, np.ndarray] | None
    input_shape: tuple[int, ...]


def _unchecked(out, op):
    return out


def _check_stage(out):
    return check_finite(out, "the forward")


def _linear(x, weight, bias, check):
    out = check(np.matmul(x, weight), "matmul")
    out += bias
    return check(out, "add")


def _linear_grads(x, grad):
    """Gradients of the weight and bias of ``x @ weight + bias`` from the
    output gradient, summed over a leading batch axis."""
    gw, gb = np.matmul(np.swapaxes(x, -1, -2), grad), grad.sum(axis=0)
    return (gw.sum(axis=0), gb.sum(axis=0)) if grad.ndim == 3 else (gw, gb)


def _layernorm(x, gain, bias, check, taped):
    """Layer norm over the last axis: (out, xhat, inv_std). Off the tape the
    gain and bias are applied to xhat in place, on it xhat is kept."""
    xhat, inv_std = kernels.layernorm_rows(x.reshape(-1, x.shape[-1]), LAYERNORM_EPS)
    out = np.multiply(xhat, gain, out=None if taped else xhat)
    out += bias
    return check(out.reshape(x.shape), "layernorm"), xhat, inv_std


def _layernorm_grads(grad, xhat, inv_std, gain, grads, name):
    """The input gradient of a layer norm; with a ``grads`` dict, the
    gradients of its ``name``.gain and ``name``.bias are stored there."""
    rows = np.ascontiguousarray(grad.reshape(xhat.shape))
    dxhat = rows * gain
    dx = kernels.layernorm_rows_grad(xhat, inv_std, dxhat, dxhat).reshape(grad.shape)
    if grads is not None:
        grads[name + ".gain"], grads[name + ".bias"] = (rows * xhat).sum(axis=0), rows.sum(axis=0)
    return dx


class _Stages:
    """The stages of one forward on ``weights``: the embedding, a block
    and the head; ``check(out, op)`` runs after every op. Each stage returns
    its output and, when ``taped``, its backward, else None. Weights are
    constants on the tape, so a backward maps the output gradient to the
    gradient of the stage's input.
    When ``grads`` is a dict, a backward also stores there the gradient of
    every weight its stage read, under the weight's name in
    ``ViTWeights.tensors`` (q, k and v as the column thirds of the fused
    gradient). ``captures`` collects the captured layers' records in layer
    order."""

    def __init__(self, weights, check, taped: bool, grads: dict | None, scratch: dict):
        self.weights, self.check = weights, check
        self.taped, self.grads, self.scratch = taped, grads, scratch
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
        if not self.taped:
            return x, None
        grads, pe_weight, shape = self.grads, w["patch_embed.weight"], img.shape
        patches = patches if grads is not None else None

        def backward(g):
            dtok = np.ascontiguousarray(g[:, ns:])
            dpatches = np.matmul(dtok, pe_weight.T).reshape(b, gh, gw, 3, p, p)
            dimg = np.ascontiguousarray(dpatches.transpose(0, 3, 1, 4, 2, 5)).reshape(shape)
            if grads is not None:
                for i, name in enumerate(specials):
                    grads[name] = np.ascontiguousarray(g[:, i:i + 1]).sum(axis=0).reshape(d)
                grads["patch_embed.weight"], grads["patch_embed.bias"] = (
                    _linear_grads(patches, dtok))
                grads["pos_embed"] = g.sum(axis=0)
            return dimg

        return x, backward

    def block(self, blk: BlockWeights, x, layer: int | None, offset, cls_only: bool):
        """One transformer block: ln1, the fused q|k|v product, attention,
        the output projection and its residual add, ln2, the MLP and its
        residual add: (next x, backward). For a captured ``layer`` (1-based;
        None for any other) it appends that layer's LayerCapture to
        ``captures``, and its backward stores the CLS row of the merged
        heads' gradient there as ``cls_out_grad``. ``offset`` is a [B, d]
        term added to the merged CLS row, or None. ln1 and the product cover
        every token; with ``cls_only`` only the CLS token queries, so the
        merged heads and every op after them are its row alone, [B, 1, d]."""
        cfg, check, w, taped = self.weights.config, self.check, blk.arrays, self.taped
        grads, prefix = self.grads, blk.prefix
        h, xhat1, inv_std1 = _layernorm(x, w["ln1.gain"], w["ln1.bias"], check, taped)
        scale = 1.0 / math.sqrt(cfg.head_dim)
        merged, kept, saved = attention_arrays(
            _linear(h, w["attn.qkv.weight"], w["attn.qkv.bias"], check), cfg.num_heads, scale,
            layer is not None, cls_only)
        if offset is not None:
            pad = np.zeros(merged.shape)
            pad[:, 0, :] = offset
            merged = check(merged + pad, "add")
        cap = None
        if layer is not None:
            cap = LayerCapture(layer=layer, attn_logits=kept, values=saved.vx[..., :-1],
                               cls_out=merged[:, 0, :].copy(), attn_exp=saved.e,
                               attn_rowsums=saved.l[..., None])
            self.captures.append(cap)
        # ln1's output is read again by a weight gradient alone, and off the
        # tape an uncaptured layer's scores by nothing: both are freed before
        # the MLP half allocates, and the merged heads after their product
        h = h if grads is not None else None
        if not taped:
            saved = xhat1 = inv_std1 = None
        rows, shape = merged.shape[1], x.shape
        x1 = check(x[:, :rows] + _linear(merged, w["attn.out.weight"], w["attn.out.bias"], check),
                   "add")
        merged = merged if grads is not None else None
        h2, xhat2, inv_std2 = _layernorm(x1, w["ln2.gain"], w["ln2.bias"], check, taped)
        a1 = _linear(h2, w["ffn.fc1.weight"], w["ffn.fc1.bias"], check)
        f = check(kernels.gelu(a1), "gelu")
        x2 = check(x1 + _linear(f, w["ffn.fc2.weight"], w["ffn.fc2.bias"], check), "add")
        if not taped:
            return x2, None
        scratch = self.scratch
        h2, f = (h2, f) if grads is not None else (None, None)

        # reads the weights from ``w`` and the rows from dx1: each name the
        # closure reads is a cell the forward holds from its first op, taped
        # or not
        def backward(g):
            da1 = kernels.gelu_grad(a1, np.matmul(g, w["ffn.fc2.weight"].T))
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
            if dx1.shape == shape:
                dres = dx1
            else:
                dres = np.zeros(shape)   # the residual read the CLS row alone
                dres[:, :1] = dx1
            dx1 = None
            if cap is not None:
                cap.cls_out_grad = dmerged[:, 0, :].copy()
            dqkv = attention_grad(dmerged, saved, scale, scratch)
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
        """ln_f and the classifier on the final CLS state ``x`` [B, 1, d]:
        (logits, backward)."""
        w, check = self.weights.tensors, self.check
        xf, xhat, inv_std = _layernorm(x, w["ln_f.gain"], w["ln_f.bias"], check, self.taped)
        cls_state = _check_stage(xf)[:, 0]
        logits = _linear(cls_state, w["head.weight"], w["head.bias"], check)
        if not self.taped:
            return logits, None
        grads, gain, head_weight = self.grads, w["ln_f.gain"], w["head.weight"]
        cls_state = cls_state if grads is not None else None

        def backward(g):
            dxf = np.matmul(g, head_weight.T)[:, None]
            if grads is not None:
                grads["head.weight"], grads["head.bias"] = _linear_grads(cls_state, g)
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
    """Config + weights bundle; immutable after construction.

    Each forward/backward owns a private Graph, so one model instance can
    serve many concurrent attributions.
    """

    def __init__(self, config: ViTConfig, weights: ViTWeights):
        if weights.config != config:
            raise ParameterError("weights were built for a different config")
        self.config = config
        self.weights = weights

    # -- forward ------------------------------------------------------------

    def forward(self, image: np.ndarray, capture: bool = False,
                layer_window: int | None = None,
                cls_out_offsets: dict[int, np.ndarray] | None = None,
                tape: bool = True, *, weight_grads: bool = False) -> ForwardResult:
        """Run the network; optionally record LayerCaptures.

        With capture on, layers L-window+1 .. L are recorded. The forward
        softmax always runs at temperature 1; the attribution temperature
        only enters when maps are built from the captures. cls_out_offsets
        maps a 1-based layer index to a [B, d] perturbation added to that
        layer's CLS attention output (a probe point for sensitivity checks).

        With tape on, the graph holds the L + 2 stage nodes (the embedding,
        one per block and the head), a backward stores the image's gradient
        under image_node in graph.gradients, and a captured layer's block
        backward stores its capture's cls_out_grad on every walk. With tape
        off the same body records nothing: the logits are a detached Tensor,
        the graph is empty, and backward_class refuses the result. The
        logits and captures are the same bits either way.

        Weights are never tape nodes: each stage's backward maps its output
        gradient to the gradient of its input. By default the result's
        weight_grads is None, and a backward computes no weight gradient.
        With weight_grads=True it is a dict that a backward fills with the
        gradient of every weight tensor, under its name in
        ``ViTWeights.tensors`` (for training); every weight is read by
        exactly one stage, which stores its gradient once. It has no effect
        with tape off.

        A non-finite value raises NumericError naming the stage and the op
        that made it, with tape on or off (see the module docstring).
        """
        cfg = self.config
        img = np.asarray(image, dtype=np.float64)
        input_shape = img.shape
        if img.ndim == 3:
            img = img[None]
        if img.ndim != 4 or img.shape[1:] != (3, cfg.image_height, cfg.image_width):
            raise DimensionError(
                f"image shape {input_shape} does not match config "
                f"(3, {cfg.image_height}, {cfg.image_width})")
        window = cfg.layer_window if layer_window is None else int(layer_window)
        if not 1 <= window <= cfg.num_layers:
            raise ParameterError(f"layer_window must be in [1, {cfg.num_layers}]")
        first_captured = cfg.num_layers + 1 - (window if capture else 0)

        counters.bump("forward")
        args = (img, input_shape, first_captured, cls_out_offsets or {})
        try:
            return self._run(*args, tape, weight_grads, _unchecked)
        except NumericError:
            self._run(*args, False, False, check_finite)  # raises the named error
            raise

    def _run(self, img: np.ndarray, input_shape: tuple[int, ...], first_captured: int,
             cls_out_offsets, tape: bool, weight_grads: bool, check) -> ForwardResult:
        """The forward body, capturing layers first_captured..L, with
        ``check(out, op)`` after every op."""
        graph = Graph()
        grads = {} if tape and weight_grads else None
        stages = _Stages(self.weights, check, tape, grads, graph.scratch)

        img = check_finite(np.ascontiguousarray(img), "leaf")

        def stage(op, name, run, *args):
            """One stage: its output, checked, and its node on the tape."""
            try:
                out, backward = run(*args)
                _check_stage(out)
            except NumericError as e:
                raise NumericError(f"{name}: {e}") from None
            if tape:
                graph.nodes.append(Node(op, backward))
            return out

        x = stage("embedding", "patch embedding", stages.embedding, img)
        for layer, blk in enumerate(self.weights.blocks, 1):
            x = stage("block", f"block {layer}", stages.block, blk, x,
                      layer if layer >= first_captured else None,
                      cls_out_offsets.get(layer), layer == self.config.num_layers)
        logits = stage("head", "classifier head", stages.head, x)

        return ForwardResult(
            logits=Tensor(logits, graph if tape else None), captures=stages.captures,
            graph=graph, image_node=INPUT, weight_grads=grads, input_shape=input_shape)

    # -- gradients ------------------------------------------------------------

    def backward_class(self, result: ForwardResult, class_index: int) -> ForwardResult:
        """Backpropagate the class score; each captured layer's block
        backward fills its capture's cls_out_grad on the way.

        The graph keeps the image's gradient alone, in
        ``graph.gradients[result.image_node]``. The tape outlives the walk,
        so a later call on the same result (another class, say) gives the
        same bits as a fresh forward and backward.
        """
        if not result.graph.nodes:
            raise StateError("forward ran without a tape; backward_class needs tape=True")
        if not result.captures:
            raise StateError("backward_class requires a forward run with capture=True")
        result.graph.backward(class_score(result.logits, class_index))
        return result

    def loss_and_input_grad(self, image: np.ndarray, labels) -> tuple[float, np.ndarray]:
        """Cross-entropy loss and its gradient with respect to the image (the
        one gradient a backward keeps)."""
        res = self.forward(image, capture=False)
        loss = cross_entropy(res.logits, labels)
        grad = res.graph.backward(loss)[res.image_node]
        return loss.item(), grad.reshape(res.input_shape)

    # -- inference ------------------------------------------------------------

    def predict_logits(self, image: np.ndarray) -> np.ndarray:
        return self.forward(image, tape=False).logits.detach()

    def predict_proba(self, image: np.ndarray) -> np.ndarray:
        logits = self.predict_logits(image)
        return kernels.softmax_rows(np.ascontiguousarray(logits), 1.0)


def new_model(config: ViTConfig, seed: int) -> VisionTransformer:
    """Convenience: config + seeded init in one call."""
    return VisionTransformer(config, init_weights(config, seed))
