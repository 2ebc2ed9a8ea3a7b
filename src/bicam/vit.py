"""A minimal vision transformer with per-layer capture points.

The model is a standard pre-norm ViT: patch embedding, learned positional
embeddings, a [CLS] token (plus an optional distillation token), L
transformer blocks, and a classifier head on the final [CLS] state.

Attribution needs three things recorded per captured layer: the CLS row of
the pre-softmax attention logits (already scaled by 1/sqrt(head_dim), i.e.
exactly what the softmax consumes), the per-head value projections, and
the concatenated per-head CLS attention output *before* the block's output
projection, together with its gradient after a class-score backward pass.

The forward body is written once, against a small ops interface with two
backends: _TapeOps records an autodiff tape (for gradients), _ArrayOps
runs the same ops on plain ndarrays (for predictions, which need none).
Every affine map is one op, ``linear`` (a matmul and an add node on the
tape); a block's q, k and v projections are one linear on its fused
[Wq|Wk|Wv] weight and bias, built once at load, so a forward runs 6L + 2
products on either backend. Each block's multi-head attention is one op,
``attention`` (one tape node): it takes that fused projection, splits and
merges the heads itself, and hands back the CLS score row for captured
layers, the probabilities it softmaxed in place and the values, which
captures keep as they are (attention rollout reads the probabilities).
The tape checks every node for NaN/Inf; off the tape only the 3L + 4
values a non-finite can hide behind are checked (see _ArrayOps for which
and why), and a failing check re-runs the body on the tape to name the op.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from . import counters, kernels
from .autodiff import Graph, Tensor, attention, attention_arrays, check_finite, concat
from .errors import (DimensionError, NumericError, ParameterError, StateError)

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
    """The q, k and v tensor names of a fused ``blocks.{i}.attn.qkv.*`` name."""
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


class ViTWeights:
    """Named, finite weight tensors whose shapes are pinned by a ViTConfig.

    Each block's q, k and v projections live in one fused weight [d, 3d]
    and one fused bias [3d], named ``blocks.{i}.attn.qkv.weight`` and
    ``.bias`` in ``arrays``; their entries in ``tensors`` are column views
    of those, so a weight updated in place (training, tests) is seen by
    both. ``tensors`` holds the per-name tensors of the weight file,
    ``arrays`` those plus the fused ones.
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
        fused: dict[str, np.ndarray] = {}
        for i in range(config.num_layers):
            for kind in ("weight", "bias"):
                name = f"blocks.{i}.attn.qkv.{kind}"
                parts = _qkv_parts(name)
                whole = fused[name] = np.concatenate([store[m] for m in parts], axis=-1)
                for j, m in enumerate(parts):
                    store[m] = whole[..., j * d:(j + 1) * d]
        self.config = config
        self.tensors = store
        self.arrays = {**store, **fused}

    def __getitem__(self, name: str) -> np.ndarray:
        return self.arrays[name]

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
    values: np.ndarray        # [B, H, N, d_h] (the forward's own, not a copy)
    cls_out: np.ndarray       # [B, d], concat of per-head CLS attention output
    cls_out_grad: np.ndarray | None = None   # [B, d] after backward_class
    # [B, H, N, N], the forward's own softmax of attn_logits (not a copy)
    attn_probs: np.ndarray | None = field(default=None, repr=False)
    merged_node: int = field(default=-1, repr=False)


@dataclass
class ForwardResult:
    logits: Tensor
    captures: list[LayerCapture]
    graph: Graph
    image_node: int
    weight_nodes: dict[str, int]
    input_shape: tuple[int, ...]


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean cross-entropy of logits [B, C] against integer labels [B]."""
    labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    b, c = logits.shape
    if labels.shape != (b,):
        raise DimensionError(f"labels shape {labels.shape} does not match batch {b}")
    if (labels < 0).any() or (labels >= c).any():
        raise ParameterError("label out of range")
    onehot = np.zeros((b, c))
    onehot[np.arange(b), labels] = 1.0
    return logits.log_softmax().mul(onehot).sum().scale(-1.0 / b)


class _TapeOps:
    """Forward ops that record a tape: the Tensor primitives themselves.

    Weights enter as constant ndarrays, which the primitives accept as
    operands and send no gradient to, unless weight gradients are asked for;
    then every weight is a leaf listed in weight_nodes, and a fused q|k|v
    weight or bias is the concat of its q, k and v leaves.
    """

    def __init__(self, weights: ViTWeights, weight_grads: bool):
        self.graph = Graph()
        self.weight_nodes: dict[str, int] = {}
        self._weights = weights
        self._weight_grads = weight_grads

    def input(self, img: np.ndarray) -> Tensor:
        return self.graph.leaf(img)

    def weight(self, name: str, leaf: bool = False) -> Tensor | np.ndarray:
        """``leaf`` asks for a tape operand even without weight gradients
        (the special tokens feed concat, which takes only tape operands)."""
        if not (leaf or self._weight_grads):
            return self._weights[name]
        if ".qkv." in name:
            return concat([self.weight(part) for part in _qkv_parts(name)], axis=-1)
        t = self.graph.leaf(self._weights[name])
        if self._weight_grads:
            self.weight_nodes[name] = t.node_id
        return t

    @staticmethod
    def array(t: Tensor) -> np.ndarray:
        return t.data

    @staticmethod
    def node(t: Tensor) -> int:
        return t.node_id

    @staticmethod
    def tensor(t: Tensor) -> Tensor:
        return t

    check = tensor   # every node was checked when it was recorded

    def linear(self, t: Tensor, name: str) -> Tensor:
        return t.matmul(self.weight(f"{name}.weight")).add(self.weight(f"{name}.bias"))

    add = staticmethod(Tensor.add)
    reshape = staticmethod(Tensor.reshape)
    transpose = staticmethod(Tensor.transpose)
    broadcast_to = staticmethod(Tensor.broadcast_to)
    narrow = staticmethod(Tensor.narrow)
    attention = staticmethod(attention)
    gelu = staticmethod(Tensor.gelu)
    layernorm = staticmethod(Tensor.layernorm)
    concat = staticmethod(concat)


class _ArrayOps:
    """Forward ops on plain ndarrays: no tape, no closures, no weight leaves.

    Each op computes what the Tensor primitives of the same name (or the
    _TapeOps op built from them) compute forward, with the same kernels and
    the same (C-contiguous) memory layout, so results are bit-equal to the
    taped forward. ``linear`` adds the bias, and ``layernorm`` scales and
    shifts, in place.

    NaN/Inf checks run only where a non-finite can hide: the input, the
    attention scores (softmax turns -inf into 0) and output (in
    attention_arrays), and what the body passes to ``check``: each stage's
    output, ln_f before ``narrow`` drops its non-CLS rows, and the logits.
    Weights are finite, and every other op turns a non-finite input element
    into a non-finite output on the way to one of those: a matmul row (BLAS
    makes inf * 0 a NaN), an add, a layer norm row and gelu; a finite input
    to a scale of at most 1, a softmax or gelu gives a finite output. A
    failing check does not name the op; forward re-runs the body on the
    tape, which does.
    """

    def __init__(self, weights: ViTWeights):
        self.graph = Graph()  # stays empty
        self.weight_nodes: dict[str, int] = {}
        self._arrays = weights.arrays

    def weight(self, name: str, leaf: bool = False) -> np.ndarray:
        return self._arrays[name]

    @staticmethod
    def input(img: np.ndarray) -> np.ndarray:
        return check_finite(np.ascontiguousarray(img), "leaf")

    @staticmethod
    def check(a: np.ndarray) -> np.ndarray:
        return check_finite(a, "the tape-free forward")

    @staticmethod
    def array(a: np.ndarray) -> np.ndarray:
        return a

    @staticmethod
    def node(a: np.ndarray) -> int:
        return -1

    @staticmethod
    def tensor(a: np.ndarray) -> Tensor:
        return Tensor(a)

    def linear(self, t, name: str):
        out = np.matmul(t, self._arrays[f"{name}.weight"])
        out += self._arrays[f"{name}.bias"]
        return out

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def reshape(a, shape):
        return a.reshape(shape)

    @staticmethod
    def transpose(a, axes):
        return np.ascontiguousarray(a.transpose(axes))

    @staticmethod
    def broadcast_to(a, shape):
        return np.ascontiguousarray(np.broadcast_to(a, shape))

    @staticmethod
    def narrow(a, axis: int, start: int, length: int):
        idx = [slice(None)] * a.ndim
        idx[axis] = slice(start, start + length)
        return np.ascontiguousarray(a[tuple(idx)])

    @staticmethod
    def attention(qkv, heads: int, scale: float, keep_scores: bool):
        out, kept, p, v, _, _ = attention_arrays(qkv, heads, scale, keep_scores)
        # an uncaptured layer's p and v are freed before the next layer allocates its own
        return (out, kept, p, v) if keep_scores else (out, None, None, None)

    @staticmethod
    def gelu(a):
        return kernels.gelu(a)

    @staticmethod
    def layernorm(a, gain, bias, eps: float):
        # a is the residual stream, a fresh C-contiguous sum
        xhat, _ = kernels.layernorm_rows(a.reshape(-1, a.shape[-1]), float(eps))
        xhat *= gain
        xhat += bias
        return xhat.reshape(a.shape)

    @staticmethod
    def concat(arrays, axis: int):
        return np.concatenate(arrays, axis=axis)


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

        With tape off the same body runs on plain ndarrays: the logits and
        captures are bit-equal to the taped run's, the logits are a detached
        Tensor, the graph is empty, image_node and every merged_node are -1,
        and backward_class refuses the result.

        On the tape, weights are constants by default: no weight or bias
        leaf is recorded, weight_nodes is empty, and a backward computes no
        weight gradient. weight_grads=True records every weight as a leaf
        and maps its name to its node in weight_nodes, so a backward also
        fills the weight gradients (for training). It has no effect with
        tape off.

        A non-finite value raises NumericError naming the stage and the op
        that made it, with tape on or off (see _ArrayOps).
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
        args = (img, input_shape, first_captured, cls_out_offsets)
        if tape:
            return self._run(_TapeOps(self.weights, weight_grads), *args)
        try:
            return self._run(_ArrayOps(self.weights), *args)
        except NumericError:
            self._run(_TapeOps(self.weights, False), *args)  # raises the named error
            raise

    def _run(self, o, img: np.ndarray, input_shape: tuple[int, ...],
             first_captured: int, cls_out_offsets) -> ForwardResult:
        """The forward body on ops ``o``, capturing layers first_captured..L."""
        cfg = self.config
        W = o.weight

        b = img.shape[0]
        p, d = cfg.patch_size, cfg.embed_dim
        gh, gw = cfg.grid_height, cfg.grid_width
        nh, dh, n = cfg.num_heads, cfg.head_dim, cfg.num_tokens

        def special(name: str):  # one learned token, repeated over the batch
            return o.broadcast_to(o.reshape(W(name, leaf=True), (1, 1, d)), (b, 1, d))

        x_img = o.input(img)
        try:
            patches = o.reshape(o.transpose(o.reshape(x_img, (b, 3, gh, p, gw, p)),
                                            (0, 2, 4, 1, 3, 5)),
                                (b, gh * gw, 3 * p * p))
            tok = o.linear(patches, "patch_embed")
            specials = [special("cls_token")]
            if cfg.distillation_token:
                specials.append(special("dist_token"))
            x = o.concat(specials + [tok], axis=1)
            x = o.check(o.add(x, W("pos_embed")))
        except NumericError as e:
            raise NumericError(f"patch embedding: {e}") from None

        captures: list[LayerCapture] = []
        for layer in range(1, cfg.num_layers + 1):
            pre = f"blocks.{layer - 1}"
            try:
                h = o.layernorm(x, W(f"{pre}.ln1.gain"), W(f"{pre}.ln1.bias"), LAYERNORM_EPS)
                captured = layer >= first_captured
                merged, scores, probs, values = o.attention(
                    o.linear(h, f"{pre}.attn.qkv"), nh, 1.0 / math.sqrt(dh), captured)
                if cls_out_offsets and layer in cls_out_offsets:
                    pad = np.zeros((b, n, d))
                    pad[:, 0, :] = cls_out_offsets[layer]
                    merged = o.add(merged, pad)
                if captured:
                    captures.append(LayerCapture(
                        layer=layer,
                        attn_logits=scores,
                        attn_probs=probs,
                        values=values,
                        cls_out=o.array(merged)[:, 0, :].copy(),
                        merged_node=o.node(merged),
                    ))
                x = o.add(x, o.linear(merged, f"{pre}.attn.out"))
                h2 = o.layernorm(x, W(f"{pre}.ln2.gain"), W(f"{pre}.ln2.bias"), LAYERNORM_EPS)
                f = o.gelu(o.linear(h2, f"{pre}.ffn.fc1"))
                x = o.check(o.add(x, o.linear(f, f"{pre}.ffn.fc2")))
            except NumericError as e:
                raise NumericError(f"block {layer}: {e}") from None

        try:
            xf = o.check(o.layernorm(x, W("ln_f.gain"), W("ln_f.bias"), LAYERNORM_EPS))
            cls_state = o.reshape(o.narrow(xf, 1, 0, 1), (b, d))
            logits = o.check(o.linear(cls_state, "head"))
        except NumericError as e:
            raise NumericError(f"classifier head: {e}") from None

        return ForwardResult(logits=o.tensor(logits), captures=captures, graph=o.graph,
                             image_node=o.node(x_img), weight_nodes=o.weight_nodes,
                             input_shape=input_shape)

    # -- gradients ------------------------------------------------------------

    def backward_class(self, result: ForwardResult, class_index: int) -> ForwardResult:
        """Backpropagate the class score; fills cls_out_grad on every capture.

        The graph keeps the gradients of the image and of every captured
        layer's merged node; reading any other node's raises ContractError.
        """
        c = int(class_index)
        if not 0 <= c < self.config.num_classes:
            raise ParameterError(f"class index {c} out of range")
        if not result.graph.nodes:
            raise StateError("forward ran without a tape; backward_class needs tape=True")
        if not result.captures:
            raise StateError("backward_class requires a forward run with capture=True")
        y = result.logits.narrow(-1, c, 1).sum()
        result.graph.retain = {result.image_node, *(cap.merged_node for cap in result.captures)}
        result.graph.backward(y)
        for cap in result.captures:
            cap.cls_out_grad = result.graph.gradients[cap.merged_node][:, 0, :].copy()
        return result

    def loss_and_input_grad(self, image: np.ndarray, labels) -> tuple[float, np.ndarray]:
        """Cross-entropy loss and its gradient with respect to the image (the
        one gradient the backward keeps)."""
        res = self.forward(image, capture=False)
        loss = cross_entropy(res.logits, labels)
        res.graph.retain = {res.image_node}
        res.graph.backward(loss)
        grad = res.graph.gradients[res.image_node]
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
