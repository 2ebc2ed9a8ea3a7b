"""Reverse-mode automatic differentiation over float64 ndarrays, for a
model that is a chain of stages.

A Graph is the tape of one forward: its ``nodes`` are the stages'
backward closures in forward order, with no op tag (a closure's
``__qualname__`` names its stage). Each holds its stage's saved forward
values and maps the stage's output gradient to its input gradient (the
stage's hand-chained VJP, vector-Jacobian product; see ``vit``). A Tensor
is the raw data plus the owning graph; a backward root is a scalar Tensor
made from the chain's output (the logits) that carries its own gradient
with respect to that output. backward(root) walks the nodes in reverse
from that gradient and keeps only the chain's input gradient, in
``graph.gradients[INPUT]``: each node's output gradient is freed once the
node has passed it on, so a walk holds one gradient at a time. A tape's
first node may hand on no gradient, returning None (in ``vit``, a tape
that begins above the chain's input, or one whose walk stores the
weights' gradients): the walk then leaves ``graph.gradients`` empty. A
root is no node, so one forward serves any number of backwards.

``attention_arrays`` is multi-head scaled dot-product attention on the
fused q|k|v projection [B, N, 3d], for every query row or for the CLS
token's alone, and ``attention_grad`` its backward. Each derives the
scale 1/sqrt(d_h) from its operands' head width. As in FlashAttention
(Dao et al. 2022, arXiv:2205.14135), the forward leaves the softmax
unnormalized and divides the head outputs by the row sums, it saves for
the backward only arrays of O(N d) elements (the rows' score maxima among
them), and the backward rebuilds the exps from those with the forward's own
ops, so bit for bit, and takes the softmax gradient's row term from the
outputs. A block passes over its scores six times forward and eight times
backward: the rebuild's product, subtraction and exp, then five passes.
Each backward allocates its two score-sized arrays, the exps and one work
array, and drops them on return; a tape holds none.

``check_finite`` is the one check every forward runs (a finite forward
pass is an invariant rather than a hope). A graph is single-threaded
during construction and backward; a Tensor with no graph is a plain
numpy array in a wrapper.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from . import counters
from .errors import ContractError, DimensionError, NumericError

# the key under which backward stores the gradient of the chain's input
INPUT = 0


def check_finite(out, op):
    # one reduction: a sum is finite only if every term is; a finite sum
    # that overflowed is told apart by the elementwise test
    if not math.isfinite(np.add.reduce(out, axis=None)) and not np.isfinite(out).all():
        raise NumericError(f"non-finite values produced by {op}")
    return out


class Graph:
    """The stages of one forward, in order, and the input gradient."""

    def __init__(self):
        # each stage's backward: its output gradient to its input gradient
        self.nodes: list[Callable[[np.ndarray], np.ndarray | None]] = []
        self.gradients: dict[int, np.ndarray] = {}

    def backward(self, root: "Tensor") -> dict[int, np.ndarray]:
        """Set self.gradients to {INPUT: d(root)/d(chain input)}, or to {}
        when the first node hands on no gradient (returns None).

        The root must be a scalar of this graph's output that carries its
        gradient (``vit.class_score``, ``vit.cross_entropy``). The nodes are
        walked in reverse from that gradient, so the arithmetic and its
        order are fixed and results are bit-identical across runs and
        walks. Each node's output gradient is dropped as it is handed to
        the node, and the input gradient is the one kept: treat it as
        read-only.

        Every call counts as one backward pass in ``counters``.
        """
        if root.graph is not self:
            raise ContractError("backward root does not belong to this graph")
        if root.grad is None or root.data.size != 1:
            raise ContractError("backward root must be scalar, with its output gradient")
        counters.bump("backward")
        grad = [root.grad]   # popped into each call, so the walk holds no handed-on gradient
        for backward in reversed(self.nodes):
            grad.append(backward(grad.pop()))
        first = grad.pop()
        self.gradients = {} if first is None else {INPUT: first}
        return self.gradients


class Tensor:
    """An array with the graph that made it: the chain's output, a backward
    root (which also carries ``grad``, its gradient with respect to that
    output), or, with no graph, a tape-free forward's logits (not a copy).
    """

    __slots__ = ("data", "graph", "grad")

    def __init__(self, data, graph=None, grad=None):
        self.data = data
        self.graph = graph
        self.grad = grad

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, taped={self.graph is not None})"


class AttentionSaved(NamedTuple):
    """What ``attention_grad`` reads of one ``attention_arrays`` call: no
    array of O(N^2) elements, so no score-sized one."""

    q: np.ndarray     # [B, H, M, d_h], a view of qkv's query columns
    k: np.ndarray     # [B, H, N, d_h], a view of qkv's key columns
    vx: np.ndarray    # [B, H, N, d_h + 1], the values, then a column of ones
    mx: np.ndarray    # [B, H, M, 1], each row's max of the scaled scores
    l: np.ndarray     # [B, H, M, 1], the row sums of exp(scores - mx)
    out: np.ndarray   # [B, M, d], the merged heads


def _scores(q, k):
    """q @ k^T * scale, the scale 1/sqrt(d_h) put into a contiguous copy of
    k^T: the scaled scores [B, H, M, N]."""
    kt = np.ascontiguousarray(k.transpose(0, 1, 3, 2))
    kt *= 1.0 / math.sqrt(k.shape[-1])
    return np.matmul(q, kt)


def _exps(s, mx):
    """exp(s - mx), in place in the scores ``s``."""
    s -= mx
    return np.exp(s, out=s)


def attention_arrays(qkv, heads: int, keep_scores: bool = False, cls_only: bool = False):
    """Multi-head scaled dot-product attention on ndarrays.

    ``qkv`` [B, N, 3d] holds q, k and v side by side, each of them ``heads``
    heads of d_h = d / heads columns. Per head, softmax(q @ k^T * scale) @
    v over the last axis, with scale = 1/sqrt(d_h), and the heads merged
    back into [B, M, d]. The queries are every token (M = N), or with
    ``cls_only`` the CLS token's alone (M = 1): its q row attends to the
    keys and values of every token, and the other q rows are not read.
    Returns (out, kept, e, saved): out the merged heads, kept a copy of the
    CLS row of the scaled scores [B, H, 1, N] when ``keep_scores`` is set
    (else None), e the exps below [B, H, M, N], for a caller that keeps them
    (a tape-free capture; a tape does not), and saved the AttentionSaved
    that ``attention_grad`` reads.

    The scale goes into k^T, so the scores come scaled out of their product.
    The softmax is not normalized on the scores: e = exp(scores - row max)
    is made in place, and one product of e with the values and a column of
    ones gives e v and the row sums l; the output is (e v) / l. So one pass
    over the score array makes it and five use it: the finite check, the
    row max, the subtraction, the exp and the product. The probabilities
    are e / l (see ``LayerCapture``). The row maxima are saved, so the
    backward rebuilds e with these same ops (see ``_exps``).

    The scaled scores and the merged output are checked for NaN/Inf, and
    both checks name matmul: the scale is at most 1, so a non-finite score
    comes from the product, and l >= 1 (the row max gives a term exp(0)),
    so a finite e v gives a finite output.
    """
    if qkv.ndim != 3 or heads < 1 or qkv.shape[-1] % (3 * heads):
        raise DimensionError(
            f"attention needs qkv [B, N, 3d] with d divisible by {heads} heads, "
            f"got {qkv.shape}")
    b, n, d3 = qkv.shape
    dh = d3 // (3 * heads)
    m = 1 if cls_only else n
    split = qkv.reshape(b, n, 3, heads, dh).transpose(2, 0, 3, 1, 4)   # [3, B, H, N, d_h]
    q, k = split[0, :, :, :m], split[1]
    vx = np.empty((b, heads, n, dh + 1))
    vx[..., :dh] = split[2]
    vx[..., dh] = 1.0
    s = check_finite(_scores(q, k), "matmul")
    kept = s[:, :, :1].copy() if keep_scores else None
    mx = np.maximum.reduce(s, axis=-1, keepdims=True)
    e = _exps(s, mx)
    ol = np.matmul(e, vx)
    l = ol[..., dh:].copy()   # its own memory, so the saved arrays do not hold ol
    out = np.ascontiguousarray(np.divide(ol[..., :dh], l).transpose(0, 2, 1, 3))
    out = check_finite(out.reshape(b, m, d3 // 3), "matmul")
    return out, kept, e, AttentionSaved(q, k, vx, mx, l, out)


def attention_grad(grad, saved: AttentionSaved) -> np.ndarray:
    """Backward of attention_arrays: the gradient of ``qkv`` [B, N, 3d] from
    the gradient ``grad`` [B, M, d] of the merged heads and the saved
    arrays of its forward.

    The exps e are rebuilt first, by the forward's own ops on the same
    operands (``_scores`` and ``_exps`` with the saved row maxima), so they
    are the forward's bits; the forward checked those scores finite, so no
    check runs here. Then, per head, with g the output gradient, o the
    output and p = e / l, the
    softmax gradient's row term rowsum(p * (g v^T)) equals delta = g . o, so
    dv = e^T (g / l), the scores' gradient ds = p * (g v^T - delta) = e * x
    with x = [g / l | -delta / l] [v | 1]^T in one product, dq = scale ds k
    and dk = scale ds^T q, with the forward's scale 1/sqrt(d_h). The scale
    goes into [g / l | -delta / l] once dv is made, so x comes out scaled.
    That is eight passes over score-sized arrays: the rebuild's product,
    subtraction and exp, the products that read e, write x and read x
    twice, and x *= e.
    dq, dk and dv are written into one [B, N, 3, H, d_h] array; with M = 1
    (``cls_only``) dq fills the CLS row, and the q columns of the other
    rows, which the forward did not read, are zero. e and x, the two
    score-sized arrays, are allocated here and freed on return.
    """
    q, k, vx, mx, l, out = saved
    b, h, m, dh = q.shape
    n = k.shape[2]
    gx = np.empty((b, h, m, dh + 1))
    # g / l as g * (1 / l) in einsum, which runs without the buffers numpy's
    # broadcast ops take, up to three times the array's size
    gl = np.einsum("bmhj,bhm->bhmj", grad.reshape(b, m, h, dh), 1.0 / l[..., 0], out=gx[..., :dh])
    delta = np.einsum("bhmj,bmhj->bhm", gl, out.reshape(b, m, h, dh), out=gx[..., dh])
    np.negative(delta, out=delta)
    e = _exps(_scores(q, k), mx)
    x = np.empty(e.shape)
    dqkv = np.empty((b, n, 3, h, dh))
    dq, dk, dv = dqkv.transpose(2, 0, 3, 1, 4)   # [B, H, N, d_h] views
    dq[:, :, m:] = 0.0
    np.matmul(np.swapaxes(e, -1, -2), gl, out=dv)
    gx *= 1.0 / math.sqrt(dh)
    np.matmul(gx, np.swapaxes(vx, -1, -2), out=x)
    x *= e
    np.matmul(x, k, out=dq[:, :, :m])
    np.matmul(np.swapaxes(x, -1, -2), q, out=dk)
    return dqkv.reshape(b, n, 3 * h * dh)
