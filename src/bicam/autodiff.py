"""Tape-based reverse-mode automatic differentiation over float64 ndarrays.

A Graph is an append-only tape of nodes, each an op tag, its parent node
ids and a backward closure holding the saved forward values; the closure
maps the node's output gradient to one gradient per parent. A node can be
one primitive or a whole stage of a model: the ViT records one node per
stage (see ``vit``), whose closure is that stage's hand-chained VJP
(vector-Jacobian product). Tensors are thin handles: the raw data plus the
owning graph and node id. backward(root) fills ``graph.gradients`` (node id
-> ndarray), storing a gradient only for the nodes that feed the root;
every other node's gradient reads as zeros. A caller that reads only a few
gradients names their nodes in ``graph.retain`` before the backward: the
walk then drops every other node's gradient as soon as it has been passed
to the node's parents, so a backward holds the gradients of one tape
"frontier" at a time, not of the whole tape, and reading a dropped node
raises ContractError. Gradient arrays may share memory with each other and
may be read-only views, so treat them as read-only.

``attention_arrays`` is multi-head scaled dot-product attention on the
fused q|k|v projection [B, N, 3d], for every query row or for the CLS
token's alone, and ``attention_grad`` its backward, whose two score-sized
work arrays live in ``graph.scratch``, shared during one walk by every
attention backward over all query rows.

Leaves are checked for NaN/Inf on the way in, and ``check_finite`` is the
one check every forward runs (a finite forward pass is an invariant rather
than a hope). A graph is single-threaded during construction and backward;
detached arrays are plain numpy and freely shareable.
"""

from __future__ import annotations

import math

import numpy as np

from . import counters, kernels
from .errors import ContractError, DimensionError, NumericError


def _as_f64(data):
    # note: ascontiguousarray would promote 0-d to 1-d; asarray keeps rank
    return np.asarray(data, dtype=np.float64, order="C")


def check_finite(out, op):
    # one reduction: a sum is finite only if every term is; a finite sum
    # that overflowed is told apart by the elementwise test
    if not math.isfinite(np.add.reduce(out, axis=None)) and not np.isfinite(out).all():
        raise NumericError(f"non-finite values produced by {op}")
    return out


class Node:
    __slots__ = ("op", "parents", "shape", "backward_fn")

    def __init__(self, op, parents, shape, backward_fn):
        self.op = op
        self.parents = parents
        self.shape = shape
        self.backward_fn = backward_fn


class Gradients(dict):
    """Node id -> gradient; a node with no stored gradient reads as zeros.

    Reading a missing entry returns a fresh zero array and does not insert
    it, so ``len()`` and iteration cover only the stored gradients. With a
    retain set, reading a node outside it raises ContractError: its
    gradient was dropped (or never kept), not zero.
    """

    __slots__ = ("_nodes", "_retain")

    def __init__(self, nodes: list["Node"], retain: set[int] | None):
        super().__init__()
        self._nodes = nodes
        self._retain = retain

    def __missing__(self, nid):
        if not 0 <= nid < len(self._nodes):
            raise KeyError(nid)
        if self._retain is not None and nid not in self._retain:
            raise ContractError(f"gradient of node {nid} was not retained by backward")
        return np.zeros(self._nodes[nid].shape)


class Graph:
    """Append-only tape of nodes plus per-node gradients."""

    def __init__(self):
        self.nodes: list[Node] = []
        self.gradients: dict[int, np.ndarray] = {}
        # node ids whose gradients backward keeps; None keeps every one
        self.retain: set[int] | None = None
        # shape -> work arrays that backward closures share during one walk
        self.scratch: dict[tuple[int, ...], tuple[np.ndarray, ...]] = {}

    def _append(self, op, parents, out_data, backward_fn) -> "Tensor":
        """Record a node whose maker has checked its output for NaN/Inf.

        ``backward_fn(grad)`` returns one gradient per parent, in order.
        """
        nid = len(self.nodes)
        self.nodes.append(Node(op, parents, out_data.shape, backward_fn))
        return Tensor(out_data, self, nid)

    def leaf(self, data) -> "Tensor":
        return self._append("leaf", (), check_finite(_as_f64(data), "leaf"), None)

    def backward(self, root: "Tensor") -> dict[int, np.ndarray]:
        """Set self.gradients to d(root)/d(node) for every node, or for the
        nodes in ``self.retain`` when it is set.

        The root must be a scalar (one element) owned by this graph. Its own
        gradient is seeded with ones of its shape; the tape is then walked in
        reverse, so accumulation order is fixed and results are bit-identical
        across runs. A gradient is stored only for the nodes that feed the
        root; every other node's gradient reads as zeros. A node's first
        contribution is stored as it is and later ones are added out of
        place, so stored arrays may share memory with each other or be
        read-only views: treat them as read-only.

        Every call counts as one backward pass in ``counters``.

        When ``self.retain`` is a set of node ids, only those nodes keep
        their gradients: every other node's gradient is complete when the
        reverse walk reaches it (all its consumers come later on the tape),
        so it is popped there, handed to the node's backward and freed.
        The arithmetic and its order are the same either way.
        """
        if root.graph is not self or root.node_id is None:
            raise ContractError("backward root does not belong to this graph")
        if root.data.size != 1:
            raise ContractError("backward root must be scalar")
        counters.bump("backward")

        retain = self.retain
        grads = Gradients(self.nodes, retain)
        grads[root.node_id] = np.ones(self.nodes[root.node_id].shape)
        for nid in range(root.node_id, -1, -1):
            grad = grads.get(nid) if retain is None or nid in retain else grads.pop(nid, None)
            node = self.nodes[nid]
            if grad is None or node.backward_fn is None:
                continue
            for pid, contrib in zip(node.parents, node.backward_fn(grad)):
                grads[pid] = grads[pid] + contrib if pid in grads else contrib
            contrib = None   # one added into a sum is garbage: free it before the next node

        self.scratch.clear()
        self.gradients = grads
        return grads

    def grad(self, t: "Tensor") -> np.ndarray:
        # only a backward sets a Gradients mapping
        if t.node_id is None or not isinstance(self.gradients, Gradients):
            raise ContractError("gradient not available; run backward() first")
        return self.gradients[t.node_id]


class Tensor:
    """Handle to a node's output: its data, graph and node id.

    ``data`` is row-major (C-contiguous) float64; ``node_id`` is None only
    for detached tensors, which carry no graph and are immutable by
    convention.
    """

    __slots__ = ("data", "graph", "node_id")

    def __init__(self, data, graph=None, node_id=None):
        self.data = _as_f64(data)
        self.graph = graph
        self.node_id = node_id

    @property
    def shape(self):
        return self.data.shape

    def detach(self) -> np.ndarray:
        return self.data.copy()

    def item(self) -> float:
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, node_id={self.node_id})"


def attention_arrays(qkv, heads: int, scale: float, keep_scores: bool = False,
                     cls_only: bool = False):
    """Multi-head scaled dot-product attention on ndarrays.

    ``qkv`` [B, N, 3d] holds q, k and v side by side, each of them ``heads``
    heads of d_h = d / heads columns. Per head, softmax(q @ k^T * scale) @
    v over the last axis, with the scores scaled and softmaxed in place;
    the heads are merged back into [B, M, d]. The queries are every token
    (M = N), or with ``cls_only`` the CLS token's alone (M = 1): its q row
    attends to the keys and values of every token, and the other q rows
    are not read. Returns (out, kept, p, v, q, kt): out the merged heads,
    kept a copy of the CLS row of the scaled scores [B, H, 1, N] when
    ``keep_scores`` is set (else None), p the attention probabilities
    [B, H, M, N], v the values [B, H, N, d_h], and q [B, H, M, d_h] and
    the contiguous k^T, which ``attention_grad`` reads with p and v.
    The scores and the per-head output are checked for NaN/Inf under the
    name of the op they come from, matmul. The scaled scores are checked,
    as ``scale``, only when ``|scale|`` > 1 (or it is NaN): finite scores
    times a scale of at most 1 in magnitude are finite. The probabilities
    are not checked: a max-subtracted softmax of finite rows is finite.
    """
    if qkv.ndim != 3 or heads < 1 or qkv.shape[-1] % (3 * heads):
        raise DimensionError(
            f"attention needs qkv [B, N, 3d] with d divisible by {heads} heads, "
            f"got {qkv.shape}")
    b, n, d3 = qkv.shape
    m = 1 if cls_only else n
    split = qkv.reshape(b, n, 3, heads, d3 // (3 * heads))
    q = np.ascontiguousarray(split[:, :m, 0].transpose(0, 2, 1, 3))
    kt = np.ascontiguousarray(split[:, :, 1].transpose(0, 2, 3, 1))
    v = np.ascontiguousarray(split[:, :, 2].transpose(0, 2, 1, 3))
    s = check_finite(np.matmul(q, kt), "matmul")
    s *= scale
    if not abs(scale) <= 1.0:
        check_finite(s, "scale")
    kept = s[:, :, :1].copy() if keep_scores else None
    rows = s.reshape(-1, n)
    kernels.softmax_rows(rows, 1.0, rows)
    out = check_finite(np.matmul(s, v), "matmul")
    out = np.ascontiguousarray(out.transpose(0, 2, 1, 3)).reshape(b, m, d3 // 3)
    return out, kept, s, v, q, kt


def attention_grad(grad, q, kt, v, p, scale: float, scratch: dict) -> np.ndarray:
    """Backward of attention_arrays: the gradient of ``qkv`` [B, N, 3d] from
    the gradient ``grad`` [B, M, d] of the merged heads and the q, k^T, v
    and p its forward returned.

    g = per-head grad, dv = p^T g, dp = g v^T, dp = softmax_grad(p, dp) *
    scale, dq = dp kt^T, dk = dp^T q, with dq, dk and dv written into
    one [B, N, 3, H, d_h] array; with M = 1 (``cls_only``) dq fills the CLS
    row, and the q columns of the other rows, which the forward did not
    read, are zero. dp and the softmax gradient's g * p are work arrays;
    with M = N they are kept in ``scratch`` under p's shape, so every such
    attention backward of a walk reuses one pair instead of two fresh
    [B, H, N, N] arrays per layer, which the allocator would otherwise
    return to the system and fault in again once the walk drops the
    gradients above them. dqkv is allocated after the softmax gradient,
    whose broadcast subtraction numpy runs through a buffer of up to the
    scores' size, so the two are never held at once.
    """
    b, h, m, dh = q.shape
    n = v.shape[2]
    gh = grad.reshape(b, m, h, dh).transpose(0, 2, 1, 3)
    work = scratch.get(p.shape)
    if work is None:
        work = (np.empty(p.shape), np.empty(p.shape))
        if m == n:   # a CLS-row pair serves one layer: not kept for the walk
            scratch[p.shape] = work
    dp, gp = work
    np.matmul(gh, np.swapaxes(v, -1, -2), out=dp)
    rows = dp.reshape(-1, n)
    kernels.softmax_rows_grad(p.reshape(rows.shape), rows, 1.0, rows, gp.reshape(rows.shape))
    dp *= scale
    dqkv = np.empty((b, n, 3, h, dh))
    dq, dk, dv = dqkv.transpose(2, 0, 3, 1, 4)   # [B, H, N, d_h] views
    dq[:, :, m:] = 0.0
    np.matmul(np.swapaxes(p, -1, -2), gh, out=dv)
    np.matmul(dp, np.swapaxes(kt, -1, -2), out=dq[:, :, :m])
    np.matmul(np.swapaxes(dp, -1, -2), q, out=dk)
    return dqkv.reshape(b, n, 3 * h * dh)
