"""Tape-based reverse-mode automatic differentiation over float64 ndarrays.

A Graph records every primitive as an append-only node (op tag, parent node
ids, and a backward closure holding the saved forward values). Tensors are
thin handles: the raw data plus the owning graph and node id. backward(root)
fills ``graph.gradients`` (node id -> ndarray), storing a gradient only for
the nodes that feed the root; every other node's gradient reads as zeros.
Gradient arrays may share memory with each other (a reshape's gradient is a
view of its output's, an add passes one array to both operands) and may be
read-only broadcast views, so treat them as read-only.

Every primitive checks its output for NaN/Inf and raises NumericError, so a
finite forward pass is an invariant rather than a hope. A graph is
single-threaded during construction and backward; detached arrays are plain
numpy and freely shareable.
"""

from __future__ import annotations

import math

import numpy as np

from . import kernels
from .errors import ContractError, DimensionError, NumericError, ParameterError


def _as_f64(data):
    # note: ascontiguousarray would promote 0-d to 1-d; asarray keeps rank
    return np.asarray(data, dtype=np.float64, order="C")


def check_finite(out, op):
    # one reduction: a sum is finite only if every term is; a finite sum
    # that overflowed is told apart by the elementwise test
    if not math.isfinite(np.add.reduce(out, axis=None)) and not np.isfinite(out).all():
        raise NumericError(f"non-finite values produced by {op}")
    return out


def _unbroadcast(g, shape):
    """Sum a broadcast gradient back down to ``shape``."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, dim in enumerate(shape):
        if dim == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


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
    it, so ``len()`` and iteration cover only the stored gradients.
    """

    __slots__ = ("_nodes",)

    def __init__(self, nodes: list["Node"]):
        super().__init__()
        self._nodes = nodes

    def __missing__(self, nid):
        if not 0 <= nid < len(self._nodes):
            raise KeyError(nid)
        return np.zeros(self._nodes[nid].shape)


class Graph:
    """Append-only tape of primitive ops plus per-node gradients."""

    def __init__(self):
        self.nodes: list[Node] = []
        self.gradients: dict[int, np.ndarray] = {}

    def _record(self, op, parents, out_data, backward_fn) -> "Tensor":
        check_finite(out_data, op)
        nid = len(self.nodes)
        self.nodes.append(Node(op, parents, out_data.shape, backward_fn))
        return Tensor(out_data, self, nid)

    def leaf(self, data) -> "Tensor":
        return self._record("leaf", (), _as_f64(data), None)

    def backward(self, root: "Tensor") -> dict[int, np.ndarray]:
        """Set self.gradients to d(root)/d(node) for every node.

        The root must be a scalar (one element) owned by this graph. Its own
        gradient is seeded with ones of its shape; the tape is then walked in
        reverse, so accumulation order is fixed and results are bit-identical
        across runs. A gradient is stored only for the nodes that feed the
        root; every other node's gradient reads as zeros. A node's first
        contribution is stored as it is and later ones are added out of
        place, so stored arrays may share memory with each other or be
        read-only views: treat them as read-only.
        """
        if root.graph is not self or root.node_id is None:
            raise ContractError("backward root does not belong to this graph")
        if root.data.size != 1:
            raise ContractError("backward root must be scalar")

        grads = Gradients(self.nodes)
        grads[root.node_id] = np.ones(self.nodes[root.node_id].shape)
        for nid in range(root.node_id, -1, -1):
            grad = grads.get(nid)
            node = self.nodes[nid]
            if grad is None or node.backward_fn is None:
                continue
            for pid, contrib in zip(node.parents, node.backward_fn(grad)):
                prev = grads.get(pid)
                grads[pid] = contrib if prev is None else prev + contrib

        self.gradients = grads
        return grads

    def grad(self, t: "Tensor") -> np.ndarray:
        # a backward always stores the root's gradient
        if t.node_id is None or not self.gradients:
            raise ContractError("gradient not available; run backward() first")
        return self.gradients[t.node_id]


class Tensor:
    """Dense float64 array participating in an autodiff graph.

    ``data`` is row-major (C-contiguous); ``node_id`` is None only for
    detached tensors, which carry no graph and are immutable by convention.
    """

    __slots__ = ("data", "graph", "node_id")

    def __init__(self, data, graph=None, node_id=None):
        self.data = _as_f64(data)
        self.graph = graph
        self.node_id = node_id

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def detach(self) -> np.ndarray:
        return self.data.copy()

    def item(self) -> float:
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, node_id={self.node_id})"

    # -- helpers ------------------------------------------------------------

    def _require_graph(self) -> Graph:
        if self.graph is None or self.node_id is None:
            raise ContractError("operation requires a graph-attached tensor")
        return self.graph

    def _coerce_operand(self, other):
        """Return (data, node_id) for the second operand of a binary op.

        Plain arrays and scalars act as constants: they take part in the
        forward value but receive no gradient.
        """
        if isinstance(other, Tensor):
            if other.graph is not None and other.graph is not self.graph:
                raise ContractError("operands belong to different graphs")
            return other.data, other.node_id
        return _as_f64(other), None

    # -- arithmetic primitives ----------------------------------------------

    def add(self, other) -> "Tensor":
        g = self._require_graph()
        odata, onid = self._coerce_operand(other)
        try:
            out = self.data + odata
        except ValueError as e:
            raise DimensionError(f"add: {e}") from None
        a_shape, b_shape = self.data.shape, odata.shape

        if onid is None:
            def backward(grad, _s=a_shape):
                return (_unbroadcast(grad, _s),)
            parents = (self.node_id,)
        else:
            def backward(grad, _a=a_shape, _b=b_shape):
                return (_unbroadcast(grad, _a), _unbroadcast(grad, _b))
            parents = (self.node_id, onid)
        return g._record("add", parents, out, backward)

    def mul(self, other) -> "Tensor":
        """Elementwise product (broadcasting)."""
        g = self._require_graph()
        odata, onid = self._coerce_operand(other)
        try:
            out = self.data * odata
        except ValueError as e:
            raise DimensionError(f"mul: {e}") from None
        a, b = self.data, odata

        if onid is None:
            def backward(grad, _a=a, _b=b):
                return (_unbroadcast(grad * _b, _a.shape),)
            parents = (self.node_id,)
        else:
            def backward(grad, _a=a, _b=b):
                return (_unbroadcast(grad * _b, _a.shape),
                        _unbroadcast(grad * _a, _b.shape))
            parents = (self.node_id, onid)
        return g._record("mul", parents, out, backward)

    def scale(self, k: float) -> "Tensor":
        g = self._require_graph()
        k = float(k)
        out = self.data * k

        def backward(grad, _k=k):
            return (grad * _k,)

        return g._record("scale", (self.node_id,), out, backward)

    def matmul(self, other) -> "Tensor":
        """Matrix product; leading batch axes follow numpy matmul rules.

        Backward: dA = G @ B^T, dB = A^T @ G (transposes on the last two
        axes), summed back over broadcast batch axes.
        """
        g = self._require_graph()
        odata, onid = self._coerce_operand(other)
        if self.data.ndim < 2 or odata.ndim < 2:
            raise DimensionError("matmul requires operands with ndim >= 2")
        if self.data.shape[-1] != odata.shape[-2]:
            raise DimensionError(
                f"matmul inner dimensions disagree: {self.data.shape} @ {odata.shape}")
        try:
            out = np.matmul(self.data, odata)
        except ValueError as e:
            raise DimensionError(f"matmul: {e}") from None
        a, b = self.data, odata

        def _swap(x):
            return np.swapaxes(x, -1, -2)

        if onid is None:
            def backward(grad, _a=a, _b=b):
                return (_unbroadcast(np.matmul(grad, _swap(_b)), _a.shape),)
            parents = (self.node_id,)
        else:
            def backward(grad, _a=a, _b=b):
                return (_unbroadcast(np.matmul(grad, _swap(_b)), _a.shape),
                        _unbroadcast(np.matmul(_swap(_a), grad), _b.shape))
            parents = (self.node_id, onid)
        return g._record("matmul", parents, out, backward)

    # -- shape primitives -----------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        g = self._require_graph()
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        try:
            out = np.asarray(self.data.reshape(shape), order="C")
        except ValueError as e:
            raise DimensionError(f"reshape: {e}") from None
        old = self.data.shape

        def backward(grad, _old=old):
            return (grad.reshape(_old),)

        return g._record("reshape", (self.node_id,), out, backward)

    def transpose(self, axes) -> "Tensor":
        g = self._require_graph()
        axes = tuple(axes)
        if sorted(axes) != list(range(self.data.ndim)):
            raise DimensionError(f"transpose axes {axes} invalid for ndim {self.data.ndim}")
        out = np.asarray(self.data.transpose(axes), order="C")
        inv = tuple(np.argsort(axes))

        def backward(grad, _inv=inv):
            return (np.ascontiguousarray(grad.transpose(_inv)),)

        return g._record("transpose", (self.node_id,), out, backward)

    def broadcast_to(self, shape) -> "Tensor":
        g = self._require_graph()
        shape = tuple(shape)
        try:
            out = np.asarray(np.broadcast_to(self.data, shape), order="C")
        except ValueError as e:
            raise DimensionError(f"broadcast_to: {e}") from None
        old = self.data.shape

        def backward(grad, _old=old):
            return (_unbroadcast(grad, _old),)

        return g._record("broadcast_to", (self.node_id,), out, backward)

    def narrow(self, axis: int, start: int, length: int) -> "Tensor":
        """Contiguous slice [start, start+length) along ``axis``."""
        g = self._require_graph()
        axis = axis % self.data.ndim
        if start < 0 or start + length > self.data.shape[axis]:
            raise DimensionError(
                f"narrow [{start}:{start + length}] out of range for axis {axis} "
                f"of shape {self.data.shape}")
        idx = tuple(slice(None) if i != axis else slice(start, start + length)
                    for i in range(self.data.ndim))
        out = np.asarray(self.data[idx], order="C")
        parent_shape = self.data.shape

        def backward(grad, _shape=parent_shape, _idx=idx):
            full = np.zeros(_shape)
            full[_idx] = grad
            return (full,)

        return g._record("narrow", (self.node_id,), out, backward)

    # -- reductions -----------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        g = self._require_graph()
        out = np.asarray(self.data.sum(axis=axis, keepdims=keepdims))
        shape = self.data.shape
        axes = (tuple(range(len(shape))) if axis is None
                else ((axis % len(shape),) if isinstance(axis, int)
                      else tuple(a % len(shape) for a in axis)))

        def backward(grad, _shape=shape, _axes=axes, _kd=keepdims):
            if not _kd:
                for ax in sorted(_axes):
                    grad = np.expand_dims(grad, ax)
            return (np.broadcast_to(grad, _shape),)

        return g._record("sum", (self.node_id,), out, backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        n = (self.data.size if axis is None
             else np.prod([self.data.shape[a] for a in
                           ((axis,) if isinstance(axis, int) else axis)]))
        return self.sum(axis=axis, keepdims=keepdims).scale(1.0 / float(n))

    # -- nonlinear primitives ---------------------------------------------------

    def softmax(self, temperature: float = 1.0) -> "Tensor":
        """Numerically-stabilized softmax along the last axis.

        out_i = exp((x_i - max_j x_j)/T) / sum_k exp((x_k - max_j x_j)/T)
        """
        g = self._require_graph()
        temperature = float(temperature)
        if temperature <= 0.0:
            raise ParameterError(f"softmax temperature must be > 0, got {temperature}")
        n = self.data.shape[-1]
        rows = self.data.reshape(-1, n)
        out_rows = kernels.softmax_rows(rows, temperature)
        out = out_rows.reshape(self.data.shape)

        def backward(grad, _y=out_rows, _t=temperature, _shape=self.data.shape):
            dx = kernels.softmax_rows_grad(_y, np.ascontiguousarray(grad.reshape(_y.shape)), _t)
            return (dx.reshape(_shape),)

        return g._record("softmax", (self.node_id,), out, backward)

    def log_softmax(self) -> "Tensor":
        """log(softmax(x)) along the last axis, computed stably."""
        g = self._require_graph()
        z = self.data - self.data.max(axis=-1, keepdims=True)
        lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
        out = z - lse
        sm = np.exp(out)

        def backward(grad, _sm=sm):
            return (grad - _sm * grad.sum(axis=-1, keepdims=True),)

        return g._record("log_softmax", (self.node_id,), out, backward)

    def gelu(self) -> "Tensor":
        g = self._require_graph()
        out = kernels.gelu(self.data)
        x = self.data

        def backward(grad, _x=x):
            return (kernels.gelu_grad(_x, np.ascontiguousarray(grad)),)

        return g._record("gelu", (self.node_id,), out, backward)

    def layernorm(self, gain: "Tensor", bias: "Tensor", eps: float = 1e-6) -> "Tensor":
        """Standardize the last axis, then scale by gain and shift by bias."""
        g = self._require_graph()
        d = self.data.shape[-1]
        gdata, gnid = self._coerce_operand(gain)
        bdata, bnid = self._coerce_operand(bias)
        if gdata.shape != (d,) or bdata.shape != (d,):
            raise DimensionError(
                f"layernorm gain/bias must have shape ({d},), got {gdata.shape}/{bdata.shape}")
        rows = np.ascontiguousarray(self.data.reshape(-1, d))
        xhat, inv_std = kernels.layernorm_rows(rows, float(eps))
        out = (xhat * gdata + bdata).reshape(self.data.shape)
        parents = [self.node_id]
        if gnid is not None:
            parents.append(gnid)
        if bnid is not None:
            parents.append(bnid)

        def backward(grad, _xhat=xhat, _inv=inv_std, _gain=gdata,
                     _shape=self.data.shape, _has_g=gnid is not None,
                     _has_b=bnid is not None):
            grows = np.ascontiguousarray(grad.reshape(_xhat.shape))
            dx = kernels.layernorm_rows_grad(_xhat, _inv, grows * _gain)
            outs = [dx.reshape(_shape)]
            if _has_g:
                outs.append((grows * _xhat).sum(axis=0))
            if _has_b:
                outs.append(grows.sum(axis=0))
            return tuple(outs)

        return g._record("layernorm", tuple(parents), out, backward)

    # -- operator sugar --------------------------------------------------------

    def __add__(self, other):
        return self.add(other)

    __radd__ = __add__

    def __neg__(self):
        return self.scale(-1.0)

    def __sub__(self, other):
        if isinstance(other, Tensor):
            return self.add(other.scale(-1.0))
        return self.add(-_as_f64(other))

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return self.scale(other)
        return self.mul(other)

    __rmul__ = __mul__

    def __matmul__(self, other):
        return self.matmul(other)


def concat(tensors, axis: int = -1) -> Tensor:
    """Concatenate graph tensors along ``axis``; backward slices the gradient."""
    if not tensors:
        raise ContractError("concat requires at least one tensor")
    g = tensors[0]._require_graph()
    for t in tensors[1:]:
        if t.graph is not g:
            raise ContractError("concat operands belong to different graphs")
    datas = [t.data for t in tensors]
    try:
        out = np.concatenate(datas, axis=axis)
    except ValueError as e:
        raise DimensionError(f"concat: {e}") from None
    axis = axis % out.ndim
    sizes = [d.shape[axis] for d in datas]
    offsets = np.cumsum([0] + sizes)

    def backward(grad, _axis=axis, _offs=offsets):
        pieces = []
        for i in range(len(_offs) - 1):
            idx = tuple(slice(None) if a != _axis else slice(_offs[i], _offs[i + 1])
                        for a in range(grad.ndim))
            pieces.append(np.ascontiguousarray(grad[idx]))
        return tuple(pieces)

    return g._record("concat", tuple(t.node_id for t in tensors), out, backward)
