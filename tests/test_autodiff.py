import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bicam import kernels, vit
from bicam.attribution import attribution_alpha
from bicam.autodiff import Graph, attention_arrays, attention_grad, check_finite
from bicam.errors import ContractError, DimensionError, NumericError, ParameterError
from bicam.vit import LayerCapture

from conftest import TINY, bit_equal, finite_difference, grad_rel_error


def leaf(g, x):
    return g.leaf(np.asarray(x, dtype=np.float64))


# -- test-local nodes: each is Graph._append with a backward closure -----------


def node(g, op, parents, out, backward):
    return g._append(op, tuple(p.node_id for p in parents), np.asarray(out), backward)


def total(g, t):
    """sum(t); its backward hands t a read-only broadcast view."""
    return node(g, "sum", [t], t.data.sum(), lambda grad: (np.broadcast_to(grad, t.shape),))


def add(g, a, b):
    return node(g, "add", [a, b], a.data + b.data, lambda grad: (grad, grad))


def times(g, t, w):
    """t * w for a constant w."""
    return node(g, "mul", [t], t.data * w, lambda grad: (grad * w,))


def product(g, a, b):
    return node(g, "mul", [a, b], a.data * b.data,
                lambda grad: (grad * b.data, grad * a.data))


def matmul(g, a, b):
    return node(g, "matmul", [a, b], a.data @ b.data,
                lambda grad: (grad @ b.data.T, a.data.T @ grad))


def gelu(g, t):
    return node(g, "gelu", [t], kernels.gelu(t.data),
                lambda grad: (kernels.gelu_grad(t.data, grad),))


def softmax(g, t, temperature):
    y = kernels.softmax_rows(t.data, temperature)
    return node(g, "softmax", [t], y,
                lambda grad: (kernels.softmax_rows_grad(y, grad, temperature),))


# -- kernels the model's stages chain --------------------------------------------


def test_softmax_worked_values():
    assert np.allclose(kernels.softmax_rows(np.zeros((1, 2)), 2.0), [[0.5, 0.5]], atol=1e-15)
    out = kernels.softmax_rows(np.log([[1.0, 3.0]]), 1.0)
    assert np.allclose(out, [[0.25, 0.75]], atol=1e-12)


def test_softmax_rows_sum_to_one_and_positive():
    rng = np.random.default_rng(1)
    out = kernels.softmax_rows(rng.standard_normal((35, 9)) * 30, 0.7)
    assert np.abs(out.sum(axis=-1) - 1.0).max() < 1e-12
    assert (out > 0).all()


def test_softmax_temperature_validation():
    # the one softmax that takes a temperature from the user: attribution's
    cap = LayerCapture(layer=1, attn_logits=np.zeros((1, 1, 1, 2)),
                       values=np.zeros((1, 1, 2, 1)), cls_out=np.zeros((1, 1)))
    for bad in (0.0, -1.5, math.nan, math.inf):
        with pytest.raises(ParameterError):
            attribution_alpha(cap, bad)
    assert np.allclose(attribution_alpha(cap, 2.0), 0.5, atol=1e-15)


def _entropy(p):
    return float(-(p * np.log(p)).sum())


@settings(max_examples=60, deadline=None)
@given(arrays(np.float64, 6, elements=st.floats(-20, 20)))
def test_softmax_entropy_nondecreasing_in_temperature(x):
    if np.ptp(x) < 1e-9:
        return  # constant rows are uniform at every temperature
    ents = [_entropy(kernels.softmax_rows(x[None], t)) for t in (0.5, 1.0, 2.0, 4.0)]
    for lo, hi in zip(ents, ents[1:]):
        assert hi >= lo - 1e-12


def _layernorm(x, gain, bias, eps=vit.LAYERNORM_EPS):
    xhat, _ = kernels.layernorm_rows(np.atleast_2d(x), eps)
    return xhat * gain + bias


def test_layernorm_constant_row_is_zeroed_by_eps():
    assert np.allclose(_layernorm([1.0, 1.0, 1.0], np.ones(3), np.zeros(3)), 0.0, atol=1e-12)


def test_layernorm_already_standardized():
    out = _layernorm([-1.0, 1.0], np.ones(2), np.zeros(2), eps=1e-12)
    assert np.allclose(out, [[-1.0, 1.0]], atol=1e-6)


def test_gelu_worked_values():
    assert kernels.gelu(np.array([0.0]))[0] == 0.0
    assert abs(kernels.gelu(np.array([10.0]))[0] - 10.0) < 1e-6


def _gradcheck(build, x0, tol=1e-5):
    """build(x) -> (out, backward); checks backward(c) = d(sum(out*c))/dx vs FD."""
    out, backward = build(x0)
    c = np.random.default_rng(99).standard_normal(out.shape)
    fd = finite_difference(lambda x: float((build(x)[0] * c).sum()), x0)
    err = grad_rel_error(backward(c), fd)
    assert err < tol, f"gradient error {err}"


def _softmax_case(temperature):
    def build(x):
        y = kernels.softmax_rows(x.reshape(-1, x.shape[-1]), temperature)
        return y.reshape(x.shape), lambda g: kernels.softmax_rows_grad(
            y, g.reshape(y.shape), temperature).reshape(x.shape)
    return build


def _layernorm_case(x):
    out, xhat, inv_std = vit._layernorm(x, G0, H0, vit._unchecked, taped=True)
    return out, lambda g: vit._layernorm_grads(g, xhat, inv_std, G0, None, "ln")


RNG = np.random.default_rng(7)
G0 = RNG.standard_normal(6)
H0 = RNG.standard_normal(6)

PRIMITIVE_CASES = [
    ("softmax", _softmax_case(1.0), RNG.standard_normal((4, 6))),
    ("softmax_temp", _softmax_case(2.7), RNG.standard_normal((2, 3, 5))),
    ("gelu", lambda x: (kernels.gelu(x), lambda g: kernels.gelu_grad(x, g)),
     RNG.standard_normal((5, 5))),
    ("layernorm", _layernorm_case, RNG.standard_normal((4, 6))),
]


@pytest.mark.parametrize("name,build,x0", PRIMITIVE_CASES,
                         ids=[c[0] for c in PRIMITIVE_CASES])
def test_primitive_gradients(name, build, x0):
    _gradcheck(build, x0)


def test_layernorm_gain_bias_gradients():
    rng = np.random.default_rng(3)
    x0 = rng.standard_normal((2, 4, 6))
    gain0, bias0 = rng.standard_normal(6), rng.standard_normal(6)
    c = rng.standard_normal((2, 4, 6))

    def f(gain, bias):
        return float((vit._layernorm(x0, gain, bias, vit._unchecked, False)[0] * c).sum())

    _, xhat, inv_std = vit._layernorm(x0, gain0, bias0, vit._unchecked, True)
    grads = {}
    vit._layernorm_grads(c, xhat, inv_std, gain0, grads, "ln")
    assert set(grads) == {"ln.gain", "ln.bias"}
    fd_gain = finite_difference(lambda v: f(v, bias0), gain0)
    fd_bias = finite_difference(lambda v: f(gain0, v), bias0)
    assert grad_rel_error(grads["ln.gain"], fd_gain) < 1e-5
    assert grad_rel_error(grads["ln.bias"], fd_bias) < 1e-5


def test_matmul_gradient_matches_finite_differences():
    # the weight and bias gradients of every linear of the model's stages,
    # on a [rows, d] input (the head) and a [B, N, d] one (the rest)
    rng = np.random.default_rng(0)
    w0, b0 = rng.standard_normal((5, 4)), rng.standard_normal(4)
    for shape in ((3, 5), (2, 3, 5)):
        x0, c = rng.standard_normal(shape), rng.standard_normal(shape[:-1] + (4,))

        def f(w, b):
            return float((vit._linear(x0, w, b, vit._unchecked) * c).sum())

        dw, db = vit._linear_grads(x0, c)
        assert grad_rel_error(dw, finite_difference(lambda w: f(w, b0), w0)) < 1e-6
        assert grad_rel_error(db, finite_difference(lambda b: f(w0, b), b0)) < 1e-6


# -- backward contract -----------------------------------------------------------


def test_backward_of_sum_is_ones():
    g = Graph()
    t = leaf(g, np.random.default_rng(0).standard_normal((3, 5, 2)))
    g.backward(total(g, t))
    assert np.array_equal(g.grad(t), np.ones((3, 5, 2)))


def test_backward_of_dot_is_weights():
    g = Graph()
    w = np.array([2.0, -3.0, 0.5])
    x = leaf(g, [1.0, 1.0, 1.0])
    g.backward(total(g, times(g, x, w)))
    assert np.array_equal(g.grad(x), w)


def test_backward_rejects_nonscalar_root():
    g = Graph()
    t = leaf(g, [1.0, 2.0])
    with pytest.raises(ContractError, match="scalar"):
        g.backward(t)


def test_backward_rejects_foreign_root():
    g1, g2 = Graph(), Graph()
    t = total(g2, leaf(g2, [1.0]))
    with pytest.raises(ContractError, match="does not belong"):
        g1.backward(t)


def test_root_gradient_is_ones_of_its_shape():
    g = Graph()
    root = total(g, leaf(g, [[5.0]]))
    g.backward(root)
    assert np.array_equal(g.gradients[root.node_id], np.ones(()))


def test_off_path_nodes_get_zero_gradients():
    g = Graph()
    a = leaf(g, [1.0, 2.0])
    b = leaf(g, [3.0, 4.0])
    unused = times(g, b, 2.0)
    g.backward(total(g, a))
    assert np.array_equal(g.grad(b), np.zeros(2))
    assert np.array_equal(g.gradients[unused.node_id], np.zeros(2))


def test_backward_is_deterministic_bitwise():
    def build():
        rng = np.random.default_rng(11)
        g = Graph()
        x = leaf(g, rng.standard_normal((6, 6)))
        y = softmax(g, gelu(g, matmul(g, x, leaf(g, rng.standard_normal((6, 6))))), 1.3)
        return g, x, total(g, y)

    def run():
        g, x, root = build()
        g.backward(root)
        return g.grad(x)

    a, b = run(), run()
    assert bit_equal(a, b)

    # and a second backward on the same graph reproduces the same gradients
    g, x, root = build()
    g.backward(root)
    first = g.grad(x).copy()
    g.backward(root)
    assert bit_equal(first, g.grad(x))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_result_raises_numeric_error():
    g = Graph()
    with pytest.raises(NumericError, match="^non-finite values produced by leaf$"):
        g.leaf([np.inf])
    with pytest.raises(NumericError, match="^non-finite values produced by leaf$"):
        g.leaf([1.0, np.nan, -np.inf])
    with pytest.raises(NumericError, match="^non-finite values produced by mul$"):
        check_finite(np.array([1e200]) * 1e200, "mul")
    # finite values whose sum overflows are still finite
    big = np.array([1e308, 1e308, -1e308, -1e308])
    assert check_finite(big, "add") is big
    assert np.array_equal(leaf(g, big).data, big)


def test_tensor_data_is_row_major_float64():
    g = Graph()
    t = leaf(g, np.asfortranarray(np.ones((3, 2), dtype=np.float32)))
    assert t.data.dtype == np.float64
    assert t.data.flags.c_contiguous
    assert t.data.size == 6


def test_tape_is_topologically_ordered():
    model = vit.new_model(vit.ViTConfig(num_classes=3, distillation_token=True, **TINY), 12)
    img = np.random.default_rng(12).random((1, 3, 16, 16))
    for weight_grads in (False, True):
        res = model.forward(img, weight_grads=weight_grads)
        vit.cross_entropy(res.logits, [1])
        assert res.graph.nodes
        for nid, n in enumerate(res.graph.nodes):
            assert all(p < nid for p in n.parents)


def test_shared_read_only_contributions_are_accumulated_out_of_place():
    g = Graph()
    x = leaf(g, np.arange(6.0).reshape(2, 3))
    # each sum sends x a read-only broadcast view; adding into the first
    # view in place would raise
    g.backward(add(g, total(g, x), total(g, x)))
    assert np.array_equal(g.grad(x), 2.0 * np.ones((2, 3)))


def test_gradients_are_stored_only_for_nodes_feeding_the_root():
    g = Graph()
    a = leaf(g, [1.0, 2.0])
    b = leaf(g, [3.0, 4.0])
    c = leaf(g, [5.0, 6.0])
    total(g, times(g, b, 2.0))              # off the path
    root = total(g, add(g, product(g, a, c), a))
    feeding = {root.node_id}
    for nid in range(root.node_id, -1, -1):
        if nid in feeding:
            feeding.update(g.nodes[nid].parents)
    with pytest.raises(ContractError):
        g.grad(a)
    g.backward(root)
    assert len(g.gradients) == len(feeding) == 5
    assert set(g.gradients) == feeding
    assert np.array_equal(g.grad(b), np.zeros(2))
    assert len(g.gradients) == 5            # reading a missing entry inserts nothing


def test_retained_backward_keeps_only_the_retained_gradients():
    def build():
        rng = np.random.default_rng(13)
        g = Graph()
        x = leaf(g, rng.standard_normal((4, 4)))
        w = leaf(g, rng.standard_normal((4, 4)))
        off = leaf(g, [1.0, 2.0])                   # never reached
        h = gelu(g, matmul(g, x, w))
        root = total(g, product(g, softmax(g, h, 1.7), h))
        return g, x, w, off, h, root

    g, x, w, off, h, root = build()
    g.backward(root)
    keep_all = {nid: grad.copy() for nid, grad in g.gradients.items()}

    g, x, w, off, h, root = build()
    g.retain = {x.node_id, off.node_id}
    g.backward(root)
    assert set(g.gradients) == {x.node_id}
    assert bit_equal(g.grad(x), keep_all[x.node_id])
    assert np.array_equal(g.grad(off), np.zeros(2))  # retained but unreached
    for t in (w, h, root):                           # reached, then dropped
        with pytest.raises(ContractError, match="not retained"):
            g.grad(t)
    # without a retain set the same graph keeps every gradient again
    g.retain = None
    g.backward(root)
    assert set(g.gradients) == set(keep_all)
    assert all(bit_equal(g.gradients[nid], grad) for nid, grad in keep_all.items())


def test_retained_backward_with_an_empty_set_still_counts_as_run():
    g = Graph()
    x = leaf(g, [1.0, 2.0])
    root = total(g, x)
    g.retain = set()
    g.backward(root)
    assert len(g.gradients) == 0
    with pytest.raises(ContractError, match="not retained"):
        g.grad(x)


# -- attention ------------------------------------------------------------------


def _attention_inputs(shape, seed):
    """A fused q|k|v input [B, N, 3d] for heads of ``shape`` [B, H, N, d_h],
    and the weights [B, N, d] of a scalar loss on the merged output."""
    b, h, n, dh = shape
    rng = np.random.default_rng(seed)
    return rng.standard_normal((b, n, 3 * h * dh)), rng.standard_normal((b, n, h * dh))


def _attention_chain(qkv, heads, scale):
    """Attention as a chain of numpy primitives: slice, reshape and transpose
    to split q, k and v into heads; transpose, matmul, scale, softmax and
    matmul; transpose and reshape to merge the heads. Returns the merged
    heads, the scaled scores and the values."""
    b, n, d3 = qkv.shape
    d = d3 // 3

    def split(i):
        t = np.ascontiguousarray(qkv[..., i * d:(i + 1) * d]).reshape((b, n, heads, d // heads))
        return np.ascontiguousarray(t.transpose((0, 2, 1, 3)))

    q, k, v = (split(i) for i in range(3))
    scores = np.matmul(q, np.ascontiguousarray(k.transpose((0, 1, 3, 2)))) * scale
    probs = kernels.softmax_rows(scores.reshape(-1, n), 1.0).reshape(scores.shape)
    out = np.ascontiguousarray(np.matmul(probs, v).transpose((0, 2, 1, 3))).reshape((b, n, d))
    return out, scores, v


@pytest.mark.parametrize("shape", [(1, 1, 17, 8), (2, 2, 17, 8), (1, 4, 197, 8)],
                         ids=lambda s: "x".join(map(str, s)))
def test_attention_is_bit_equal_to_the_primitive_chain(shape):
    x0, _ = _attention_inputs(shape, seed=shape[1] * 100 + shape[2])
    heads, scale = shape[1], 1.0 / math.sqrt(shape[-1])
    ref_out, ref_scores, ref_v = _attention_chain(x0, heads, scale)
    out, kept, p, v, _, _ = attention_arrays(x0, heads, scale, True)
    assert bit_equal(out, ref_out)
    assert bit_equal(kept, ref_scores[:, :, :1])
    assert bit_equal(v, ref_v)
    assert bit_equal(p, kernels.softmax_rows(ref_scores.reshape(-1, shape[2]), 1.0)
                     .reshape(ref_scores.shape))
    assert attention_arrays(x0, heads, scale)[1] is None


def _attention_node(g, x, heads, scale):
    """attention_arrays as a test-local node whose backward is attention_grad."""
    out, _, p, v, q, kt = attention_arrays(x.data, heads, scale)
    return node(g, "attention", [x], out,
                lambda grad: (attention_grad(grad, q, kt, v, p, scale, g.scratch),))


def test_attention_nodes_share_work_arrays_during_a_walk():
    x0, w = _attention_inputs((2, 2, 17, 8), seed=9)
    heads, scale = 2, 0.5

    def stack3(g, t):
        return node(g, "concat", [t], np.concatenate([t.data] * 3, axis=-1),
                    lambda grad: (sum(np.split(grad, 3, axis=-1)),))

    g = Graph()
    x = leaf(g, x0)
    first = _attention_node(g, x, heads, scale)
    second = _attention_node(g, stack3(g, first), heads, scale)   # same score shape
    root = total(g, times(g, second, w))

    # the same arithmetic with work arrays of its own for each node
    out, _, p2, v2, q2, kt2 = attention_arrays(np.concatenate([first.data] * 3, axis=-1),
                                               heads, scale)
    _, _, p1, v1, q1, kt1 = attention_arrays(x0, heads, scale)
    dmid = attention_grad(w, q2, kt2, v2, p2, scale, {})
    ref = attention_grad(sum(np.split(dmid, 3, axis=-1)), q1, kt1, v1, p1, scale, {})

    for _ in range(2):                                 # a second walk reuses nothing stale
        g.backward(root)
        assert g.scratch == {}
        assert bit_equal(g.grad(x), ref)


def test_attention_gradients_match_finite_differences():
    # for every query row, and for the CLS row alone
    x0, w_all = _attention_inputs((1, 2, 5, 3), seed=7)
    heads, scale = 2, 0.7
    for cls_only in (False, True):
        w = w_all[:, :1] if cls_only else w_all

        def loss(x):
            return float((attention_arrays(x, heads, scale, False, cls_only)[0] * w).sum())

        _, _, p, v, q, kt = attention_arrays(x0, heads, scale, False, cls_only)
        grad = attention_grad(w, q, kt, v, p, scale, {})
        assert grad_rel_error(grad, finite_difference(loss, x0)) < 1e-7


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_attention_checks_operands():
    x = np.zeros((1, 3, 6))
    with pytest.raises(DimensionError):
        attention_arrays(np.zeros((1, 1, 3, 6)), 1, 1.0)   # not [B, N, 3d]
    with pytest.raises(DimensionError):
        attention_arrays(x, 4, 1.0)                        # d = 2 is not 4 heads
    with pytest.raises(DimensionError):
        attention_arrays(x, 0, 1.0)
    with pytest.raises(NumericError, match="^non-finite values produced by scale$"):
        attention_arrays(x + 1e150, 1, 1e10)               # scores 2e300, then inf


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e300, -1e300, math.nan])
def test_attention_checks_a_scale_that_can_overflow(scale):
    # finite q and k give finite scores of 2e10; the scaled-score check is
    # skipped only for a scale of at most 1 in magnitude
    x = np.full((1, 3, 6), 1e5)
    with pytest.raises(NumericError, match="^non-finite values produced by scale$"):
        attention_arrays(x, 1, scale)
