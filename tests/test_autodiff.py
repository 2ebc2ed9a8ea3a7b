import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bicam import kernels, vit
from bicam.attribution import attribution_alpha
from bicam.autodiff import (INPUT, Graph, Tensor, attention_arrays, attention_grad,
                            check_finite)
from bicam.errors import ContractError, DimensionError, NumericError, ParameterError
from bicam.vit import LayerCapture

from conftest import TINY, bit_equal, finite_difference, grad_rel_error, stage_names


# -- test-local stages: each returns its output and its backward -----------------


def on(g, made):
    """Append a stage's backward to the chain ``g``; returns the stage's output."""
    out, backward = made
    g.nodes.append(backward)
    return out


def total(g, x):
    """sum(x) as a backward root; its gradient is a read-only broadcast view."""
    return Tensor(np.asarray(x.sum()), g, np.broadcast_to(np.ones(()), x.shape))


def times(x, w):
    """x * w for a constant w."""
    return x * w, lambda grad: grad * w


def matmul(x, w):
    """x @ w for a constant w."""
    return x @ w, lambda grad: grad @ w.T


def gelu(x):
    """gelu as a block tapes it: the output and, from the same erf, the
    derivative that the backward multiplies by the output gradient."""
    y, dy = kernels.gelu_grad(x)
    return y, lambda grad: grad * dy


def softmax(x, temperature):
    y = kernels.softmax_rows(x, temperature)
    return y, lambda grad: kernels.softmax_rows_grad(y, grad, temperature)


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
    ("gelu", gelu, RNG.standard_normal((5, 5))),
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
    # each a stacked product: on a [B, 1, d] input (the head) and a
    # [B, N, d] one (the rest)
    rng = np.random.default_rng(0)
    w0, b0 = rng.standard_normal((5, 4)), rng.standard_normal(4)
    for shape in ((3, 1, 5), (2, 3, 5)):
        x0, c = rng.standard_normal(shape), rng.standard_normal(shape[:-1] + (4,))

        def f(w, b):
            return float((vit._linear(x0, w, b, vit._unchecked) * c).sum())

        dw, db = vit._linear_grads(x0, c)
        assert grad_rel_error(dw, finite_difference(lambda w: f(w, b0), w0)) < 1e-6
        assert grad_rel_error(db, finite_difference(lambda b: f(w0, b), b0)) < 1e-6


# -- backward contract -----------------------------------------------------------


def test_backward_of_sum_is_ones():
    g = Graph()
    x = np.random.default_rng(0).standard_normal((3, 5, 2))
    assert g.backward(total(g, x)) is g.gradients
    assert list(g.gradients) == [INPUT]
    assert np.array_equal(g.gradients[INPUT], np.ones((3, 5, 2)))


def test_backward_of_dot_is_weights():
    g = Graph()
    w = np.array([2.0, -3.0, 0.5])
    g.backward(total(g, on(g, times(np.ones(3), w))))
    assert np.array_equal(g.gradients[INPUT], w)


def test_backward_rejects_nonscalar_root():
    g = Graph()
    with pytest.raises(ContractError, match="scalar"):
        g.backward(Tensor(np.ones(2), g, np.ones(2)))
    with pytest.raises(ContractError, match="scalar"):   # no gradient: not a root
        g.backward(Tensor(np.ones(()), g))


def test_backward_rejects_foreign_root():
    g1, g2 = Graph(), Graph()
    t = total(g2, np.ones(1))
    with pytest.raises(ContractError, match="does not belong"):
        g1.backward(t)
    with pytest.raises(ContractError, match="does not belong"):
        g1.backward(Tensor(np.ones(()), None, np.ones(())))


def test_backward_is_deterministic_bitwise():
    def build():
        rng = np.random.default_rng(11)
        g = Graph()
        x = rng.standard_normal((6, 6))
        y = on(g, softmax(on(g, gelu(on(g, matmul(x, rng.standard_normal((6, 6)))))), 1.3))
        return g, total(g, y)

    def run():
        g, root = build()
        g.backward(root)
        return g.gradients[INPUT]

    a, b = run(), run()
    assert bit_equal(a, b)

    # and a second backward on the same graph reproduces the same gradients
    g, root = build()
    first = g.backward(root)[INPUT]
    assert bit_equal(first, g.backward(root)[INPUT])
    assert bit_equal(first, a)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_result_raises_numeric_error():
    for bad in ([np.inf], [1.0, np.nan, -np.inf]):
        with pytest.raises(NumericError, match="^non-finite values produced by leaf$"):
            check_finite(np.array(bad), "leaf")
    with pytest.raises(NumericError, match="^non-finite values produced by mul$"):
        check_finite(np.array([1e200]) * 1e200, "mul")
    # finite values whose sum overflows are still finite
    big = np.array([1e308, 1e308, -1e308, -1e308])
    assert check_finite(big, "add") is big
    # the forward checks its image as the chain's input
    model = vit.new_model(vit.ViTConfig(num_classes=3, **TINY), 0)
    img = np.zeros((1, 3, 16, 16))
    img[0, 1, 2, 3] = np.nan
    for wrt in ("input", None):
        with pytest.raises(NumericError, match="^non-finite values produced by leaf$"):
            model.forward(img, wrt=wrt)


def test_tensor_data_is_row_major_float64():
    # the forward converts its image, so its logits, and the roots made
    # from them, are float64 whatever the image's dtype and order
    model = vit.new_model(vit.ViTConfig(num_classes=3, **TINY), 0)
    img = np.random.default_rng(3).random((1, 3, 16, 16)).astype(np.float32)
    for wrt in (None, "input"):   # the taped logits last, for the roots below
        ref = model.forward(img.astype(np.float64), wrt=wrt).logits.data
        logits = model.forward(np.asfortranarray(img), wrt=wrt).logits
        assert logits.data.dtype == np.float64
        assert logits.data.flags.c_contiguous
        assert bit_equal(logits.data, ref)
    for root in (vit.class_score(logits, 2), vit.cross_entropy(logits, [1])):
        assert root.data.dtype == np.float64 and root.data.shape == ()
        assert root.grad.dtype == np.float64 and root.grad.shape == logits.shape


def test_tape_is_topologically_ordered():
    # a chain's one topological order is the forward's: the embedding, the
    # blocks, the head; a backward root adds no node
    cfg = vit.ViTConfig(num_classes=3, distillation_token=True, **TINY)
    model = vit.new_model(cfg, 12)
    img = np.random.default_rng(12).random((1, 3, 16, 16))
    for wrt in ("input", "weights"):
        res = model.forward(img, wrt=wrt)
        nodes = list(res.graph.nodes)
        vit.cross_entropy(res.logits, [1])
        vit.class_score(res.logits, 0)
        assert res.graph.nodes == nodes
        assert stage_names(nodes) == ["embedding", *["block"] * cfg.num_layers, "head"]


# -- attention ------------------------------------------------------------------


def _attention_inputs(shape, seed):
    """A fused q|k|v input [B, N, 3d] for heads of ``shape`` [B, H, N, d_h],
    and the weights [B, N, d] of a scalar loss on the merged output."""
    b, h, n, dh = shape
    rng = np.random.default_rng(seed)
    return rng.standard_normal((b, n, 3 * h * dh)), rng.standard_normal((b, n, h * dh))


def _attention_chain(qkv, heads):
    """Attention as a chain of numpy primitives: slice, reshape and transpose
    to split q, k and v into heads; transpose, matmul, scale by 1/sqrt(d_h),
    softmax and matmul; transpose and reshape to merge the heads. Returns
    the merged heads, the scaled scores and the values."""
    b, n, d3 = qkv.shape
    d = d3 // 3
    scale = 1.0 / math.sqrt(d // heads)

    def split(i):
        t = np.ascontiguousarray(qkv[..., i * d:(i + 1) * d]).reshape((b, n, heads, d // heads))
        return np.ascontiguousarray(t.transpose((0, 2, 1, 3)))

    q, k, v = (split(i) for i in range(3))
    scores = np.matmul(q, np.ascontiguousarray(k.transpose((0, 1, 3, 2)))) * scale
    probs = kernels.softmax_rows(scores.reshape(-1, n), 1.0).reshape(scores.shape)
    out = np.ascontiguousarray(np.matmul(probs, v).transpose((0, 2, 1, 3))).reshape((b, n, d))
    return out, scores, v


@pytest.mark.parametrize("shape", [(1, 1, 17, 8), (2, 2, 17, 8), (1, 4, 197, 8),
                                   (1, 2, 17, 3), (2, 3, 11, 5)],
                         ids=lambda s: "x".join(map(str, s)))
def test_attention_matches_the_primitive_chain(shape):
    # the scale 1/sqrt(d_h), derived from the head width, goes into k^T and
    # the softmax is normalized on the head outputs, so the scores,
    # probabilities and output round differently from the chain: measured
    # at most 1.2e-15 relative on these shapes. The values are copied, not
    # computed, and stay bit-equal.
    x0, _ = _attention_inputs(shape, seed=shape[1] * 100 + shape[2])
    heads = shape[1]
    ref_out, ref_scores, ref_v = _attention_chain(x0, heads)
    ref_probs = kernels.softmax_rows(ref_scores.reshape(-1, shape[2]), 1.0).reshape(
        ref_scores.shape)
    out, kept, e, saved = attention_arrays(x0, heads, True)
    assert grad_rel_error(out, ref_out) < 4e-15
    assert grad_rel_error(kept, ref_scores[:, :, :1]) < 4e-15
    assert grad_rel_error(e / saved.l, ref_probs) < 4e-15
    assert bit_equal(saved.vx[..., :-1], ref_v)
    assert (saved.vx[..., -1] == 1.0).all()
    assert attention_arrays(x0, heads)[1] is None


def _attention_vjp(qkv, heads, w, cls_only):
    """A hand-written VJP of plain softmax attention: the gradient of
    sum(out * w) with respect to qkv, through p = softmax(q k^T * scale)
    with scale = 1/sqrt(d_h) and out = p v, with the softmax's Jacobian
    p (dp - rowsum(p dp))."""
    b, n, d3 = qkv.shape
    d, m = d3 // 3, 1 if cls_only else n
    scale = 1.0 / math.sqrt(d // heads)
    q, k, v = (qkv[..., i * d:(i + 1) * d].reshape(b, n, heads, -1).transpose(0, 2, 1, 3)
               for i in range(3))
    q = q[:, :, :m]
    s = q @ k.transpose(0, 1, 3, 2) * scale
    p = np.exp(s - s.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    g = w.reshape(b, m, heads, -1).transpose(0, 2, 1, 3)
    dp = g @ v.transpose(0, 1, 3, 2)
    ds = p * (dp - (p * dp).sum(axis=-1, keepdims=True)) * scale
    dq = np.zeros(k.shape)
    dq[:, :, :m] = ds @ k
    grads = [dq, ds.transpose(0, 1, 3, 2) @ q, p.transpose(0, 1, 3, 2) @ g]
    return np.concatenate([t.transpose(0, 2, 1, 3).reshape(b, n, d) for t in grads], axis=-1)


@pytest.mark.parametrize("cls_only", [False, True], ids=["every_row", "cls_row"])
def test_attention_grad_matches_a_reference_vjp(cls_only):
    # float64 arithmetic against float64 arithmetic, not finite differences
    x0, w_all = _attention_inputs((2, 4, 23, 8), seed=11)
    w = w_all[:, :1] if cls_only else w_all
    *_, saved = attention_arrays(x0, 4, False, cls_only)
    grad = attention_grad(w, saved)
    assert grad_rel_error(grad, _attention_vjp(x0, 4, w, cls_only)) <= 1e-12


@pytest.mark.parametrize("cls_only", [False, True], ids=["every_row", "cls_row"])
def test_saved_row_sums_own_their_memory(cls_only):
    # l is its own [B, H, M, 1] array, not a column view of the product of e
    # with [v | 1], so a tape or capture that keeps l does not keep that product
    b, h, n, dh = 2, 3, 19, 4
    x0, _ = _attention_inputs((b, h, n, dh), seed=13)
    _, _, e, saved = attention_arrays(x0, h, False, cls_only)
    m = 1 if cls_only else n
    assert saved.l.shape == (b, h, m, 1)
    assert saved.l.base is None and saved.l.nbytes == b * h * m * 8
    assert grad_rel_error(saved.l[..., 0], e.sum(axis=-1)) < 1e-14
    # the row maxima too, and no saved array holds N^2 elements per head
    assert saved.mx.shape == (b, h, m, 1) and saved.mx.base is None
    assert max(arr.size for arr in saved) < b * h * n * n


def _attention_grad_from_exps(grad, saved, e):
    """attention_grad on the forward's own exps ``e``, as it ran when the
    tape kept them: the same formula and ops, with no rebuild."""
    q, k, vx, _, l, out = saved
    b, h, m, dh = q.shape
    gx = np.empty((b, h, m, dh + 1))
    gl = np.einsum("bmhj,bhm->bhmj", grad.reshape(b, m, h, dh), 1.0 / l[..., 0], out=gx[..., :dh])
    delta = np.einsum("bhmj,bmhj->bhm", gl, out.reshape(b, m, h, dh), out=gx[..., dh])
    np.negative(delta, out=delta)
    x = np.empty(e.shape)
    dqkv = np.empty((b, k.shape[2], 3, h, dh))
    dq, dk, dv = dqkv.transpose(2, 0, 3, 1, 4)
    dq[:, :, m:] = 0.0
    np.matmul(np.swapaxes(e, -1, -2), gl, out=dv)
    gx *= 1.0 / math.sqrt(dh)
    np.matmul(gx, np.swapaxes(vx, -1, -2), out=x)
    x *= e
    np.matmul(x, k, out=dq[:, :, :m])
    np.matmul(np.swapaxes(x, -1, -2), q, out=dk)
    return dqkv.reshape(b, k.shape[2], 3 * h * dh)


@pytest.mark.parametrize("cls_only", [False, True], ids=["every_row", "cls_row"])
@pytest.mark.parametrize("shape", [(1, 2, 17, 3), (2, 3, 11, 5), (1, 4, 197, 8),
                                   (2, 2, 23, 8)],
                         ids=lambda s: "x".join(map(str, s)))
def test_attention_grad_rebuilds_the_forward_exps_bit_for_bit(shape, cls_only):
    # the backward keeps no exps: it rebuilds them with the forward's ops
    # from the saved row maxima, so its gradient is the one the forward's
    # own exps give, to the bit
    x0, w_all = _attention_inputs(shape, seed=shape[1] * 10 + shape[3])
    w = w_all[:, :1] if cls_only else w_all
    _, _, e, saved = attention_arrays(x0, shape[1], False, cls_only)
    want = _attention_grad_from_exps(w, saved, e)
    assert bit_equal(attention_grad(w, saved), want)
    assert bit_equal(attention_grad(w, saved), want)   # and the saved arrays are intact


def _attention_node(x, heads):
    """attention_arrays as a test-local stage whose backward is attention_grad."""
    out, _, _, saved = attention_arrays(x, heads)
    return out, lambda grad: attention_grad(grad, saved)


def test_attention_nodes_give_the_same_bits_on_every_walk():
    x0, w = _attention_inputs((2, 2, 17, 8), seed=9)
    heads = 2

    def stack3(t):
        return np.concatenate([t] * 3, axis=-1), lambda grad: sum(np.split(grad, 3, axis=-1))

    g = Graph()
    first = on(g, _attention_node(x0, heads))
    second = on(g, _attention_node(on(g, stack3(first)), heads))
    root = total(g, on(g, times(second, w)))

    # the same arithmetic, called directly
    *_, saved2 = attention_arrays(np.concatenate([first] * 3, axis=-1), heads)
    *_, saved1 = attention_arrays(x0, heads)
    dmid = attention_grad(w, saved2)
    ref = attention_grad(sum(np.split(dmid, 3, axis=-1)), saved1)

    for _ in range(2):                                 # a second walk reuses nothing stale
        g.backward(root)
        assert bit_equal(g.gradients[INPUT], ref)


def test_attention_gradients_match_finite_differences():
    # for every query row, and for the CLS row alone
    x0, w_all = _attention_inputs((1, 2, 5, 3), seed=7)
    heads = 2
    for cls_only in (False, True):
        w = w_all[:, :1] if cls_only else w_all

        def loss(x):
            return float((attention_arrays(x, heads, False, cls_only)[0] * w).sum())

        *_, saved = attention_arrays(x0, heads, False, cls_only)
        grad = attention_grad(w, saved)
        assert grad_rel_error(grad, finite_difference(loss, x0)) < 1e-7


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_attention_checks_operands():
    x = np.zeros((1, 3, 6))
    with pytest.raises(DimensionError):
        attention_arrays(np.zeros((1, 1, 3, 6)), 1)   # not [B, N, 3d]
    with pytest.raises(DimensionError):
        attention_arrays(x, 4)                        # d = 2 is not 4 heads
    with pytest.raises(DimensionError):
        attention_arrays(x, 0)
    with pytest.raises(NumericError, match="^non-finite values produced by matmul$"):
        attention_arrays(x + 1e200, 1)                # scores 1.4e400, so inf
