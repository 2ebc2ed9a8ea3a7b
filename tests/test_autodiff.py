import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bicam.autodiff import Graph, attention, attention_arrays, concat
from bicam.errors import ContractError, DimensionError, NumericError, ParameterError

from conftest import bit_equal, finite_difference, grad_rel_error


def leaf(g, x):
    return g.leaf(np.asarray(x, dtype=np.float64))


# -- worked examples -----------------------------------------------------------


def test_matmul_identity():
    g = Graph()
    out = leaf(g, np.eye(2)) @ leaf(g, [[3.0, 4.0], [5.0, 6.0]])
    assert np.array_equal(out.data, [[3.0, 4.0], [5.0, 6.0]])


def test_matmul_hand_case():
    g = Graph()
    out = leaf(g, [[1.0, 2.0]]) @ leaf(g, [[3.0], [4.0]])
    assert np.array_equal(out.data, [[11.0]])


def test_matmul_shape_mismatch():
    g = Graph()
    with pytest.raises(DimensionError):
        leaf(g, np.ones((2, 3))) @ leaf(g, np.ones((2, 3)))
    with pytest.raises(DimensionError):
        leaf(g, np.ones(3)) @ leaf(g, np.ones((3, 2)))


def test_matmul_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    a0 = rng.standard_normal((4, 4))
    b0 = rng.standard_normal((4, 4))

    def f_a(a):
        g = Graph()
        return (leaf(g, a) @ leaf(g, b0)).sum().item()

    def f_b(b):
        g = Graph()
        return (leaf(g, a0) @ leaf(g, b)).sum().item()

    g = Graph()
    ta, tb = leaf(g, a0), leaf(g, b0)
    g.backward((ta @ tb).sum())
    assert grad_rel_error(g.grad(ta), finite_difference(f_a, a0)) < 1e-6
    assert grad_rel_error(g.grad(tb), finite_difference(f_b, b0)) < 1e-6


def test_softmax_worked_values():
    g = Graph()
    out = leaf(g, [0.0, 0.0]).softmax(temperature=2.0)
    assert np.allclose(out.data, [0.5, 0.5], atol=1e-15)
    out = leaf(g, [math.log(1.0), math.log(3.0)]).softmax(1.0)
    assert np.allclose(out.data, [0.25, 0.75], atol=1e-12)


def test_softmax_rows_sum_to_one_and_positive():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((7, 5, 9)) * 30
    g = Graph()
    out = leaf(g, x).softmax(0.7)
    sums = out.data.sum(axis=-1)
    assert np.abs(sums - 1.0).max() < 1e-12
    assert (out.data > 0).all()


def test_softmax_temperature_validation():
    g = Graph()
    with pytest.raises(ParameterError):
        leaf(g, [1.0, 2.0]).softmax(0.0)
    with pytest.raises(ParameterError):
        leaf(g, [1.0, 2.0]).softmax(-1.5)


def _entropy(p):
    return float(-(p * np.log(p)).sum())


@settings(max_examples=60, deadline=None)
@given(arrays(np.float64, 6, elements=st.floats(-20, 20)))
def test_softmax_entropy_nondecreasing_in_temperature(x):
    if np.ptp(x) < 1e-9:
        return  # constant rows are uniform at every temperature
    g = Graph()
    ents = [_entropy(leaf(g, x).softmax(t).data) for t in (0.5, 1.0, 2.0, 4.0)]
    for lo, hi in zip(ents, ents[1:]):
        assert hi >= lo - 1e-12


def test_layernorm_constant_row_is_zeroed_by_eps():
    g = Graph()
    out = leaf(g, [1.0, 1.0, 1.0]).layernorm(leaf(g, np.ones(3)), leaf(g, np.zeros(3)))
    assert np.allclose(out.data, 0.0, atol=1e-12)


def test_layernorm_already_standardized():
    g = Graph()
    out = leaf(g, [-1.0, 1.0]).layernorm(leaf(g, np.ones(2)), leaf(g, np.zeros(2)),
                                         eps=1e-12)
    assert np.allclose(out.data, [-1.0, 1.0], atol=1e-6)


def test_gelu_worked_values():
    g = Graph()
    assert leaf(g, [0.0]).gelu().data[0] == 0.0
    assert abs(leaf(g, [10.0]).gelu().data[0] - 10.0) < 1e-6


# -- gradient checks for every primitive ---------------------------------------


def _gradcheck(build, x0, tol=1e-5, extra=None):
    """build(graph, tensor) -> output tensor; checks d(sum(out*c))/dx vs FD."""
    rng = np.random.default_rng(99)
    g = Graph()
    t = leaf(g, x0)
    out = build(g, t)
    c = rng.standard_normal(out.shape)

    def f(x):
        g2 = Graph()
        return build(g2, leaf(g2, x)).mul(c).sum().item()

    g.backward(out.mul(c).sum())
    err = grad_rel_error(g.grad(t), finite_difference(f, x0))
    assert err < tol, f"gradient error {err}"


RNG = np.random.default_rng(7)
B0 = RNG.standard_normal((5, 4))
C0 = RNG.standard_normal((2, 3, 4, 6))
G0 = RNG.standard_normal(6)
H0 = RNG.standard_normal(6)

PRIMITIVE_CASES = [
    ("add_tensor", lambda g, t: t.add(leaf(g, B0)), RNG.standard_normal((5, 4))),
    ("add_broadcast_const", lambda g, t: t.add(np.arange(4.0)), RNG.standard_normal((5, 4))),
    ("mul_tensor", lambda g, t: t.mul(leaf(g, B0)), RNG.standard_normal((5, 4))),
    ("mul_broadcast", lambda g, t: t.mul(leaf(g, B0[:1])), RNG.standard_normal((5, 4))),
    ("scale", lambda g, t: t.scale(-2.5), RNG.standard_normal((3, 3))),
    ("matmul_2d", lambda g, t: t @ leaf(g, B0), RNG.standard_normal((3, 5))),
    ("matmul_batched", lambda g, t: t @ leaf(g, C0), RNG.standard_normal((2, 3, 5, 4))),
    ("matmul_shared_rhs", lambda g, t: t @ leaf(g, B0[:4]), RNG.standard_normal((2, 3, 4))),
    ("reshape", lambda g, t: t.reshape(6, 2), RNG.standard_normal((3, 4))),
    ("transpose", lambda g, t: t.transpose((2, 0, 1)), RNG.standard_normal((2, 3, 4))),
    ("narrow", lambda g, t: t.narrow(1, 1, 2), RNG.standard_normal((3, 4))),
    ("broadcast_to", lambda g, t: t.broadcast_to((5, 2, 3)), RNG.standard_normal((2, 3))),
    ("sum_all", lambda g, t: t.sum(), RNG.standard_normal((3, 4))),
    ("sum_axis", lambda g, t: t.sum(axis=1), RNG.standard_normal((3, 4, 2))),
    ("sum_keepdims", lambda g, t: t.sum(axis=-1, keepdims=True), RNG.standard_normal((3, 4))),
    ("mean", lambda g, t: t.mean(axis=0), RNG.standard_normal((4, 3))),
    ("softmax", lambda g, t: t.softmax(1.0), RNG.standard_normal((4, 6))),
    ("softmax_temp", lambda g, t: t.softmax(2.7), RNG.standard_normal((2, 3, 5))),
    ("log_softmax", lambda g, t: t.log_softmax(), RNG.standard_normal((4, 6))),
    ("gelu", lambda g, t: t.gelu(), RNG.standard_normal((5, 5))),
    ("layernorm", lambda g, t: t.layernorm(leaf(g, G0), leaf(g, H0)),
     RNG.standard_normal((4, 6))),
    ("concat_last", lambda g, t: concat([t, leaf(g, B0)], axis=-1),
     RNG.standard_normal((5, 3))),
    ("concat_axis0", lambda g, t: concat([t, leaf(g, B0)], axis=0),
     RNG.standard_normal((2, 4))),
]


@pytest.mark.parametrize("name,build,x0", PRIMITIVE_CASES,
                         ids=[c[0] for c in PRIMITIVE_CASES])
def test_primitive_gradients(name, build, x0):
    _gradcheck(build, x0)


def test_layernorm_gain_bias_gradients():
    rng = np.random.default_rng(3)
    x0 = rng.standard_normal((4, 6))
    gain0, bias0 = rng.standard_normal(6), rng.standard_normal(6)
    c = rng.standard_normal((4, 6))

    def f(gain, bias):
        g = Graph()
        out = g.leaf(x0).layernorm(g.leaf(gain), g.leaf(bias))
        return out.mul(c).sum().item()

    g = Graph()
    tg, tb = g.leaf(gain0), g.leaf(bias0)
    g.backward(g.leaf(x0).layernorm(tg, tb).mul(c).sum())
    fd_gain = finite_difference(lambda v: f(v, bias0), gain0)
    fd_bias = finite_difference(lambda v: f(gain0, v), bias0)
    assert grad_rel_error(g.grad(tg), fd_gain) < 1e-5
    assert grad_rel_error(g.grad(tb), fd_bias) < 1e-5


# -- backward contract -----------------------------------------------------------


def test_backward_of_sum_is_ones():
    g = Graph()
    t = leaf(g, np.random.default_rng(0).standard_normal((3, 5, 2)))
    g.backward(t.sum())
    assert np.array_equal(g.grad(t), np.ones((3, 5, 2)))


def test_backward_of_dot_is_weights():
    g = Graph()
    w = np.array([2.0, -3.0, 0.5])
    x = leaf(g, [1.0, 1.0, 1.0])
    g.backward(x.mul(w).sum())
    assert np.array_equal(g.grad(x), w)


def test_backward_rejects_nonscalar_root():
    g = Graph()
    t = leaf(g, [1.0, 2.0])
    with pytest.raises(ContractError):
        g.backward(t)


def test_backward_rejects_foreign_root():
    g1, g2 = Graph(), Graph()
    t = leaf(g2, [1.0]).sum()
    with pytest.raises(ContractError):
        g1.backward(t)


def test_root_gradient_is_ones_of_its_shape():
    g = Graph()
    root = leaf(g, [[5.0]]).sum()
    g.backward(root)
    assert np.array_equal(g.gradients[root.node_id], np.ones(()))


def test_off_path_nodes_get_zero_gradients():
    g = Graph()
    a = leaf(g, [1.0, 2.0])
    b = leaf(g, [3.0, 4.0])
    unused = b.scale(2.0)
    g.backward(a.sum())
    assert np.array_equal(g.grad(b), np.zeros(2))
    assert np.array_equal(g.gradients[unused.node_id], np.zeros(2))


def test_backward_is_deterministic_bitwise():
    def run():
        rng = np.random.default_rng(11)
        g = Graph()
        x = leaf(g, rng.standard_normal((6, 6)))
        y = (x @ leaf(g, rng.standard_normal((6, 6)))).gelu().softmax(1.3)
        g.backward(y.sum())
        return g.grad(x)

    a, b = run(), run()
    assert np.array_equal(a, b)

    # and a second backward on the same graph reproduces the same gradients
    rng = np.random.default_rng(11)
    g = Graph()
    x = leaf(g, rng.standard_normal((6, 6)))
    root = (x @ leaf(g, rng.standard_normal((6, 6)))).gelu().softmax(1.3).sum()
    g.backward(root)
    first = g.grad(x).copy()
    g.backward(root)
    assert np.array_equal(first, g.grad(x))


def test_mixing_graphs_rejected():
    g1, g2 = Graph(), Graph()
    with pytest.raises(ContractError):
        leaf(g1, [1.0]).add(leaf(g2, [2.0]))
    with pytest.raises(ContractError):
        concat([leaf(g1, [1.0]), leaf(g2, [2.0])], axis=0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_result_raises_numeric_error():
    g = Graph()
    t = leaf(g, [1e200])
    with pytest.raises(NumericError):
        t.mul(t)
    with pytest.raises(NumericError):
        g.leaf([np.inf])
    with pytest.raises(NumericError):
        g.leaf([1.0, np.nan, -np.inf])
    # finite values whose sum overflows are still finite
    big = leaf(g, [1e308, 1e308, -1e308, -1e308])
    assert np.array_equal(big.scale(1.0).data, big.data)


def test_tensor_data_is_row_major_float64():
    g = Graph()
    t = leaf(g, np.asfortranarray(np.ones((3, 2), dtype=np.float32)))
    assert t.data.dtype == np.float64
    assert t.data.flags.c_contiguous
    assert t.data.size == 6


def test_tape_is_topologically_ordered():
    rng = np.random.default_rng(12)
    g = Graph()
    x = leaf(g, rng.standard_normal((4, 4)))
    y = (x @ leaf(g, rng.standard_normal((4, 4)))).softmax(2.0)
    concat([y, x], axis=0).sum()
    for nid, node in enumerate(g.nodes):
        assert all(p < nid for p in node.parents)


def test_shared_read_only_contributions_are_accumulated_out_of_place():
    g = Graph()
    x = leaf(g, np.arange(6.0).reshape(2, 3))
    # each sum sends x a read-only broadcast view; adding into the first
    # view in place would raise
    g.backward(x.sum().add(x.sum()))
    assert np.array_equal(g.grad(x), 2.0 * np.ones((2, 3)))


def test_gradients_are_stored_only_for_nodes_feeding_the_root():
    g = Graph()
    a = leaf(g, [1.0, 2.0])
    b = leaf(g, [3.0, 4.0])
    c = leaf(g, [5.0, 6.0])
    b.scale(2.0).sum()                      # off the path
    root = a.mul(c).add(a).sum()
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


# -- fused attention ------------------------------------------------------------


def _attention_inputs(shape, seed):
    rng = np.random.default_rng(seed)
    q, k, v, w = (rng.standard_normal(shape) for _ in range(4))
    return q, k, v, w


def _attention_chain(q, k, v, scale):
    """The five primitives the fused node replaces: transpose, matmul,
    scale, softmax, matmul."""
    scores = q.matmul(k.transpose((0, 1, 3, 2))).scale(scale)
    return scores.softmax(1.0).matmul(v), scores


@pytest.mark.parametrize("shape", [(1, 1, 17, 8), (2, 2, 17, 8), (1, 4, 197, 8)],
                         ids=lambda s: "x".join(map(str, s)))
def test_attention_is_bit_equal_to_the_primitive_chain(shape):
    q0, k0, v0, w = _attention_inputs(shape, seed=shape[1] * 100 + shape[2])
    scale = 1.0 / math.sqrt(shape[-1])

    ref = Graph()
    rq, rk, rv = leaf(ref, q0), leaf(ref, k0), leaf(ref, v0)
    ref_out, ref_scores = _attention_chain(rq, rk, rv, scale)
    ref.backward(ref_out.mul(w).sum())

    g = Graph()
    q, k, v = leaf(g, q0), leaf(g, k0), leaf(g, v0)
    out, kept, _ = attention(q, k, v, scale, keep_scores=True)
    g.backward(out.mul(w).sum())
    assert len(g.nodes) == 3 + 3              # three leaves, attention, mul, sum
    assert bit_equal(out.data, ref_out.data)
    assert bit_equal(kept, ref_scores.data)
    for t, rt in ((q, rq), (k, rk), (v, rv)):
        assert bit_equal(g.grad(t), ref.grad(rt))

    a_out, a_kept, _, _ = attention_arrays(q0, k0, v0, scale, True)
    assert bit_equal(a_out, ref_out.data) and bit_equal(a_kept, ref_scores.data)
    assert attention(q, k, v, scale)[1] is None
    assert attention_arrays(q0, k0, v0, scale)[1] is None


def test_attention_nodes_share_work_arrays_during_a_walk():
    q0, k0, v0, w = _attention_inputs((2, 2, 17, 8), seed=9)
    scale = 0.5

    ref = Graph()
    rq, rk, rv = leaf(ref, q0), leaf(ref, k0), leaf(ref, v0)
    first, _ = _attention_chain(rq, rk, rv, scale)
    second, _ = _attention_chain(first, rk, first, scale)
    ref.backward(second.mul(w).sum())

    g = Graph()
    q, k, v = leaf(g, q0), leaf(g, k0), leaf(g, v0)
    first = attention(q, k, v, scale)[0]
    second = attention(first, k, first, scale)[0]   # same score shape
    root = second.mul(w).sum()
    for _ in range(2):                                 # a second walk reuses nothing stale
        g.backward(root)
        assert g.scratch == {}
        for t, rt in ((q, rq), (k, rk), (v, rv)):
            assert bit_equal(g.grad(t), ref.grad(rt))


def test_attention_gradients_match_finite_differences():
    q0, k0, v0, w = _attention_inputs((1, 2, 5, 3), seed=7)
    scale = 0.7

    def loss(q, k, v):
        return float((attention_arrays(q, k, v, scale)[0] * w).sum())

    g = Graph()
    q, k, v = leaf(g, q0), leaf(g, k0), leaf(g, v0)
    out = attention(q, k, v, scale)[0]
    g.backward(out.mul(w).sum())
    assert grad_rel_error(g.grad(q), finite_difference(lambda x: loss(x, k0, v0), q0)) < 1e-7
    assert grad_rel_error(g.grad(k), finite_difference(lambda x: loss(q0, x, v0), k0)) < 1e-7
    assert grad_rel_error(g.grad(v), finite_difference(lambda x: loss(q0, k0, x), v0)) < 1e-7


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_attention_checks_operands():
    g = Graph()
    q = leaf(g, np.zeros((1, 1, 3, 2)))
    with pytest.raises(DimensionError):
        attention(q, leaf(g, np.zeros((1, 1, 4, 2))), q, 1.0)
    with pytest.raises(ContractError):
        attention(q, leaf(Graph(), np.zeros((1, 1, 3, 2))), q, 1.0)
    with pytest.raises(NumericError, match="^non-finite values produced by scale$"):
        attention(q.add(1e150), q.add(1e150), q, 1e10)   # scores 2e300, then inf


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e300, -1e300, math.nan])
def test_attention_checks_a_scale_that_can_overflow(scale):
    # finite q and k give finite scores of 2e10; the scaled-score check is
    # skipped only for a scale of at most 1 in magnitude
    x = np.full((1, 1, 3, 2), 1e5)
    with pytest.raises(NumericError, match="^non-finite values produced by scale$"):
        attention_arrays(x, x, x, scale)
    g = Graph()
    q = leaf(g, x)
    with pytest.raises(NumericError, match="^non-finite values produced by scale$"):
        attention(q, q, q, scale)


def test_retained_backward_keeps_only_the_retained_gradients():
    def build():
        rng = np.random.default_rng(13)
        g = Graph()
        x = leaf(g, rng.standard_normal((4, 4)))
        w = leaf(g, rng.standard_normal((4, 4)))
        off = leaf(g, [1.0, 2.0])                   # never reached
        h = (x @ w).gelu()
        root = h.softmax(1.7).mul(h).sum()
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
    root = x.sum()
    g.retain = set()
    g.backward(root)
    assert len(g.gradients) == 0
    with pytest.raises(ContractError, match="not retained"):
        g.grad(x)
