import numpy as np
import pytest

from bicam import kernels

from conftest import bit_equal


RNG = np.random.default_rng(0)
X = RNG.standard_normal((40, 17)) * 8.0
Y = kernels.softmax_rows_numpy(X, 2.0)
G = RNG.standard_normal(X.shape)
GRID = RNG.standard_normal((5, 7))
XHAT, INV = kernels.layernorm_rows_numpy(X, 1e-6)

CALLS = {
    "softmax_rows": (X, 2.0),
    "softmax_rows_grad": (Y, G, 2.0),
    "gelu": (X,),
    "gelu_grad": (X, G),
    "layernorm_rows": (X, 1e-6),
    "layernorm_rows_grad": (XHAT, INV, G),
    "upsample_bilinear": (GRID, 20, 31),
    "upsample_nearest": (GRID, 20, 31),
}


def test_backend_selection_is_consistent():
    assert kernels.ACTIVE_BACKEND in ("numpy", "numba")
    assert kernels.USE_NUMBA == (kernels.ACTIVE_BACKEND == "numba")
    if kernels.USE_NUMBA:
        assert kernels.softmax_rows is kernels.softmax_rows_numba
    else:
        assert kernels.softmax_rows is kernels.softmax_rows_numpy


@pytest.mark.skipif(not kernels.HAVE_NUMBA, reason="numba unavailable")
@pytest.mark.parametrize("name,np_fn,nb_fn", kernels.kernel_pairs(),
                         ids=[p[0] for p in kernels.kernel_pairs()])
def test_numba_numpy_parity(name, np_fn, nb_fn):
    args = CALLS[name]
    a, b = np_fn(*args), nb_fn(*args)
    if name == "layernorm_rows":
        assert np.abs(a[0] - b[0]).max() < 1e-12
        assert np.abs(a[1] - b[1]).max() < 1e-12
    else:
        assert np.abs(a - b).max() < 1e-12


def test_softmax_rows_properties():
    out = kernels.softmax_rows(X, 3.0)
    assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-12
    assert (out > 0).all()


def test_upsample_nearest_integer_ratio_replicates_blocks():
    grid = np.arange(6.0).reshape(2, 3)
    up = kernels.upsample_nearest(grid, 4, 6)
    for r in range(4):
        for c in range(6):
            assert up[r, c] == grid[r // 2, c // 2]


def test_upsample_bilinear_constant_preserved():
    up = kernels.upsample_bilinear(np.full((3, 3), 4.25), 17, 11)
    assert np.array_equal(up, np.full((17, 11), 4.25))


def test_upsample_bilinear_hand_values():
    grid = np.array([[0.0, 1.0], [2.0, 3.0]])
    up = kernels.upsample_bilinear(grid, 4, 4)
    # corners clamp to the nearest source cell
    assert up[0, 0] == 0.0 and up[0, 3] == 1.0
    assert up[3, 0] == 2.0 and up[3, 3] == 3.0
    # interior: src coords 0.25 from the top-left cell centers
    assert up[1, 1] == pytest.approx(0.75)
    assert up[2, 2] == pytest.approx(2.25)


def test_upsample_bilinear_identity_when_same_size():
    up = kernels.upsample_bilinear(GRID, 5, 7)
    assert np.allclose(up, GRID, atol=1e-15)


def test_gelu_matches_reference_values():
    # gelu(1) = 0.5 * (1 + erf(1/sqrt2)) = 0.841344746...
    out = kernels.gelu(np.array([[1.0]]))
    assert out[0, 0] == pytest.approx(0.8413447460685429, abs=1e-12)


def _layernorm_rows_by_mean(x, eps):
    mu = x.mean(axis=1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=1)
    inv_std = 1.0 / np.sqrt(var + eps)
    return xc * inv_std[:, None], inv_std


def _layernorm_rows_grad_by_mean(xhat, inv_std, dxhat):
    m1 = dxhat.mean(axis=1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=1, keepdims=True)
    return (dxhat - m1 - xhat * m2) * inv_std[:, None]


@pytest.mark.parametrize("shape", [(1, 1), (17, 16), (40, 17), (197, 32), (3, 257)])
@pytest.mark.parametrize("scale", [1e-6, 1.0, 8.0, 1e5])
def test_numpy_layernorm_matches_the_mean_formulation_bitwise(shape, scale):
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    x = rng.standard_normal(shape) * scale + rng.standard_normal((shape[0], 1))
    g = rng.standard_normal(shape) * scale
    xhat, inv = kernels.layernorm_rows_numpy(x, 1e-6)
    ref_xhat, ref_inv = _layernorm_rows_by_mean(x, 1e-6)
    assert bit_equal(xhat, ref_xhat) and bit_equal(inv, ref_inv)
    assert bit_equal(kernels.layernorm_rows_grad_numpy(xhat, inv, g),
                      _layernorm_rows_grad_by_mean(xhat, inv, g))
