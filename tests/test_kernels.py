import numpy as np
import pytest

from bicam import kernels

from conftest import bit_equal


RNG = np.random.default_rng(0)
X = RNG.standard_normal((40, 17)) * 8.0
G = RNG.standard_normal(X.shape)
GRID = RNG.standard_normal((5, 7))


def test_softmax_rows_properties():
    out = kernels.softmax_rows(X, 3.0)
    assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-12
    assert (out > 0).all()


def test_softmax_rows_grad_rows_sum_to_zero():
    # softmax rows sum to 1 whatever the input, so every gradient row sums to 0
    dx = kernels.softmax_rows_grad(kernels.softmax_rows(X, 2.0), G, 2.0)
    assert np.abs(dx.sum(axis=1)).max() < 1e-12


def _softmax_rows_unfused(x, temperature):
    z = (x - x.max(axis=1, keepdims=True)) / temperature
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _softmax_rows_grad_unfused(y, g, temperature):
    dot = (g * y).sum(axis=1, keepdims=True)
    return y * (g - dot) / temperature


@pytest.mark.parametrize("shape", [(1, 1), (17, 5), (40, 17), (788, 197)])
@pytest.mark.parametrize("scale", [1e-6, 1.0, 8.0, 300.0])
@pytest.mark.parametrize("temperature", [1.0, 2.0, 0.5, 3.7])
def test_softmax_kernels_in_place_are_bit_equal(shape, scale, temperature):
    # each kernel runs its steps in place on its own result array
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    x = rng.standard_normal(shape) * scale
    g = rng.standard_normal(shape) * scale
    inputs = x.copy(), g.copy()
    y = kernels.softmax_rows(x, temperature)
    assert bit_equal(y, _softmax_rows_unfused(x, temperature))
    dx = kernels.softmax_rows_grad(y, g, temperature)
    assert bit_equal(dx, _softmax_rows_grad_unfused(y, g, temperature))
    assert bit_equal(x, inputs[0]) and bit_equal(g, inputs[1])


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
    xhat, inv = kernels.layernorm_rows(x, 1e-6)
    ref_xhat, ref_inv = _layernorm_rows_by_mean(x, 1e-6)
    assert bit_equal(xhat, ref_xhat) and bit_equal(inv, ref_inv)
    assert bit_equal(kernels.layernorm_rows_grad(xhat, inv, g),
                      _layernorm_rows_grad_by_mean(xhat, inv, g))
    inplace = g.copy()
    assert kernels.layernorm_rows_grad(xhat, inv, inplace, inplace) is inplace
    assert bit_equal(inplace, _layernorm_rows_grad_by_mean(xhat, inv, g))
