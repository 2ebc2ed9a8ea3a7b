"""Hot numeric kernels on plain float64 ndarrays, in numpy.

Everything here is free of graph bookkeeping; the model's stages and their
backwards and the attribution code call these names. Matrix products are
deliberately absent: BLAS already owns those. Attention runs its softmax
and its backward inline (see ``autodiff.attention_arrays``), so
``softmax_rows_grad`` has no caller in the program; it stays because the
benchmark's tracer (``bench_e2e/tracing.py``) wraps it by name.

Only the layer norm gradient takes an optional ``out`` array, which may be
its ``dxhat`` input: with it the kernel works in place, without it it
allocates its result, and the arithmetic is the same either way, so the
results are the same bits. Callers pass ``out`` positionally. The softmax
kernels allocate their result and reuse it for their temporaries.
"""

import math

import numpy as np
from scipy.special import erf as _erf

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)

# read by the benchmark's identity line
ACTIVE_BACKEND = "numpy"


def softmax_rows(x, temperature):
    """Row-wise softmax of ``x[rows, n]`` with temperature scaling.

    exp((x - row max) / T) over its row sum; the division by T is skipped
    when T == 1, where it is exact.
    """
    out = np.subtract(x, np.maximum.reduce(x, axis=1, keepdims=True))
    if temperature != 1.0:
        np.divide(out, temperature, out=out)
    np.exp(out, out=out)
    return np.divide(out, np.add.reduce(out, axis=1, keepdims=True), out=out)


def softmax_rows_grad(y, g, temperature):
    """Backward of softmax_rows: y is the forward output, g the output grad.

    (g - rowsum(g * y)) * y / T.
    """
    out = np.multiply(g, y)
    dot = np.add.reduce(out, axis=1, keepdims=True)
    np.subtract(g, dot, out=out)
    out *= y
    if temperature != 1.0:
        out /= temperature
    return out


def gelu(x):
    """Exact-erf Gaussian error linear unit."""
    return 0.5 * x * (1.0 + _erf(x * _INV_SQRT2))


def gelu_grad(x, g):
    """Backward of gelu: g * (cdf(x) + x * pdf(x)), in two arrays.

    The steps of ``g * (0.5 * (1 + erf(x * c1)) + x * (exp(-0.5 * x * x) * c2))``
    (c1 = 1/sqrt(2), c2 = 1/sqrt(2 pi)), in that order and in place; a
    product or sum with its operands swapped gives the same bits.
    """
    out = np.multiply(x, _INV_SQRT2)
    _erf(out, out=out)
    out += 1.0
    out *= 0.5
    pdf = np.multiply(x, -0.5)
    pdf *= x
    np.exp(pdf, out=pdf)
    pdf *= _INV_SQRT2PI
    pdf *= x
    out += pdf
    out *= g
    return out


# Row means are np.add.reduce(...) / d: the sum-then-divide ndarray.mean
# does, bit for bit, without its Python-level wrapper (a measurable share
# of a small model's forward).


def layernorm_rows(x, eps):
    """Standardize each row of ``x[rows, d]``; returns (xhat, inv_std)."""
    d = x.shape[1]
    xc = x - np.add.reduce(x, axis=1, keepdims=True) / d
    var = np.add.reduce(xc * xc, axis=1) / d
    inv_std = 1.0 / np.sqrt(var + eps)
    xc *= inv_std[:, None]   # normalised in place: xc is this call's own array
    return xc, inv_std


def layernorm_rows_grad(xhat, inv_std, dxhat, out=None):
    """Backward of row standardization; dxhat is the grad wrt xhat.
    ``out`` may be ``dxhat`` itself."""
    d = xhat.shape[1]
    m1 = np.add.reduce(dxhat, axis=1, keepdims=True) / d
    tmp = np.multiply(dxhat, xhat)
    m2 = np.add.reduce(tmp, axis=1, keepdims=True) / d
    out = np.subtract(dxhat, m1, out=out)   # (dxhat - m1 - xhat * m2) * inv_std, in two arrays
    out -= np.multiply(xhat, m2, out=tmp)
    out *= inv_std[:, None]
    return out


def upsample_bilinear(grid, out_h, out_w):
    """Bilinear upsample of ``grid[gh, gw]`` using half-pixel centers."""
    gh, gw = grid.shape
    sy = (np.arange(out_h) + 0.5) * (gh / out_h) - 0.5
    sx = (np.arange(out_w) + 0.5) * (gw / out_w) - 0.5
    y0 = np.clip(np.floor(sy), 0, gh - 1).astype(np.int64)
    x0 = np.clip(np.floor(sx), 0, gw - 1).astype(np.int64)
    y1 = np.minimum(y0 + 1, gh - 1)
    x1 = np.minimum(x0 + 1, gw - 1)
    wy = np.clip(sy - y0, 0.0, 1.0)[:, None]
    wx = np.clip(sx - x0, 0.0, 1.0)[None, :]
    top = grid[np.ix_(y0, x0)] * (1.0 - wx) + grid[np.ix_(y0, x1)] * wx
    bot = grid[np.ix_(y1, x0)] * (1.0 - wx) + grid[np.ix_(y1, x1)] * wx
    return top * (1.0 - wy) + bot * wy


def upsample_nearest(grid, out_h, out_w):
    """Nearest-neighbor upsample; exact block replication for integer ratios."""
    gh, gw = grid.shape
    ys = np.minimum(((np.arange(out_h) + 0.5) * (gh / out_h)).astype(np.int64), gh - 1)
    xs = np.minimum(((np.arange(out_w) + 0.5) * (gw / out_w)).astype(np.int64), gw - 1)
    return grid[np.ix_(ys, xs)]
