"""Hot numeric kernels, in paired numba and pure-numpy implementations.

Everything here operates on plain float64 ndarrays and is free of graph
bookkeeping; the autodiff layer calls through the dispatch names below.
Matrix products are deliberately absent: BLAS already owns those, a jitted
loop cannot beat it.

Backend selection is done once at import time from the environment:

    BICAM_BACKEND=auto    use numba when importable (default)
    BICAM_BACKEND=numba   require numba, fail loudly if missing
    BICAM_BACKEND=numpy   force the pure-numpy path

Both implementations of each kernel are always importable (suffixed
``_numpy`` / ``_numba``) so tests and ``benchmarks/bench_kernels.py`` can
compare them in one process. The two paths use the same arithmetic
formulas; results agree to float64 roundoff (reduction order may differ),
and each path is bit-deterministic run to run.
"""

import math
import os

import numpy as np
from scipy.special import erf as _erf

from .errors import ParameterError

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)

_choice = os.environ.get("BICAM_BACKEND", "auto").strip().lower()
if _choice not in ("auto", "numpy", "numba"):
    raise ParameterError(f"BICAM_BACKEND must be auto|numpy|numba, got {_choice!r}")

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba installed
    HAVE_NUMBA = False
    if _choice == "numba":
        raise

USE_NUMBA = HAVE_NUMBA if _choice == "auto" else _choice == "numba"
ACTIVE_BACKEND = "numba" if USE_NUMBA else "numpy"


# ---------------------------------------------------------------------------
# pure-numpy implementations


def softmax_rows_numpy(x, temperature):
    """Row-wise softmax of ``x[rows, n]`` with temperature scaling."""
    z = (x - x.max(axis=1, keepdims=True)) / temperature
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def softmax_rows_grad_numpy(y, g, temperature):
    """Backward of softmax_rows: y is the forward output, g the output grad."""
    dot = (g * y).sum(axis=1, keepdims=True)
    return y * (g - dot) / temperature


def gelu_numpy(x):
    """Exact-erf Gaussian error linear unit."""
    return 0.5 * x * (1.0 + _erf(x * _INV_SQRT2))


def gelu_grad_numpy(x, g):
    cdf = 0.5 * (1.0 + _erf(x * _INV_SQRT2))
    pdf = np.exp(-0.5 * x * x) * _INV_SQRT2PI
    return g * (cdf + x * pdf)


# Row means are np.add.reduce(...) / d: the sum-then-divide ndarray.mean
# does, bit for bit, without its Python-level wrapper (a measurable share
# of a small model's forward).


def layernorm_rows_numpy(x, eps):
    """Standardize each row of ``x[rows, d]``; returns (xhat, inv_std)."""
    d = x.shape[1]
    xc = x - np.add.reduce(x, axis=1, keepdims=True) / d
    var = np.add.reduce(xc * xc, axis=1) / d
    inv_std = 1.0 / np.sqrt(var + eps)
    return xc * inv_std[:, None], inv_std


def layernorm_rows_grad_numpy(xhat, inv_std, dxhat):
    """Backward of row standardization; dxhat is the grad wrt xhat."""
    d = xhat.shape[1]
    m1 = np.add.reduce(dxhat, axis=1, keepdims=True) / d
    m2 = np.add.reduce(dxhat * xhat, axis=1, keepdims=True) / d
    return (dxhat - m1 - xhat * m2) * inv_std[:, None]


def upsample_bilinear_numpy(grid, out_h, out_w):
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


def upsample_nearest_numpy(grid, out_h, out_w):
    """Nearest-neighbor upsample; exact block replication for integer ratios."""
    gh, gw = grid.shape
    ys = np.minimum(((np.arange(out_h) + 0.5) * (gh / out_h)).astype(np.int64), gh - 1)
    xs = np.minimum(((np.arange(out_w) + 0.5) * (gw / out_w)).astype(np.int64), gw - 1)
    return grid[np.ix_(ys, xs)]


# ---------------------------------------------------------------------------
# numba implementations (explicit loops; same formulas as above)

if HAVE_NUMBA:

    @njit(cache=True)
    def softmax_rows_numba(x, temperature):
        rows, n = x.shape
        out = np.empty((rows, n))
        for r in range(rows):
            m = x[r, 0]
            for j in range(1, n):
                if x[r, j] > m:
                    m = x[r, j]
            s = 0.0
            for j in range(n):
                v = math.exp((x[r, j] - m) / temperature)
                out[r, j] = v
                s += v
            for j in range(n):
                out[r, j] /= s
        return out

    @njit(cache=True)
    def softmax_rows_grad_numba(y, g, temperature):
        rows, n = y.shape
        out = np.empty((rows, n))
        for r in range(rows):
            dot = 0.0
            for j in range(n):
                dot += g[r, j] * y[r, j]
            for j in range(n):
                out[r, j] = y[r, j] * (g[r, j] - dot) / temperature
        return out

    @njit(cache=True)
    def gelu_numba(x):
        flat = x.ravel()
        out = np.empty(flat.size)
        for i in range(flat.size):
            out[i] = 0.5 * flat[i] * (1.0 + math.erf(flat[i] * _INV_SQRT2))
        return out.reshape(x.shape)

    @njit(cache=True)
    def gelu_grad_numba(x, g):
        xf = x.ravel()
        gf = g.ravel()
        out = np.empty(xf.size)
        for i in range(xf.size):
            cdf = 0.5 * (1.0 + math.erf(xf[i] * _INV_SQRT2))
            pdf = math.exp(-0.5 * xf[i] * xf[i]) * _INV_SQRT2PI
            out[i] = gf[i] * (cdf + xf[i] * pdf)
        return out.reshape(x.shape)

    @njit(cache=True)
    def layernorm_rows_numba(x, eps):
        rows, d = x.shape
        xhat = np.empty((rows, d))
        inv_std = np.empty(rows)
        for r in range(rows):
            mu = 0.0
            for j in range(d):
                mu += x[r, j]
            mu /= d
            var = 0.0
            for j in range(d):
                c = x[r, j] - mu
                var += c * c
            var /= d
            isd = 1.0 / math.sqrt(var + eps)
            inv_std[r] = isd
            for j in range(d):
                xhat[r, j] = (x[r, j] - mu) * isd
        return xhat, inv_std

    @njit(cache=True)
    def layernorm_rows_grad_numba(xhat, inv_std, dxhat):
        rows, d = xhat.shape
        out = np.empty((rows, d))
        for r in range(rows):
            m1 = 0.0
            m2 = 0.0
            for j in range(d):
                m1 += dxhat[r, j]
                m2 += dxhat[r, j] * xhat[r, j]
            m1 /= d
            m2 /= d
            for j in range(d):
                out[r, j] = (dxhat[r, j] - m1 - xhat[r, j] * m2) * inv_std[r]
        return out

    @njit(cache=True)
    def upsample_bilinear_numba(grid, out_h, out_w):
        gh, gw = grid.shape
        out = np.empty((out_h, out_w))
        for r in range(out_h):
            sy = (r + 0.5) * (gh / out_h) - 0.5
            y0 = int(math.floor(sy))
            if y0 < 0:
                y0 = 0
            if y0 > gh - 1:
                y0 = gh - 1
            y1 = min(y0 + 1, gh - 1)
            wy = min(max(sy - y0, 0.0), 1.0)
            for c in range(out_w):
                sx = (c + 0.5) * (gw / out_w) - 0.5
                x0 = int(math.floor(sx))
                if x0 < 0:
                    x0 = 0
                if x0 > gw - 1:
                    x0 = gw - 1
                x1 = min(x0 + 1, gw - 1)
                wx = min(max(sx - x0, 0.0), 1.0)
                top = grid[y0, x0] * (1.0 - wx) + grid[y0, x1] * wx
                bot = grid[y1, x0] * (1.0 - wx) + grid[y1, x1] * wx
                out[r, c] = top * (1.0 - wy) + bot * wy
        return out

    @njit(cache=True)
    def upsample_nearest_numba(grid, out_h, out_w):
        gh, gw = grid.shape
        out = np.empty((out_h, out_w))
        for r in range(out_h):
            ys = min(int((r + 0.5) * (gh / out_h)), gh - 1)
            for c in range(out_w):
                xs = min(int((c + 0.5) * (gw / out_w)), gw - 1)
                out[r, c] = grid[ys, xs]
        return out

else:  # pragma: no cover
    softmax_rows_numba = None
    softmax_rows_grad_numba = None
    gelu_numba = None
    gelu_grad_numba = None
    layernorm_rows_numba = None
    layernorm_rows_grad_numba = None
    upsample_bilinear_numba = None
    upsample_nearest_numba = None


if USE_NUMBA:
    softmax_rows = softmax_rows_numba
    softmax_rows_grad = softmax_rows_grad_numba
    gelu = gelu_numba
    gelu_grad = gelu_grad_numba
    layernorm_rows = layernorm_rows_numba
    layernorm_rows_grad = layernorm_rows_grad_numba
    upsample_bilinear = upsample_bilinear_numba
    upsample_nearest = upsample_nearest_numba
else:
    softmax_rows = softmax_rows_numpy
    softmax_rows_grad = softmax_rows_grad_numpy
    gelu = gelu_numpy
    gelu_grad = gelu_grad_numpy
    layernorm_rows = layernorm_rows_numpy
    layernorm_rows_grad = layernorm_rows_grad_numpy
    upsample_bilinear = upsample_bilinear_numpy
    upsample_nearest = upsample_nearest_numpy


def kernel_pairs():
    """(name, numpy_fn, numba_fn) triples for parity tests and benchmarks."""
    names = [
        "softmax_rows",
        "softmax_rows_grad",
        "gelu",
        "gelu_grad",
        "layernorm_rows",
        "layernorm_rows_grad",
        "upsample_bilinear",
        "upsample_nearest",
    ]
    mod = globals()
    return [(n, mod[n + "_numpy"], mod[n + "_numba"]) for n in names]
