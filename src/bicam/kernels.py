"""Hot numeric kernels on plain float64 ndarrays, in numpy.

Everything here is free of graph bookkeeping; the model's stages and their
backwards and the attribution code call these names. Matrix products are
deliberately absent: BLAS already owns those. Attention runs its softmax
and its backward inline (see ``autodiff.attention_arrays``), so
``softmax_rows_grad`` has no caller in the program; it stays because the
benchmark's tracer (``bench_e2e/tracing.py``) wraps it by name.

The layer norm gradient works in place: it overwrites its ``dxhat`` input
with the input gradient and returns it. The softmax kernels allocate their
result and reuse it for their temporaries. ``gelu_grad(x)`` returns
gelu(x) and its derivative, made from one erf: a taped block's forward
calls it in place of ``gelu``, which serves the tape-free forwards, and
keeps the derivative, which its backward multiplies by the output
gradient.

GELU needs scipy's ``erf`` ufunc alone, and ``import scipy.special`` costs
most of the CLI's start-up (its package init loads scipy's array-API layer,
``numpy.f2py`` and ``numpy.testing``). So ``_load_erf`` loads the compiled
module that holds the ufunc, ``scipy/special/_special_ufuncs``, by file
path under its dotted name, and registers it in ``sys.modules``: a later
``import scipy.special`` reuses that module, so ``scipy.special.erf`` is the
very ufunc GELU calls. Where that file is missing or has no ``erf`` (scipy
releases before the module existed), it falls back to
``from scipy.special import erf``.
"""

import importlib.machinery
import importlib.util
import math
import os
import sys

import numpy as np

_ERF_MODULE = "scipy.special._special_ufuncs"


def _load_erf(special_dir):
    """scipy's erf ufunc, from the ``_special_ufuncs`` extension file in
    ``special_dir`` if it is there and not loaded yet, else from
    ``scipy.special``."""
    module = sys.modules.get(_ERF_MODULE)
    if module is None:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(special_dir, "_special_ufuncs" + suffix)
            if os.path.isfile(path):
                spec = importlib.util.spec_from_file_location(_ERF_MODULE, path)
                module = importlib.util.module_from_spec(spec)
                sys.modules[_ERF_MODULE] = module
                spec.loader.exec_module(module)
                break
    erf = getattr(module, "erf", None)
    if erf is None:
        from scipy.special import erf
    return erf


def _scipy_special_dir():
    """Where scipy.special's files are, found without running scipy's
    ``__init__``; "" when scipy is not installed."""
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        return ""
    return os.path.join(spec.submodule_search_locations[0], "special")


_erf = _load_erf(_scipy_special_dir())

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


def gelu_grad(x):
    """gelu(x) and its derivative cdf(x) + x * pdf(x), from one erf:
    (gelu(x), gelu'(x)), in three arrays.

    gelu(x) is (0.5 * x) * (1 + erf(x * c1)) and gelu'(x) the steps of
    ``0.5 * (1 + erf(x * c1)) + x * (exp(-0.5 * x * x) * c2)`` (c1 =
    1/sqrt(2), c2 = 1/sqrt(2 pi)), each in that order and in place; a
    product or sum with its operands swapped gives the same bits, so the
    first is ``gelu(x)`` bit for bit, and an output gradient times the
    second is the input gradient.
    """
    cdf = np.multiply(x, _INV_SQRT2)
    _erf(cdf, out=cdf)
    cdf += 1.0
    y = np.multiply(x, 0.5)
    y *= cdf
    cdf *= 0.5
    pdf = np.multiply(x, -0.5)
    pdf *= x
    np.exp(pdf, out=pdf)
    pdf *= _INV_SQRT2PI
    pdf *= x
    cdf += pdf
    return y, cdf


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


def layernorm_rows_grad(xhat, inv_std, dxhat):
    """Backward of row standardization, in place: dxhat, the grad wrt xhat,
    is overwritten with the grad wrt the input and returned."""
    d = xhat.shape[1]
    m1 = np.add.reduce(dxhat, axis=1, keepdims=True) / d
    tmp = np.multiply(dxhat, xhat)
    m2 = np.add.reduce(tmp, axis=1, keepdims=True) / d
    dxhat -= m1   # (dxhat - m1 - xhat * m2) * inv_std, in two arrays
    dxhat -= np.multiply(xhat, m2, out=tmp)
    dxhat *= inv_std[:, None]
    return dxhat


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
