"""Host-speed calibration for the end-to-end timings.

The shared 2-vCPU host the benchmark was tuned on runs the same code at
two speeds about 1.5x apart, switching every few seconds, with CPU time
equal to wall time: co-tenants slow the core, the process is not
descheduled. So ``calibrate()`` times a fixed set of numpy-only kernels,
and run.py scales each wall time by ``REF_S`` over the calibration taken
around it. The kernels never touch bicam, so no change to the program
moves them, and a faster program still reads faster by the same factor.

This module imports only numpy so that a fresh set-up process can
calibrate itself after timing its imports.
"""

from __future__ import annotations

import math
import time

import numpy as np

# a round value among the per-run medians of calibrate() (2.1 to 3.0 ms) on
# the 2-vCPU "Intel(R) Xeon(R) Processor" host (L2 2 MiB per core, L3
# 105 MiB) the benchmark was tuned on; it only sets the scale of the times
REF_S = 0.003

_RNG = np.random.default_rng(12345)
_X56 = _RNG.standard_normal((196, 32))
_W56 = _RNG.standard_normal((32, 64)) * 0.1
_X16 = _RNG.standard_normal((17, 16))
_W16 = _RNG.standard_normal((16, 32)) * 0.1
_BIG = _RNG.standard_normal(500_000)  # 4 MB, twice the L2 of one core


def _token_mlp(x0, w, steps):
    x = x0
    for _ in range(steps):
        h = np.tanh(x @ w)
        x = h @ w.T
        x = x - x.mean(axis=1, keepdims=True)
        e = np.exp(x - x.max(axis=1, keepdims=True))
        x = x0 + 0.01 * e / e.sum(axis=1, keepdims=True)


def _interpreter(steps):
    d = {}
    for i in range(steps):
        d[i % 97] = d.get(i % 97, 0) + i * 3 // 7


def _stream():
    (_BIG * 1.0001).sum()


_PARTS = (lambda: _token_mlp(_X56, _W56, 20),
          lambda: _token_mlp(_X16, _W16, 100),
          lambda: _interpreter(12_000),
          _stream)


def calibrate() -> float:
    """Geometric mean of the seconds four fixed kernels take, about 3 ms each.

    The kernels cover the kinds of code the workloads run: numpy on the 56
    model's token shapes, numpy on the 16 model's (call overhead), plain
    Python, and a pass over a buffer larger than L2.
    """
    logs = 0.0
    for part in _PARTS:
        t0 = time.perf_counter()
        part()
        logs += math.log(time.perf_counter() - t0)
    return math.exp(logs / len(_PARTS))
