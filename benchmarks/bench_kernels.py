#!/usr/bin/env python3
"""Micro-benchmark of the attention hot spot at the 56x56 model's shape.

Times, in one process, at B=1, H=4, N=197 tokens, d_h=8 (the
[B, H, N, N] score maps of a 56x56 image with 4x4 patches):

* each softmax kernel out of place against in place (``out`` given). Both
  first copy their input into one reused buffer, so they differ only in
  where the result goes;
* one forward and backward of the fused ``autodiff.attention`` node against
  the five-node chain it replaced (transpose, matmul, scale, softmax,
  matmul), each on a fresh graph with a weighted-sum root.

End-to-end timings come from bench_e2e/run.py, which drives the real CLI.

Run: PYTHONPATH=src python benchmarks/bench_kernels.py [--iters 200]
"""

import argparse
import time

import numpy as np

from bicam import kernels
from bicam.autodiff import Graph, attention

B, H, N, DH = 1, 4, 197, 8


def bench(fn, iters, warmup=3):
    """Median milliseconds per call of ``fn()``."""
    for _ in range(warmup):
        fn()
    times = []
    for _ in range(iters):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times)) * 1000.0


def chain_step(q0, k0, v0, w, scale):
    g = Graph()
    q, k, v = g.leaf(q0), g.leaf(k0), g.leaf(v0)
    scores = q.matmul(k.transpose((0, 1, 3, 2))).scale(scale)
    g.backward(scores.softmax(1.0).matmul(v).mul(w).sum())


def fused_step(q0, k0, v0, w, scale):
    g = Graph()
    q, k, v = g.leaf(q0), g.leaf(k0), g.leaf(v0)
    g.backward(attention(q, k, v, scale)[0].mul(w).sum())


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--iters", type=int, default=200)
    iters = ap.parse_args().iters

    rng = np.random.default_rng(0)
    x = rng.standard_normal((B * H * N, N))
    y = kernels.softmax_rows(x, 1.0)
    g = rng.standard_normal(x.shape)
    buf = np.empty_like(x)
    q0, k0, v0, w = (rng.standard_normal((B, H, N, DH)) for _ in range(4))
    scale = 1.0 / np.sqrt(DH)

    def fresh(src):  # the kernel's input, copied into the reused buffer
        np.copyto(buf, src)
        return buf

    rows = [
        ("softmax_rows", lambda: kernels.softmax_rows(fresh(x), 1.0),
         lambda: kernels.softmax_rows(fresh(x), 1.0, buf)),
        ("softmax_rows_grad", lambda: kernels.softmax_rows_grad(y, fresh(g), 1.0),
         lambda: kernels.softmax_rows_grad(y, fresh(g), 1.0, buf)),
        ("attention fwd+bwd", lambda: chain_step(q0, k0, v0, w, scale),
         lambda: fused_step(q0, k0, v0, w, scale)),
    ]
    print(f"B={B} H={H} N={N} d_h={DH}, median of {iters} calls")
    print(f"{'case':<20}{'before ms':>11}{'after ms':>10}{'speedup':>9}")
    print("-" * 50)
    for name, before, after in rows:
        t_before, t_after = bench(before, iters), bench(after, iters)
        print(f"{name:<20}{t_before:>11.3f}{t_after:>10.3f}{t_before / t_after:>8.2f}x")
    print("before = out of place (softmax kernels) / five-node chain (attention);"
          " after = in place / fused node")


if __name__ == "__main__":
    main()
