#!/usr/bin/env python3
"""Benchmark the numba kernels against their pure-numpy fallbacks.

Micro-benchmarks run both implementations in one process on shapes typical
of the instrumented forward pass (rows = batch*heads*tokens). End-to-end
timings come from bench_e2e/run.py, which drives the real CLI.

Run: python benchmarks/bench_kernels.py [--iters 200]
"""

import argparse
import time

import numpy as np

from bicam import kernels


def bench(fn, args, iters, warmup=3):
    for _ in range(warmup):
        fn(*args)
    t0 = time.perf_counter()
    for _ in range(iters):
        fn(*args)
    return (time.perf_counter() - t0) / iters * 1000.0


def micro(iters):
    rng = np.random.default_rng(0)
    rows, n, d = 4 * 197, 197, 64          # heads*tokens rows at a 14x14 grid
    x = rng.standard_normal((rows, n))
    y = kernels.softmax_rows_numpy(x, 2.0)
    g = rng.standard_normal((rows, n))
    xd = rng.standard_normal((rows, d))
    gd = rng.standard_normal((rows, d))
    xhat, inv = kernels.layernorm_rows_numpy(xd, 1e-6)
    grid = rng.standard_normal((14, 14))

    cases = {
        "softmax_rows": (x, 2.0),
        "softmax_rows_grad": (y, g, 2.0),
        "gelu": (xd,),
        "gelu_grad": (xd, gd),
        "layernorm_rows": (xd, 1e-6),
        "layernorm_rows_grad": (xhat, inv, gd),
        "upsample_bilinear": (grid, 224, 224),
        "upsample_nearest": (grid, 224, 224),
    }

    print(f"{'kernel':<22}{'numpy ms':>10}{'numba ms':>10}{'speedup':>9}")
    print("-" * 51)
    for name, np_fn, nb_fn in kernels.kernel_pairs():
        args = cases[name]
        t_np = bench(np_fn, args, iters)
        if nb_fn is None:
            print(f"{name:<22}{t_np:>10.3f}{'n/a':>10}{'':>9}")
            continue
        t_nb = bench(nb_fn, args, iters)
        print(f"{name:<22}{t_np:>10.3f}{t_nb:>10.3f}{t_np / t_nb:>8.1f}x")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--iters", type=int, default=200)
    args = ap.parse_args()
    if not kernels.HAVE_NUMBA:
        print("numba not importable; only the numpy fallback will be timed")
    micro(args.iters)


if __name__ == "__main__":
    main()
