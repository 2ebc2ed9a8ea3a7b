"""Spans and counters recorded from outside the program, for the traced run.

Every wrapper the benchmark installs lives in this file. ``traced(tracer)``
replaces public functions of the bicam modules with timing wrappers and
puts every original back on exit, so an untraced run in the same process
calls the program's own functions again.

A function that ``bicam.cli`` imported by name (``bicam``, ``run_attack``,
``faithfulness``, ``random_order_faithfulness``, ``pnr``) is patched both in
its defining module and in ``bicam.cli``: the CLI calls its own binding,
and ``random_order_faithfulness`` calls ``evaluation.faithfulness``.

Spans nest per thread. A span's self time is its duration minus the time
of the spans it directly contains on the same thread; per-layer self time
is the sum over that layer's spans. Aggregates are updated under one lock,
because ``attack --jobs 2`` runs items on pool threads, and bicam's own
``counters`` are thread-local (the driving thread sees none of the pool
threads' passes).
"""

from __future__ import annotations

import contextlib
import statistics
import threading
import time
import weakref
from collections import Counter, defaultdict

from bicam import (attacks, attribution, autodiff, cli, detection, evaluation,
                   kernels, netpbm, vit, weightfile)

MB = 1e6

KERNELS = ("softmax_rows", "softmax_rows_grad", "layernorm_rows",
           "layernorm_rows_grad", "gelu", "gelu_grad", "upsample_bilinear")

# layers whose self time is reported per image; "cli.pool" (the time the
# driving thread spends inside _map_items) is waiting, not work, and is not
SELF_TIME_LAYERS = ("attribution", "attacks", "evaluation", "cli")


class Tracer:
    """Span durations, self time per layer, and counts, shared by threads."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self._forward_graphs: weakref.WeakSet = weakref.WeakSet()

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        stack = self._local.__dict__.setdefault("stack", [])
        frame = [0.0]  # time covered by direct children
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            stack.pop()
            if stack:
                stack[-1][0] += dt
            with self._lock:
                self.durations[name].append(dt)
                self.self_time[layer] += dt - frame[0]

    def add(self, **counts) -> None:
        with self._lock:
            self.counts.update(counts)

    def forward_done(self, graph) -> None:
        with self._lock:
            self.counts["forward"] += 1
            self.counts["tape_nodes"] += len(graph.nodes)
            self._forward_graphs.add(graph)

    def backward_done(self, graph) -> None:
        grads = graph.gradients.values()
        with self._lock:
            self.counts["backward"] += 1
            self.counts["grad_nodes"] += len(graph.gradients)
            self.counts["grad_bytes"] += sum(g.nbytes for g in grads)
            if graph in self._forward_graphs:
                self._forward_graphs.discard(graph)
                self.counts["forward_with_backward"] += 1


def _nbytes(value) -> int:
    if isinstance(value, tuple):
        return sum(_nbytes(v) for v in value)
    return getattr(value, "nbytes", 0)


def _timed(name, layer):
    def make(tracer, fn):
        def wrapper(*args, **kwargs):
            with tracer.span(name, layer):
                return fn(*args, **kwargs)
        return wrapper
    return make


def _kernel(name):
    def make(tracer, fn):
        def wrapper(*args):
            with tracer.span(f"kernels.{name}", "kernels"):
                out = fn(*args)
            tracer.add(**{f"kernels.{name}.calls": 1,
                          f"kernels.{name}.bytes": _nbytes(args) + _nbytes(out)})
            return out
        return wrapper
    return make


def _forward(tracer, fn):
    def forward(self, *args, **kwargs):
        with tracer.span("vit.forward", "vit"):
            result = fn(self, *args, **kwargs)
        tracer.forward_done(result.graph)
        return result
    return forward


def _backward(tracer, fn):
    def backward(self, root):
        with tracer.span("autodiff.backward", "autodiff"):
            grads = fn(self, root)
        tracer.backward_done(self)
        return grads
    return backward


def _map_items(tracer, fn):
    def map_items(names, item_fn, jobs, skip_errors):
        def item(name):
            with tracer.span("cli.item", "cli"):
                return item_fn(name)
        with tracer.span("cli.pool", "cli.pool"):
            return fn(names, item, jobs, skip_errors)
    return map_items


# (owners, attribute, wrapper factory); the first owner defines the function
PATCHES = [
    ((weightfile,), "load_model", _timed("weightfile.load", "weightfile")),
    ((netpbm,), "read_ppm", _timed("netpbm.read", "netpbm")),
    ((netpbm,), "write_ppm", _timed("netpbm.write", "netpbm")),
    ((netpbm,), "write_rendered", _timed("netpbm.write", "netpbm")),
    ((vit.VisionTransformer,), "forward", _forward),
    ((autodiff.Graph,), "backward", _backward),
    ((attribution, cli), "bicam", _timed("attribution.bicam", "attribution")),
    ((attacks, cli), "run_attack", _timed("attacks.run_attack", "attacks")),
    ((evaluation, cli), "faithfulness",
     _timed("evaluation.faithfulness", "evaluation")),
    ((evaluation, cli), "random_order_faithfulness",
     _timed("evaluation.random_order_faithfulness", "evaluation")),
    ((detection, cli), "pnr", _timed("detection.pnr", "detection")),
    ((cli,), "_map_items", _map_items),
] + [((kernels,), name, _kernel(name)) for name in KERNELS]


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    saved = []
    try:
        for owners, attr, make in PATCHES:
            original = owners[0].__dict__[attr]
            wrapper = make(tracer, original)
            for owner in owners:
                if owner.__dict__[attr] is not original:
                    raise RuntimeError(f"{owner.__name__}.{attr} is not the "
                                       f"function {owners[0].__name__} defines")
                saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def originals_restored() -> bool:
    """True when every patched name holds the function its module defines."""
    for owners, attr, _ in PATCHES:
        for owner in owners:
            fn = owner.__dict__[attr]
            if getattr(fn, "__module__", None) == __name__:
                return False
    return True


def _median_ms(values) -> float:
    return statistics.median(values) * 1000.0 if values else 0.0


def layer_metrics(tracer: Tracer, images: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced pass over ``images`` images, with units."""
    d, c = tracer.durations, tracer.counts
    forwards, backwards = c["forward"], c["backward"]

    def per(n, count):
        return n / count if count else 0.0

    out = {
        "weightfile.load_ms": (_median_ms(d["weightfile.load"]), "ms"),
        "netpbm.read_ms": (_median_ms(d["netpbm.read"]), "ms"),
        "netpbm.write_ms": (_median_ms(d["netpbm.write"]), "ms"),
        "vit.forward_ms": (_median_ms(d["vit.forward"]), "ms"),
        "vit.forwards_per_image": (forwards / images, "count"),
        "vit.backwards_per_image": (backwards / images, "count"),
        "vit.tape_nodes_per_forward": (per(c["tape_nodes"], forwards), "count"),
        "vit.tape_unused_frac":
            (1.0 - per(c["forward_with_backward"], forwards), "frac"),
        "autodiff.backward_ms": (_median_ms(d["autodiff.backward"]), "ms"),
        "autodiff.grad_mb_per_backward": (per(c["grad_bytes"] / MB, backwards), "MB"),
        "autodiff.grad_nodes_per_backward": (per(c["grad_nodes"], backwards), "count"),
    }
    for name in KERNELS:
        key = f"kernels.{name}"
        out[f"{key}.ms_per_image"] = (sum(d[key]) * 1000.0 / images, "ms/image")
        out[f"{key}.calls_per_image"] = (c[f"{key}.calls"] / images, "count")
        out[f"{key}.mb_computed_per_image"] = (c[f"{key}.bytes"] / MB / images,
                                               "MB/image")
    for layer in SELF_TIME_LAYERS:
        name = "cli.self_ms_per_image" if layer == "cli" else f"{layer}.self_ms"
        out[name] = (tracer.self_time[layer] * 1000.0 / images, "ms/image")
    out["detection.pnr_ms"] = (_median_ms(d["detection.pnr"]), "ms")
    out["cli.concurrency"] = (per(sum(d["cli.item"]), sum(d["cli.pool"])), "ratio")
    return out
