#!/usr/bin/env python3
"""Alternating parent/change pairs of the end-to-end benchmark.

    python3 tools/bench_pairs.py --parent 4f2f366 --pairs attribute-56=10 \\
        --pairs attack-56=10 --pairs faith-16=5 \\
        --description "..." --out BENCH_28.json

Every ``--pairs`` name must be a workload of BENCHMARK.json: any other is
a usage error (exit 2) before anything is extracted or run. The parent
tree is the committed files of ``--parent``, extracted with
``git archive`` into a temporary directory; the change tree is this
checkout. For each workload, seeds 1..n run ``bench_e2e/run.py --trace 0``
once in each tree, in its own directory, for BENCHMARK.json's
``run_seconds``; for an odd seed the parent runs first, for an even one
the change, so neither side always meets the host in the same state.
Every run keeps its workload, side, seed, global order and the last JSON
line it printed.

The output file has the schema of the earlier ``BENCH_*.json`` files:
``description``, ``host`` (from the first run's identity line), ``summary``
and ``runs``. The summary gives, per workload and per end-to-end metric of
``BENCHMARK.json``, the parent and change medians, the change's relative
difference, the interquartile ranges of the parent's and the change's
runs and the pairs in which the change read better, rounded to 4
decimals. It also applies the benchmark's acceptance rules:
``gain_rule_met`` when at least 9 in 10 pairs read better and the change
median is better than the parent's by more than the parent's
interquartile range, and ``within_bound`` when the change median is no
worse than the parent's by more than the metric's ``bound`` (a fraction
of the parent median). The file is rewritten after every run, so a cut
run leaves the pairs it finished. The exit code is 1 when a run failed or
reported ``correct: false``.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HOST_KEYS = ("nproc", "cpu_model", "python", "numpy", "scipy", "blas_threads")


def archive(rev: str, dest: Path) -> Path:
    """Extract the committed files of ``rev`` into ``dest``."""
    data = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                          capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(identity, result) of one ``bench_e2e/run.py --trace 0`` run in ``tree``."""
    proc = subprocess.run(
        [sys.executable, "bench_e2e/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    if not lines or "metrics" not in lines[-1]:
        raise RuntimeError(f"{workload} seed {seed} in {tree} printed no result:\n"
                           f"{proc.stdout}{proc.stderr}")
    identity = next((line["identity"] for line in lines if "identity" in line), {})
    return identity, lines[-1]


def iqr(values: list[float]) -> float:
    """The distance between the quartiles (statistics.quantiles' default
    exclusive method); 0.0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per workload and metric (``{"name", "better", "bound"}`` items of
    BENCHMARK.json's ``end_to_end``): medians, relative difference, each
    side's IQR, the pairs, matched by seed, in which the change read
    strictly better, and the two acceptance rules, judged on unrounded
    figures."""
    summary: dict = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        mine = [run for run in runs if run["workload"] == workload]
        summary[workload] = {}
        for metric in metrics:
            name, higher = metric["name"], metric["better"] == "higher"
            side = {s: {run["seed"]: run["result"]["metrics"][name]["value"]
                        for run in mine if run["side"] == s and name in run["result"]["metrics"]}
                    for s in ("parent", "change")}
            seeds = sorted(set(side["parent"]) & set(side["change"]))
            if not seeds:
                continue
            parent = statistics.median(side["parent"].values())
            change = statistics.median(side["change"].values())
            better = sum((side["change"][s] > side["parent"][s]) if higher
                         else (side["change"][s] < side["parent"][s]) for s in seeds)
            parent_iqr = iqr(list(side["parent"].values()))
            gain = change - parent if higher else parent - change   # > 0: better
            summary[workload][name] = {
                "parent_median": round(parent, 4),
                "change_median": round(change, 4),
                "change_vs_parent": round((change - parent) / parent, 4),
                "parent_iqr": round(parent_iqr, 4),
                "change_better_pairs": f"{better}/{len(seeds)}",
                "change_iqr": round(iqr(list(side["change"].values())), 4),
                "gain_rule_met": 10 * better >= 9 * len(seeds) and gain > parent_iqr,
                "within_bound": -gain <= metric["bound"] * abs(parent),
            }
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="the parent commit")
    ap.add_argument("--pairs", action="append", required=True, metavar="WORKLOAD=N",
                    help="run seeds 1..N of WORKLOAD (repeatable)")
    ap.add_argument("--description", required=True)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics, seconds = bench["end_to_end"], bench["run_seconds"]
    known = [w["name"] for w in bench["workloads"]]
    plan = []
    for item in args.pairs:
        workload, _, n = item.partition("=")
        if not n.isdigit() or int(n) < 1:
            ap.error(f"--pairs wants WORKLOAD=N with N >= 1, got {item!r}")
        if workload not in known:
            ap.error(f"unknown workload {workload!r} in --pairs; BENCHMARK.json "
                     f"declares {', '.join(known)}")
        plan.append((workload, int(n)))

    doc = {"description": args.description, "host": {}, "summary": {}, "runs": []}
    ok = True
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {"parent": archive(args.parent, Path(tmp) / "parent"), "change": ROOT}
        for workload, n in plan:
            for seed in range(1, n + 1):
                sides = ("parent", "change") if seed % 2 else ("change", "parent")
                for side in sides:
                    identity, result = run_once(trees[side], workload, seed, seconds)
                    if not doc["host"]:
                        doc["host"] = {k: identity.get(k) for k in HOST_KEYS}
                    ok &= bool(result.get("correct")) and not result.get("failed")
                    doc["runs"].append({"workload": workload, "side": side, "seed": seed,
                                        "order": len(doc["runs"]), "result": result})
                    doc["summary"] = summarize(doc["runs"], metrics)
                    args.out.write_text(json.dumps(doc, indent=1) + "\n")
                    print(f"{workload} seed {seed} {side}: "
                          + " ".join(f"{k}={v['value']:.4g}"
                                     for k, v in result["metrics"].items()), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
