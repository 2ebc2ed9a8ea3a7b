import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [{"name": "images_per_s", "better": "higher"},
           {"name": "peak_rss_mb", "better": "lower"}]


def _run(workload, side, seed, images_per_s, peak_rss_mb):
    return {"workload": workload, "side": side, "seed": seed, "order": 0,
            "result": {"correct": True, "failed": 0, "metrics": {
                "images_per_s": {"value": images_per_s, "unit": "1/s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}}}


def test_summary_of_synthetic_pairs():
    runs = [
        _run("w", "parent", 1, 10.0, 50.0), _run("w", "change", 1, 11.0, 48.0),
        _run("w", "change", 2, 12.0, 49.0), _run("w", "parent", 2, 12.0, 50.5),
        _run("w", "parent", 3, 14.0, 51.0), _run("w", "change", 3, 13.0, 48.5),
        _run("w", "parent", 4, 16.0, 52.0), _run("w", "change", 4, 17.0, 52.5),
        _run("v", "parent", 1, 2.0, 70.0), _run("v", "change", 1, 3.0, 70.0),
    ]
    summary = bench_pairs.summarize(runs, METRICS)
    assert list(summary) == ["w", "v"]
    # parent images/s 10, 12, 14, 16: median 13, exclusive quartiles 10.5 and
    # 15.5; change 11, 12, 13, 17: median 12.5
    assert summary["w"]["images_per_s"] == {
        "parent_median": 13.0, "change_median": 12.5, "change_vs_parent": -0.0385,
        "parent_iqr": 5.0, "change_better_pairs": "2/4"}
    # parent RSS 50, 50.5, 51, 52: median 50.75, quartiles 50.125 and 51.75;
    # change 48, 49, 48.5, 52.5: median 48.75; lower is better, in seeds 1-3
    assert summary["w"]["peak_rss_mb"] == {
        "parent_median": 50.75, "change_median": 48.75, "change_vs_parent": -0.0394,
        "parent_iqr": 1.625, "change_better_pairs": "3/4"}
    # one pair: no spread, and a tie is not better
    assert summary["v"]["images_per_s"]["parent_iqr"] == 0.0
    assert summary["v"]["images_per_s"]["change_better_pairs"] == "1/1"
    assert summary["v"]["peak_rss_mb"]["change_better_pairs"] == "0/1"
    assert summary["v"]["peak_rss_mb"]["change_vs_parent"] == 0.0


def test_a_pair_needs_both_sides():
    runs = [_run("w", "parent", 1, 10.0, 50.0), _run("w", "parent", 2, 11.0, 50.0),
            _run("w", "change", 2, 12.0, 49.0)]
    summary = bench_pairs.summarize(runs, METRICS)
    assert summary["w"]["images_per_s"]["change_better_pairs"] == "1/1"
    assert summary["w"]["images_per_s"]["parent_median"] == pytest.approx(10.5)
    assert bench_pairs.summarize(runs[:2], METRICS) == {"w": {}}
