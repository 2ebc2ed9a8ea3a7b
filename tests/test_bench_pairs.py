import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [{"name": "images_per_s", "better": "higher", "bound": 0.25},
           {"name": "peak_rss_mb", "better": "lower", "bound": 0.05}]


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
    # 15.5; change 11, 12, 13, 17: median 12.5, quartiles 11.25 and 16; 3.8%
    # worse, inside the 25% bound
    assert summary["w"]["images_per_s"] == {
        "parent_median": 13.0, "change_median": 12.5, "change_vs_parent": -0.0385,
        "parent_iqr": 5.0, "change_better_pairs": "2/4", "change_iqr": 4.75,
        "gain_rule_met": False, "within_bound": True}
    # parent RSS 50, 50.5, 51, 52: median 50.75, quartiles 50.125 and 51.75;
    # change 48, 49, 48.5, 52.5: median 48.75, quartiles 48.125 and 51.625;
    # lower is better, in seeds 1-3: 2.0 better is over the parent's IQR,
    # but 3/4 pairs is under 9/10
    assert summary["w"]["peak_rss_mb"] == {
        "parent_median": 50.75, "change_median": 48.75, "change_vs_parent": -0.0394,
        "parent_iqr": 1.625, "change_better_pairs": "3/4", "change_iqr": 3.5,
        "gain_rule_met": False, "within_bound": True}
    # one pair: no spread, and a tie is not better
    assert summary["v"]["images_per_s"]["parent_iqr"] == 0.0
    assert summary["v"]["images_per_s"]["change_better_pairs"] == "1/1"
    assert summary["v"]["peak_rss_mb"]["change_better_pairs"] == "0/1"
    assert summary["v"]["peak_rss_mb"]["change_vs_parent"] == 0.0


def _pairs(parent, change):
    """Runs of workload "w" in which seed i + 1 reads parent[i] and change[i]
    for both metrics."""
    return [_run("w", side, i + 1, v, v) for i, pair in enumerate(zip(parent, change))
            for side, v in zip(("parent", "change"), pair)]


def test_the_gain_rule_wants_nine_in_ten_pairs_and_the_medians_apart_by_the_parent_iqr():
    parent = [10.0, 10.2, 10.4, 10.6, 10.8, 11.0, 11.2, 11.4, 11.6, 11.8]
    # images/s: parent median 10.9, quartiles 10.35 and 11.45; 9/10 pairs
    # better, but a median of 11.3 is 0.4 over the parent's, under its IQR
    up = [v + 0.6 for v in parent[:9]] + [parent[9] - 1.0]
    met = bench_pairs.summarize(_pairs(parent, up), METRICS)["w"]
    assert met["images_per_s"]["parent_iqr"] == 1.1
    assert met["images_per_s"]["change_better_pairs"] == "9/10"
    assert met["images_per_s"]["gain_rule_met"] is False
    # a median of 12.3, 1.4 over
    far = [v + 1.6 for v in parent[:9]] + [parent[9] - 1.0]
    met = bench_pairs.summarize(_pairs(parent, far), METRICS)["w"]
    assert met["images_per_s"]["gain_rule_met"] is True
    assert met["peak_rss_mb"]["gain_rule_met"] is False   # lower is better there
    assert met["peak_rss_mb"]["change_better_pairs"] == "1/10"
    eight = [v + 1.6 for v in parent[:8]] + [v - 1.0 for v in parent[8:]]
    met = bench_pairs.summarize(_pairs(parent, eight), METRICS)["w"]
    assert met["images_per_s"]["change_better_pairs"] == "8/10"
    assert met["images_per_s"]["gain_rule_met"] is False


@pytest.mark.parametrize("factor,images_ok,rss_ok", [
    (1.0, True, True), (0.75, True, True), (0.7, False, True),
    (1.05, True, True), (1.06, True, False)])
def test_within_bound_is_the_change_median_no_worse_than_the_bound(factor, images_ok, rss_ok):
    # images/s (higher is better) may fall by 25%, peak RSS (lower) rise by 5%
    parent = [16.0, 20.0, 24.0]
    met = bench_pairs.summarize(_pairs(parent, [v * factor for v in parent]), METRICS)["w"]
    assert met["images_per_s"]["within_bound"] is images_ok
    assert met["peak_rss_mb"]["within_bound"] is rss_ok


def test_committed_pair_summaries_reproduce_from_their_runs():
    # every BENCH_*.json written by this tool: its summary, key for key,
    # from its runs and BENCHMARK.json's metrics, the keys added since too
    metrics = json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    checked = 0
    for path in sorted(bench_pairs.ROOT.glob("BENCH_*.json")):
        doc = json.loads(path.read_text())
        if not doc["runs"] or "side" not in doc["runs"][0]:
            continue   # written before this tool, in another schema
        summary = bench_pairs.summarize(doc["runs"], metrics)
        assert list(summary) == list(doc["summary"]), path.name
        for workload, entries in doc["summary"].items():
            for name, entry in entries.items():
                assert {k: summary[workload][name][k] for k in entry} == entry, (
                    path.name, workload, name)
        checked += 1
    assert checked >= 3


def test_a_pair_needs_both_sides():
    runs = [_run("w", "parent", 1, 10.0, 50.0), _run("w", "parent", 2, 11.0, 50.0),
            _run("w", "change", 2, 12.0, 49.0)]
    summary = bench_pairs.summarize(runs, METRICS)
    assert summary["w"]["images_per_s"]["change_better_pairs"] == "1/1"
    assert summary["w"]["images_per_s"]["parent_median"] == pytest.approx(10.5)
    assert bench_pairs.summarize(runs[:2], METRICS) == {"w": {}}


def test_an_unknown_workload_is_a_usage_error_before_any_run(monkeypatch, tmp_path, capsys):
    def never(*args):
        raise AssertionError("no archive or run for a plan with an unknown workload")

    monkeypatch.setattr(bench_pairs, "archive", never)
    monkeypatch.setattr(bench_pairs, "run_once", never)
    known = [w["name"] for w in
             json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text())["workloads"]]
    out = tmp_path / "pairs.json"
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", "HEAD", "--pairs", f"{known[0]}=1",
                          "--pairs", "no-such-workload=2", "--description", "x",
                          "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unknown workload 'no-such-workload'" in err
    assert ", ".join(known) in err
    assert not out.exists()
