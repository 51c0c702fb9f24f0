"""`scripts/bench_pairs.py` `compare()` on synthetic runs: no benchmark and
no subprocess runs here, only the arithmetic of the comparison."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def run(metrics, failed=0, digest="d0"):
    return {"metrics": {k: {"value": v} for k, v in metrics.items()},
            "failed": failed, "attempted": 10, "digest": digest}


def pairs(parent, change, **extra):
    return [{"parent": run(dict(wall_s=p, **extra)), "change": run(dict(wall_s=c, **extra))}
            for p, c in zip(parent, change)]


def test_the_pair_ratios_and_the_medians_are_compared_separately():
    # per-pair ratios 0.5, 1.5, 0.5; both medians are 2.0
    got = bench_pairs.compare(pairs([1.0, 2.0, 4.0], [0.5, 3.0, 2.0]))["wall_s"]
    assert got["parent"] == {"values": [1.0, 2.0, 4.0], "median": 2.0, "q1": 1.5, "q3": 3.0}
    assert got["change"]["median"] == 2.0
    assert got["parent_iqr"] == 1.5
    assert got["ratio"] == 1.0
    assert got["pair_ratio_median"] == 0.5
    assert got["change_lower_in_pairs"] == "2/3"


def test_a_parent_reading_zero_leaves_the_ratios_unset():
    got = bench_pairs.compare(pairs([0.0, 0.0], [1.0, 0.0]))["wall_s"]
    assert got["ratio"] is None and got["pair_ratio_median"] is None
    got = bench_pairs.compare(pairs([1.0, 0.0], [1.0, 0.0]))["wall_s"]
    assert got["ratio"] == 1.0 and got["pair_ratio_median"] is None
    assert got["change_lower_in_pairs"] == "0/2"


def test_every_metric_and_both_sides_run_records_are_summarised():
    runs = pairs([2.0, 4.0], [1.0, 1.0], peak_rss_mb=30.0)
    runs[1]["change"]["failed"] = 1
    runs[1]["change"]["digest"] = "d1"
    got = bench_pairs.compare(runs)
    assert got["peak_rss_mb"]["pair_ratio_median"] == 1.0
    assert got["wall_s"]["pair_ratio_median"] == 0.375
    assert got["failed"] == {"parent": [0], "change": [0, 1]}
    assert got["digest"] == {"parent": ["d0"], "change": ["d0", "d1"]}
    assert got["attempted"] == {"parent": [10], "change": [10]}
