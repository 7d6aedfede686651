"""Tier-1 gate: the bench-regression checker works and the committed
``BENCH_*.json`` baselines stay loadable and self-consistent.

``benchmarks/check_bench_trend.py`` diffs fresh bench results against
the committed baselines and fails on >N% movement of deterministic
perf leaves (simulated time, goodput) in the bad direction, while
ignoring wall-clock-noisy leaves by default.
"""

import json

from tests.test_metrics_lint import _load


def test_committed_baselines_self_compare_clean():
    trend = _load("check_bench_trend")
    paths = trend.committed_baselines()
    assert paths, "no committed BENCH_*.json baselines"
    for path in paths:
        with open(path) as fh:
            doc = json.load(fh)
        assert trend.compare(doc, doc) == []
    assert trend.main([]) == 0
    # a fresh document against a named baseline
    assert trend.main([paths[0], "--baseline", paths[0]]) == 0


def test_classification_directions():
    trend = _load("check_bench_trend")
    assert trend.classify("baseline.elapsed_us") == "lower"
    assert trend.classify("curves.recovery_us") == "lower"
    assert trend.classify("ash_abort.virtual_ns") == "lower"
    assert trend.classify("baseline.goodput_mbps") == "higher"
    # host-clock noise is skipped unless explicitly included
    assert trend.classify("w.interp_per_sec") == "wallclock"
    assert trend.classify("cfg.wall_s") == "wallclock"
    # engine events are an exact count; what is derived from them or
    # merely contains the word is not
    assert trend.classify("cells[3].fast.events") == "exact"
    assert trend.classify("cells[3].fast.events_per_sim_s") is None
    assert trend.classify("cells[3].fast.events_per_sec") == "wallclock"
    # non-perf leaves are nobody's trend business
    assert trend.classify("seed") is None
    assert trend.classify("retransmits") is None


def test_latency_regression_detected():
    trend = _load("check_bench_trend")
    base = {"run": {"elapsed_us": 100.0, "goodput_mbps": 50.0}}
    ok = {"run": {"elapsed_us": 105.0, "goodput_mbps": 48.0}}
    bad = {"run": {"elapsed_us": 120.0, "goodput_mbps": 50.0}}
    assert trend.compare(base, ok, threshold=0.10) == []
    errors = trend.compare(base, bad, threshold=0.10)
    assert len(errors) == 1
    assert "elapsed_us" in errors[0] and "rose 20.0%" in errors[0]


def test_goodput_regression_detected_improvement_ignored():
    trend = _load("check_bench_trend")
    base = {"run": {"goodput_mbps": 50.0}}
    assert trend.compare(base, {"run": {"goodput_mbps": 40.0}})
    # faster is never a failure
    assert trend.compare(base, {"run": {"goodput_mbps": 80.0}}) == []
    assert trend.compare({"run": {"elapsed_us": 100.0}},
                         {"run": {"elapsed_us": 50.0}}) == []


def test_event_count_regression_detected_at_any_size():
    trend = _load("check_bench_trend")
    base = {"cell": {"fast": {"events": 1000, "events_per_sim_s": 5.0}}}
    # one event more is a regression: the count is exact, no threshold
    errors = trend.compare(base, {"cell": {"fast": {
        "events": 1001, "events_per_sim_s": 5.0}}}, threshold=0.10)
    assert len(errors) == 1
    assert "cell.fast.events" in errors[0] and "exact count" in errors[0]
    # fewer is never a failure, however many fewer
    assert trend.compare(base, {"cell": {"fast": {
        "events": 600, "events_per_sim_s": 9.0}}}) == []
    # and a leaf that appears or vanishes is schema drift like any other
    assert trend.compare(base, {"cell": {"fast": {
        "events_per_sim_s": 5.0}}})


def test_wallclock_leaves_skipped_by_default():
    trend = _load("check_bench_trend")
    base = {"w": {"interp_per_sec": 1000.0, "wall_s": 1.0}}
    slow = {"w": {"interp_per_sec": 100.0, "wall_s": 10.0}}
    assert trend.compare(base, slow) == []
    assert trend.compare(base, slow, include_wallclock=True)


def test_schema_drift_is_fatal_both_ways():
    trend = _load("check_bench_trend")
    base = {"a": {"elapsed_us": 10.0}, "b": {"elapsed_us": 20.0}}
    fresh = {"a": {"elapsed_us": 10.0}, "c": {"elapsed_us": 5.0}}
    errors = trend.compare(base, fresh)
    assert len(errors) == 2
    assert any("missing from fresh" in e for e in errors)
    assert any("missing from baseline" in e for e in errors)


def test_none_leaves_are_skipped():
    trend = _load("check_bench_trend")
    base = {"run": {"recovery_us": None, "elapsed_us": 10.0}}
    fresh = {"run": {"recovery_us": 123.0, "elapsed_us": 10.0}}
    # None (no crash in that config) never participates; its appearance
    # in fresh counts as drift so baselines get consciously re-committed
    errors = trend.compare(base, fresh)
    assert len(errors) == 1 and "recovery_us" in errors[0]
    assert trend.compare(base, base) == []


def test_deeply_nested_and_listed_leaves_walked():
    trend = _load("check_bench_trend")
    base = {"curves": [{"pts": [{"elapsed_us": 10.0}]}]}
    bad = {"curves": [{"pts": [{"elapsed_us": 20.0}]}]}
    errors = trend.compare(base, bad)
    assert len(errors) == 1
    assert "curves[0].pts[0].elapsed_us" in errors[0]
