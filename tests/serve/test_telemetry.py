"""Serving telemetry: the :class:`MetricsRegistry` surface the serving
layer and ``embed --stats`` rely on (counters, series, percentiles,
timers, reservoir bound, snapshot and reset)."""

from __future__ import annotations

import math

from repro.obs import MetricsRegistry


def test_counters_increment_and_default_to_zero():
    t = MetricsRegistry()
    assert t.count("requests") == 0
    t.increment("requests")
    t.increment("requests", 4)
    assert t.count("requests") == 5


def test_observe_and_percentiles():
    t = MetricsRegistry()
    for value in range(1, 101):
        t.observe("latency", value)
    assert t.percentile("latency", 50) == 50.5
    summary = t.summary("latency")
    assert summary["count"] == 100
    assert summary["mean"] == 50.5
    assert summary["p95"] > summary["p50"]
    assert summary["max"] == 100


def test_empty_series_yields_nan():
    t = MetricsRegistry()
    assert math.isnan(t.percentile("nothing", 50))
    summary = t.summary("nothing")
    assert summary["count"] == 0
    assert math.isnan(summary["p50"])


def test_timer_records_positive_duration():
    t = MetricsRegistry()
    with t.timer("block"):
        sum(range(1000))
    summary = t.summary("block")
    assert summary["count"] == 1
    assert summary["p50"] >= 0.0


def test_reservoir_is_bounded():
    t = MetricsRegistry(max_samples=10)
    for value in range(100):
        t.observe("series", value)
    summary = t.summary("series")
    assert summary["count"] == 10
    assert summary["max"] == 99  # most recent values survive


def test_snapshot_and_reset():
    t = MetricsRegistry()
    t.increment("hits")
    t.observe("sizes", 3)
    snapshot = t.snapshot()
    assert snapshot["counters"] == {"hits": 1}
    assert snapshot["series"]["sizes"]["count"] == 1
    t.reset()
    assert t.count("hits") == 0
    assert t.snapshot() == {"counters": {}, "gauges": {}, "series": {}}
