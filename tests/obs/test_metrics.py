"""Tests for the shared metrics registry: counters, gauges, series and
their percentiles, timers, the reservoir bound, snapshots and reset,
merging, and its use as the serving layer's telemetry."""

from __future__ import annotations

import math

import numpy as np

from repro.gnn import GNNEncoder
from repro.obs import MetricsRegistry
from repro.serve import EmbeddingService


def test_counters_and_gauges_are_independent_namespaces():
    registry = MetricsRegistry()
    registry.increment("n", 2)
    registry.set_gauge("n", 7.0)
    assert registry.count("n") == 2
    assert registry.gauge("n") == 7.0


def test_gauge_last_value_wins_and_defaults_to_nan():
    registry = MetricsRegistry()
    assert math.isnan(registry.gauge("unset"))
    registry.set_gauge("level", 1.0)
    registry.set_gauge("level", 3.0)
    assert registry.gauge("level") == 3.0


def test_histogram_percentiles_and_reservoir_bound():
    registry = MetricsRegistry(max_samples=50)
    for value in range(100):
        registry.observe("x", value)
    summary = registry.summary("x")
    assert summary["count"] == 50
    assert summary["max"] == 99  # most recent survive
    assert registry.percentile("x", 0) == 50  # oldest fell off the front


def test_snapshot_includes_gauges():
    registry = MetricsRegistry()
    registry.increment("hits")
    registry.set_gauge("depth", 4)
    registry.observe("sizes", 1.0)
    snapshot = registry.snapshot()
    assert snapshot["counters"] == {"hits": 1}
    assert snapshot["gauges"] == {"depth": 4.0}
    assert snapshot["series"]["sizes"]["count"] == 1
    registry.reset()
    assert registry.snapshot() == {"counters": {}, "gauges": {},
                                   "series": {}}


def test_timer_observes_elapsed_seconds():
    registry = MetricsRegistry()
    with registry.timer("block"):
        sum(range(1000))
    assert registry.summary("block")["count"] == 1


def test_counters_increment_and_default_to_zero():
    registry = MetricsRegistry()
    assert registry.count("requests") == 0
    registry.increment("requests")
    registry.increment("requests", 4)
    assert registry.count("requests") == 5


def test_observe_and_percentiles():
    registry = MetricsRegistry()
    for value in range(1, 101):
        registry.observe("latency", value)
    assert registry.percentile("latency", 50) == 50.5
    summary = registry.summary("latency")
    assert summary["count"] == 100
    assert summary["mean"] == 50.5
    assert summary["p95"] > summary["p50"]
    assert summary["max"] == 100


def test_empty_series_yields_nan():
    registry = MetricsRegistry()
    assert math.isnan(registry.percentile("nothing", 50))
    summary = registry.summary("nothing")
    assert summary["count"] == 0
    assert math.isnan(summary["p50"])


def test_timer_records_positive_duration():
    registry = MetricsRegistry()
    with registry.timer("block"):
        sum(range(1000))
    summary = registry.summary("block")
    assert summary["count"] == 1
    assert summary["p50"] >= 0.0


def test_reservoir_is_bounded():
    registry = MetricsRegistry(max_samples=10)
    for value in range(100):
        registry.observe("series", value)
    summary = registry.summary("series")
    assert summary["count"] == 10
    assert summary["max"] == 99  # most recent values survive


def test_snapshot_and_reset():
    registry = MetricsRegistry()
    registry.increment("hits")
    registry.observe("sizes", 3)
    snapshot = registry.snapshot()
    assert snapshot["counters"] == {"hits": 1}
    assert snapshot["series"]["sizes"]["count"] == 1
    registry.reset()
    assert registry.count("hits") == 0
    assert registry.snapshot() == {"counters": {}, "gauges": {},
                                   "series": {}}


def test_merge_percentiles_equal_single_registry_recording():
    # The fleet-wide latency invariant: merging per-worker registries must
    # give the same percentiles as recording every observation into one
    # registry — no averaging-of-averages.
    combined = MetricsRegistry()
    workers = [MetricsRegistry() for _ in range(3)]
    for w, registry in enumerate(workers):
        for i in range(40):
            value = (w * 40 + i) / 10.0
            registry.observe("embed_seconds", value)
            combined.observe("embed_seconds", value)
    merged = MetricsRegistry()
    for registry in workers:
        merged.merge(registry)
    for q in (50, 95, 99):
        assert merged.percentile("embed_seconds", q) == \
            combined.percentile("embed_seconds", q)
    assert merged.summary("embed_seconds") == combined.summary("embed_seconds")


def test_merge_accepts_samples_snapshot_dicts():
    # ProcessReplica workers ship snapshot(samples=True) over a pipe; the
    # router merges the plain dict. Percentiles must survive the trip.
    worker = MetricsRegistry()
    worker.increment("requests", 5)
    worker.set_gauge("depth", 2.0)
    for value in (0.1, 0.2, 0.9):
        worker.observe("embed_seconds", value)
    merged = MetricsRegistry().merge(worker.snapshot(samples=True))
    assert merged.count("requests") == 5
    assert merged.gauge("depth") == 2.0
    assert merged.percentile("embed_seconds", 50) == \
        worker.percentile("embed_seconds", 50)
    # A samples-free snapshot merges counters/gauges only — no fabricated
    # observations from summary statistics.
    no_samples = MetricsRegistry().merge(worker.snapshot())
    assert no_samples.count("requests") == 5
    assert no_samples.summary("embed_seconds")["count"] == 0


def test_merge_adds_counters_and_overwrites_gauges():
    a = MetricsRegistry()
    b = MetricsRegistry()
    a.increment("hits", 2)
    b.increment("hits", 3)
    a.set_gauge("level", 1.0)
    b.set_gauge("level", 9.0)
    a.merge(b)
    assert a.count("hits") == 5
    assert a.gauge("level") == 9.0  # merged-in value wins


def test_serving_telemetry_is_a_plain_registry():
    encoder = GNNEncoder(3, 4, 1, rng=np.random.default_rng(0))
    telemetry = EmbeddingService(encoder).telemetry
    assert type(telemetry) is MetricsRegistry
    telemetry.increment("hits")
    telemetry.observe("latency", 0.5)
    # The serving snapshot is the registry's own, gauges included.
    snapshot = telemetry.snapshot()
    assert set(snapshot) == {"counters", "gauges", "series"}
    assert snapshot["counters"] == {"hits": 1}
