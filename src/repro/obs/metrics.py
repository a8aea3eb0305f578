"""Metrics registry: counters, gauges and histogram series.

The single metrics substrate for the whole system — training telemetry,
the serving layer and benchmark instrumentation all record into a
:class:`MetricsRegistry`. Three metric kinds are supported:

* **counters** — monotonically increasing totals (``increment``/``count``);
* **gauges** — last-value-wins level measurements (``set_gauge``/``gauge``);
* **histograms** — bounded reservoirs of recent observations with
  percentile summaries (``observe``/``timer``/``percentile``/``summary``).

No external dependencies, no background threads; every recording costs a
dict lookup plus an append, so the registry is safe to leave on in hot
paths.
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import contextmanager

import numpy as np

__all__ = ["MetricsRegistry"]


class MetricsRegistry:
    """Named counters, gauges and bounded observation series.

    Parameters
    ----------
    max_samples:
        Per-series reservoir size. Old observations fall off the front, so
        percentiles reflect recent behaviour and memory stays bounded no
        matter how long the process runs.
    """

    def __init__(self, max_samples: int = 2048):
        self.max_samples = max_samples
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._series: dict[str, deque] = {}

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------
    def increment(self, name: str, by: float = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + by

    def count(self, name: str) -> float:
        return self._counters.get(name, 0)

    # ------------------------------------------------------------------
    # Gauges
    # ------------------------------------------------------------------
    def set_gauge(self, name: str, value: float) -> None:
        """Record a level measurement; the latest value wins."""
        self._gauges[name] = float(value)

    def gauge(self, name: str) -> float:
        """Current value of a gauge; NaN if never set."""
        return self._gauges.get(name, float("nan"))

    # ------------------------------------------------------------------
    # Histograms
    # ------------------------------------------------------------------
    def observe(self, name: str, value: float) -> None:
        """Record one observation (a latency, a batch size, …)."""
        series = self._series.get(name)
        if series is None:
            series = self._series[name] = deque(maxlen=self.max_samples)
        series.append(float(value))

    @contextmanager
    def timer(self, name: str):
        """Time the enclosed block; observes elapsed seconds under ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.observe(name, time.perf_counter() - start)

    def percentile(self, name: str, q: float) -> float:
        """q-th percentile (0–100) of the recorded series; NaN if empty."""
        series = self._series.get(name)
        if not series:
            return float("nan")
        return float(np.percentile(np.fromiter(series, dtype=float), q))

    def summary(self, name: str) -> dict[str, float]:
        """count / mean / p50 / p95 / max of one series (NaNs if empty)."""
        series = self._series.get(name)
        if not series:
            return {"count": 0, "mean": float("nan"), "p50": float("nan"),
                    "p95": float("nan"), "max": float("nan")}
        values = np.fromiter(series, dtype=float)
        return {
            "count": len(values),
            "mean": float(values.mean()),
            "p50": float(np.percentile(values, 50)),
            "p95": float(np.percentile(values, 95)),
            "max": float(values.max()),
        }

    # ------------------------------------------------------------------
    def snapshot(self, *, samples: bool = False) -> dict:
        """All counters and gauges plus a summary of every series.

        With ``samples=True`` the snapshot additionally carries every
        series' raw reservoir under ``"samples"`` — the form a remote
        process (e.g. a :class:`~repro.fleet.ProcessReplica`) ships over
        a pipe so the parent can :meth:`merge` true fleet-wide
        percentiles instead of averaging per-worker summaries.
        """
        payload = {
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
            "series": {name: self.summary(name) for name in self._series},
        }
        if samples:
            payload["samples"] = {name: list(series)
                                  for name, series in self._series.items()}
        return payload

    def merge(self, other: "MetricsRegistry | dict") -> "MetricsRegistry":
        """Fold another registry (or a ``samples=True`` snapshot) into this
        one; returns ``self`` for chaining.

        Counters add, gauges last-write-wins (the merged-in value
        overwrites), and histogram series concatenate their raw samples —
        so a percentile of the merged registry equals the percentile of
        recording every observation into one registry (up to the shared
        reservoir bound ``max_samples``). A plain :meth:`snapshot` dict
        without ``"samples"`` merges its counters/gauges only.
        """
        if isinstance(other, MetricsRegistry):
            counters = other._counters
            gauges = other._gauges
            samples = {name: series for name, series in other._series.items()}
        else:
            counters = other.get("counters", {})
            gauges = other.get("gauges", {})
            samples = other.get("samples", {})
        for name, value in counters.items():
            self.increment(name, value)
        for name, value in gauges.items():
            self.set_gauge(name, value)
        for name, series in samples.items():
            for value in series:
                self.observe(name, value)
        return self

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._series.clear()
