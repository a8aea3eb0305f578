"""Observability subsystem: metrics, tracing spans, event sinks, manifests.

One layer measures the whole stack — SGCL pre-training, the baselines,
evaluation, benchmarks and serving:

* :class:`MetricsRegistry` — counters, gauges and reservoir histograms;
  the serving layer records into it too.
* :class:`Tracer` — nested timed spans (``pretrain/epoch``,
  ``lipschitz/generator``, ``augment/sample``, ``eval/svm``…), exportable
  as a span tree or per-name aggregate.
* Sinks — :class:`MemorySink` ring buffer, :class:`JSONLSink` append-only
  event log, :class:`ConsoleSink` progress lines, :class:`NullSink`.
* :class:`Observer` — ties the three together; installed ambiently with
  ``observer.activate()`` and looked up by instrumented code via
  :func:`current` (a shared no-op when observability is off).
* :class:`OpProfiler` — op-level instrumenting profiler (call counts,
  self/cumulative time, bytes, flop estimates) with span attribution;
  zero overhead when inactive. Exporters in :mod:`repro.obs.export`
  render Chrome traces, flamegraphs and Prometheus text.
* :class:`RunManifest` — config + dataset fingerprint + git SHA + seed +
  environment, written next to run logs and checkpoints.
* ``repro report <run.jsonl>`` renders a log via :mod:`repro.obs.report`.

See docs/OBSERVABILITY.md for the event schema and span names.
"""

from .export import (chrome_trace, collapsed_stacks, prometheus_text,
                     write_chrome_trace, write_collapsed_stacks,
                     write_prometheus_text)
from .manifest import RunManifest, dataset_fingerprint, git_sha
from .metrics import MetricsRegistry
from .observer import NULL_OBSERVER, NullObserver, Observer, current
from .profiler import (OpProfiler, OpRecord, compare_hotpaths,
                       hotpath_table)
from .report import load_events, render_report, render_run_report
from .sinks import ConsoleSink, JSONLSink, MemorySink, NullSink, Sink
from .tracing import NULL_TRACER, NullTracer, Span, Tracer, render_span_tree

__all__ = [
    "MetricsRegistry",
    "OpProfiler",
    "OpRecord",
    "hotpath_table",
    "compare_hotpaths",
    "chrome_trace",
    "collapsed_stacks",
    "prometheus_text",
    "write_chrome_trace",
    "write_collapsed_stacks",
    "write_prometheus_text",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "render_span_tree",
    "Sink",
    "NullSink",
    "MemorySink",
    "JSONLSink",
    "ConsoleSink",
    "Observer",
    "NullObserver",
    "NULL_OBSERVER",
    "current",
    "RunManifest",
    "dataset_fingerprint",
    "git_sha",
    "load_events",
    "render_report",
    "render_run_report",
]
