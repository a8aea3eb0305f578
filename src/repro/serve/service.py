"""Cached, micro-batched embedding inference over a frozen encoder.

:class:`EmbeddingService` is the serving counterpart of
:func:`repro.eval.embed_dataset`: it owns a pre-trained encoder in eval mode
and answers ``embed(graphs)`` requests through

* a **content-addressed LRU cache** — graphs are keyed by a digest of their
  structure and features (:func:`graph_digest`), so identical graphs are
  embedded exactly once per cache lifetime regardless of which request or
  dataset object they arrive in; and
* a **micro-batching queue** — single-graph :meth:`submit` requests coalesce
  into one disjoint-union batch (this substrate's :class:`Batch` replaces
  padding) that runs the encoder hot path once per ``max_batch_size`` graphs
  instead of once per request.

Cached rows are stored read-only and every result is a fresh copy, so a
caller mutating a returned array can never poison later responses. All
traffic is measured by a :class:`~repro.obs.MetricsRegistry` exposed via
:meth:`stats` (cache hit rate, encoder batch sizes, latency percentiles).

The service degrades, it does not hang or cascade:

* **request deadlines** — with ``deadline_seconds`` set, each ``embed``
  request carries a :class:`~repro.resilience.Deadline` checked between
  encoder chunks; an over-budget request raises
  :class:`~repro.resilience.DeadlineExceeded` (``timeouts`` counter)
  instead of blocking every later caller.
* **circuit breaking** — encoder failures feed a
  :class:`~repro.resilience.CircuitBreaker`; once open, the service falls
  back to *cache-only degraded mode*: fully cached requests are still
  served, requests needing the encoder are shed with
  :class:`~repro.resilience.CircuitOpenError` until the breaker's
  recovery probe succeeds.
* **bounded-queue load shedding** — the :meth:`submit` backlog is capped
  by ``max_queue``; requests beyond it (or uncached submits while the
  breaker is open) raise :class:`~repro.resilience.LoadShedError`
  (``shed`` counter) rather than growing without bound.

All three surface in :meth:`stats` under ``"resilience"``.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Iterable

import numpy as np

from ..gnn import GNNEncoder
from ..graph import Batch, Graph, update_graph_hash
from ..obs import current
from ..obs.metrics import MetricsRegistry
from ..resilience import (
    CircuitBreaker,
    CircuitOpenError,
    Deadline,
    LoadShedError,
)
from ..tensor import no_grad

__all__ = ["EmbeddingService", "PendingEmbedding", "graph_digest"]


def graph_digest(graph: Graph) -> str:
    """Content hash of a graph's structure + features (labels excluded).

    Two graphs with identical ``x`` and ``edge_index`` arrays share a digest,
    so embeddings — which depend only on structure and features — can be
    cached across datasets, folds and requests.
    """
    digest = hashlib.sha256()
    update_graph_hash(digest, graph)
    return digest.hexdigest()


class PendingEmbedding:
    """Handle for a :meth:`EmbeddingService.submit` request.

    ``result()`` flushes the service's micro-batch queue on first use if the
    embedding has not been computed yet.
    """

    __slots__ = ("_service", "digest")

    def __init__(self, service: "EmbeddingService", digest: str):
        self._service = service
        self.digest = digest

    def result(self) -> np.ndarray:
        return self._service._resolve(self.digest)


class EmbeddingService:
    """Serve graph-level embeddings from a frozen encoder.

    Parameters
    ----------
    encoder:
        A pre-trained :class:`GNNEncoder`; the service puts it in eval mode
        and never trains it.
    cache_size:
        Maximum number of cached embeddings (LRU eviction beyond it).
    max_batch_size:
        Encoder forward passes never exceed this many graphs; larger requests
        are chunked, and the :meth:`submit` queue auto-flushes at this size.
    telemetry:
        Optional shared :class:`repro.obs.MetricsRegistry` (e.g. an
        :class:`~repro.obs.Observer`'s ``metrics``, so serving traffic
        lands in the same snapshot as training telemetry). A private
        registry is created if omitted.
    deadline_seconds:
        Per-request time budget for :meth:`embed`; ``None`` (default)
        disables deadlines.
    max_queue:
        Cap on the :meth:`submit` backlog; submits beyond it are shed
        with :class:`LoadShedError`. ``None`` (default) leaves the
        backlog unbounded (it still auto-flushes at ``max_batch_size``).
    breaker:
        Injectable :class:`~repro.resilience.CircuitBreaker` guarding the
        encoder (e.g. with a test clock or custom thresholds). A default
        breaker (5 consecutive failures, 30 s recovery) is created if
        omitted — inert unless the encoder actually fails.
    """

    def __init__(self, encoder: GNNEncoder, *, cache_size: int = 4096,
                 max_batch_size: int = 64,
                 telemetry: "MetricsRegistry | None" = None,
                 deadline_seconds: float | None = None,
                 max_queue: int | None = None,
                 breaker: CircuitBreaker | None = None):
        if cache_size < 1:
            raise ValueError(f"cache_size must be >= 1, got {cache_size}")
        if max_batch_size < 1:
            raise ValueError(
                f"max_batch_size must be >= 1, got {max_batch_size}")
        if deadline_seconds is not None and deadline_seconds <= 0:
            raise ValueError(
                f"deadline_seconds must be positive, got {deadline_seconds}")
        if max_queue is not None and max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self.encoder = encoder.eval()
        self.cache_size = cache_size
        self.max_batch_size = max_batch_size
        self.telemetry = telemetry if telemetry is not None \
            else MetricsRegistry()
        self.deadline_seconds = deadline_seconds
        self.max_queue = max_queue
        self.breaker = breaker if breaker is not None else CircuitBreaker(
            failure_threshold=5, recovery_timeout=30.0, name="serve-encoder")
        self._cache: OrderedDict[str, np.ndarray] = OrderedDict()
        self._queue: OrderedDict[str, Graph] = OrderedDict()

    # ------------------------------------------------------------------
    @classmethod
    def from_checkpoint(cls, path, **kwargs) -> "EmbeddingService":
        """Build a service from a checkpoint written by ``save_checkpoint``."""
        from .checkpoint import load_checkpoint

        return cls(load_checkpoint(path).build_encoder(), **kwargs)

    # ------------------------------------------------------------------
    # Cache plumbing
    # ------------------------------------------------------------------
    def _cache_get(self, digest: str) -> np.ndarray | None:
        row = self._cache.get(digest)
        if row is not None:
            self._cache.move_to_end(digest)
        return row

    def _cache_put(self, digest: str, row: np.ndarray) -> None:
        stored = np.array(row, copy=True)
        stored.setflags(write=False)
        self._cache[digest] = stored
        self._cache.move_to_end(digest)
        while len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)
            self.telemetry.increment("cache_evictions")

    def clear_cache(self) -> None:
        self._cache.clear()

    def invalidate(self, digests: Iterable[str]) -> int:
        """Drop the cached rows for ``digests``; returns how many existed.

        The selective counterpart of :meth:`clear_cache` for incremental
        refreshes: only entries whose source graphs changed are evicted
        (``cache_invalidations`` counter), every other digest keeps its
        warm row.
        """
        removed = 0
        for digest in digests:
            if self._cache.pop(digest, None) is not None:
                removed += 1
        if removed:
            self.telemetry.increment("cache_invalidations", removed)
        return removed

    @property
    def cache_len(self) -> int:
        return len(self._cache)

    def __contains__(self, digest: str) -> bool:
        """Whether ``digest`` has a cached row (no LRU touch, no counter)."""
        return digest in self._cache

    # ------------------------------------------------------------------
    # Encoder hot path
    # ------------------------------------------------------------------
    def _encode(self, items: list[tuple[str, Graph]],
                deadline: Deadline | None = None) -> dict[str, np.ndarray]:
        """Run the encoder over ``items`` in chunks; fill the cache.

        Returns the freshly computed rows keyed by digest, so callers can
        assemble results even when the request is larger than the cache.

        Between chunks the request ``deadline`` is enforced (an expired
        budget raises :class:`~repro.resilience.DeadlineExceeded` and
        counts a ``timeouts``) and the circuit breaker consulted: with the
        breaker open the remaining graphs are shed
        (:class:`~repro.resilience.CircuitOpenError`, ``shed`` counter)
        instead of hammering a failing encoder. Encoder exceptions feed
        the breaker and propagate.
        """
        computed: dict[str, np.ndarray] = {}
        # Re-assert eval mode every pass: other code paths sharing this
        # encoder (embed_dataset, fine-tuning helpers) toggle train mode.
        self.encoder.eval()
        for start in range(0, len(items), self.max_batch_size):
            if deadline is not None and deadline.expired:
                self.telemetry.increment("timeouts")
                deadline.check("EmbeddingService request")
            if not self.breaker.allow():
                remaining = len(items) - start
                self.telemetry.increment("shed", remaining)
                raise CircuitOpenError(
                    f"embedding encoder circuit is open; {remaining} "
                    f"graph(s) shed (cache-only degraded mode — cached "
                    f"requests are still served)")
            chunk = items[start:start + self.max_batch_size]
            batch = Batch([graph for _, graph in chunk])
            try:
                with no_grad(), current().span("serve/encode"), \
                        self.telemetry.timer("encoder_batch_seconds"):
                    rows = self.encoder.graph_representations(batch).data
            except Exception:
                self.breaker.record_failure()
                self.telemetry.increment("encoder_failures")
                raise
            self.breaker.record_success()
            self.telemetry.increment("encoder_batches")
            self.telemetry.increment("encoder_graphs", len(chunk))
            self.telemetry.observe("encoder_batch_size", len(chunk))
            for (digest, _), row in zip(chunk, rows):
                self._cache_put(digest, row)
                computed[digest] = row
        return computed

    # ------------------------------------------------------------------
    # Request API
    # ------------------------------------------------------------------
    def embed(self, graphs: Iterable[Graph] | Graph,
              digests: Iterable[str] | None = None) -> np.ndarray:
        """Embeddings for ``graphs`` (one row per graph, request order).

        Cache misses — deduplicated within the request — are embedded in
        chunks of ``max_batch_size``; hits cost a dict lookup. The returned
        array is freshly allocated and safe to mutate.

        ``digests`` are the graphs' :func:`graph_digest` values when the
        caller already has them (they are not recomputed). A graph may
        then be ``None`` if its digest is cached; a ``None`` graph whose
        digest misses raises :class:`KeyError`.

        With ``deadline_seconds`` configured the request runs under a
        :class:`~repro.resilience.Deadline`; with the circuit breaker
        open, requests fully served from cache still succeed (degraded
        mode) while requests needing the encoder are shed.
        """
        if isinstance(graphs, Graph):
            graphs = [graphs]
        graphs = list(graphs)
        if not graphs:
            raise ValueError("embed() requires at least one graph")
        if digests is not None:
            digests = list(digests)
            if len(digests) != len(graphs):
                raise ValueError(f"{len(digests)} digests for "
                                 f"{len(graphs)} graphs")
        deadline = Deadline(self.deadline_seconds) \
            if self.deadline_seconds is not None else None
        with current().span("serve/embed"), \
                self.telemetry.timer("embed_seconds"):
            self.telemetry.increment("requests")
            if digests is None:
                digests = [graph_digest(graph) for graph in graphs]
            rows: list[np.ndarray | None] = [None] * len(graphs)
            misses: OrderedDict[str, Graph] = OrderedDict()
            for i, (digest, graph) in enumerate(zip(digests, graphs)):
                row = self._cache_get(digest)
                if row is None:
                    if graph is None:
                        raise KeyError(f"digest {digest[:12]} is not cached "
                                       f"and no graph was sent for it")
                    self.telemetry.increment("cache_misses")
                    misses.setdefault(digest, graph)
                else:
                    self.telemetry.increment("cache_hits")
                    rows[i] = row
            fresh = self._encode(list(misses.items()), deadline) \
                if misses else {}
            for i, digest in enumerate(digests):
                if rows[i] is None:
                    rows[i] = fresh[digest]
            return np.stack(rows)

    def embed_one(self, graph: Graph) -> np.ndarray:
        """Single-graph convenience wrapper around :meth:`embed`."""
        return self.embed([graph])[0]

    # ------------------------------------------------------------------
    def submit(self, graph: Graph) -> PendingEmbedding:
        """Enqueue one graph for micro-batched embedding.

        The queue coalesces requests until :meth:`flush` is called (or it
        reaches ``max_batch_size``, which flushes automatically), so many
        single-graph callers share one encoder forward pass.

        Overload protection: an uncached submit while the circuit breaker
        is open, or one that would push the backlog past ``max_queue``,
        is shed with :class:`~repro.resilience.LoadShedError` (``shed``
        counter) — already-cached graphs are always accepted.
        """
        digest = graph_digest(graph)
        self.telemetry.increment("submitted")
        if self._cache_get(digest) is None and digest not in self._queue:
            if not self.breaker.allow():
                self.telemetry.increment("shed")
                raise LoadShedError(
                    "submit shed: encoder circuit is open and the graph "
                    "is not cached")
            if self.max_queue is not None \
                    and len(self._queue) >= self.max_queue:
                self.telemetry.increment("shed")
                raise LoadShedError(
                    f"submit shed: backlog is at max_queue="
                    f"{self.max_queue}; flush() or raise the bound")
            self._queue[digest] = graph
            if len(self._queue) >= self.max_batch_size:
                self.flush()
        return PendingEmbedding(self, digest)

    def flush(self) -> None:
        """Embed every queued graph in one coalesced pass.

        On failure (encoder exception, open breaker, shed) the graphs
        whose embeddings were not computed are re-queued, so pending
        handles can still resolve after the dependency recovers.
        """
        if not self._queue:
            return
        self.telemetry.increment("flushes")
        items = list(self._queue.items())
        self._queue.clear()
        try:
            self._encode(items)
        except Exception:
            for digest, graph in items:
                if digest not in self._cache:
                    self._queue.setdefault(digest, graph)
            raise

    def _resolve(self, digest: str) -> np.ndarray:
        row = self._cache_get(digest)
        if row is None:
            self.flush()
            row = self._cache_get(digest)
        if row is None:
            raise KeyError(
                "embedding was evicted before the pending request resolved; "
                "increase cache_size")
        return row.copy()

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Serving statistics: cache effectiveness, batching, latency."""
        t = self.telemetry
        hits = t.count("cache_hits")
        misses = t.count("cache_misses")
        lookups = hits + misses
        batch = t.summary("encoder_batch_size")
        latency = t.summary("embed_seconds")
        return {
            "cache": {
                "size": len(self._cache),
                "capacity": self.cache_size,
                "occupancy": len(self._cache) / self.cache_size,
                "hits": int(hits),
                "misses": int(misses),
                "lookups": int(lookups),
                "hit_rate": hits / lookups if lookups else float("nan"),
                "evictions": int(t.count("cache_evictions")),
            },
            "encoder": {
                "batches": int(t.count("encoder_batches")),
                "graphs": int(t.count("encoder_graphs")),
                "mean_batch_size": batch["mean"],
            },
            "latency": {
                "requests": latency["count"],
                "mean_ms": latency["mean"] * 1e3,
                "p50_ms": latency["p50"] * 1e3,
                "p95_ms": latency["p95"] * 1e3,
            },
            "resilience": {
                "shed": int(t.count("shed")),
                "timeouts": int(t.count("timeouts")),
                "encoder_failures": int(t.count("encoder_failures")),
                "breaker": self.breaker.stats(),
                "queue_depth": len(self._queue),
                "max_queue": self.max_queue,
                "deadline_seconds": self.deadline_seconds,
            },
        }
