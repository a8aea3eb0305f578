"""Fleet replicas: an :class:`EmbeddingService` behind a shard identity.

A :class:`FleetWorker` is one shard of the fleet — an in-process
:class:`~repro.serve.EmbeddingService` (its own LRU cache, its own
encoder breaker) plus everything the router needs around it:

* a **worker id** (its name on the consistent-hash ring) and a
  **per-replica** :class:`~repro.resilience.CircuitBreaker` fed by the
  router — repeated failures open it and traffic fails over to the
  digest's next-preferred shard until the recovery probe passes;
* a **liveness flag** — :meth:`kill` models a crashed replica (chaos
  tests flip it mid-load; the process backend's equivalent is a real
  ``SIGKILL``), :meth:`revive` brings it back with its cache intact;
* two **model slots** — ``stable`` and an optional ``canary``. Each
  request digest is served by exactly one slot, decided by the
  deterministic slice coordinate :func:`canary_fraction`, so a given
  graph always maps to one model version no matter which replica ends
  up serving it. :meth:`promote_canary` / :meth:`rollback_canary` are
  the two ends of a hot swap; both are atomic between requests.

A canary that fails is *contained*: its items fall back to the stable
slot for that request (counted under ``canary_fallbacks`` and in the
canary service's own failure telemetry), so a broken canary shows up in
the metrics the :class:`~repro.fleet.CanaryController` watches instead
of taking the shard down.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..graph import Graph
from ..obs.metrics import MetricsRegistry
from ..resilience import CircuitBreaker, ResilienceError
from ..serve.service import EmbeddingService

__all__ = ["FleetWorker", "ModelSlot", "WorkerDownError", "canary_fraction"]

_SLICE_DIGITS = 12  # leading hex digits of the digest used as the slice axis


class WorkerDownError(ResilienceError):
    """The targeted replica is not alive (crashed, killed, or closed)."""


def canary_fraction(digest: str) -> float:
    """Deterministic slice coordinate of a digest in ``[0, 1)``.

    Derived from the digest's leading hex digits, so the canary slice is
    a fixed subset of the key space: the same graphs ride the canary on
    every request, on every replica, in every process — a digest is never
    served by two model versions within one deployment.
    """
    return int(digest[:_SLICE_DIGITS], 16) / float(16 ** _SLICE_DIGITS)


class ModelSlot(NamedTuple):
    """One servable model: an embedding service tagged with its version."""

    service: EmbeddingService
    version: str


class FleetWorker:
    """One in-process shard: embedding service + breaker + model slots.

    Parameters
    ----------
    worker_id:
        Name on the consistent-hash ring (``"w0"``, ``"w1"``, …).
    service:
        The stable :class:`EmbeddingService` this replica serves from.
    version:
        Version tag of the stable model (a registry name, checkpoint
        stem, or free-form string); stamped onto every embedding served
        from the stable slot.
    breaker:
        Per-replica :class:`CircuitBreaker` consulted by the router
        before dispatch; a default (3 failures, 5 s recovery) is created
        if omitted.
    """

    backend = "inprocess"

    def __init__(self, worker_id: str, service: EmbeddingService, *,
                 version: str = "v1",
                 breaker: CircuitBreaker | None = None):
        self.worker_id = worker_id
        self.stable = ModelSlot(service, version)
        self.canary: ModelSlot | None = None
        self.canary_slice = 0.0
        self.breaker = breaker if breaker is not None else CircuitBreaker(
            failure_threshold=3, recovery_timeout=5.0,
            name=f"fleet-{worker_id}")
        self.telemetry = MetricsRegistry()
        self._alive = True

    # ------------------------------------------------------------------
    # Liveness
    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        return self._alive

    @property
    def version(self) -> str:
        """Version tag of the stable slot."""
        return self.stable.version

    def kill(self) -> None:
        """Model a replica crash: every request raises until revived."""
        self._alive = False

    def revive(self) -> None:
        """Bring a killed replica back, warm cache and all."""
        self._alive = True

    def close(self) -> None:
        """Release the replica (in-process: same as :meth:`kill`)."""
        self._alive = False

    # ------------------------------------------------------------------
    # Hot swap / canary
    # ------------------------------------------------------------------
    def swap_model(self, service: EmbeddingService, version: str) -> None:
        """Replace the stable slot outright (no canary phase)."""
        self.stable = ModelSlot(service, version)

    def deploy_canary(self, service: EmbeddingService, version: str,
                      slice_fraction: float) -> None:
        """Install ``service`` as the canary for a slice of the key space."""
        if not 0.0 < slice_fraction <= 1.0:
            raise ValueError(
                f"slice_fraction must be in (0, 1], got {slice_fraction}")
        self.canary = ModelSlot(service, version)
        self.canary_slice = slice_fraction

    def promote_canary(self) -> str:
        """Canary becomes stable; returns the newly stable version."""
        if self.canary is None:
            raise ValueError(f"worker {self.worker_id!r} has no canary")
        self.stable = self.canary
        self.canary = None
        self.canary_slice = 0.0
        return self.stable.version

    def rollback_canary(self) -> str:
        """Drop the canary; returns the (unchanged) stable version."""
        if self.canary is None:
            raise ValueError(f"worker {self.worker_id!r} has no canary")
        dropped = self.canary.version
        self.canary = None
        self.canary_slice = 0.0
        return dropped

    def invalidate(self, digests) -> int:
        """Evict ``digests`` from both slots' caches; returns rows dropped.

        Selective refresh hook: after an incremental model refresh, only
        the digests whose source graphs changed are invalidated — every
        other entry keeps serving warm from cache.
        """
        digests = list(digests)
        removed = 0
        for slot in (self.stable, self.canary):
            if slot is None:
                continue
            invalidate = getattr(slot.service, "invalidate", None)
            if invalidate is not None:
                removed += invalidate(digests)
        if removed:
            self.telemetry.increment("invalidated", removed)
        return removed

    def slot_for(self, digest: str) -> ModelSlot:
        """The model slot a digest is assigned to under the current deploy."""
        if self.canary is not None \
                and canary_fraction(digest) < self.canary_slice:
            return self.canary
        return self.stable

    def version_for(self, digest: str) -> str:
        return self.slot_for(digest).version

    def missing(self, digests) -> list[int]:
        """Indices of ``digests`` not cached in the slot each routes to.

        A pure check: it moves no LRU entry and counts nothing, so asking
        before serving leaves the stats as if only the request ran.
        """
        return [i for i, digest in enumerate(digests)
                if digest not in self.slot_for(digest).service]

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def embed_items(self, items: list[tuple[str, Graph | None]]
                    ) -> tuple[np.ndarray, list[str]]:
        """Embed ``(digest, graph)`` pairs; returns stacked rows + versions.

        Row ``i`` of the 2-D array and ``versions[i]`` belong to
        ``items[i]``. One array, not one per row, so a process replica's
        reply pickles a single buffer.

        Digests in the canary slice go to the canary slot; a canary
        failure falls back to the stable slot for those items (the
        failure stays visible in the canary service's telemetry and this
        worker's ``canary_fallbacks`` counter). Stable-slot failures
        propagate — the router records them against this replica's
        breaker and fails the items over to the next shard.

        The digests are passed to the services, never recomputed; a
        graph may be ``None`` when its digest is cached in its slot.
        """
        if not self._alive:
            raise WorkerDownError(f"worker {self.worker_id!r} is down")
        if not items:
            return np.empty((0, 0)), []
        stable_idx, canary_idx = [], []
        for i, (digest, _) in enumerate(items):
            if self.slot_for(digest) is self.stable:
                stable_idx.append(i)
            else:
                canary_idx.append(i)
        served: list[tuple[ModelSlot, list[int], np.ndarray]] = []
        if canary_idx:
            try:
                served.append((self.canary, canary_idx, self._embed_slot(
                    self.canary, items, canary_idx)))
            except Exception:
                # Contain the canary: serve these items from stable and
                # let the telemetry (not the caller) carry the bad news.
                self.telemetry.increment("canary_fallbacks", len(canary_idx))
                stable_idx = sorted(stable_idx + canary_idx)
        if stable_idx:
            served.append((self.stable, stable_idx, self._embed_slot(
                self.stable, items, stable_idx)))
        first = served[0][2]
        rows = np.empty((len(items), first.shape[1]), dtype=first.dtype)
        versions: list[str] = [""] * len(items)
        for slot, indices, slot_rows in served:
            rows[indices] = slot_rows
            for i in indices:
                versions[i] = slot.version
        self.telemetry.increment("served", len(items))
        return rows, versions

    @staticmethod
    def _embed_slot(slot: ModelSlot, items, indices) -> np.ndarray:
        return slot.service.embed([items[i][1] for i in indices],
                                  digests=[items[i][0] for i in indices])

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Replica health + the underlying service's cache/latency stats."""
        # Raw-sample snapshot of the stable service's telemetry — a plain
        # dict, so it survives the process-replica pipe and the router can
        # merge true fleet-wide latency percentiles instead of averaging
        # per-worker summaries. Stub services without telemetry report an
        # empty snapshot.
        telemetry = getattr(self.stable.service, "telemetry", None)
        service_telemetry = (telemetry.snapshot(samples=True)
                             if telemetry is not None
                             else {"counters": {}, "gauges": {},
                                   "series": {}, "samples": {}})
        payload = {
            "worker_id": self.worker_id,
            "backend": self.backend,
            "alive": self._alive,
            "version": self.stable.version,
            "canary_version": None if self.canary is None
            else self.canary.version,
            "canary_slice": self.canary_slice,
            "served": int(self.telemetry.count("served")),
            "canary_fallbacks": int(self.telemetry.count("canary_fallbacks")),
            "breaker": self.breaker.stats(),
            "service": self.stable.service.stats(),
            "service_telemetry": service_telemetry,
        }
        if self.canary is not None:
            payload["canary_service"] = self.canary.service.stats()
        return payload
