"""Multiprocess fleet backend: one embedding service per forked child.

:class:`ProcessReplica` is the process-isolated twin of
:class:`~repro.fleet.FleetWorker`: same duck-typed surface the
:class:`~repro.fleet.FleetRouter` dispatches to (``worker_id`` /
``alive`` / ``breaker`` / ``embed_items`` / ``stats`` / the hot-swap
verbs), but the service lives in a forked child that rebuilds its
encoder from a checkpoint path. A replica OOM-killed or ``SIGKILL``-ed
mid-request is detected by the parent's liveness poll and surfaces as
:class:`~repro.fleet.WorkerDownError` — exactly the signal the router's
failover path consumes, so a real process death drains onto the
surviving shards the same way an in-process ``kill()`` does.

The child is a :class:`repro.runtime.supervisor.Child`, the same
supervised process the executor pool uses. Every round trip is bounded
by ``response_timeout``: a child that misses it is terminated and the
replica reads as down, so a late reply can never be mistaken for the
answer to the next request.

Requests are digest-first. ``embed_items`` sends only the digests; a
child that holds every row in the slot each digest routes to serves them
at once. Otherwise it replies with the missing indices (touching no LRU
entry and no counter) and the parent resends, carrying graphs for those
indices only — counted under ``resends``. A hot request therefore never
pickles a graph.

Chaos hook: ``fault`` is a callable invoked in the child with
the running request ordinal before each embed request —
:class:`repro.validate.faults.KillWorkerOnce` drops straight in to kill
the replica on request *k* exactly once per marker file.

Requires ``fork`` (see :func:`repro.runtime.fork_available`); construct
in-process :class:`FleetWorker`\\ s on platforms without it.
"""

from __future__ import annotations

import time

from ..resilience import CircuitBreaker
from ..runtime import fork_available
from ..runtime.supervisor import Child, ChildDown
from ..serve.service import EmbeddingService
from .worker import FleetWorker, WorkerDownError

__all__ = ["ProcessReplica"]


def _replica_handler(worker_id: str, checkpoint, version: str,
                     cache_size: int, max_batch_size: int, fault):
    """Build the child's message dispatch around a regular FleetWorker.

    The worker wraps a service rebuilt from the checkpoint, so slot
    selection, canary fallback and telemetry behave identically to the
    in-process backend.
    """
    worker = FleetWorker(
        worker_id,
        EmbeddingService.from_checkpoint(checkpoint, cache_size=cache_size,
                                         max_batch_size=max_batch_size),
        version=version)
    requests = 0

    def handle(message):
        nonlocal requests
        kind, *payload = message
        if kind == "embed":
            digests, graphs = payload
            if graphs is None:  # the digest-only first trip
                requests += 1
                if fault is not None:
                    fault(requests - 1)
                missing = worker.missing(digests)
                if missing:
                    return missing
                graphs = {}
            return worker.embed_items(
                [(digest, graphs.get(i)) for i, digest in enumerate(digests)])
        if kind == "stats":
            return worker.stats()
        if kind == "canary":
            worker.deploy_canary(*payload)
            return None
        if kind == "promote":
            return worker.promote_canary()
        if kind == "rollback":
            return worker.rollback_canary()
        if kind == "swap":
            worker.swap_model(*payload)
            return payload[1]
        raise ValueError(f"unknown fleet message {kind!r}")

    return handle


class ProcessReplica:
    """A fleet shard served from a forked child process.

    Parameters
    ----------
    worker_id:
        Name on the hash ring.
    checkpoint:
        Bundle the child rebuilds its encoder from (read in the child —
        N replicas do N reads, but no encoder ever crosses the pipe at
        startup).
    version:
        Stable model version tag (defaults to the checkpoint stem).
    cache_size / max_batch_size:
        Forwarded to the child's :class:`EmbeddingService`.
    response_timeout:
        Seconds the parent waits on any single reply before terminating
        the child and declaring the replica down (hung-child detection).
    fault:
        Chaos hook called with the request ordinal in the child before
        each embed (e.g. ``KillWorkerOnce``, ``HangWorkerOnce``).
    breaker:
        Parent-side per-replica breaker (router-fed); defaults match
        :class:`FleetWorker`.
    """

    backend = "process"

    def __init__(self, worker_id: str, checkpoint, *,
                 version: str | None = None, cache_size: int = 1024,
                 max_batch_size: int = 64, response_timeout: float = 60.0,
                 fault=None, breaker: CircuitBreaker | None = None):
        if not fork_available():
            raise RuntimeError(
                "ProcessReplica requires the fork start method; use "
                "in-process FleetWorker objects on this platform")
        if response_timeout <= 0:
            raise ValueError(
                f"response_timeout must be positive, got {response_timeout}")
        if version is None:
            from pathlib import Path

            version = Path(str(checkpoint)).stem
        self.worker_id = worker_id
        self.version = version
        self.response_timeout = response_timeout
        self.breaker = breaker if breaker is not None else CircuitBreaker(
            failure_threshold=3, recovery_timeout=5.0,
            name=f"fleet-{worker_id}")
        self.canary_version: str | None = None
        self.canary_slice = 0.0
        self.resends = 0
        self._child = Child(
            lambda: _replica_handler(worker_id, checkpoint, version,
                                     cache_size, max_batch_size, fault),
            name=f"replica {worker_id!r}")

    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        return self._child.alive

    @property
    def canary(self):
        """Canary slot mirror (version only; the service lives remotely)."""
        if self.canary_version is None:
            return None
        from .worker import ModelSlot

        return ModelSlot(None, self.canary_version)

    # ------------------------------------------------------------------
    def _request(self, *message):
        """One round trip; any process-level failure is WorkerDownError."""
        if not self.alive:
            raise WorkerDownError(f"replica {self.worker_id!r} is down")
        try:
            self._child.send(message)
            ok, payload = self._child.recv(
                time.monotonic() + self.response_timeout)
        except ChildDown as error:
            raise WorkerDownError(str(error)) from error
        if not ok:
            raise RuntimeError(
                f"replica {self.worker_id!r} request failed; child "
                f"traceback:\n{payload}")
        return payload

    # ------------------------------------------------------------------
    def embed_items(self, items):
        """Digest-first: graphs cross the pipe only for the child's misses."""
        digests = [digest for digest, _ in items]
        reply = self._request("embed", digests, None)
        if isinstance(reply, list):  # indices the child holds no row for
            self.resends += 1
            reply = self._request("embed", digests,
                                  {i: items[i][1] for i in reply})
        return reply

    def stats(self) -> dict:
        """Child-side worker stats; a down replica reports a dead stub."""
        if not self.alive:
            return {
                "worker_id": self.worker_id, "backend": self.backend,
                "alive": False, "version": self.version,
                "canary_version": self.canary_version,
                "canary_slice": self.canary_slice, "served": 0,
                "resends": self.resends,
                "canary_fallbacks": 0, "breaker": self.breaker.stats(),
                "service": {
                    "cache": {"size": 0, "capacity": 0, "hits": 0,
                              "misses": 0, "hit_rate": float("nan"),
                              "evictions": 0, "lookups": 0,
                              "occupancy": float("nan")},
                    "encoder": {"batches": 0, "graphs": 0,
                                "mean_batch_size": float("nan")},
                    "latency": {"requests": 0, "mean_ms": float("nan"),
                                "p50_ms": float("nan"),
                                "p95_ms": float("nan")},
                    "resilience": {"shed": 0, "timeouts": 0,
                                   "encoder_failures": 0},
                },
                "service_telemetry": {"counters": {}, "gauges": {},
                                      "series": {}, "samples": {}},
            }
        stats = self._request("stats")
        stats["backend"] = self.backend
        stats["breaker"] = self.breaker.stats()
        stats["resends"] = self.resends
        return stats

    # ------------------------------------------------------------------
    # Hot swap — the service object crosses the pipe (numpy state only)
    # ------------------------------------------------------------------
    def deploy_canary(self, service: EmbeddingService, version: str,
                      slice_fraction: float) -> None:
        self._request("canary", service, version, slice_fraction)
        self.canary_version = version
        self.canary_slice = slice_fraction

    def promote_canary(self) -> str:
        version = self._request("promote")
        self.version = version
        self.canary_version = None
        self.canary_slice = 0.0
        return version

    def rollback_canary(self) -> str:
        dropped = self._request("rollback")
        self.canary_version = None
        self.canary_slice = 0.0
        return dropped

    def swap_model(self, service: EmbeddingService, version: str) -> None:
        self._request("swap", service, version)
        self.version = version

    # ------------------------------------------------------------------
    def kill(self) -> None:
        """SIGKILL the child — the real thing, not a flag."""
        self._child.process.kill()
        self._child.process.join(timeout=5.0)

    def close(self) -> None:
        """Graceful stop (escalating to terminate/kill on a wedged child)."""
        self._child.stop()

    def __del__(self):  # pragma: no cover — best-effort cleanup
        try:
            self.close()
        except Exception:
            pass
