"""The fleet front door: consistent-hash routing with replica failover.

:class:`FleetRouter` puts N replicas (:class:`~repro.fleet.FleetWorker`
or :class:`~repro.fleet.ProcessReplica`) behind one ``embed(graphs)``
call:

* **sharding** — each request graph is digested
  (:func:`~repro.serve.graph_digest`) and routed to its home shard on a
  :class:`~repro.fleet.HashRing`, so every digest is cached on exactly
  one replica and the fleet-wide hit rate approaches that of one cache
  with N× the capacity (``policy="random"`` exists purely as the
  baseline the bench compares against — N independent LRUs that each
  re-embed whatever lands on them).
* **failover** — a replica that is dead, breaker-open, or raises is
  skipped and its items are retried on the digest's next-preferred
  shard (``HashRing.preference`` order; a seeded per-request permutation
  under the random policy), counted under ``fleet/failover``. Only when
  every replica has refused an item does the request fail, with
  :class:`FleetExhaustedError`.
* **version integrity** — replicas stamp every row with the model
  version that produced it; :meth:`embed_detailed` returns the tags so
  callers (and the chaos tests) can verify a request never mixes
  versions for one digest, even across failover and hot swap.
* **hot swap** — :meth:`deploy_canary` installs a canary model on every
  replica for a deterministic slice of the digest space;
  :meth:`promote` / :meth:`rollback` finish the swap (see
  :class:`~repro.fleet.CanaryController` for the telemetry-driven
  decision).

All routing is traced (``fleet/route`` spans) and counted through the
router's :class:`~repro.obs.MetricsRegistry` plus the ambient observer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph import Graph
from ..obs import current
from ..obs.metrics import MetricsRegistry
from ..resilience import Deadline, ResilienceError
from ..serve.checkpoint import load_checkpoint
from ..serve.service import EmbeddingService, graph_digest
from .hashing import HashRing
from .worker import FleetWorker

__all__ = ["FleetRouter", "FleetResult", "FleetExhaustedError", "build_fleet"]


class FleetExhaustedError(ResilienceError):
    """Every replica refused (or failed) an item; the fleet cannot serve it."""


@dataclass
class FleetResult:
    """One fleet response: rows plus per-row provenance.

    ``versions[i]`` is the model version that produced ``embeddings[i]``
    and ``workers[i]`` the replica that served it — the audit trail the
    zero-version-mixing guarantee is asserted against.
    """

    embeddings: np.ndarray
    versions: list[str]
    workers: list[str]

    def served_versions(self) -> set[str]:
        return set(self.versions)


class FleetRouter:
    """Route ``embed`` traffic across replicas with failover.

    Parameters
    ----------
    workers:
        Replica objects (any mix of in-process workers and process
        replicas); their ``worker_id``s must be unique.
    vnodes:
        Virtual nodes per worker on the hash ring.
    policy:
        ``"hash"`` (consistent-hash sharding, the default) or
        ``"random"`` (seeded uniform routing; the bench's baseline).
    seed:
        Seed of the random-policy routing stream (unused under "hash").
    deadline_seconds:
        Optional per-request budget checked between shard dispatches.
    telemetry:
        Injectable :class:`MetricsRegistry` (e.g. an observer's) —
        a private one is created if omitted.
    """

    def __init__(self, workers, *, vnodes: int = 64, policy: str = "hash",
                 seed: int = 0, deadline_seconds: float | None = None,
                 telemetry: MetricsRegistry | None = None):
        workers = list(workers)
        if not workers:
            raise ValueError("a fleet needs at least one worker")
        if policy not in ("hash", "random"):
            raise ValueError(f"unknown routing policy {policy!r}; "
                             "use 'hash' or 'random'")
        ids = [w.worker_id for w in workers]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate worker ids: {sorted(ids)}")
        self._workers = {w.worker_id: w for w in workers}
        self.ring = HashRing(ids, vnodes=vnodes)
        self.policy = policy
        self.deadline_seconds = deadline_seconds
        self.telemetry = telemetry if telemetry is not None \
            else MetricsRegistry()
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    @property
    def workers(self) -> list:
        """Replicas, ordered by worker id."""
        return [self._workers[wid] for wid in sorted(self._workers)]

    def worker(self, worker_id: str):
        return self._workers[worker_id]

    @property
    def num_alive(self) -> int:
        return sum(1 for w in self._workers.values() if w.alive)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _candidates(self, digest: str) -> list[str]:
        if self.policy == "hash":
            return self.ring.preference(digest)
        order = list(self.ring.workers)
        self._rng.shuffle(order)
        return order

    def home(self, graph_or_digest) -> str:
        """Home shard id of a graph (or a precomputed digest)."""
        digest = graph_or_digest if isinstance(graph_or_digest, str) \
            else graph_digest(graph_or_digest)
        return self.ring.assign(digest)

    def embed(self, graphs) -> np.ndarray:
        """Embeddings for ``graphs`` (one row per graph, request order)."""
        return self.embed_detailed(graphs).embeddings

    def embed_detailed(self, graphs) -> FleetResult:
        """Embed with per-row provenance (serving version + worker id).

        Items are grouped by their current candidate shard and dispatched
        group-wise; a group whose replica is down, breaker-open or
        raising moves to each item's next-preferred shard
        (``fleet/failover`` per rerouted dispatch). Raises
        :class:`FleetExhaustedError` once an item has been refused by
        every replica and :class:`~repro.resilience.DeadlineExceeded`
        when a configured request deadline expires between dispatches.
        """
        if isinstance(graphs, Graph):
            graphs = [graphs]
        graphs = list(graphs)
        if not graphs:
            raise ValueError("embed() requires at least one graph")
        obs = current()
        deadline = Deadline(self.deadline_seconds) \
            if self.deadline_seconds is not None else None
        with obs.span("fleet/route"), self.telemetry.timer("route_seconds"):
            self.telemetry.increment("requests")
            self.telemetry.increment("graphs", len(graphs))
            digests = [graph_digest(graph) for graph in graphs]
            candidates = {i: self._candidates(digest)
                          for i, digest in enumerate(digests)}
            rows: list[np.ndarray | None] = [None] * len(graphs)
            versions: list[str | None] = [None] * len(graphs)
            served_by: list[str | None] = [None] * len(graphs)
            pending = list(range(len(graphs)))
            while pending:
                # Group the still-unserved items by their next candidate.
                groups: dict[str, list[int]] = {}
                exhausted = [i for i in pending if not candidates[i]]
                if exhausted:
                    self.telemetry.increment("exhausted", len(exhausted))
                    obs.increment("fleet/exhausted", len(exhausted))
                    raise FleetExhaustedError(
                        f"{len(exhausted)} graph(s) refused by every "
                        f"replica ({len(self._workers)} worker(s), "
                        f"{self.num_alive} alive)")
                for i in pending:
                    groups.setdefault(candidates[i].pop(0), []).append(i)
                pending = []
                for worker_id, indices in groups.items():
                    if deadline is not None:
                        deadline.check("fleet request")
                    worker = self._workers[worker_id]
                    if not worker.alive or not worker.breaker.allow():
                        self._count_reroute(worker_id, indices)
                        pending.extend(indices)
                        continue
                    items = [(digests[i], graphs[i]) for i in indices]
                    try:
                        with obs.span(f"fleet/shard/{worker_id}"):
                            got_rows, got_versions = worker.embed_items(items)
                    except Exception:
                        worker.breaker.record_failure()
                        self.telemetry.increment("worker_errors")
                        obs.increment("fleet/worker_errors")
                        self._count_reroute(worker_id, indices)
                        pending.extend(indices)
                        continue
                    worker.breaker.record_success()
                    self.telemetry.increment(f"routed/{worker_id}",
                                             len(indices))
                    for i, row, version in zip(indices, got_rows,
                                               got_versions):
                        rows[i] = row
                        versions[i] = version
                        served_by[i] = worker_id
            return FleetResult(np.stack(rows), versions, served_by)

    def _count_reroute(self, worker_id: str, indices: list[int]) -> None:
        """Count items leaving a refused shard for their next candidate."""
        self.telemetry.increment("failover", len(indices))
        self.telemetry.increment(f"failover/{worker_id}", len(indices))
        current().increment("fleet/failover", len(indices))

    # ------------------------------------------------------------------
    # Hot swap / canary
    # ------------------------------------------------------------------
    def deploy_canary(self, make_service, version: str,
                      slice_fraction: float) -> None:
        """Install a canary on every replica for a slice of the key space.

        ``make_service()`` is called once per replica so each shard keeps
        its own canary cache (mirroring the stable slots). The slice is
        digest-deterministic — the same graphs ride the canary fleet-wide.
        """
        for worker in self.workers:
            worker.deploy_canary(make_service(), version, slice_fraction)
        self.telemetry.increment("canary_deploys")
        current().event("fleet_canary", action="deploy", version=version,
                        slice=slice_fraction)

    def promote(self) -> str:
        """Make the canary the stable model on every replica."""
        version = ""
        for worker in self.workers:
            version = worker.promote_canary()
        self.telemetry.increment("promotions")
        current().increment("fleet/promotions")
        current().event("fleet_canary", action="promote", version=version)
        return version

    def rollback(self) -> str:
        """Drop the canary on every replica; stable keeps serving."""
        version = ""
        for worker in self.workers:
            version = worker.rollback_canary()
        self.telemetry.increment("rollbacks")
        current().increment("fleet/rollbacks")
        current().event("fleet_canary", action="rollback", version=version)
        return version

    def invalidate(self, digests) -> int:
        """Evict ``digests`` from every replica's caches; returns rows dropped.

        The fleet half of an incremental refresh: after a model swap,
        only the digests whose source graphs changed are dropped
        (``fleet/invalidated``), so unchanged graphs keep serving warm.
        Replicas without an ``invalidate`` surface are skipped; no
        :class:`~repro.fleet.ProcessReplica` has one, so its superseded
        rows stay cached until LRU eviction.
        """
        digests = list(digests)
        removed = 0
        for worker in self.workers:
            invalidate = getattr(worker, "invalidate", None)
            if invalidate is not None:
                removed += invalidate(digests)
        self.telemetry.increment("invalidated", removed)
        current().increment("fleet/invalidated", removed)
        return removed

    @property
    def canary_version(self) -> str | None:
        slots = {w.canary.version for w in self.workers
                 if w.canary is not None}
        return slots.pop() if len(slots) == 1 else None

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut every replica down (kills process replicas)."""
        for worker in self.workers:
            worker.close()

    def __enter__(self) -> "FleetRouter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Fleet-wide aggregates plus per-replica detail.

        The ``cache`` block sums every replica's stable-service cache:
        under hash routing ``size`` counts *distinct* digests fleet-wide
        (each digest lives on one shard), which is exactly why the
        fleet-wide ``hit_rate`` beats N independent caches.

        ``latency`` is the router's own ``route_seconds`` view;
        ``service_latency`` merges every replica's raw ``embed_seconds``
        samples (:meth:`MetricsRegistry.merge`) into genuine fleet-wide
        percentiles, including p99.
        """
        per_worker = [w.stats() for w in self.workers]
        hits = sum(w["service"]["cache"]["hits"] for w in per_worker)
        misses = sum(w["service"]["cache"]["misses"] for w in per_worker)
        lookups = hits + misses
        size = sum(w["service"]["cache"]["size"] for w in per_worker)
        capacity = sum(w["service"]["cache"]["capacity"] for w in per_worker)
        latency = self.telemetry.summary("route_seconds")
        # True fleet-wide service latency: merge every replica's raw
        # telemetry samples into one registry, so p50/p99 are percentiles
        # over the union of observations — percentiles of per-worker
        # summaries would be wrong whenever load (or speed) is skewed.
        merged = MetricsRegistry()
        for w in per_worker:
            merged.merge(w.get("service_telemetry", {}))
        service = merged.summary("embed_seconds")
        return {
            "policy": self.policy,
            "workers": len(self._workers),
            "alive": self.num_alive,
            "requests": int(self.telemetry.count("requests")),
            "graphs": int(self.telemetry.count("graphs")),
            "failover": int(self.telemetry.count("failover")),
            "worker_errors": int(self.telemetry.count("worker_errors")),
            "exhausted": int(self.telemetry.count("exhausted")),
            "resends": sum(w.get("resends", 0) for w in per_worker),
            "promotions": int(self.telemetry.count("promotions")),
            "rollbacks": int(self.telemetry.count("rollbacks")),
            "cache": {
                "hits": int(hits),
                "misses": int(misses),
                "hit_rate": hits / lookups if lookups else float("nan"),
                "size": int(size),
                "capacity": int(capacity),
                "occupancy": size / capacity if capacity else float("nan"),
            },
            "latency": {
                "requests": latency["count"],
                "mean_ms": latency["mean"] * 1e3,
                "p50_ms": latency["p50"] * 1e3,
                "p95_ms": latency["p95"] * 1e3,
            },
            "service_latency": {
                "requests": service["count"],
                "mean_ms": service["mean"] * 1e3,
                "p50_ms": service["p50"] * 1e3,
                "p95_ms": service["p95"] * 1e3,
                "p99_ms": merged.percentile("embed_seconds", 99) * 1e3,
            },
            "per_worker": per_worker,
        }


# ----------------------------------------------------------------------
def build_fleet(checkpoint: str, num_workers: int, *,
                version: str | None = None,
                cache_size: int = 1024, max_batch_size: int = 64,
                policy: str = "hash", vnodes: int = 64, seed: int = 0,
                deadline_seconds: float | None = None,
                service_kwargs: dict | None = None) -> FleetRouter:
    """Checkpoint → N-shard in-process fleet in one call.

    The bundle is read from disk **once**; each replica gets its own
    encoder instance rebuilt from the stored spec (bit-identical weights,
    independent service caches). ``version`` defaults to the checkpoint's
    registered name (``metadata["name"]``) or the file stem.
    """
    if num_workers < 1:
        raise ValueError(f"num_workers must be >= 1, got {num_workers}")
    bundle = load_checkpoint(checkpoint)
    if version is None:
        from pathlib import Path

        version = bundle.metadata.get("name") or Path(checkpoint).stem
    workers = []
    for i in range(num_workers):
        service = EmbeddingService(
            bundle.build_encoder(), cache_size=cache_size,
            max_batch_size=max_batch_size, **(service_kwargs or {}))
        workers.append(FleetWorker(f"w{i}", service, version=version))
    return FleetRouter(workers, vnodes=vnodes, policy=policy, seed=seed,
                       deadline_seconds=deadline_seconds)
