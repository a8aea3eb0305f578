"""Telemetry-driven canary promotion / rollback for hot model swaps.

The fleet's hot-swap flow is two mechanical operations
(:meth:`FleetRouter.deploy_canary`, then :meth:`promote` or
:meth:`rollback`) separated by a judgement call: *is the canary healthy
enough to take all traffic?* :class:`CanaryController` makes that call
from the same ``obs/`` telemetry everything else in the system records —
no side channel, no bespoke health protocol:

* **failure rate** — encoder failures + sheds + timeouts across every
  replica's canary service, per graph served;
* **canary fallbacks** — requests the workers had to bounce back to the
  stable slot because the canary raised;
* **latency** — canary p95 request latency relative to the stable
  slots' p95 (a canary that is *correct but slow* is still a bad swap).

:meth:`evaluate` is pure (returns ``"warmup" | "healthy" | "unhealthy"``
plus the evidence); :meth:`step` acts on it — promoting, rolling back,
or waiting for more traffic — and emits a ``fleet_canary`` decision
event through the ambient observer.

Pair with :class:`~repro.serve.ModelRegistry` for the full flow::

    router = fleet_from_registry(registry, "sgcl-v1", num_workers=4)
    deploy_canary_from_registry(router, registry, "sgcl-v2", slice_fraction=0.2)
    controller = CanaryController(router)
    for batch in traffic:
        router.embed(batch)
        if controller.step() != "continue":
            break   # promoted or rolled back
"""

from __future__ import annotations

from ..obs import current
from ..serve.registry import ModelRegistry
from ..serve.service import EmbeddingService
from .router import FleetRouter

__all__ = ["CanaryController", "deploy_canary_from_registry",
           "fleet_from_registry"]


class CanaryController:
    """Promote-or-rollback policy over a deployed canary's telemetry.

    Parameters
    ----------
    router:
        The fleet with a canary deployed (deploying after construction
        is fine too; :meth:`step` is a no-op without one).
    min_graphs:
        Canary graphs served (fallbacks included) and latency samples
        (requests) per side required before a healthy verdict; the
        latency rule waits for the same number of samples.
    max_failure_rate:
        Ceiling on (encoder failures + sheds + timeouts + fallbacks) per
        canary graph; above it the canary is unhealthy.
    max_latency_ratio:
        Ceiling on canary p95 request latency as a multiple of the
        stable p95 (ignored until each side has ``min_graphs`` samples).
    """

    def __init__(self, router: FleetRouter, *, min_graphs: int = 32,
                 max_failure_rate: float = 0.02,
                 max_latency_ratio: float = 3.0):
        if min_graphs < 1:
            raise ValueError(f"min_graphs must be >= 1, got {min_graphs}")
        if max_failure_rate < 0:
            raise ValueError("max_failure_rate must be >= 0")
        if max_latency_ratio <= 0:
            raise ValueError("max_latency_ratio must be positive")
        self.router = router
        self.min_graphs = min_graphs
        self.max_failure_rate = max_failure_rate
        self.max_latency_ratio = max_latency_ratio

    # ------------------------------------------------------------------
    def observations(self) -> dict:
        """Aggregate canary vs stable telemetry across every replica."""
        graphs = failures = fallbacks = 0
        canary_p95 = stable_p95 = 0.0
        canary_samples = stable_samples = 0
        for worker in self.router.workers:
            stats = worker.stats()
            fallbacks += stats["canary_fallbacks"]
            stable_latency = stats["service"]["latency"]
            if stable_latency["requests"]:
                stable_p95 = max(stable_p95, stable_latency["p95_ms"])
                stable_samples += stable_latency["requests"]
            canary_stats = stats.get("canary_service")
            if canary_stats is None:
                continue
            graphs += canary_stats["encoder"]["graphs"] \
                + canary_stats["cache"]["hits"]
            failures += canary_stats["resilience"]["encoder_failures"] \
                + canary_stats["resilience"]["shed"] \
                + canary_stats["resilience"]["timeouts"]
            if canary_stats["latency"]["requests"]:
                canary_p95 = max(canary_p95,
                                 canary_stats["latency"]["p95_ms"])
                canary_samples += canary_stats["latency"]["requests"]
        graphs += fallbacks  # traffic the canary *should* have served
        bad = failures + fallbacks
        return {
            "canary_graphs": graphs,
            "failures": failures,
            "fallbacks": fallbacks,
            "failure_rate": bad / graphs if graphs else 0.0,
            "canary_p95_ms": canary_p95 if canary_samples else None,
            "stable_p95_ms": stable_p95 if stable_samples else None,
            "latency_ratio": (canary_p95 / stable_p95
                              if min(canary_samples, stable_samples)
                              >= self.min_graphs and stable_p95 > 0
                              else None),
        }

    def evaluate(self) -> tuple[str, dict]:
        """``(verdict, evidence)`` without acting on it.

        Verdicts: ``"warmup"`` (too few canary graphs or latency samples),
        ``"unhealthy"`` (a threshold is breached), ``"healthy"``.
        """
        evidence = self.observations()
        if evidence["failure_rate"] > self.max_failure_rate:
            return "unhealthy", evidence
        if (evidence["latency_ratio"] or 0.0) > self.max_latency_ratio:
            return "unhealthy", evidence
        if evidence["canary_graphs"] < self.min_graphs \
                or evidence["latency_ratio"] is None:
            return "warmup", evidence
        return "healthy", evidence

    def step(self) -> str:
        """Evaluate and act: ``"promote"``, ``"rollback"`` or ``"continue"``.

        An unhealthy canary is rolled back even during warmup — waiting
        for more traffic through a failing model helps nobody.
        """
        if self.router.canary_version is None:
            return "continue"
        verdict, evidence = self.evaluate()
        if verdict == "unhealthy":
            version = self.router.rollback()
            decision = "rollback"
        elif verdict == "healthy":
            version = self.router.promote()
            decision = "promote"
        else:
            return "continue"
        current().event("fleet_canary", action="decision", decision=decision,
                        version=version, **{k: v for k, v in evidence.items()
                                            if v is not None})
        return decision


# ----------------------------------------------------------------------
# ModelRegistry glue
# ----------------------------------------------------------------------
def fleet_from_registry(registry: ModelRegistry, name: str,
                        num_workers: int, **fleet_kwargs) -> FleetRouter:
    """Serve a registered model as an N-shard fleet (version = its name)."""
    from .router import build_fleet

    return build_fleet(registry.path(name), num_workers, version=name,
                       **fleet_kwargs)


def deploy_canary_from_registry(router: FleetRouter, registry: ModelRegistry,
                                name: str, slice_fraction: float, *,
                                cache_size: int = 1024,
                                max_batch_size: int = 64) -> None:
    """Canary a registered model version onto an existing fleet.

    The checkpoint is read once; each replica's canary slot gets its own
    service over a freshly rebuilt encoder, mirroring how
    :func:`~repro.fleet.build_fleet` provisions stable slots.
    """
    from ..serve.checkpoint import load_checkpoint

    bundle = load_checkpoint(registry.path(name))
    router.deploy_canary(
        lambda: EmbeddingService(bundle.build_encoder(),
                                 cache_size=cache_size,
                                 max_batch_size=max_batch_size),
        name, slice_fraction)
