"""FleetRouter: sharding, bit-identity, failover, policy comparison."""

from __future__ import annotations

import numpy as np
import pytest

from repro.fleet import (
    FleetExhaustedError,
    FleetRouter,
    FleetWorker,
    build_fleet,
    canary_fraction,
)
from repro.serve import EmbeddingService, graph_digest
from repro.serve.checkpoint import load_checkpoint


def test_fleet_matches_single_service_bit_for_bit(checkpoint, corpus,
                                                  reference):
    for num_workers in (1, 3):
        with build_fleet(checkpoint, num_workers) as router:
            out = router.embed(corpus)
            assert out.dtype == reference.dtype
            assert np.array_equal(out, reference)


def test_each_digest_is_cached_on_exactly_one_shard(checkpoint, corpus):
    with build_fleet(checkpoint, 3) as router:
        router.embed(corpus)
        router.embed(corpus)
        stats = router.stats()
        digests = {graph_digest(g) for g in corpus}
        # Fleet-wide cache size == distinct digests: zero duplication.
        assert stats["cache"]["size"] == len(digests)
        # Second pass is all hits.
        assert stats["cache"]["hits"] == len(corpus)
        for graph in corpus:
            home = router.home(graph)
            assert home == router.home(graph_digest(graph))
            assert home in {w.worker_id for w in router.workers}


def test_hash_routing_beats_random_on_repeated_traffic(checkpoint, corpus):
    """The tentpole property, in miniature: home shards keep caches hot."""
    rng = np.random.default_rng(3)
    stream = [corpus[i] for i in rng.integers(0, len(corpus), size=120)]
    rates = {}
    for policy in ("hash", "random"):
        with build_fleet(checkpoint, 3, cache_size=max(2, len(corpus) // 3),
                         policy=policy) as router:
            for i in range(0, len(stream), 6):
                router.embed(stream[i:i + 6])
            rates[policy] = router.stats()["cache"]["hit_rate"]
    assert rates["hash"] > rates["random"]


def test_failover_serves_from_surviving_shards(checkpoint, corpus, reference):
    with build_fleet(checkpoint, 3) as router:
        victim = router.home(corpus[0])
        router.worker(victim).kill()
        result = router.embed_detailed(corpus)
        assert np.array_equal(result.embeddings, reference)
        assert victim not in set(result.workers)
        assert router.telemetry.count("failover") > 0
        assert router.stats()["alive"] == 2


def test_service_latency_merges_true_fleet_wide_percentiles(checkpoint,
                                                            corpus):
    # stats()["service_latency"] must be percentiles over the *union* of
    # every replica's raw embed_seconds samples — not an average of
    # per-worker summaries, which goes wrong whenever load is skewed
    # (and hash routing skews it by design).
    with build_fleet(checkpoint, 3) as router:
        for i in range(0, len(corpus), 4):
            router.embed(corpus[i:i + 4])
        stats = router.stats()
        union = [sample for worker in stats["per_worker"]
                 for sample in worker["service_telemetry"]["samples"]
                 .get("embed_seconds", [])]
        assert union, "replicas should ship raw samples in their stats"
        latency = stats["service_latency"]
        assert latency["requests"] == len(union)
        for key, q in (("p50_ms", 50), ("p95_ms", 95), ("p99_ms", 99)):
            assert latency[key] == pytest.approx(
                float(np.percentile(union, q)) * 1e3)
        assert latency["p50_ms"] <= latency["p95_ms"] <= latency["p99_ms"]


def test_revived_worker_takes_its_traffic_back(checkpoint, corpus):
    with build_fleet(checkpoint, 2) as router:
        victim = router.home(corpus[0])
        router.worker(victim).kill()
        result = router.embed_detailed([corpus[0]])
        assert result.workers[0] != victim
        router.worker(victim).revive()
        result = router.embed_detailed([corpus[0]])
        assert result.workers[0] == victim


class _BoomService:
    """Stable-slot stand-in that always raises (breaker fodder)."""

    def embed(self, graphs, digests=None):
        raise RuntimeError("boom")

    def stats(self):
        return {"cache": {"size": 0, "capacity": 1, "occupancy": 0.0,
                          "hits": 0, "misses": 0, "lookups": 0,
                          "hit_rate": float("nan"), "evictions": 0},
                "encoder": {"batches": 0, "graphs": 0,
                            "mean_batch_size": float("nan")},
                "latency": {"requests": 0, "mean_ms": float("nan"),
                            "p50_ms": float("nan"), "p95_ms": float("nan")},
                "resilience": {"shed": 0, "timeouts": 0,
                               "encoder_failures": 0}}


def test_raising_worker_trips_breaker_and_fails_over(checkpoint, corpus,
                                                     reference):
    bundle = load_checkpoint(checkpoint)
    good = FleetWorker("good", EmbeddingService(bundle.build_encoder()))
    bad = FleetWorker("bad", _BoomService())
    # The stub is reached with the digests the router sends, so the
    # failure is the encoder's, not an argument mismatch.
    with pytest.raises(RuntimeError, match="^boom$"):
        bad.embed_items([(graph_digest(g), g) for g in corpus[:2]])
    router = FleetRouter([good, bad])
    for i in range(0, len(corpus), 4):
        out = router.embed(corpus[i:i + 4])
        assert np.array_equal(out, reference[i:i + 4])
    stats = router.stats()
    assert stats["worker_errors"] > 0
    assert stats["failover"] >= stats["worker_errors"]
    # After failure_threshold errors the breaker opens: refusals stop
    # costing an exception and are counted as reroutes only.
    assert bad.breaker.state == "open"


def test_all_replicas_down_raises_exhausted(checkpoint, corpus):
    with build_fleet(checkpoint, 2) as router:
        for worker in router.workers:
            worker.kill()
        with pytest.raises(FleetExhaustedError):
            router.embed(corpus[:2])
        assert router.telemetry.count("exhausted") > 0


def test_canary_slice_is_digest_deterministic_even_across_failover(
        checkpoint, corpus, reference):
    bundle = load_checkpoint(checkpoint)
    with build_fleet(checkpoint, 2, version="v1") as router:
        router.deploy_canary(
            lambda: EmbeddingService(bundle.build_encoder()), "v2", 0.5)
        first = router.embed_detailed(corpus)
        router.worker(router.home(corpus[0])).kill()
        second = router.embed_detailed(corpus)
        # Same checkpoint for both versions: rows stay bit-identical...
        assert np.array_equal(first.embeddings, reference)
        assert np.array_equal(second.embeddings, reference)
        # ...and the serving version depends only on the digest, never on
        # which replica happened to serve the row.
        for graph, v1, v2 in zip(corpus, first.versions, second.versions):
            expected = "v2" if canary_fraction(graph_digest(graph)) < 0.5 \
                else "v1"
            assert v1 == v2 == expected


def test_router_validates_inputs(checkpoint, corpus):
    with pytest.raises(ValueError):
        FleetRouter([])
    with build_fleet(checkpoint, 1) as router:
        with pytest.raises(ValueError):
            router.embed([])
        single = router.embed(corpus[0])
        assert single.shape[0] == 1
    with pytest.raises(ValueError):
        build_fleet(checkpoint, 2, policy="round-robin")
    with pytest.raises(ValueError):
        build_fleet(checkpoint, 0)
    bundle = load_checkpoint(checkpoint)
    twins = [FleetWorker("w", EmbeddingService(bundle.build_encoder()))
             for _ in range(2)]
    with pytest.raises(ValueError):
        FleetRouter(twins)


def test_stats_shape(checkpoint, corpus):
    with build_fleet(checkpoint, 2) as router:
        router.embed(corpus)
        stats = router.stats()
    assert stats["workers"] == 2 and stats["alive"] == 2
    assert stats["graphs"] == len(corpus)
    cache = stats["cache"]
    assert 0 <= cache["occupancy"] <= 1
    assert cache["hits"] + cache["misses"] == len(corpus)
    assert len(stats["per_worker"]) == 2
    for worker_stats in stats["per_worker"]:
        assert worker_stats["backend"] == "inprocess"
        assert worker_stats["alive"] is True
        assert "occupancy" in worker_stats["service"]["cache"]


def test_invalidate_evicts_only_named_digests_fleet_wide(checkpoint, corpus):
    """Selective refresh: changed digests drop, warm rows keep serving."""
    fleet = build_fleet(str(checkpoint), 3, cache_size=len(corpus))
    fleet.embed(corpus)
    assert fleet.stats()["cache"]["hits"] == 0

    victims = [graph_digest(g) for g in corpus[:5]]
    removed = fleet.invalidate(victims)
    assert removed == 5  # each digest was cached on exactly one shard
    assert fleet.invalidate(victims) == 0  # idempotent
    assert fleet.telemetry.count("invalidated") == 5

    fleet.embed(corpus)
    # the unchanged rows served warm; only the victims recomputed
    assert fleet.stats()["cache"]["hits"] == len(corpus) - 5
    fleet.close()


def test_service_invalidate_counts_rows(checkpoint, corpus):
    service = EmbeddingService(load_checkpoint(str(checkpoint)).build_encoder(),
                               cache_size=len(corpus))
    service.embed(corpus)
    digests = [graph_digest(g) for g in corpus[:3]]
    assert service.invalidate(digests + ["not-a-digest"]) == 3
    assert service.invalidate(digests) == 0
    assert service.telemetry.count("cache_invalidations") == 3
