"""CanaryController: deterministic slices, promotion, rollback, registry glue."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.fleet import (
    CanaryController,
    build_fleet,
    canary_fraction,
    deploy_canary_from_registry,
    fleet_from_registry,
)
from repro.gnn import GNNEncoder
from repro.graph import Graph
from repro.serve import EmbeddingService, ModelRegistry, graph_digest
from repro.serve.checkpoint import load_checkpoint

FEATURES = 4  # matches the conftest corpus


def test_canary_fraction_is_deterministic_and_uniform():
    rng = np.random.default_rng(0)
    digests = [bytes(rng.integers(0, 256, size=32, dtype=np.uint8)).hex()
               for _ in range(500)]
    fractions = [canary_fraction(d) for d in digests]
    assert fractions == [canary_fraction(d) for d in digests]
    assert all(0.0 <= f < 1.0 for f in fractions)
    assert 0.3 < np.mean([f < 0.5 for f in fractions]) < 0.7


def _chains(seed: int, nodes: int, count: int = 24) -> list[Graph]:
    """``count`` chain graphs of ``nodes`` nodes; a new seed, new digests."""
    rng = np.random.default_rng(seed)
    pairs = np.array([(i, i + 1) for i in range(nodes - 1)])
    edge_index = np.concatenate([pairs, pairs[:, ::-1]], axis=0).T
    return [Graph(rng.normal(size=(nodes, FEATURES)), edge_index, y=0)
            for _ in range(count)]


def test_healthy_canary_is_promoted(checkpoint, corpus, reference):
    bundle = load_checkpoint(checkpoint)
    with build_fleet(checkpoint, 2, version="v1") as router:
        router.deploy_canary(
            lambda: EmbeddingService(bundle.build_encoder()), "v2", 0.5)
        # 40 requests per side is about 20 per replica, where a p95 no
        # longer reads the single slowest request. Every round is fresh
        # 1024-node graphs, so each request on either side runs a forward
        # pass of a few ms, which a scheduler stall rarely triples.
        controller = CanaryController(router, min_graphs=40)
        assert controller.step() == "continue"  # warmup: no traffic yet
        for seed in range(1, 41):
            router.embed(_chains(seed, nodes=1024))
            verdict, evidence = controller.evaluate()
            if verdict != "warmup":
                break
            assert evidence["latency_ratio"] is None
            assert controller.step() == "continue"
        assert verdict == "healthy"
        assert evidence["canary_graphs"] >= controller.min_graphs
        assert evidence["latency_ratio"] <= controller.max_latency_ratio
        assert controller.step() == "promote"
        assert router.canary_version is None
        result = router.embed_detailed(corpus)
        assert set(result.versions) == {"v2"}
        assert np.array_equal(result.embeddings, reference)
        # Nothing deployed: stepping again is a no-op.
        assert controller.step() == "continue"


class _BrokenEncoder:
    """Encoder stand-in whose forward pass always raises."""

    def eval(self):
        return self

    def graph_representations(self, graphs):
        raise RuntimeError("bad weights")


def test_failing_canary_is_rolled_back_and_contained(checkpoint, corpus,
                                                     reference):
    with build_fleet(checkpoint, 2, version="v1") as router:
        router.deploy_canary(
            lambda: EmbeddingService(GNNEncoder(
                FEATURES, 8, 2, rng=np.random.default_rng(99))), "v2", 0.5)
        # Sabotage every canary slot after deploy: requests on the canary
        # slice must fall back to stable, not fail.
        for worker in router.workers:
            worker.canary.service.encoder = _BrokenEncoder()
        result = router.embed_detailed(corpus)
        assert np.array_equal(result.embeddings, reference)
        assert set(result.versions) == {"v1"}  # every row fell back
        fallbacks = sum(w.telemetry.count("canary_fallbacks")
                        for w in router.workers)
        assert fallbacks > 0
        controller = CanaryController(router, min_graphs=8)
        verdict, evidence = controller.evaluate()
        assert verdict == "unhealthy"
        assert evidence["failure_rate"] > controller.max_failure_rate
        assert controller.step() == "rollback"
        assert router.canary_version is None
        after = router.embed_detailed(corpus)
        assert set(after.versions) == {"v1"}


def test_warmup_waits_for_traffic(checkpoint, corpus):
    bundle = load_checkpoint(checkpoint)
    with build_fleet(checkpoint, 2, version="v1") as router:
        router.deploy_canary(
            lambda: EmbeddingService(bundle.build_encoder()), "v2", 0.2)
        controller = CanaryController(router, min_graphs=10_000)
        router.embed(corpus)
        verdict, evidence = controller.evaluate()
        assert verdict == "warmup"
        assert evidence["canary_graphs"] < controller.min_graphs
        assert controller.step() == "continue"
        assert router.canary_version == "v2"


def test_controller_validates_thresholds(checkpoint):
    with build_fleet(checkpoint, 1) as router:
        with pytest.raises(ValueError):
            CanaryController(router, min_graphs=0)
        with pytest.raises(ValueError):
            CanaryController(router, max_failure_rate=-0.1)
        with pytest.raises(ValueError):
            CanaryController(router, max_latency_ratio=0.0)


def test_registry_glue_roundtrip(tmp_path, corpus):
    registry = ModelRegistry(tmp_path / "models")
    enc1 = GNNEncoder(FEATURES, 8, 2, rng=np.random.default_rng(1))
    enc2 = GNNEncoder(FEATURES, 8, 2, rng=np.random.default_rng(2))
    registry.register("sgcl-v1", enc1)
    registry.register("sgcl-v2", enc2)
    with fleet_from_registry(registry, "sgcl-v1", 2) as router:
        assert {w.version for w in router.workers} == {"sgcl-v1"}
        deploy_canary_from_registry(router, registry, "sgcl-v2", 0.5)
        assert router.canary_version == "sgcl-v2"
        result = router.embed_detailed(corpus)
        ref1 = EmbeddingService(enc1).embed(corpus)
        ref2 = EmbeddingService(enc2).embed(corpus)
        for i, graph in enumerate(corpus):
            if canary_fraction(graph_digest(graph)) < 0.5:
                assert result.versions[i] == "sgcl-v2"
                assert np.array_equal(result.embeddings[i], ref2[i])
            else:
                assert result.versions[i] == "sgcl-v1"
                assert np.array_equal(result.embeddings[i], ref1[i])


class _SlowEncoder:
    """Encoder wrapper that sleeps before every forward pass."""

    def __init__(self, encoder, seconds: float):
        self.encoder = encoder
        self.seconds = seconds

    def eval(self):
        return self

    def graph_representations(self, graphs):
        time.sleep(self.seconds)
        return self.encoder.graph_representations(graphs)


def test_slow_canary_is_rolled_back_once_latency_has_enough_samples(
        checkpoint, corpus):
    bundle = load_checkpoint(checkpoint)
    # Shifted copies give fresh digests, so no canary request is cached.
    graphs = [Graph(g.x + shift, g.edge_index, y=0)
              for shift in (0.0, 1.0) for g in corpus]
    in_slice = [canary_fraction(graph_digest(g)) < 0.5 for g in graphs]
    canary_graphs = [g for g, c in zip(graphs, in_slice) if c]
    stable_graph = next(g for g, c in zip(graphs, in_slice) if not c)
    min_graphs = 8
    assert len(canary_graphs) >= min_graphs
    with build_fleet(checkpoint, 2, version="v1") as router:
        router.deploy_canary(
            lambda: EmbeddingService(
                _SlowEncoder(bundle.build_encoder(), 0.05)), "v2", 0.5)
        controller = CanaryController(router, min_graphs=min_graphs)
        # One request per side per round; every canary graph is new, so
        # each canary request pays the slow forward pass.
        for graph in canary_graphs[:min_graphs - 1]:
            router.embed([stable_graph])
            router.embed([graph])
            verdict, evidence = controller.evaluate()
            assert verdict == "warmup"
            assert evidence["latency_ratio"] is None
            assert controller.step() == "continue"
        router.embed([stable_graph])
        router.embed([canary_graphs[min_graphs - 1]])
        verdict, evidence = controller.evaluate()
        assert verdict == "unhealthy"
        assert evidence["failure_rate"] == 0.0
        assert evidence["latency_ratio"] > controller.max_latency_ratio
        assert controller.step() == "rollback"
        assert router.canary_version is None


def test_slow_canary_on_multi_graph_requests_is_rolled_back_not_promoted(
        checkpoint):
    bundle = load_checkpoint(checkpoint)
    min_graphs = 8
    with build_fleet(checkpoint, 2, version="v1") as router:
        router.deploy_canary(
            lambda: EmbeddingService(
                _SlowEncoder(bundle.build_encoder(), 0.05)), "v2", 0.5)
        controller = CanaryController(router, min_graphs=min_graphs)
        # Each request carries many graphs, so canary graph traffic passes
        # min_graphs long before either side has min_graphs requests.
        for seed in range(1, 2 * min_graphs):
            router.embed(_chains(seed, nodes=8))
            verdict, evidence = controller.evaluate()
            if evidence["latency_ratio"] is not None:
                break
            assert evidence["canary_graphs"] >= min_graphs
            assert verdict == "warmup"
            assert controller.step() == "continue"
        assert seed > 1  # the graph count alone never promoted it
        assert verdict == "unhealthy"
        assert evidence["failure_rate"] == 0.0
        assert evidence["latency_ratio"] > controller.max_latency_ratio
        assert controller.step() == "rollback"
        assert router.canary_version is None
