"""Parallel-vs-serial bit-equivalence — the runtime determinism contract.

With a fixed seed, every ``workers`` value must produce bit-identical
results: worker counts change wall-time, never numbers (ISSUE 3
acceptance criterion).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.lipschitz import LipschitzConstantGenerator
from repro.eval import cross_validated_accuracy
from repro.gnn import GNNEncoder
from repro.runtime import (
    ParallelExecutor,
    PrecomputeCache,
    precompute_node_constants,
    precompute_statics,
)

from _helpers import make_path, make_triangle


def _corpus(rng, n=10):
    return [make_triangle(rng) if i % 2 else make_path(rng)
            for i in range(n)]


def _generator(mode, seed=0):
    rng = np.random.default_rng(seed)
    encoder = GNNEncoder(4, 8, num_layers=2, rng=rng)
    return LipschitzConstantGenerator(encoder, rng=rng, mode=mode)


# ----------------------------------------------------------------------
# Executor-level equivalence
# ----------------------------------------------------------------------
def _norm_job(graph):
    return float(np.linalg.norm(graph.x))


def test_executor_map_bit_identical(rng):
    graphs = _corpus(rng)
    serial = ParallelExecutor(workers=1).map(_norm_job, graphs)
    parallel = ParallelExecutor(workers=2).map(_norm_job, graphs)
    assert serial == parallel


# ----------------------------------------------------------------------
# Lipschitz precompute (the K_V statistics of the acceptance criterion)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["approx", "exact"])
def test_node_constants_bit_identical(rng, mode):
    graphs = _corpus(rng)
    generator = _generator(mode)
    serial = precompute_node_constants(generator, graphs, workers=1)
    parallel = precompute_node_constants(generator, graphs, workers=2)
    assert len(serial) == len(parallel) == len(graphs)
    for a, b in zip(serial, parallel):
        assert np.array_equal(a, b)  # bit-identical, not just close


def test_node_constants_cache_round_trip_identical(rng, tmp_path):
    graphs = _corpus(rng)
    generator = _generator("approx")
    cache = PrecomputeCache(tmp_path / "kv")
    fresh = precompute_node_constants(generator, graphs, workers=2,
                                      cache=cache)
    cached = precompute_node_constants(generator, graphs, workers=2,
                                       cache=cache)
    for a, b in zip(fresh, cached):
        assert np.array_equal(a, b)
    assert cache.stats()["hits"] == len(graphs)


def test_node_constants_cache_respects_parameter_change(rng, tmp_path):
    """Updating the generator must never serve stale constants."""
    graphs = _corpus(rng, 4)
    cache = PrecomputeCache(tmp_path / "kv")
    precompute_node_constants(_generator("approx", seed=0), graphs,
                              cache=cache)
    precompute_node_constants(_generator("approx", seed=1), graphs,
                              cache=cache)
    assert cache.stats()["misses"] == 2 * len(graphs)


def test_node_constants_build_the_cache_spec_only_with_a_cache(
        rng, tmp_path, monkeypatch):
    """The spec hashes every generator parameter; without a cache it is
    never read, so it is not built."""
    import repro.runtime.precompute as precompute

    graphs = _corpus(rng, 3)
    generator = _generator("approx")
    expected = precompute_node_constants(generator, graphs, workers=1)
    specs = []
    build = precompute.generator_spec
    monkeypatch.setattr(precompute, "generator_spec",
                        lambda gen: specs.append(build(gen)) or specs[-1])
    plain = precompute_node_constants(generator, graphs, workers=1)
    assert specs == []
    cached = precompute_node_constants(generator, graphs, workers=1,
                                       cache=PrecomputeCache(tmp_path / "kv"))
    assert len(specs) == 1
    for a, b, c in zip(expected, plain, cached):
        assert np.array_equal(a, b) and np.array_equal(a, c)


def test_statics_bit_identical(rng):
    graphs = _corpus(rng)
    serial = precompute_statics(graphs, workers=1)
    parallel = precompute_statics(graphs, workers=2)
    for a, b in zip(serial, parallel):
        assert np.array_equal(a["topology_distance"], b["topology_distance"])
        assert np.array_equal(a["normalized_adjacency"],
                              b["normalized_adjacency"])


# ----------------------------------------------------------------------
# Evaluation protocols
# ----------------------------------------------------------------------
@pytest.mark.parametrize("classifier", ["logreg", "svm"])
def test_cross_validation_bit_identical(classifier):
    rng = np.random.default_rng(17)
    embeddings = rng.normal(size=(48, 6))
    labels = rng.integers(0, 2, size=48)
    serial = cross_validated_accuracy(embeddings, labels, k=4,
                                      classifier=classifier, seed=5,
                                      workers=1)
    parallel = cross_validated_accuracy(embeddings, labels, k=4,
                                        classifier=classifier, seed=5,
                                        workers=2)
    assert serial == parallel


def test_harness_seed_fanout_bit_identical():
    from repro.bench import run_unsupervised

    kwargs = dict(seeds=[0, 1], scale=0.08, epochs=1, folds=3)
    serial = run_unsupervised("GraphCL", "MUTAG", workers=1, **kwargs)
    parallel = run_unsupervised("GraphCL", "MUTAG", workers=2, **kwargs)
    assert serial == parallel
