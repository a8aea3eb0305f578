"""EmbeddingService tests: cache correctness, micro-batching, telemetry."""

from __future__ import annotations

import numpy as np
import pytest
from _helpers import make_path, make_triangle

from repro.eval import embed_dataset
from repro.gnn import GNNEncoder
from repro.graph import Graph
from repro.serve import EmbeddingService, graph_digest


@pytest.fixture
def graphs(rng):
    return [make_triangle(rng, y=i % 2) for i in range(5)] + \
        [make_path(rng, n=3 + i % 4, y=i % 2) for i in range(5)]


@pytest.fixture
def encoder(rng):
    return GNNEncoder(4, 8, 2, rng=rng)


@pytest.fixture
def service(encoder):
    return EmbeddingService(encoder, max_batch_size=4)


# ----------------------------------------------------------------------
# Digest
# ----------------------------------------------------------------------
def test_digest_ignores_labels_but_not_content(rng):
    g = make_triangle(rng)
    relabelled = g.copy()
    relabelled.y = 99
    assert graph_digest(g) == graph_digest(relabelled)
    other = g.copy()
    other.x = g.x + 1.0
    assert graph_digest(g) != graph_digest(other)


def test_digest_is_pinned_for_both_dtype_pairs():
    """Stored manifests hold these digests, so the hash must never move."""
    g = Graph(np.arange(6).reshape(3, 2) / 4,
              np.array([[0, 1, 1, 2], [1, 0, 2, 1]]))
    assert (g.x.dtype, g.edge_index.dtype) == (np.float64, np.int64)
    assert graph_digest(g) == ("1467c604993c6ed3db8a09e232420fcf"
                               "7ca9a14fd6ec3f4cbd65e2effa9aa168")
    g.x = g.x.astype(np.float32)
    g.edge_index = g.edge_index.astype(np.int32)
    assert graph_digest(g) == ("c4e016efb0e06cf0064f6a52bde37841"
                               "388b78e8c60299dc59fcfa6d1431818c")


def test_given_digests_are_used_and_cached_graphs_may_be_omitted(
        service, graphs):
    digests = [graph_digest(g) for g in graphs[:3]]
    first = service.embed(graphs[:3], digests=digests)
    assert np.array_equal(first, service.embed(graphs[:3]))
    again = service.embed([None, graphs[1], None], digests=digests)
    assert np.array_equal(again, first)
    assert digests[0] in service and graph_digest(graphs[4]) not in service
    with pytest.raises(KeyError, match="no graph was sent"):
        service.embed([None], digests=[graph_digest(graphs[4])])
    with pytest.raises(ValueError, match="2 digests for 3 graphs"):
        service.embed(graphs[:3], digests=digests[:2])


# ----------------------------------------------------------------------
# Cache correctness
# ----------------------------------------------------------------------
def test_hit_returns_same_array_as_miss(service, graphs):
    first = service.embed(graphs[:3])
    second = service.embed(graphs[:3])
    assert np.array_equal(first, second)
    assert service.telemetry.count("cache_hits") == 3
    assert service.telemetry.count("cache_misses") == 3


def test_second_pass_runs_zero_encoder_forwards(service, graphs):
    service.embed(graphs)
    batches_after_first = service.telemetry.count("encoder_batches")
    graphs_after_first = service.telemetry.count("encoder_graphs")
    again = service.embed(graphs)
    assert service.telemetry.count("encoder_batches") == batches_after_first
    assert service.telemetry.count("encoder_graphs") == graphs_after_first
    stats = service.stats()
    assert stats["cache"]["hit_rate"] == 0.5
    assert stats["latency"]["requests"] == 2
    assert stats["latency"]["p95_ms"] >= stats["latency"]["p50_ms"] >= 0.0
    assert again.shape == (len(graphs), 8)


def test_stats_expose_lookups_and_occupancy(service, graphs):
    service.embed(graphs[:3])
    cache = service.stats()["cache"]
    assert cache["lookups"] == cache["hits"] + cache["misses"] == 3
    assert cache["occupancy"] == cache["size"] / cache["capacity"]
    assert 0.0 < cache["occupancy"] <= 1.0


def test_cache_counters_are_monotonic_across_clear(encoder, graphs):
    service = EmbeddingService(encoder, cache_size=4)
    service.embed(graphs)          # 10 misses, evictions beyond 4 entries
    service.embed(graphs[-4:])     # the LRU survivors: hits
    before = service.stats()["cache"]
    assert before["hits"] > 0
    assert before["misses"] == len(graphs)
    assert before["evictions"] == len(graphs) - 4
    service.clear_cache()
    after = service.stats()["cache"]
    # Clearing drops entries, never history: the counters are monotonic.
    assert after["size"] == 0 and after["occupancy"] == 0.0
    assert (after["hits"], after["misses"], after["evictions"],
            after["lookups"]) == (before["hits"], before["misses"],
                                  before["evictions"], before["lookups"])
    service.embed(graphs[:2])
    assert service.stats()["cache"]["misses"] == before["misses"] + 2


def test_mutating_returned_array_does_not_poison_cache(service, graphs):
    original = service.embed(graphs[:1]).copy()
    handed_out = service.embed(graphs[:1])
    handed_out[:] = 0.0
    assert np.array_equal(service.embed(graphs[:1]), original)


def test_duplicates_within_request_embed_once(service, rng):
    g = make_triangle(rng)
    rows = service.embed([g, g, g])
    assert service.telemetry.count("encoder_graphs") == 1
    assert np.array_equal(rows[0], rows[1])
    assert np.array_equal(rows[1], rows[2])


def test_matches_embed_dataset_with_same_chunking(encoder, graphs):
    service = EmbeddingService(encoder, max_batch_size=128)
    expected = embed_dataset(encoder, graphs, batch_size=128)
    assert np.allclose(service.embed(graphs), expected, atol=0)


def test_embed_dataset_service_path(encoder, graphs):
    service = EmbeddingService(encoder, max_batch_size=128)
    direct = embed_dataset(encoder, graphs, batch_size=128)
    cached = embed_dataset(encoder, graphs, service=service)
    assert np.allclose(cached, direct, atol=0)
    with pytest.raises(ValueError, match="cache"):
        embed_dataset(encoder, graphs, service=service, node_weight=None)


# ----------------------------------------------------------------------
# Batching & eviction
# ----------------------------------------------------------------------
def test_requests_are_chunked_to_max_batch_size(service, graphs):
    service.embed(graphs)  # 10 distinct graphs, max_batch_size=4
    assert service.telemetry.count("encoder_batches") == 3
    assert service.telemetry.count("encoder_graphs") == 10
    assert service.stats()["encoder"]["mean_batch_size"] == pytest.approx(
        10 / 3)


def test_lru_eviction_bounds_cache(encoder, graphs):
    service = EmbeddingService(encoder, cache_size=2, max_batch_size=4)
    service.embed(graphs[:5])
    assert service.cache_len <= 2
    assert service.telemetry.count("cache_evictions") >= 3


def test_request_larger_than_cache_still_correct(encoder, graphs):
    tiny = EmbeddingService(encoder, cache_size=1, max_batch_size=2)
    big = EmbeddingService(encoder, max_batch_size=2)
    assert np.array_equal(tiny.embed(graphs[:4]), big.embed(graphs[:4]))


# ----------------------------------------------------------------------
# Micro-batch queue
# ----------------------------------------------------------------------
def test_submit_coalesces_into_one_batch(service, graphs):
    pending = [service.submit(g) for g in graphs[:3]]
    assert service.telemetry.count("encoder_batches") == 0
    service.flush()
    assert service.telemetry.count("encoder_batches") == 1
    rows = np.stack([p.result() for p in pending])
    assert np.array_equal(rows, service.embed(graphs[:3]))


def test_queue_auto_flushes_at_max_batch_size(encoder, graphs):
    service = EmbeddingService(encoder, max_batch_size=2)
    service.submit(graphs[0])
    assert service.telemetry.count("encoder_batches") == 0
    service.submit(graphs[1])
    assert service.telemetry.count("encoder_batches") == 1


def test_pending_result_flushes_lazily(service, graphs):
    pending = service.submit(graphs[0])
    assert service.telemetry.count("encoder_batches") == 0
    row = pending.result()
    assert service.telemetry.count("encoder_batches") == 1
    assert np.array_equal(row, service.embed([graphs[0]])[0])


def test_submit_of_cached_graph_skips_queue(service, graphs):
    service.embed([graphs[0]])
    pending = service.submit(graphs[0])
    pending.result()
    assert service.telemetry.count("encoder_batches") == 1
    assert service.telemetry.count("flushes") == 0


# ----------------------------------------------------------------------
# Misc API
# ----------------------------------------------------------------------
def test_service_freezes_encoder(encoder):
    encoder.train()
    EmbeddingService(encoder)
    assert not encoder.training


def test_empty_request_rejected(service):
    with pytest.raises(ValueError, match="at least one graph"):
        service.embed([])


def test_single_graph_conveniences(service, rng):
    g = make_triangle(rng)
    assert np.array_equal(service.embed(g)[0], service.embed_one(g))


def test_invalid_configuration_rejected(encoder):
    with pytest.raises(ValueError):
        EmbeddingService(encoder, cache_size=0)
    with pytest.raises(ValueError):
        EmbeddingService(encoder, max_batch_size=0)
