"""Sampler determinism contract (ISSUE 8 acceptance criterion).

Same seed ⇒ bit-identical subgraph sequences; serial vs parallel
execution and any worker count produce the same stream; growing the
stream keeps earlier subgraphs identical (prefix stability).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime import ParallelExecutor, task_seeds
from repro.sampling import (
    SubgraphStream,
    induced_subgraph,
    load_node_dataset,
    make_sampler,
)

SAMPLERS = ["walk", "neighbor", "edge"]


@pytest.fixture(scope="module")
def dataset():
    return load_node_dataset("community-1m", seed=0, scale=0.001)


def _fingerprint(graph):
    return (graph.meta["node_id"].tobytes(), graph.edge_index.tobytes(),
            graph.x.tobytes(), graph.meta["node_y"].tobytes())


# ----------------------------------------------------------------------
# Induced subgraph extraction
# ----------------------------------------------------------------------
def test_induced_subgraph_matches_reference(dataset):
    nodes = np.array([5, 2, 900, 2, 44, 13])  # dupes + unsorted on purpose
    graph = induced_subgraph(dataset, nodes)
    unique = np.unique(nodes)
    assert np.array_equal(graph.meta["node_id"], unique)
    assert np.array_equal(graph.x, dataset.x[unique])
    assert np.array_equal(graph.meta["node_y"], dataset.y[unique])
    # Reference: O(E) scan over the full edge list.
    src, dst = dataset.edge_index
    member = np.isin(src, unique) & np.isin(dst, unique)
    relabel = {int(g): i for i, g in enumerate(unique)}
    expected = {(relabel[int(s)], relabel[int(d)])
                for s, d in zip(src[member], dst[member])}
    got = set(zip(graph.edge_index[0].tolist(), graph.edge_index[1].tolist()))
    assert got == expected


@pytest.mark.parametrize("name", SAMPLERS)
def test_subgraph_is_well_formed(dataset, name):
    graph = make_sampler(name, dataset).sample(99)
    assert graph.num_nodes > 1
    assert graph.y is None
    node_id = graph.meta["node_id"]
    assert np.array_equal(node_id, np.unique(node_id))  # sorted, unique
    if graph.num_edges:
        assert graph.edge_index.max() < graph.num_nodes
        # Every sampled edge exists in the big graph.
        n = dataset.num_nodes
        big = set((dataset.edge_index[0] * n + dataset.edge_index[1])
                  .tolist())
        src, dst = node_id[graph.edge_index[0]], node_id[graph.edge_index[1]]
        assert all(int(s) * n + int(d) in big for s, d in zip(src, dst))


# ----------------------------------------------------------------------
# Determinism contract
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", SAMPLERS)
def test_same_seed_bit_identical_sequence(dataset, name):
    sampler = make_sampler(name, dataset)
    seeds = task_seeds(42, 6)
    first = [_fingerprint(sampler.sample(s)) for s in seeds]
    second = [_fingerprint(sampler.sample(s)) for s in seeds]
    assert first == second
    different = [_fingerprint(sampler.sample(s))
                 for s in task_seeds(43, 6)]
    assert first != different


@pytest.mark.parametrize("name", SAMPLERS)
def test_serial_vs_parallel_equivalence(dataset, name):
    job = make_sampler(name, dataset).sample
    seeds = task_seeds(7, 8)
    serial = ParallelExecutor(workers=1).map(job, seeds)
    parallel = ParallelExecutor(workers=2).map(job, seeds)
    assert [_fingerprint(g) for g in serial] == \
        [_fingerprint(g) for g in parallel]


def test_stream_worker_count_independent(dataset):
    streams = [
        SubgraphStream(make_sampler("walk", dataset), samples_per_epoch=8,
                       batch_size=3, seed=11,
                       executor=ParallelExecutor(workers=workers))
        for workers in (1, 2, 3)
    ]
    sequences = [[_fingerprint(g) for g in stream.subgraphs(epoch=2)]
                 for stream in streams]
    assert sequences[0] == sequences[1] == sequences[2]


def test_stream_prefix_stable_when_epoch_grows(dataset):
    """More samples per epoch extends the stream without rewriting it."""
    short = SubgraphStream(make_sampler("walk", dataset),
                           samples_per_epoch=4, batch_size=2, seed=5)
    long = SubgraphStream(make_sampler("walk", dataset),
                          samples_per_epoch=8, batch_size=2, seed=5)
    short_seq = [_fingerprint(g) for g in short.subgraphs(epoch=0)]
    long_seq = [_fingerprint(g) for g in long.subgraphs(epoch=0)]
    assert long_seq[:len(short_seq)] == short_seq


def test_epochs_draw_distinct_streams(dataset):
    stream = SubgraphStream(make_sampler("walk", dataset),
                            samples_per_epoch=4, batch_size=2, seed=5)
    epoch0 = [_fingerprint(g) for g in stream.subgraphs(epoch=0)]
    epoch1 = [_fingerprint(g) for g in stream.subgraphs(epoch=1)]
    assert epoch0 != epoch1
    assert epoch0 == [_fingerprint(g) for g in stream.subgraphs(epoch=0)]
