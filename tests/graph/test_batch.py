"""Disjoint-union batching invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import Batch, Graph

from _helpers import make_path, make_triangle


def test_batch_counts(rng):
    batch = Batch([make_triangle(rng), make_path(rng, n=4)])
    assert batch.num_graphs == 2
    assert batch.num_nodes == 7
    assert batch.num_edges == 6 + 6
    assert len(batch) == 2


def test_edge_offsets(rng):
    tri = make_triangle(rng)
    batch = Batch([tri, tri])
    second_half = batch.edge_index[:, 6:]
    assert second_half.min() >= 3
    assert (second_half - 3 == tri.edge_index).all()


def test_node_graph_vector(rng):
    batch = Batch([make_triangle(rng), make_path(rng, n=4)])
    assert batch.node_graph.tolist() == [0, 0, 0, 1, 1, 1, 1]


def test_nodes_of(rng):
    graphs = [make_triangle(rng), make_path(rng, n=5), make_triangle(rng)]
    batch = Batch(graphs)
    assert (batch.nodes_of(1) == np.arange(3, 8)).all()


def test_labels_stacking(rng):
    batch = Batch([make_triangle(rng, y=0), make_path(rng, y=1)])
    assert batch.labels().tolist() == [0, 1]


def test_empty_batch_rejected():
    with pytest.raises(ValueError):
        Batch([])


def test_features_concatenated_in_order(rng):
    a, b = make_triangle(rng), make_path(rng, n=4)
    batch = Batch([a, b])
    assert np.allclose(batch.x[:3], a.x)
    assert np.allclose(batch.x[3:], b.x)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(2, 8), min_size=1, max_size=6),
       st.integers(0, 999))
def test_batch_preserves_totals(sizes, seed):
    """Property: batching preserves total node and edge counts."""
    local = np.random.default_rng(seed)
    graphs = [make_path(local, n=n) for n in sizes]
    batch = Batch(graphs)
    assert batch.num_nodes == sum(g.num_nodes for g in graphs)
    assert batch.num_edges == sum(g.num_edges for g in graphs)
    assert batch.edge_index.max(initial=-1) < batch.num_nodes


def _random_graph(rng: np.random.Generator, n: int, density: float) -> Graph:
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < density]
    pairs = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    edge_index = np.concatenate([pairs, pairs[:, ::-1]], axis=0).T
    return Graph(rng.normal(size=(n, 4)), edge_index, y=n % 2)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 9), st.floats(0.0, 1.0)),
                min_size=0, max_size=5),
       st.integers(0, 999))
def test_subgraph_equals_batching_member_subgraphs(shapes, seed):
    """Property: ``Batch.subgraph`` is ``Batch`` over ``Graph.subgraph``.

    Three members ride along in every example: one with no edges, one
    kept whole and one kept to a single node.
    """
    local = np.random.default_rng(seed)
    graphs = [_random_graph(local, n, density) for n, density in shapes]
    keeps = [np.flatnonzero(local.random(g.num_nodes) < 0.6) for g in graphs]
    graphs += [_random_graph(local, 4, 0.0), make_path(local, n=5),
               make_triangle(local)]
    keeps += [np.array([0, 2]), np.arange(5), np.array([1])]
    batch = Batch(graphs)
    nodes = np.concatenate([keep + offset for keep, offset
                            in zip(keeps, batch.node_offsets[:-1])])

    sub = batch.subgraph(nodes)
    want = Batch([g.subgraph(keep) for g, keep in zip(graphs, keeps)])

    assert sub.graphs is None
    assert sub.num_graphs == want.num_graphs
    assert sub.ys == want.ys
    for name in ("x", "edge_index", "node_graph", "node_offsets"):
        got, expected = getattr(sub, name), getattr(want, name)
        assert got.dtype == expected.dtype, name
        assert np.array_equal(got, expected), name
    assert np.array_equal(sub.degrees(), want.degrees())
    assert sub.degrees().dtype == want.degrees().dtype
    assert np.array_equal(sub.parent_nodes, nodes)
    assert want.parent_nodes is None


def test_subgraph_rejects_out_of_range_nodes(rng):
    batch = Batch([make_triangle(rng)])
    with pytest.raises(ValueError):
        batch.subgraph(np.array([0, 3]))
