"""DataLoader behaviour and the MNIST-Superpixel generator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import DataLoader, digit_graph, generate_superpixel_dataset
from repro.graph import Batch

from _helpers import make_triangle


def _toy_graphs(rng, n=10):
    return [make_triangle(rng, y=i % 2) for i in range(n)]


def test_loader_batch_sizes(rng):
    loader = DataLoader(_toy_graphs(rng, 10), 4)
    sizes = [b.num_graphs for b in loader]
    assert sizes == [4, 4, 2]
    assert len(loader) == 3


def test_loader_shuffle_requires_rng(rng):
    with pytest.raises(ValueError):
        DataLoader(_toy_graphs(rng), 4, shuffle=True)


def test_loader_shuffle_deterministic(rng):
    graphs = _toy_graphs(rng, 8)
    a = DataLoader(graphs, 8, shuffle=True, rng=np.random.default_rng(0))
    b = DataLoader(graphs, 8, shuffle=True, rng=np.random.default_rng(0))
    batch_a, batch_b = next(iter(a)), next(iter(b))
    assert np.allclose(batch_a.x, batch_b.x)


def test_loader_reshuffles_each_epoch(rng):
    graphs = _toy_graphs(rng, 30)
    loader = DataLoader(graphs, 30, shuffle=True,
                        rng=np.random.default_rng(0))
    first = next(iter(loader)).x.copy()
    second = next(iter(loader)).x
    assert not np.allclose(first, second)


def test_loader_rejects_zero_batch(rng):
    with pytest.raises(ValueError):
        DataLoader(_toy_graphs(rng), 0)


# ----------------------------------------------------------------------
# Superpixel digits
# ----------------------------------------------------------------------
def test_digit_graph_structure(rng):
    graph = digit_graph(3, rng)
    assert graph.num_features == 2
    assert graph.y == 3
    mask = graph.meta["semantic_nodes"]
    assert mask.any() and not mask.all()


def test_stroke_nodes_are_bright(rng):
    graph = digit_graph(8, rng)
    mask = graph.meta["semantic_nodes"]
    assert graph.x[mask, 0].min() > graph.x[~mask, 0].max()


def test_superpixel_dataset_composition():
    dataset = generate_superpixel_dataset(seed=0, per_digit=3,
                                          digits=(1, 2, 6))
    assert len(dataset) == 9
    assert sorted(set(dataset.labels().tolist())) == [1, 2, 6]


def test_superpixel_graphs_batchable():
    dataset = generate_superpixel_dataset(seed=0, per_digit=2, digits=(0, 7))
    batch = Batch(dataset.graphs)
    assert batch.num_graphs == 4
    assert batch.edge_index.max() < batch.num_nodes


def test_all_ten_digits_render(rng):
    for digit in range(10):
        graph = digit_graph(digit, rng)
        assert graph.meta["semantic_nodes"].sum() >= 5
