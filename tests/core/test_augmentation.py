"""Augmentation operators: Φ semantics, Lipschitz augmentation, GraphCL ops."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    GRAPHCL_AUGMENTATIONS,
    attribute_mask,
    augmentation_probability_mask,
    binarize_constants,
    drop_single_node,
    lipschitz_augment,
    phi_node_drop,
    random_edge_perturb,
    random_node_drop,
    random_subgraph,
)

from repro.core.augmentation import batch_node_drop
from repro.graph import Batch

from _helpers import make_path, make_triangle


def _dropped(batch: Batch, view: Batch) -> np.ndarray:
    """Rows of ``batch`` that the sub-batch ``view`` left out."""
    return np.setdiff1d(np.arange(batch.num_nodes), view.parent_nodes)


def test_drop_single_node(rng):
    g = make_path(rng, n=4)
    dropped = drop_single_node(g, 1)
    assert dropped.num_nodes == 3
    assert 1 not in dropped.meta["parent_nodes"]


def test_phi_drop_count_and_meta(rng):
    g = make_path(rng, n=10)
    view = phi_node_drop(g, 3, np.ones(10), rng)
    assert view.num_nodes == 7
    assert len(view.meta["dropped_nodes"]) == 3


def test_phi_never_drops_zero_probability_nodes(rng):
    g = make_path(rng, n=10)
    probability = np.ones(10)
    probability[:5] = 0.0
    for _ in range(10):
        view = phi_node_drop(g, 3, probability, rng)
        assert all(d >= 5 for d in view.meta["dropped_nodes"])


def test_phi_caps_at_droppable_count(rng):
    g = make_path(rng, n=6)
    probability = np.zeros(6)
    probability[0] = 1.0
    view = phi_node_drop(g, 4, probability, rng)
    assert view.num_nodes == 5  # only one node was droppable


def test_phi_always_leaves_a_node(rng):
    g = make_triangle(rng)
    view = phi_node_drop(g, 99, np.ones(3), rng)
    assert view.num_nodes >= 1


def test_phi_zero_drops_is_copy(rng):
    g = make_triangle(rng)
    view = phi_node_drop(g, 0, np.ones(3), rng)
    assert view.num_nodes == 3
    assert len(view.meta["dropped_nodes"]) == 0
    # Regression: identity views must still carry the parent mapping the
    # soft-view-weighting pathway relies on.
    assert (view.meta["parent_nodes"] == np.arange(3)).all()


def test_phi_all_zero_probabilities_keeps_parent_mapping(rng):
    g = make_triangle(rng)
    view = phi_node_drop(g, 2, np.zeros(3), rng)
    assert view.num_nodes == 3
    assert (view.meta["parent_nodes"] == np.arange(3)).all()


def test_phi_validates_probability_shape(rng):
    with pytest.raises(ValueError):
        phi_node_drop(make_triangle(rng), 1, np.ones(5), rng)


def test_binarize_mean_threshold():
    c = binarize_constants(np.array([1.0, 2.0, 3.0, 10.0]))
    assert c.tolist() == [0.0, 0.0, 0.0, 1.0]


def test_binarize_uniform_constants_all_one():
    assert binarize_constants(np.ones(4)).tolist() == [1.0] * 4


def test_probability_mask_eq18():
    binary = np.array([1.0, 0.0])
    head = np.array([0.3, 0.3])
    p = augmentation_probability_mask(binary, head)
    assert p.tolist() == [1.0, 0.3]


def test_lipschitz_augment_protects_semantic_nodes(rng):
    batch = Batch([make_path(rng, n=10)])
    keep = np.ones(10)
    keep[5:] = 0.2  # nodes 0–4 semantic (P=1), 5–9 droppable
    for _ in range(5):
        view, complement = lipschitz_augment(batch, keep, 0.7, rng)
        assert all(d >= 5 for d in _dropped(batch, view))
        # Complement drops with weight P: only P>0 nodes are candidates;
        # semantic nodes (P=1) are the most likely drops.
        assert len(_dropped(batch, complement)) == 3


def test_lipschitz_augment_drop_count_follows_rho(rng):
    batch = Batch([make_path(rng, n=20)])
    view, _ = lipschitz_augment(batch, np.full(20, 0.5), 0.9, rng)
    assert view.num_nodes == 18  # (1-0.9)*20 = 2 dropped


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(5, 30), min_size=1, max_size=4),
       st.floats(0.5, 1.0), st.integers(0, 999))
def test_lipschitz_augment_size_property(sizes, rho, seed):
    local = np.random.default_rng(seed)
    batch = Batch([make_path(local, n=n) for n in sizes])
    keep = local.uniform(0.1, 0.9, size=batch.num_nodes)
    view, complement = lipschitz_augment(batch, keep, rho, local)
    expected = [n - int(round((1 - rho) * n)) for n in sizes]
    assert np.diff(view.node_offsets).tolist() == expected
    assert np.diff(complement.node_offsets).tolist() == expected


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(2, 12), min_size=1, max_size=5),
       st.floats(0.0, 1.0), st.integers(0, 999))
def test_batch_node_drop_draws_like_per_graph_phi(sizes, keep_ratio, seed):
    """Property: the batch-level drop makes the same draws, in the same
    order, as a view-then-complement ``phi_node_drop`` pair per graph."""
    local = np.random.default_rng(seed)
    graphs = [make_path(local, n=n) for n in sizes]
    batch = Batch(graphs)
    p = local.uniform(size=batch.num_nodes)
    p[local.random(batch.num_nodes) < 0.2] = 0.0  # some undroppable nodes
    batch_rng = np.random.default_rng(seed)
    views, complements = batch_node_drop(batch, keep_ratio, 1.0 - p, p,
                                         batch_rng)
    per_graph = np.random.default_rng(seed)
    want_views, want_complements = [], []
    for graph_id, graph in enumerate(graphs):
        rows = batch.nodes_of(graph_id)
        num_drop = int(round((1.0 - keep_ratio) * graph.num_nodes))
        for weights, out in ((1.0 - p[rows], want_views),
                             (p[rows], want_complements)):
            view = phi_node_drop(graph, num_drop, weights, per_graph)
            out.append(view.meta["parent_nodes"] + rows[0])
    assert np.array_equal(views.parent_nodes, np.concatenate(want_views))
    assert np.array_equal(complements.parent_nodes,
                          np.concatenate(want_complements))
    assert batch_rng.random() == per_graph.random()  # same draws consumed


def test_random_node_drop(rng):
    g = make_path(rng, n=10)
    view = random_node_drop(g, 0.2, rng)
    assert view.num_nodes == 8


def test_random_edge_perturb_preserves_edge_count(rng):
    g = make_path(rng, n=12)
    view = random_edge_perturb(g, 0.3, rng)
    # Same number of undirected edges (some removed, same count added).
    assert view.num_edges == g.num_edges
    assert view.num_nodes == g.num_nodes


def test_random_edge_perturb_changes_edges(rng):
    g = make_path(rng, n=20)
    view = random_edge_perturb(g, 0.5, rng)
    original = {frozenset(e) for e in g.edge_index.T.tolist()}
    new = {frozenset(e) for e in view.edge_index.T.tolist()}
    assert original != new


def test_attribute_mask_zeroes_fraction(rng):
    g = make_path(rng, n=10)
    view = attribute_mask(g, 0.3, rng)
    zero_rows = (view.x == 0).all(axis=1).sum()
    assert zero_rows >= 3
    assert view.num_edges == g.num_edges


def test_random_subgraph_size(rng):
    g = make_path(rng, n=10)
    view = random_subgraph(g, 0.3, rng)
    assert view.num_nodes == 7


def test_random_subgraph_is_connected(rng):
    import networkx as nx
    g = make_path(rng, n=15)
    view = random_subgraph(g, 0.4, rng)
    assert nx.is_connected(view.to_networkx())


def test_graphcl_pool_has_four_operations():
    assert set(GRAPHCL_AUGMENTATIONS) == {"node_drop", "edge_perturb",
                                          "attr_mask", "subgraph"}


@pytest.mark.parametrize("name", sorted(GRAPHCL_AUGMENTATIONS))
def test_graphcl_ops_produce_valid_graphs(name, rng):
    g = make_path(rng, n=12)
    view = GRAPHCL_AUGMENTATIONS[name](g, 0.2, rng)
    assert view.num_nodes >= 1
    if view.num_edges:
        assert view.edge_index.max() < view.num_nodes


@pytest.mark.parametrize("ratio", [0.0, 0.1, 0.25, 0.5, 0.9, 1.0])
def test_random_subgraph_follows_drop_ratio_convention(ratio, rng):
    """Regression: ``ratio`` is the fraction *dropped* (GraphCL convention
    shared by all four ops), so a connected graph keeps
    ``max(1, round((1-ratio)·|V|))`` nodes."""
    n = 20
    g = make_path(rng, n=n)
    view = random_subgraph(g, ratio, rng)
    assert view.num_nodes == max(1, round((1.0 - ratio) * n))


def test_binarize_empty_constants_is_empty_without_warning():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the old code warned on mean([])
        mask = binarize_constants(np.array([]))
    assert mask.shape == (0,)
    assert not np.isnan(mask).any()


def test_all_equal_constants_make_augmentation_identity(rng):
    """All-equal K ⇒ every node is semantic-related ⇒ the positive view
    drops nothing (nothing is droppable)."""
    batch = Batch([make_path(rng, n=8)])
    keep = augmentation_probability_mask(
        binarize_constants(np.full(8, 2.5)), rng.uniform(size=8))
    assert keep.tolist() == [1.0] * 8
    view, _ = lipschitz_augment(batch, keep, 0.5, rng)
    assert view.num_nodes == 8
    assert len(_dropped(batch, view)) == 0
    assert (view.parent_nodes == np.arange(8)).all()


def test_phi_nothing_droppable_when_keep_probability_one(rng):
    g = make_path(rng, n=6)
    view = phi_node_drop(g, 3, 1.0 - np.ones(6), rng)
    assert view.num_nodes == 6
    assert len(view.meta["dropped_nodes"]) == 0
