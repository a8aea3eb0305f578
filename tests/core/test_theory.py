"""Empirical verification of Theorem 1 and its supporting lemmas."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import theory
from repro.data import load_dataset
from repro.gnn import GNNEncoder


@pytest.fixture(scope="module")
def setup():
    dataset = load_dataset("MUTAG", seed=0, scale=0.1)
    rng = np.random.default_rng(0)
    encoder = GNNEncoder(dataset.num_features, 16, 2, rng=rng, conv="sage")
    graphs = dataset.graphs[:8]
    kept = []
    drop_rng = np.random.default_rng(1)
    for graph in graphs:
        n = graph.num_nodes
        keep = np.sort(drop_rng.choice(n, size=n - max(1, n // 10),
                                       replace=False))
        kept.append(keep)
    return encoder, graphs, kept


def test_k_rho_is_bounded_by_one():
    """Lemma 2: ρ(x) = log(e^x+1) has derivative in (0, 1)."""
    x = np.linspace(-20, 20, 1001)
    derivative = np.exp(x) / (np.exp(x) + 1.0)
    assert derivative.max() < 1.0
    assert theory.K_RHO == 1.0


def test_topology_distance_counts_removed_edges(setup):
    _, graphs, kept = setup
    graph, keep = graphs[0], kept[0]
    mask = np.zeros(graph.num_nodes, dtype=bool)
    mask[keep] = True
    src, dst = graph.edge_index
    removed = int((~(mask[src] & mask[dst])).sum())
    assert theory.topology_distance_of_view(graph, keep) == \
        pytest.approx(np.sqrt(removed))


def test_representation_distance_zero_for_identity_view(setup):
    encoder, graphs, _ = setup
    graph = graphs[0]
    full = np.arange(graph.num_nodes)
    assert theory.representation_distance(encoder, graph, full) == \
        pytest.approx(0.0, abs=1e-9)


def test_representation_distance_is_pinned(setup):
    """Masked message passing over one graph, pinned to the last bit."""
    encoder, graphs, kept = setup
    distance = theory.representation_distance(encoder, graphs[0], kept[0])
    assert distance.hex() == "0x1.c0ccbfe0e125fp+0"


def test_lipschitz_constant_of_set_is_supremum(setup):
    encoder, graphs, kept = setup
    k_g, eps_a = theory.lipschitz_constant_of_set(encoder, graphs, kept)
    assert k_g > 0 and eps_a > 0
    for graph, keep in zip(graphs, kept):
        d_t = theory.topology_distance_of_view(graph, keep)
        if d_t == 0:
            continue
        d_r = theory.representation_distance(encoder, graph, keep)
        assert d_r / d_t <= k_g + 1e-9
        assert d_t <= eps_a + 1e-9


def test_graph_log_probability_is_nonpositive(setup, rng):
    encoder, graphs, _ = setup
    graph = graphs[0]
    reps = rng.normal(size=(graph.num_nodes, 4))
    w = rng.normal(size=4)
    # log δ(q) ≤ 0 always, so the sum over edges is ≤ 0.
    assert theory.graph_log_probability(reps, graph.edge_index, w) <= 0


def test_graph_log_probability_empty_graph(rng):
    assert theory.graph_log_probability(
        rng.normal(size=(3, 4)), np.zeros((2, 0), dtype=np.int64),
        rng.normal(size=4)) == 0.0


def test_theorem1_bound_holds(setup, rng):
    """Theorem 1: |ΔCE| ≤ K_G · N · (1+K_ρ) · ε‖A‖_∞ · ‖W‖.

    The inequality is checked empirically across several random edge
    weights — the exact setting of the paper's proof (Eq. 2–3 CE).
    """
    encoder, graphs, kept = setup
    for trial in range(3):
        w = np.random.default_rng(trial).normal(0, 0.2, size=encoder.out_dim)
        report = theory.theorem1_bound(encoder, graphs, kept, w)
        assert report["ce_gap"] <= report["bound"] * (1.0 + 1e-9), report


def test_theorem1_bound_reports_components(setup, rng):
    encoder, graphs, kept = setup
    w = rng.normal(0, 0.2, size=encoder.out_dim)
    report = theory.theorem1_bound(encoder, graphs, kept, w)
    assert set(report) == {"ce_gap", "bound", "K_G", "eps_A_inf", "W_norm",
                           "N", "K_rho"}
    assert report["N"] == len(graphs)
    assert np.isclose(report["W_norm"], np.linalg.norm(w))
