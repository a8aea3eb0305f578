"""Empirical verification of the paper's theory (§V, Theorem 1).

Theorem 1 bounds the cross-entropy gap between an anchor set and its
augmented set:

    |CE(Y_G, G) − CE(Y_G, Ĝ)| ≤ K_G · N · (1 + K_ρ) · ε‖A‖_∞ · ‖W‖

with ``K_G = sup_G D_R/D_T`` (Definition 5), ``ε‖A‖_∞ = max_G D_T``
(Lemma 4), ``K_ρ ≤ 1`` (Lemma 2) and ``W`` the edge-probability weights of
Eq. 2. This module computes every quantity so tests and benches can check
the inequality on real (synthetic) graphs and augmentations.

The cross-entropy here is the graph-probability CE of the proof (Eq. 2–3):
``CE = −Σ_G log P(G|H)`` with ``P(G|H) = Π_{(i,j)∈E} δ((h_i/d_i + h_j/d_j)·w)``
— *not* the downstream classification CE.
"""

from __future__ import annotations

import numpy as np

from ..graph import Graph, MessagePassingWorkspace
from ..gnn import GNNEncoder
from ..tensor import Tensor, no_grad

__all__ = [
    "representation_distance",
    "graph_log_probability",
    "lipschitz_constant_of_set",
    "theorem1_bound",
    "K_RHO",
]

# Lemma 2: ρ(x) = log(e^x + 1) has derivative e^x/(e^x+1) ∈ (0, 1).
K_RHO = 1.0


def _node_representations(encoder: GNNEncoder, graph: Graph,
                          node_mask: np.ndarray | None = None) -> np.ndarray:
    """Encoder node reps; ``node_mask`` applies the Eq. 14 mask mechanism."""
    weight = None if node_mask is None else Tensor(node_mask.astype(float))
    with encoder.evaluating(), no_grad():
        reps = encoder.node_representations(
            Tensor(graph.x),
            MessagePassingWorkspace(graph.edge_index, graph.num_nodes),
            node_weight=weight)
    return reps.data


def representation_distance(encoder: GNNEncoder, graph: Graph,
                            kept_nodes: np.ndarray) -> float:
    """``D_R(G, Ĝ)`` (Eq. 6) with aligned node sets via masking.

    ``Ĝ`` is the view that keeps ``kept_nodes``; masking reproduces its
    representations inside the anchor's node indexing so the Frobenius
    distance is well defined.
    """
    mask = np.zeros(graph.num_nodes)
    mask[kept_nodes] = 1.0
    anchor = _node_representations(encoder, graph)
    view = _node_representations(encoder, graph, node_mask=mask)
    return float(np.linalg.norm(anchor - view))


def topology_distance_of_view(graph: Graph, kept_nodes: np.ndarray) -> float:
    """``D_T(G, Ĝ) = ‖A − Â‖_F`` (Eq. 5) for a node-drop view."""
    mask = np.zeros(graph.num_nodes, dtype=bool)
    mask[kept_nodes] = True
    src, dst = graph.edge_index
    removed = int((~(mask[src] & mask[dst])).sum())
    return float(np.sqrt(removed))


def lipschitz_constant_of_set(encoder: GNNEncoder, graphs: list[Graph],
                              kept_per_graph: list[np.ndarray]
                              ) -> tuple[float, float]:
    """``(K_G, ε‖A‖_∞)`` over a graph set and its views (Definition 5, Lemma 4)."""
    ratios, topologies = [], []
    for graph, kept in zip(graphs, kept_per_graph):
        d_t = topology_distance_of_view(graph, kept)
        if d_t == 0.0:
            continue
        d_r = representation_distance(encoder, graph, kept)
        ratios.append(d_r / d_t)
        topologies.append(d_t)
    if not ratios:
        return 0.0, 0.0
    return float(max(ratios)), float(max(topologies))


def graph_log_probability(reps: np.ndarray, edge_index: np.ndarray,
                          w: np.ndarray) -> float:
    """``log P(G|H^{(l)})`` under Eq. 2–3 with shared edge weight ``w``.

    ``log δ(q) = q − log(e^q + 1)`` — the decomposition the proof uses.
    """
    if edge_index.shape[1] == 0:
        return 0.0
    degrees = np.maximum(
        np.bincount(edge_index[0], minlength=len(reps)), 1.0)
    src, dst = edge_index
    q = ((reps[src] / degrees[src, None]
          + reps[dst] / degrees[dst, None]) @ w)
    return float((q - np.logaddexp(0.0, q)).sum())


def theorem1_bound(encoder: GNNEncoder, graphs: list[Graph],
                   kept_per_graph: list[np.ndarray],
                   w: np.ndarray) -> dict[str, float]:
    """Compute both sides of Theorem 1 for a set of node-drop views.

    Returns a dict with ``ce_gap`` (LHS), ``bound`` (RHS) and the
    intermediate quantities. Tests assert ``ce_gap ≤ bound``.
    """
    k_g, eps_a = lipschitz_constant_of_set(encoder, graphs, kept_per_graph)
    gap = 0.0
    for graph, kept in zip(graphs, kept_per_graph):
        mask = np.zeros(graph.num_nodes)
        mask[kept] = 1.0
        anchor_reps = _node_representations(encoder, graph)
        view_reps = _node_representations(encoder, graph, node_mask=mask)
        src, dst = graph.edge_index
        keep_mask = (mask[src] > 0) & (mask[dst] > 0)
        view_edges = graph.edge_index[:, keep_mask]
        gap += (graph_log_probability(anchor_reps, graph.edge_index, w)
                - graph_log_probability(view_reps, view_edges, w))
    ce_gap = abs(gap)
    w_norm = float(np.linalg.norm(w))
    n = len(graphs)
    bound = k_g * n * (1.0 + K_RHO) * eps_a * w_norm
    return {
        "ce_gap": ce_gap,
        "bound": bound,
        "K_G": k_g,
        "eps_A_inf": eps_a,
        "W_norm": w_norm,
        "N": float(n),
        "K_rho": K_RHO,
    }
