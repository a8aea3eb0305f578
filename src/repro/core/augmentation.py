"""Graph augmentation operators (paper §III.B, §IV.C).

The node-dropping operator Φ of Definition 3 plus the paper's Lipschitz
graph augmentation, and the four classic GraphCL perturbations used by the
baselines and the w/o-VG ablation.

On ρ semantics: Definition 3 calls ``ρ|V|`` "the number of dropping nodes",
but the tuned value ρ=0.9 and the §VI.D discussion ("tune it around a
comparatively large value … semantic-unrelated nodes also contribute")
only make sense if ρ is the *keep* ratio. We therefore drop
``round((1−ρ)·|V|)`` nodes (see DESIGN.md §5).
"""

from __future__ import annotations

import numpy as np

from ..graph import Batch, Graph
from ..obs import current

__all__ = [
    "drop_single_node",
    "phi_node_drop",
    "batch_node_drop",
    "binarize_constants",
    "augmentation_probability_mask",
    "lipschitz_augment",
    "random_node_drop",
    "random_edge_perturb",
    "attribute_mask",
    "random_subgraph",
    "GRAPHCL_AUGMENTATIONS",
]


# ----------------------------------------------------------------------
# The Φ operator (Definition 3)
# ----------------------------------------------------------------------
def drop_single_node(graph: Graph, node: int) -> Graph:
    """``Ĝ_r = Φ(G, 1, v_r)`` — drop one specific node."""
    return graph.drop_nodes(np.array([node]))


def _sample_drop(probabilities: np.ndarray, num_drop: int,
                 rng: np.random.Generator) -> np.ndarray:
    """The draw of :func:`phi_node_drop`: the (local) ids of the nodes to
    drop. Nothing to drop means no draw from ``rng``."""
    n = probabilities.shape[0]
    num_drop = int(np.clip(num_drop, 0, n - 1))
    weights = np.clip(probabilities, 0.0, None)
    num_drop = min(num_drop, int((weights > 0).sum()))
    if num_drop == 0:
        return np.array([], dtype=np.int64)
    return rng.choice(n, size=num_drop, replace=False,
                      p=weights / weights.sum())


def phi_node_drop(graph: Graph, num_drop: int, probabilities: np.ndarray,
                  rng: np.random.Generator) -> Graph:
    """``Ĝ = Φ(G, num_drop, P(V))`` — drop ``num_drop`` nodes sampled
    without replacement with probability proportional to ``probabilities``.

    Nodes with zero probability are never dropped; if fewer than
    ``num_drop`` nodes are droppable, only those are dropped. At least one
    node always survives.
    """
    n = graph.num_nodes
    probabilities = np.asarray(probabilities, dtype=np.float64)
    if probabilities.shape != (n,):
        raise ValueError(f"probabilities must have shape ({n},)")
    drop = _sample_drop(probabilities, num_drop, rng)
    view = graph.drop_nodes(drop)
    view.meta["dropped_nodes"] = np.sort(drop)
    return view


def batch_node_drop(batch: Batch, keep_ratio: float, view_weights: np.ndarray,
                    complement_weights: np.ndarray, rng: np.random.Generator
                    ) -> tuple[Batch, Batch]:
    """Φ on every graph of ``batch`` → view and complement sub-batches.

    Graph by graph, ``round((1 − keep_ratio)·|V_g|)`` nodes are drawn with
    ``view_weights`` and then with ``complement_weights`` — the draws of
    a view-then-complement :func:`phi_node_drop` pair.
    """
    view_keep = np.ones(batch.num_nodes, dtype=bool)
    complement_keep = np.ones(batch.num_nodes, dtype=bool)
    offsets = batch.node_offsets.tolist()
    for start, stop in zip(offsets[:-1], offsets[1:]):
        num_drop = int(round((1.0 - keep_ratio) * (stop - start)))
        for weights, keep in ((view_weights, view_keep),
                              (complement_weights, complement_keep)):
            drop = _sample_drop(weights[start:stop], num_drop, rng)
            keep[start + drop] = False
    return (batch.subgraph(np.flatnonzero(view_keep)),
            batch.subgraph(np.flatnonzero(complement_keep)))


# ----------------------------------------------------------------------
# Lipschitz graph augmentation (§IV.C)
# ----------------------------------------------------------------------
def binarize_constants(constants: np.ndarray) -> np.ndarray:
    """Eq. 16–17: threshold the Lipschitz constants at their mean.

    ``C_i = 1`` marks semantic-related nodes (``K_i ≥ K̄``), which the
    augmentation must never drop.

    Degenerate inputs are well-defined: an empty array yields an empty
    mask (no NaN from the mean of an empty slice), and all-equal
    constants mark *every* node semantic-related — the augmentation then
    has nothing droppable and returns an identity view.
    """
    constants = np.asarray(constants, dtype=np.float64)
    if constants.size == 0:
        return np.zeros(0, dtype=np.float64)
    return (constants >= constants.mean()).astype(np.float64)


def augmentation_probability_mask(binary: np.ndarray,
                                  head_scores: np.ndarray) -> np.ndarray:
    """Eq. 18: ``P(v_i) = C_i + (1 − C_i)·σ(h_i w^T)``.

    ``head_scores`` are the already-sigmoided probability-head outputs.
    ``P`` is the probability of a node being *kept* — semantic-related nodes
    get P=1 (never dropped).
    """
    binary = np.asarray(binary, dtype=np.float64)
    head_scores = np.asarray(head_scores, dtype=np.float64)
    return binary + (1.0 - binary) * head_scores


def lipschitz_augment(batch: Batch, keep_probability: np.ndarray, rho: float,
                      rng: np.random.Generator) -> tuple[Batch, Batch]:
    """Generate the positive views Ĝ (Eq. 19) and complements Ĝ^c (Eq. 20).

    Per graph, ``Ĝ`` drops ``(1−ρ)|V|`` nodes sampled with weight ``1 − P``
    (so only semantic-unrelated nodes go); ``Ĝ^c`` drops the same count
    sampled with weight ``P`` (preferentially removing semantic-related
    nodes, leaving the non-semantic residue used as an extra negative).
    ``keep_probability`` is ``P`` over all nodes of ``batch``.
    """
    with current().span("augment/lipschitz"):
        keep_probability = np.asarray(keep_probability, dtype=np.float64)
        return batch_node_drop(batch, rho, 1.0 - keep_probability,
                               keep_probability, rng)


# ----------------------------------------------------------------------
# Classic GraphCL augmentations (baselines + w/o-VG ablation)
# ----------------------------------------------------------------------
def random_node_drop(graph: Graph, ratio: float,
                     rng: np.random.Generator) -> Graph:
    """Drop a uniformly random ``ratio`` fraction of nodes."""
    n = graph.num_nodes
    num_drop = int(np.clip(round(ratio * n), 0, n - 1))
    return phi_node_drop(graph, num_drop, np.ones(n), rng)


def random_edge_perturb(graph: Graph, ratio: float,
                        rng: np.random.Generator) -> Graph:
    """Remove a ``ratio`` fraction of undirected edges and add as many new."""
    pairs = graph.edge_index.T
    undirected = pairs[pairs[:, 0] < pairs[:, 1]]
    m = len(undirected)
    if m == 0:
        return graph.copy()
    num_change = int(round(ratio * m))
    keep_mask = np.ones(m, dtype=bool)
    if num_change:
        keep_mask[rng.choice(m, size=num_change, replace=False)] = False
    kept = undirected[keep_mask]
    existing = {frozenset(e) for e in kept.tolist()}
    added = []
    attempts = 0
    n = graph.num_nodes
    while len(added) < num_change and attempts < 20 * max(num_change, 1):
        attempts += 1
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u == v or frozenset((u, v)) in existing:
            continue
        existing.add(frozenset((u, v)))
        added.append((u, v))
    all_edges = np.concatenate(
        [kept, np.array(added, dtype=np.int64).reshape(-1, 2)], axis=0)
    both = np.concatenate([all_edges, all_edges[:, ::-1]], axis=0).T
    return Graph(graph.x.copy(), both, graph.y, dict(graph.meta))


def attribute_mask(graph: Graph, ratio: float,
                   rng: np.random.Generator) -> Graph:
    """Zero out the features of a random ``ratio`` fraction of nodes."""
    n = graph.num_nodes
    num_mask = int(round(ratio * n))
    x = graph.x.copy()
    if num_mask:
        masked = rng.choice(n, size=min(num_mask, n), replace=False)
        x[masked] = 0.0
    return Graph(x, graph.edge_index.copy(), graph.y, dict(graph.meta))


def random_subgraph(graph: Graph, ratio: float,
                    rng: np.random.Generator) -> Graph:
    """Random-walk-induced subgraph after dropping a ``ratio`` fraction.

    ``ratio`` is the GraphCL *drop* ratio shared by all four perturbations
    (``node_drop`` drops ``ratio·|V|`` nodes, ``edge_perturb`` rewires
    ``ratio·|E|`` edges, ``attr_mask`` masks ``ratio·|V|`` rows), so the
    view keeps ``max(1, round((1−ratio)·|V|))`` nodes grown breadth-first
    from a uniformly random seed node — GraphCL's released ``subgraph``
    does the same (``sub_num = (1 − aug_ratio)·|V|``). On disconnected
    graphs the walk cannot leave the seed's component, so the view may end
    up smaller than the target.
    """
    n = graph.num_nodes
    target = max(1, int(round((1.0 - ratio) * n)))
    neighbours: dict[int, list[int]] = {}
    for u, v in graph.edge_index.T:
        neighbours.setdefault(int(u), []).append(int(v))
    visited = {int(rng.integers(n))}
    frontier = list(visited)
    while len(visited) < target and frontier:
        node = frontier.pop(int(rng.integers(len(frontier))))
        for neighbour in neighbours.get(node, []):
            if neighbour not in visited:
                visited.add(neighbour)
                frontier.append(neighbour)
                if len(visited) >= target:
                    break
    return graph.subgraph(np.sort(np.fromiter(visited, dtype=np.int64)))


GRAPHCL_AUGMENTATIONS = {
    "node_drop": random_node_drop,
    "edge_perturb": random_edge_perturb,
    "attr_mask": attribute_mask,
    "subgraph": random_subgraph,
}
