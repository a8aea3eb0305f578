"""Lipschitz constant generator (paper §IV.B).

For every node ``v_r`` of an anchor graph the generator computes

    K_r = D_R(G, Ĝ_r) / D_T(G, Ĝ_r)                            (Eq. 11)

where ``Ĝ_r = Φ(G, 1, v_r)`` drops only that node, ``D_R`` is the Frobenius
distance between the GNN node representations of ``G`` and ``Ĝ_r`` (Eq. 12)
and ``D_T = ‖A − Â_r‖_F`` the topology distance (Eq. 5). Nodes with large
``K_r`` are semantic-related (dropping them moves the representation a lot
per unit of topology change); nodes with small ``K_r`` are semantic-unrelated
and safe to augment (Theorem 1).

Two computation modes are provided:

* ``exact`` — the reference mask mechanism of Eq. 13–14: every
  leave-one-node-out graph is pushed through ``f_q`` with a binary
  ``node_weight`` mask. Cost ``O(|V|)`` encoder passes per graph (the paper's
  ``O(|V||E|²)`` term); used by tests and the Fig. 7 visualisation.
* ``approx`` — the attention shortcut the paper's §V describes ("use
  attention weight to compute the dropped node's contribution to other nodes
  and delete that, achieving the mask mechanism in a reverse way"): one
  encoder pass, an attention head scores each node's contribution to its
  neighbours, and ``D_R(r)`` is assembled from the node's own representation
  plus its attention-weighted influence. Cost ``O(|E| + |V|)``.

Both modes are differentiable with respect to ``f_q``'s parameters — that is
the gradient pathway (through Eq. 21's semantic readout) that trains the
generator.
"""

from __future__ import annotations

import numpy as np

from ..graph import Batch, Graph
from ..gnn import GNNEncoder
from ..nn import Module, Parameter
from ..obs import current
from ..tensor import Tensor, concatenate, gather, segment_softmax, segment_sum

__all__ = ["LipschitzConstantGenerator", "topology_distance"]

# Floor for the topology distance of an isolated node (D_T would be 0 and
# Eq. 11 undefined); sqrt(2) is the distance a single-edge node would have.
_TOPOLOGY_FLOOR = np.sqrt(2.0)


def topology_distance(degrees: np.ndarray) -> np.ndarray:
    """``D_T(G, Ĝ_r) = ‖A − Â_r‖_F`` for each single-node drop.

    Dropping node ``r`` zeroes its row and column of the adjacency matrix:
    ``2·deg(r)`` unit entries change, so the Frobenius distance is
    ``sqrt(2·deg(r))``, floored for isolated nodes.
    """
    return np.maximum(np.sqrt(2.0 * degrees), _TOPOLOGY_FLOOR)


class LipschitzConstantGenerator(Module):
    """Computes per-node Lipschitz constants ``K_V`` with a dedicated GNN.

    Parameters
    ----------
    encoder:
        The generator GNN ``f_q`` (same architecture as ``f_k``, unshared
        parameters — paper §VI.A.3).
    rng:
        Seeded generator for the attention head's parameters.
    mode:
        ``"exact"`` or ``"approx"`` (see module docstring).
    """

    def __init__(self, encoder: GNNEncoder, *, rng: np.random.Generator,
                 mode: str = "approx"):
        super().__init__()
        if mode not in ("exact", "approx"):
            raise ValueError(f"unknown mode {mode!r}")
        self.encoder = encoder
        self.mode = mode
        dim = encoder.out_dim
        # Attention head for approx mode: score(src→dst) from both endpoints.
        self.att_src = Parameter(rng.normal(0, 0.1, size=dim))
        self.att_dst = Parameter(rng.normal(0, 0.1, size=dim))

    # ------------------------------------------------------------------
    def node_constants(self, batch: Batch) -> Tensor:
        """Per-node Lipschitz constants for every graph in the batch.

        Returns a Tensor of shape ``(total_nodes,)`` aligned with
        ``batch.x`` rows; differentiable w.r.t. the generator's parameters.

        The encoder is temporarily switched to eval mode: with train-mode
        BatchNorm the masked-replica batches shift the batch statistics and
        the resulting distances measure the batch composition, not the
        dropped node (empirically this destroys the semantic signal).
        """
        with self.encoder.evaluating(), \
                current().span("lipschitz/generator"), \
                current().span(f"lipschitz/{self.mode}"):
            if self.mode == "exact":
                return self._exact_constants(batch)
            return self._approx_constants(batch)

    def node_representations(self, batch: Batch) -> Tensor:
        """The generator's node representations ``H^{(l)}`` (Eq. 12 input).

        Runs in the encoder's current mode — during training this is the
        pass that updates BatchNorm running statistics, which
        :meth:`node_constants` then consumes in eval mode.
        """
        return self.encoder(batch)

    # ------------------------------------------------------------------
    # Exact mode — leave-one-node-out mask mechanism (Eq. 13–14)
    # ------------------------------------------------------------------

    #: Upper bound on replica nodes (Σ n_g²) pushed through the encoder in
    #: one mega-batch; graphs are greedily packed under it so exact mode on
    #: large batches stays memory-bounded while still amortising encoder
    #: passes across graphs.
    _REPLICA_NODE_BUDGET = 100_000

    def _exact_constants(self, batch: Batch) -> Tensor:
        """K_r for all graphs via chunked leave-one-out mega-batches.

        Instead of one replica batch (and two encoder passes) per graph,
        all |V_g| masked replicas of *every* graph in a chunk form a single
        disjoint-union batch, evaluated with one masked encoder pass plus
        one shared reference pass — the batched evaluation the paper's §V
        complexity discussion presumes.
        """
        chunks: list[list[Graph]] = []
        load = 0
        for graph in batch.graphs:
            cost = graph.num_nodes ** 2
            if not chunks or (load and load + cost > self._REPLICA_NODE_BUDGET):
                chunks.append([])
                load = 0
            chunks[-1].append(graph)
            load += cost
        distances = [self._exact_chunk(chunk) for chunk in chunks]
        representation_distance = concatenate(distances, axis=0) \
            if len(distances) > 1 else distances[0]
        topo = topology_distance(batch.degrees())
        return representation_distance * Tensor(1.0 / topo)

    def _exact_chunk(self, graphs: list[Graph]) -> Tensor:
        """Per-node representation distances for one chunk of graphs."""
        sizes = [g.num_nodes for g in graphs]
        # One reference pass over the plain graphs...
        ref_batch = Batch(graphs)
        reference = self.encoder(ref_batch)
        # ...and one masked pass over the replica mega-batch, which holds
        # n_g copies of each graph g; in copy j of a graph, node j is
        # masked (Eq. 13).
        replicas = Batch([g for g, n in zip(graphs, sizes) for _ in range(n)])
        replica_starts = replicas.node_offsets[:-1]
        mask = np.ones(replicas.num_nodes)
        masked_positions = []
        tile_chunks = []
        base = 0
        for n, ref_offset in zip(sizes, ref_batch.node_offsets[:-1]):
            masked_positions.append(replica_starts[base:base + n]
                                    + np.arange(n))
            tile_chunks.append(np.tile(
                np.arange(ref_offset, ref_offset + n), n))
            base += n
        mask[np.concatenate(masked_positions)] = 0.0
        masked_reps = self.encoder(replicas, node_weight=Tensor(mask))
        # D_R per replica: Frobenius distance to the reference rows, routed
        # back by the replica's graph id (= one row per dropped node).
        tiled_reference = gather(reference, np.concatenate(tile_chunks))
        diff = masked_reps - tiled_reference
        squared = (diff * diff).sum(axis=1)
        return (segment_sum(squared, replicas.workspace().pool_plan())
                + 1e-12).sqrt()

    # ------------------------------------------------------------------
    # Approx mode — attention-weighted contribution deletion (§V)
    # ------------------------------------------------------------------
    def _approx_constants(self, batch: Batch) -> Tensor:
        reps = self.encoder(batch)
        n = batch.num_nodes
        node_norm_sq = (reps * reps).sum(axis=1)
        if batch.num_edges == 0:
            influence = Tensor(np.zeros(n))
        else:
            workspace = batch.workspace()
            src_plan = workspace.plan("src")
            dst_plan = workspace.plan("dst")
            # Attention over each destination's incoming edges: how much of
            # dst's representation is attributable to src. Scores are
            # computed once per node ((N,d)@(d,) matvecs) and gathered per
            # edge — one vectorized pass over all graphs in the batch.
            logits = (gather(reps @ self.att_src, src_plan)
                      + gather(reps @ self.att_dst, dst_plan)).leaky_relu(0.2)
            alpha = segment_softmax(logits, dst_plan)
            # Deleting src removes alpha-scaled mass ‖h_src‖² from each
            # neighbour dst: accumulate per-source squared influence.
            contribution = alpha * alpha * gather(node_norm_sq, src_plan)
            influence = segment_sum(contribution, src_plan)
        representation_distance = (node_norm_sq + influence + 1e-12).sqrt()
        topo = topology_distance(batch.degrees())
        return representation_distance * Tensor(1.0 / topo)
