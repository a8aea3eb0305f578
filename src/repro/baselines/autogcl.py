"""AutoGCL (Yin et al., AAAI 2022) — learnable view generators.

Each of two independent view generators is a small GNN emitting per-node
logits over {keep, drop, mask}; views are sampled from the (Gumbel-softmax
relaxed) categorical and realised as node drops + attribute masks. The
contrastive loss is complemented by a *similarity regulariser* that keeps
the two generators from collapsing onto each other.
"""

from __future__ import annotations

import numpy as np

from ..core.losses import semantic_info_nce
from ..gnn import GNNEncoder, ProjectionHead
from ..graph import Batch
from ..nn import Linear
from ..tensor import Tensor, gather
from .base import BasePretrainer

__all__ = ["AutoGCL"]

_KEEP, _DROP, _MASK = 0, 1, 2


class _ViewGenerator:
    """One learnable view generator: GNN + 3-way categorical head."""

    def __init__(self, in_dim: int, hidden_dim: int,
                 rng: np.random.Generator):
        self.encoder = GNNEncoder(in_dim, hidden_dim, 2, rng=rng, conv="gin")
        self.head = Linear(hidden_dim, 3, rng=rng)

    def parameters(self):
        return self.encoder.parameters() + self.head.parameters()

    def probabilities(self, batch: Batch) -> Tensor:
        """Per-node keep/drop/mask probabilities, shape ``(N, 3)``."""
        return self.head(self.encoder(batch)).softmax(axis=1)


class AutoGCL(BasePretrainer):
    """AutoGCL with two generators and a generator-similarity penalty."""

    def __init__(self, in_dim: int, *, tau: float = 0.2,
                 similarity_weight: float = 0.3, max_drop: float = 0.3,
                 **kwargs):
        self.tau = tau
        self.similarity_weight = similarity_weight
        self.max_drop = max_drop
        self._in_dim = in_dim
        super().__init__(in_dim, **kwargs)

    def _build(self, rng: np.random.Generator) -> None:
        self.projection = ProjectionHead(self.encoder.out_dim, rng=rng)
        self.generators = [
            _ViewGenerator(self._in_dim, self.encoder.hidden_dim, rng)
            for _ in range(2)
        ]
        # Register generator parameters for the shared optimiser.
        self.generator_modules = [g.encoder for g in self.generators] + \
            [g.head for g in self.generators]

    # ------------------------------------------------------------------
    def node_probabilities(self, batch: Batch) -> Tensor:
        """Keep-probabilities of the first generator (visualisation hook)."""
        return self.generators[0].probabilities(batch)[
            (np.arange(batch.num_nodes),
             np.full(batch.num_nodes, _KEEP))]

    def _materialise_view(self, batch: Batch, probs: Tensor
                          ) -> tuple[Batch, Tensor]:
        """Sample hard keep/drop/mask per node; return view batch + soft
        weights (keep-probability of surviving nodes) for the gradient path."""
        choices = np.empty(batch.num_nodes, dtype=np.int64)
        p = probs.data
        for i in range(batch.num_nodes):
            choices[i] = self.rng.choice(3, p=p[i] / p[i].sum())
        keep = np.ones(batch.num_nodes, dtype=bool)
        for graph_id in range(batch.num_graphs):
            nodes = batch.nodes_of(graph_id)
            drop = nodes[choices[nodes] == _DROP]
            # Cap the drop fraction so views stay informative.
            drop = drop[:int(self.max_drop * len(nodes))]
            if drop.size == len(nodes):  # keep the first node
                drop = drop[1:]
            keep[drop] = False
        view = batch.subgraph(np.flatnonzero(keep))
        view.x[choices[view.parent_nodes] == _MASK] = 0.0
        keep_probs = probs[(np.arange(batch.num_nodes),
                            np.full(batch.num_nodes, _KEEP))]
        return view, gather(keep_probs, view.parent_nodes)

    def step(self, batch: Batch) -> Tensor:
        probs_a = self.generators[0].probabilities(batch)
        probs_b = self.generators[1].probabilities(batch)
        view_a, soft_a = self._materialise_view(batch, probs_a)
        view_b, soft_b = self._materialise_view(batch, probs_b)
        z_a = self.projection(self.encoder.graph_representations(
            view_a, node_weight=soft_a))
        z_b = self.projection(self.encoder.graph_representations(
            view_b, node_weight=soft_b))
        loss = semantic_info_nce(z_a, z_b, self.tau)
        # Similarity penalty: discourage identical generator outputs.
        similarity = ((probs_a - probs_b) ** 2.0).mean()
        return loss - self.similarity_weight * similarity
