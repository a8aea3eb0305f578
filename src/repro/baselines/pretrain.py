"""Generative / predictive pre-training baselines.

* **AttrMasking** (Hu et al., ICLR 2020): mask node attributes, predict them
  from the encoder's node representations.
* **ContextPred** (Hu et al., ICLR 2020): discriminate whether a node
  representation and a (pooled) context representation come from the same
  node, with negative sampling.
* **GAE** (Kipf & Welling, 2016): reconstruct the adjacency (link
  prediction with negative sampling).
* **DGI / Infomax** (Veličković et al., 2019): discriminate node
  representations of the real graph from those of a feature-shuffled
  corruption against a pooled summary.
* **NoPretrain**: a randomly initialised encoder (the "No Pre-Train" rows).
"""

from __future__ import annotations

import numpy as np

from ..graph import Batch
from ..nn import Linear, Parameter, binary_cross_entropy_with_logits, mse_loss
from ..tensor import Tensor, concatenate, gather, propagate, segment_mean
from .base import BasePretrainer

__all__ = ["AttrMasking", "ContextPred", "GAE", "DGI", "NoPretrain"]


class AttrMasking(BasePretrainer):
    """Mask a fraction of node features; regress them from representations."""

    needs_pairs = False

    def __init__(self, in_dim: int, *, mask_ratio: float = 0.15, **kwargs):
        self.mask_ratio = mask_ratio
        self._in_dim = in_dim
        super().__init__(in_dim, **kwargs)

    def _build(self, rng: np.random.Generator) -> None:
        self.decoder = Linear(self.encoder.out_dim, self._in_dim, rng=rng)

    def step(self, batch: Batch) -> Tensor:
        n = batch.num_nodes
        num_masked = max(1, int(self.mask_ratio * n))
        masked = self.rng.choice(n, size=num_masked, replace=False)
        corrupted = batch.x.copy()
        corrupted[masked] = 0.0
        reps = self.encoder.node_representations(Tensor(corrupted),
                                                 batch.workspace())
        predicted = self.decoder(gather(reps, masked))
        return mse_loss(predicted, batch.x[masked])


class ContextPred(BasePretrainer):
    """Node-vs-context discrimination with negative sampling."""

    needs_pairs = False

    def _build(self, rng: np.random.Generator) -> None:
        dim = self.encoder.out_dim
        self.context_head = Linear(dim, dim, rng=rng)

    def step(self, batch: Batch) -> Tensor:
        reps = self.encoder(batch)
        # Context = mean of each node's neighbours (1-hop context pooling).
        workspace = batch.workspace()
        context = propagate(reps, workspace) * workspace.mean_scale()
        context = self.context_head(context)
        n = batch.num_nodes
        permutation = self.rng.permutation(n)
        positive_logits = (reps * context).sum(axis=1)
        negative_logits = (reps * gather(context, permutation)).sum(axis=1)
        logits = concatenate([positive_logits, negative_logits], axis=0)
        targets = np.concatenate([np.ones(n), np.zeros(n)])
        return binary_cross_entropy_with_logits(logits, targets)


class GAE(BasePretrainer):
    """Graph auto-encoder: inner-product link prediction."""

    needs_pairs = False

    def step(self, batch: Batch) -> Tensor:
        reps = self.encoder(batch)
        num_edges = batch.num_edges
        if num_edges == 0:
            return (reps * 0.0).sum()
        workspace = batch.workspace()
        positive = (gather(reps, workspace.plan("src"))
                    * gather(reps, workspace.plan("dst"))).sum(axis=1)
        neg_src = self.rng.integers(batch.num_nodes, size=num_edges)
        neg_dst = self.rng.integers(batch.num_nodes, size=num_edges)
        negative = (gather(reps, neg_src) * gather(reps, neg_dst)).sum(axis=1)
        logits = concatenate([positive, negative], axis=0)
        targets = np.concatenate([np.ones(num_edges), np.zeros(num_edges)])
        return binary_cross_entropy_with_logits(logits, targets)


class DGI(BasePretrainer):
    """Deep Graph Infomax: real-vs-corrupted node/summary discrimination."""

    needs_pairs = False

    def _build(self, rng: np.random.Generator) -> None:
        dim = self.encoder.out_dim
        self.bilinear = Parameter(rng.normal(0, 0.1, size=(dim, dim)))

    def step(self, batch: Batch) -> Tensor:
        reps = self.encoder(batch)
        pool_plan = batch.workspace().pool_plan()
        summary = segment_mean(reps, pool_plan).sigmoid()
        shuffled = Batch(batch.graphs)
        shuffled.x = batch.x[self.rng.permutation(batch.num_nodes)]
        corrupted = self.encoder(shuffled)
        per_node_summary = gather(summary, pool_plan)
        positive = ((reps @ self.bilinear) * per_node_summary).sum(axis=1)
        negative = ((corrupted @ self.bilinear) * per_node_summary).sum(axis=1)
        n = batch.num_nodes
        logits = concatenate([positive, negative], axis=0)
        targets = np.concatenate([np.ones(n), np.zeros(n)])
        return binary_cross_entropy_with_logits(logits, targets)


class NoPretrain(BasePretrainer):
    """Randomly initialised encoder — pre-training is a no-op."""

    needs_pairs = False

    def pretrain(self, graphs, epochs: int | None = None, **kwargs):
        """The shared loop, run for 0 epochs whatever ``epochs`` says."""
        return super().pretrain(graphs, 0, **kwargs)

    def step(self, batch: Batch) -> Tensor:  # pragma: no cover
        raise RuntimeError("NoPretrain has no training step")
