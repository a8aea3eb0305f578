"""Node-level SGCL pre-training over sampled subgraphs.

The graph-level pipeline contrasts *pooled* anchor/view embeddings
(Eq. 21–24); on one large graph the contrastive unit is the node. Each
minibatch of sampled subgraphs runs the same towers — per-subgraph
``K_V`` through the :class:`~repro.core.lipschitz.
LipschitzConstantGenerator`, Lipschitz augmentation for the positive
view — but the loss is a local-to-local (L2L) InfoNCE between a node's
representation in the anchor subgraph and its representation in the
augmented view, with the other sampled nodes as negatives — the same
:func:`~repro.core.losses.semantic_info_nce` kernel, imported here as
``node_info_nce``.

Two corrections keep the estimate honest on a sampled stream:

* **GraphSAINT normalisation** — nodes land in subgraphs with very
  different frequencies (hubs vs leaves); each node's loss term is
  weighted by the stream's ``α_v ≈ 1/λ_v`` estimate (normalised to mean
  1 within the batch) so the objective approximates the full-graph loss.
* **Augmentation-surviving pairs only** — a node dropped from the view
  has no positive; only survivors (the view's ``parent_nodes``) enter the
  loss, capped at ``max_contrast_nodes`` uniformly at random so the
  ``O(m²)`` similarity matrix stays CPU-sized.

The complement loss (Eq. 25) is graph-level by construction (it
contrasts against pooled complement readouts) and is not applied here;
the generator's graph-likelihood objective and the weight regulariser
carry over unchanged.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..core import SGCLConfig, SGCLModel, SGCLTrainer
# The L2L objective is Eq. 24 over matched node rows; this module keeps
# the name for the node-level call site.
from ..core.losses import semantic_info_nce as node_info_nce
from ..graph import Batch
from ..tensor import Tensor, gather
from .stream import SubgraphStream

__all__ = ["NodeSGCLTrainer", "node_info_nce", "node_contrastive_loss"]


def node_contrastive_loss(model: SGCLModel, batch: Batch,
                          node_norms: np.ndarray, rng: np.random.Generator, *,
                          max_contrast_nodes: int = 512
                          ) -> tuple[Tensor | None, dict[str, float]]:
    """Full node-level objective for one subgraph minibatch.

    Returns ``(loss, stats)``; ``loss`` is ``None`` when fewer than two
    nodes survive augmentation (nothing to contrast — the caller skips
    the batch, mirroring the graph-level "< 2 graphs" skip).
    """
    scores = model.semantic_scores(batch)
    views, _ = model.generate_views(batch, scores, rng)
    anchor_rows = views.parent_nodes
    stats = model.view_stats(batch, scores, views)
    if len(anchor_rows) < 2:
        return None, stats
    view_rows = np.arange(len(anchor_rows))
    if len(anchor_rows) > max_contrast_nodes:
        chosen = np.sort(rng.choice(len(anchor_rows), max_contrast_nodes,
                                    replace=False))
        anchor_rows, view_rows = anchor_rows[chosen], view_rows[chosen]
    stats["contrast_nodes"] = float(len(anchor_rows))

    z_anchor = model.projection(model.f_k(batch))
    z_view = model.projection(model.f_k(views))
    loss_s = node_info_nce(gather(z_anchor, anchor_rows),
                           gather(z_view, view_rows), model.config.tau,
                           weights=node_norms[anchor_rows])
    stats["loss_s"] = loss_s.item()
    return model.objective_tail(batch, loss_s, stats, rng)


class NodeSGCLTrainer(SGCLTrainer):
    """:class:`~repro.core.SGCLTrainer` over a subgraph stream.

    The model is the unmodified graph-level :class:`SGCLModel` — both
    towers, the probability head, the generator objective — only the
    loss assembly differs (see :func:`node_contrastive_loss`). The epoch
    loop, ``request_stop``, checkpointing and ``from_checkpoint`` are
    inherited; ``pretrain(stream, epochs)`` takes a
    :class:`~repro.sampling.SubgraphStream`, a minibatch with fewer than
    two augmentation survivors counts as skipped, and epoch rows also
    carry ``contrast_nodes``. Checkpoint bundles use the standard format
    tagged ``metadata["node_level"] = True``, so ``repro embed``/the
    serving fleet rebuild the encoder with the existing machinery and
    :func:`repro.resilience.resume_trainer` picks this class.

    Epoch indexing doubles as the stream's epoch seed tag: epoch ``e``
    draws ``stream.batches(epoch=len(history))``, so a resumed trainer
    continues the exact sample stream an uninterrupted run would have
    seen.
    """

    method_name = "SGCL-node"

    def __init__(self, in_dim: int, config: SGCLConfig | None = None, *,
                 max_contrast_nodes: int = 512):
        super().__init__(in_dim, config)
        self.max_contrast_nodes = max_contrast_nodes

    def _epoch_batches(self, stream: SubgraphStream):
        return stream.batches(epoch=len(self.history))

    def _batch_loss(self, item: tuple[Batch, np.ndarray]):
        batch, norms = item
        return node_contrastive_loss(
            self.model, batch, norms, self._augment_rng,
            max_contrast_nodes=self.max_contrast_nodes)

    def save_checkpoint(self, path: str | Path,
                        metadata: dict | None = None) -> Path:
        """Standard checkpoint bundle, tagged ``node_level``."""
        return super().save_checkpoint(
            path, metadata={"node_level": True, **(metadata or {})})
