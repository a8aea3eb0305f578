"""Generator domain adaptation — the paper's stated future work (§VI.B).

The paper observes that SGCL under-performs on CLINTOX because "the
Lipschitz constants generator trained by ZINC15 may not precisely capture
the semantic information in the CLINTOX dataset" and calls for research on
out-of-distribution recalibration. This module implements the natural
remedy: before fine-tuning on a downstream dataset, continue training the
*generator tower only* (f_q + its edge-probability weight) on the
downstream graphs with the same graph-likelihood objective — the
representation tower f_k stays frozen, so the pre-trained knowledge being
transferred is untouched while the semantic scorer recalibrates to the new
domain.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..data import DataLoader
from ..graph import Graph
from .losses import graph_likelihood_loss
from .model import SGCLModel
from .trainer import ClosureLoop

__all__ = ["adapt_generator"]


def adapt_generator(model: SGCLModel, graphs: Sequence[Graph], *,
                    epochs: int = 3, lr: float = 1e-3, batch_size: int = 64,
                    seed: int = 0) -> list[float]:
    """Recalibrate the Lipschitz generator on a new (downstream) domain.

    Only ``f_q`` and the edge-probability weight receive updates;
    ``f_k``, the projection head and the augmentation-probability head are
    untouched. Returns the per-epoch mean likelihood losses. Training runs
    through :class:`~repro.core.trainer.ClosureLoop` (``epoch`` events
    tagged ``adapt_generator``), so a NaN/Inf batch is skipped; an epoch
    with no trained batch — no graphs, or every batch skipped — reports
    NaN plus a :class:`RuntimeWarning`.

    Example
    -------
    >>> trainer.pretrain(zinc.graphs)                    # source domain
    >>> adapt_generator(trainer.model, clintox.graphs)   # recalibrate f_q
    >>> finetune_multitask(trainer.encoder, clintox, splits, rng=rng)
    """
    root = np.random.default_rng(seed)
    shuffle_rng = np.random.default_rng(root.integers(2 ** 63))
    negative_rng = np.random.default_rng(root.integers(2 ** 63))

    def batch_loss(batch):
        reps = model.generator.node_representations(batch)
        loss = graph_likelihood_loss(reps, batch.edge_index, batch.degrees(),
                                     model.edge_weight, negative_rng)
        return loss, {"loss": loss.item()}

    loop = ClosureLoop(
        "adapt_generator",
        model.generator.encoder.parameters() + [model.edge_weight], lr=lr,
        epoch_batches=lambda data: DataLoader(data, batch_size, shuffle=True,
                                              rng=shuffle_rng),
        batch_loss=batch_loss)
    return [row["loss"] for row in loop.pretrain(graphs, epochs)]
