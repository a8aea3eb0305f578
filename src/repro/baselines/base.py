"""Shared scaffolding for baseline pre-training methods.

Every GCL / generative baseline in the paper's tables is implemented as a
subclass of :class:`BasePretrainer`: it owns a :class:`GNNEncoder` (the same
architecture SGCL uses, per §VI.A.2's encoder-matched comparison), an Adam
optimiser, and the seeded epoch loop every pre-training method shares
(:class:`repro.core.trainer.PretrainLoop`); subclasses implement one
mini-batch ``step``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from ..core.trainer import PretrainLoop
from ..data import DataLoader
from ..gnn import GNNEncoder
from ..graph import Graph
from ..nn import Adam, Module
from ..tensor import Tensor

__all__ = ["BasePretrainer"]


class BasePretrainer(Module, PretrainLoop):
    """Base class: encoder + optimiser + the shared epoch loop.

    ``pretrain(graphs, epochs=20, *, checkpoint_dir=None, save_every=None,
    observer=None)`` is :meth:`repro.core.trainer.PretrainLoop.pretrain`
    over shuffled minibatches of ``batch_size`` graphs: history rows,
    spans, ``epoch`` events (tagged with the class name), ``request_stop``
    and ``latest``/``best``/``epoch-NNNN`` checkpoints behave exactly as
    for :class:`~repro.core.SGCLTrainer`. Each row's ``loss`` is the
    epoch's mean of :meth:`step`.

    Parameters
    ----------
    in_dim:
        Node feature dimension.
    hidden_dim, num_layers, conv, pooling:
        Encoder architecture (defaults match SGCL's TU setup).
    lr, batch_size, seed:
        Optimisation / reproducibility knobs.
    numerics_policy, grad_clip:
        :class:`~repro.validate.NumericsGuard` wiring, mirroring
        ``SGCLConfig``: what to do with NaN/Inf batches (``raise`` /
        ``skip`` / ``warn``) and an optional global gradient-norm cap.
    """

    #: subclasses that need ≥2 graphs per batch (contrastive losses)
    needs_pairs = True
    default_epochs = 20

    def __init__(self, in_dim: int, *, hidden_dim: int = 32,
                 num_layers: int = 3, conv: str = "gin", pooling: str = "sum",
                 lr: float = 1e-3, batch_size: int = 128, seed: int = 0,
                 numerics_policy: str = "skip",
                 grad_clip: float | None = None):
        super().__init__()
        root = np.random.default_rng(seed)
        self._init_rng = np.random.default_rng(root.integers(2 ** 63))
        self._shuffle_rng = np.random.default_rng(root.integers(2 ** 63))
        self.rng = np.random.default_rng(root.integers(2 ** 63))
        self.batch_size = batch_size
        self.lr = lr
        self.numerics_policy = numerics_policy
        self.grad_clip = grad_clip
        self.in_dim = in_dim
        self.encoder = GNNEncoder(in_dim, hidden_dim, num_layers,
                                  rng=self._init_rng, conv=conv,
                                  pooling=pooling)
        self._build(self._init_rng)
        self.optimizer = Adam(self.parameters(), lr=lr)
        self.history: list[dict[str, float]] = []

    # ------------------------------------------------------------------
    def _build(self, rng: np.random.Generator) -> None:
        """Hook for subclasses to add heads/generators before the optimiser
        collects parameters."""

    def step(self, batch) -> Tensor:
        """Compute the method's loss for one batch (subclass responsibility)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    @property
    def method_name(self) -> str:
        return type(self).__name__

    def _start_training(self) -> tuple[str, float | None]:
        self.train()
        return self.numerics_policy, self.grad_clip

    def _epoch_batches(self, graphs: Sequence[Graph]):
        loader = DataLoader(graphs, self.batch_size, shuffle=True,
                            rng=self._shuffle_rng)
        return (batch for batch in loader
                if batch.num_graphs >= 2 or not self.needs_pairs)

    def _batch_loss(self, batch):
        loss = self.step(batch)
        return loss, {"loss": loss.item()}

    def save_checkpoint(self, path: str | Path,
                        metadata: dict | None = None) -> Path:
        """Write the full pretrainer state (encoder + heads + optimizer)."""
        from ..serve.checkpoint import save_checkpoint

        meta = {"method": self.method_name, "history": self.history}
        return save_checkpoint(path, self, optimizer=self.optimizer,
                               metadata={**meta, **(metadata or {})})
