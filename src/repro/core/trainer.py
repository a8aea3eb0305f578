"""The training loop shared by SGCL, node-level SGCL, every baseline,
the fine-tunes and generator adaptation, and the SGCL trainer built on
it."""

from __future__ import annotations

import time
import warnings
from pathlib import Path
from typing import Sequence

import numpy as np

from ..data import DataLoader
from ..graph import Graph
from ..nn import Adam
from ..obs import current
from ..validate.numerics import NumericsGuard, global_grad_norm
from .config import SGCLConfig
from .model import SGCLModel

__all__ = ["ClosureLoop", "PretrainLoop", "SGCLTrainer", "global_grad_norm"]


def summarize_epoch(epoch_stats: dict[str, list[float]]) -> dict[str, float]:
    """Collapse per-batch stats into one epoch row.

    Keys ending in ``_min``/``_max`` keep their extreme over the epoch's
    batches; everything else is averaged. With no per-batch stats at all
    (every batch skipped) the result is empty — ``pretrain`` fills in a
    well-formed NaN-loss row in that case.
    """
    summary = {}
    for key, values in epoch_stats.items():
        if key.endswith("_min"):
            summary[key] = float(np.min(values))
        elif key.endswith("_max"):
            summary[key] = float(np.max(values))
        else:
            summary[key] = float(np.mean(values))
    return summary


class PretrainLoop:
    """The guarded epoch loop shared by every pre-training method.

    SGCL (:class:`SGCLTrainer`), node-level SGCL
    (:class:`repro.sampling.NodeSGCLTrainer`) and every baseline
    (:class:`repro.baselines.BasePretrainer`) run the same batch → loss →
    backward → step update, and so do the fine-tune protocols and
    :func:`repro.core.adapt_generator` (through :class:`ClosureLoop`). A
    subclass owns ``optimizer`` and a per-instance ``history`` list,
    implements :meth:`save_checkpoint`, and supplies:

    * ``method_name`` — the tag on ``epoch`` events;
    * ``default_epochs`` — what ``pretrain(data)`` runs without ``epochs``;
    * :meth:`_start_training` — switch to train mode and return the
      ``(numerics_policy, grad_clip)`` pair for the run's
      :class:`~repro.validate.NumericsGuard`;
    * :meth:`_epoch_batches` — one epoch's usable batches drawn from
      ``data``;
    * :meth:`_batch_loss` — ``(loss, stats)`` for one batch, where
      ``stats`` holds floats averaged into the epoch row and ``loss`` is
      None when the batch has nothing to train on (counted as skipped).
    """

    method_name = "SGCL"
    _best_loss = float("inf")
    _stop_requested = False

    # ------------------------------------------------------------------
    @property
    def stop_requested(self) -> bool:
        """Whether a graceful stop is pending (see :meth:`request_stop`)."""
        return self._stop_requested

    def request_stop(self) -> None:
        """Ask the running ``pretrain`` loop to stop at the next epoch
        boundary.

        Safe to call from a signal handler (it only flips a flag). The
        loop never aborts mid-epoch, so the trainer's parameters,
        optimiser moments and RNG streams are always left in an
        epoch-boundary state — an emergency checkpoint written afterwards
        resumes bit-identically to a run that was told to train fewer
        epochs. The flag is cleared on the next ``pretrain`` call.
        """
        self._stop_requested = True

    # ------------------------------------------------------------------
    def pretrain(self, data, epochs: int | None = None, *,
                 checkpoint_dir: str | Path | None = None,
                 save_every: int | None = None,
                 observer=None) -> list[dict[str, float]]:
        """Run pre-training on ``data``; returns the per-epoch history.

        Every history entry is one epoch row: the mean of each per-batch
        stat (``_min``/``_max`` keys keep their extreme) plus ``epoch``,
        ``num_batches``, ``skipped_batches`` and ``epoch_seconds``. The
        history is checkpointed, so resumed runs keep the full record.

        Every batch runs under a :class:`~repro.validate.NumericsGuard`:
        a NaN/Inf loss component or gradient norm raises, skips the batch
        (counted in the row's ``skipped_batches`` and the
        ``numerics/skipped_batches`` metric) or warns; a gradient cap
        additionally bounds the global gradient L2 norm. An epoch in
        which *every* batch was skipped still yields a well-formed row
        (``loss`` = NaN, ``num_batches`` = 0) plus a
        :class:`RuntimeWarning`, so ``repro report`` and
        checkpointed-history consumers keep working.

        With ``checkpoint_dir`` set, every epoch atomically refreshes
        ``<dir>/latest.npz`` (the crash-recovery point
        :func:`repro.resilience.find_latest_checkpoint` resumes from — at
        most one epoch of work is ever lost), the epoch with the lowest
        mean loss is saved to ``<dir>/best.npz`` and — if ``save_every``
        is given — every ``save_every``-th epoch to
        ``<dir>/epoch-NNNN.npz`` (numbered over the trainer's lifetime, so
        resumed runs continue the sequence).

        A pending :meth:`request_stop` (typically installed by
        :func:`repro.resilience.interrupt_guard` on SIGINT/SIGTERM) ends
        the loop at the next epoch boundary; the returned history simply
        stops early and the trainer state matches a run asked for fewer
        epochs, bit for bit.

        ``observer`` overrides the ambient :func:`repro.obs.current`
        observer; each epoch row is also emitted as an ``epoch`` event
        tagged with ``method_name``, and the loop is wrapped in
        ``pretrain/epoch`` / ``pretrain/batch`` spans, with
        ``pretrain/loss`` / ``pretrain/backward`` / ``pretrain/step``
        children splitting each batch into its forward, backward and
        optimiser phases (the granularity ``repro profile`` attributes op
        time to). With an observer enabled, rows also carry the mean
        ``grad_norm``. With no observer active all of this is a no-op.
        """
        epochs = epochs if epochs is not None else self.default_epochs
        obs = observer if observer is not None else current()
        parameters = self.optimizer.params
        policy, grad_clip = self._start_training()
        guard = NumericsGuard(policy=policy, grad_clip=grad_clip,
                              observer=obs)
        self._stop_requested = False
        for _ in range(epochs):
            if self._stop_requested:
                obs.event("pretrain_stopped", epochs_done=len(self.history))
                break
            epoch_stats: dict[str, list[float]] = {}
            num_batches = 0
            skipped_batches = 0
            started = time.perf_counter()
            batches = self._epoch_batches(data)
            with obs.span("pretrain/epoch"):
                for batch in batches:
                    with obs.span("pretrain/batch"):
                        with obs.span("pretrain/loss"):
                            loss, stats = self._batch_loss(batch)
                        if loss is None or not guard.check_loss(stats):
                            skipped_batches += 1
                            continue
                        self.optimizer.zero_grad()
                        with obs.span("pretrain/backward"):
                            loss.backward()
                        grad_norm = global_grad_norm(parameters)
                        if not guard.guard_gradients(parameters, grad_norm):
                            skipped_batches += 1
                            continue
                        if obs.enabled:
                            stats["grad_norm"] = grad_norm
                        with obs.span("pretrain/step"):
                            self.optimizer.step()
                    num_batches += 1
                    for key, value in stats.items():
                        epoch_stats.setdefault(key, []).append(value)
            summary = summarize_epoch(epoch_stats)
            if num_batches == 0:
                # Well-formed row even when every batch was skipped, so
                # `repro report` and history consumers see a loss column
                # (NaN, not 0.0, so best-loss checkpointing ignores it).
                summary["loss"] = float("nan")
                warnings.warn(
                    f"epoch {len(self.history) + 1}: no batch was trained "
                    f"({skipped_batches} skipped)", RuntimeWarning,
                    stacklevel=2)
            summary["epoch"] = len(self.history) + 1
            summary["num_batches"] = num_batches
            summary["skipped_batches"] = skipped_batches
            summary["epoch_seconds"] = time.perf_counter() - started
            self.history.append(summary)
            obs.event("epoch", method=self.method_name, **summary)
            if checkpoint_dir is not None:
                self._checkpoint_epoch(Path(checkpoint_dir), summary,
                                       save_every)
        return self.history

    def _checkpoint_epoch(self, directory: Path, summary: dict[str, float],
                          save_every: int | None) -> None:
        epoch = len(self.history)
        self.save_checkpoint(directory / "latest.npz")
        if save_every and epoch % save_every == 0:
            self.save_checkpoint(directory / f"epoch-{epoch:04d}.npz")
        loss = summary.get("loss", float("inf"))
        if np.isfinite(loss) and loss < self._best_loss:
            self._best_loss = loss
            self.save_checkpoint(directory / "best.npz")

    def save_emergency_checkpoint(self, directory: str | Path) -> Path:
        """Write ``<directory>/emergency.npz`` from the current state.

        Meant for the way out of an interrupted run: the trainer only
        stops at epoch boundaries (see :meth:`request_stop`), so the
        emergency bundle resumes bit-identically to a shorter run. The
        write is atomic — a second interrupt mid-write leaves either the
        previous file or none, never a truncated bundle.
        """
        return self.save_checkpoint(Path(directory) / "emergency.npz",
                                    metadata={"emergency": True})


class ClosureLoop(PretrainLoop):
    """A :class:`PretrainLoop` assembled from closures, for training jobs
    that own no trainer object: the fine-tune protocols
    (:mod:`repro.eval.protocol`) and :func:`repro.core.adapt_generator`.

    ``epoch_batches(data)`` and ``batch_loss(batch)`` are the loop's
    :meth:`~PretrainLoop._epoch_batches` and
    :meth:`~PretrainLoop._batch_loss`; ``start()``, if given, runs at the
    top of every ``pretrain`` call. Updates are :class:`~repro.nn.Adam`
    over ``parameters``, under the guard's default policy (``"skip"``, no
    clip). It has no ``save_checkpoint`` (so no ``checkpoint_dir``) and no
    ``default_epochs`` (so ``pretrain`` needs ``epochs``).
    """

    def __init__(self, method_name: str, parameters, *, lr: float,
                 epoch_batches, batch_loss, start=None):
        self.method_name = method_name
        self.optimizer = Adam(parameters, lr=lr)
        self.history: list[dict[str, float]] = []
        self._epoch_batches = epoch_batches
        self._batch_loss = batch_loss
        self._start = start

    def _start_training(self) -> tuple[str, float | None]:
        if self._start is not None:
            self._start()
        return "skip", None


class SGCLTrainer(PretrainLoop):
    """Owns an :class:`SGCLModel`, its optimiser, and the pre-training loop.

    Parameters
    ----------
    in_dim:
        Node feature dimension of the corpus.
    config:
        Hyper-parameters; ``config.seed`` seeds model init, shuffling and
        augmentation sampling independently.

    ``pretrain(graphs, epochs=config.epochs)`` runs :class:`PretrainLoop`
    over shuffled minibatches of ``config.batch_size`` graphs, under
    ``config.numerics_policy`` and ``config.grad_clip``. Batches with
    fewer than 2 graphs are dropped (InfoNCE needs negatives), matching
    the ``drop_last`` behaviour of the reference code. Epoch rows carry
    the loss components (``loss``, ``loss_s``, ``loss_c``, ``loss_g``,
    ``theta_w``), the Lipschitz-constant summary
    (``k_v_mean/std/min/max``) and the realised augmentation strength
    (``drop_fraction``), so sensitivity benchmarks can plot curves
    without re-running.

    Example
    -------
    >>> trainer = SGCLTrainer(dataset.num_features, SGCLConfig(epochs=5))
    >>> history = trainer.pretrain(dataset.graphs)
    >>> embeddings = embed_dataset(trainer.encoder, dataset)
    """

    def __init__(self, in_dim: int, config: SGCLConfig | None = None):
        self.config = config or SGCLConfig()
        self.in_dim = in_dim
        root = np.random.default_rng(self.config.seed)
        self._init_rng = np.random.default_rng(root.integers(2 ** 63))
        self._shuffle_rng = np.random.default_rng(root.integers(2 ** 63))
        self._augment_rng = np.random.default_rng(root.integers(2 ** 63))
        self.model = SGCLModel(in_dim, self.config, rng=self._init_rng)
        self.optimizer = Adam(self.model.parameters(), lr=self.config.lr)
        self.history: list[dict[str, float]] = []

    # ------------------------------------------------------------------
    @property
    def encoder(self):
        """The pre-trained representation encoder ``f_k`` (downstream use)."""
        return self.model.encoder

    @property
    def default_epochs(self) -> int:
        return self.config.epochs

    def _start_training(self) -> tuple[str, float | None]:
        self.model.train()
        return self.config.numerics_policy, self.config.grad_clip

    def _epoch_batches(self, graphs: Sequence[Graph]):
        loader = DataLoader(graphs, self.config.batch_size, shuffle=True,
                            rng=self._shuffle_rng)
        return (batch for batch in loader if batch.num_graphs >= 2)

    def _batch_loss(self, batch):
        return self.model.loss(batch, self._augment_rng)

    def precompute_lipschitz(self, graphs: Sequence[Graph], *,
                             workers: int | None = None,
                             cache=None) -> list[np.ndarray]:
        """Per-node ``K_V`` of every graph under the current (frozen)
        generator, fanned out over worker processes and served from a
        :class:`repro.runtime.PrecomputeCache` by default.

        ``cache=None`` (the default) opens the cache at
        ``config.precompute_cache_dir`` — repeated sweeps over the same
        corpus with unchanged generator parameters become pure cache reads.
        Pass a :class:`~repro.runtime.PrecomputeCache` to use a specific
        location, or ``cache=False`` to force recomputation without one.

        Bit-identical to ``generator.node_constants(Batch([g]))`` graph by
        graph — parallelism and caching change wall-time, never numbers
        (cache keys pin graph content plus the generator's mode and
        parameter hash, so a stale hit is impossible). Used by diagnostics
        (``repro inspect``, Fig. 7) that sweep a corpus with fixed
        parameters; during pre-training the constants of course evolve
        with ``f_q`` and are computed per batch as before.
        """
        from ..runtime import PrecomputeCache, precompute_node_constants

        if cache is None and self.config.precompute_cache_dir:
            cache = PrecomputeCache(
                Path(self.config.precompute_cache_dir).expanduser())
        elif cache is False:
            cache = None
        return precompute_node_constants(self.model.generator, graphs,
                                         workers=workers, cache=cache)

    # ------------------------------------------------------------------
    # Persistence (see repro.serve.checkpoint for the bundle format)
    # ------------------------------------------------------------------
    def save_checkpoint(self, path: str | Path,
                        metadata: dict | None = None) -> Path:
        """Write model + config + optimizer + RNG streams to ``path``."""
        from ..serve.checkpoint import save_checkpoint

        rng_state = {
            "shuffle": self._shuffle_rng.bit_generator.state,
            "augment": self._augment_rng.bit_generator.state,
        }
        return save_checkpoint(
            path, self.model, config=self.config, optimizer=self.optimizer,
            rng_state=rng_state,
            metadata={"history": self.history, **(metadata or {})})

    @classmethod
    def from_checkpoint(cls, path: str | Path) -> "SGCLTrainer":
        """Rebuild a trainer whose continued ``pretrain`` is bit-identical
        to one that never stopped (parameters, optimizer moments and RNG
        streams are all restored)."""
        from ..serve.checkpoint import load_checkpoint

        checkpoint = load_checkpoint(path)
        config = checkpoint.config
        if config is None or checkpoint.in_dim is None:
            raise ValueError(
                "checkpoint lacks an SGCLConfig/in_dim; it was not written "
                "by SGCLTrainer.save_checkpoint")
        trainer = cls(checkpoint.in_dim, config)
        checkpoint.restore(trainer.model, trainer.optimizer)
        if checkpoint.rng_state is not None:
            trainer._shuffle_rng.bit_generator.state = \
                checkpoint.rng_state["shuffle"]
            trainer._augment_rng.bit_generator.state = \
                checkpoint.rng_state["augment"]
        history = checkpoint.metadata.get("history", [])
        trainer.history = list(history)
        losses = [s.get("loss") for s in trainer.history
                  if s.get("loss") is not None
                  and np.isfinite(s.get("loss"))]  # NaN rows = empty epochs
        trainer._best_loss = min(losses, default=float("inf"))
        return trainer
