"""Streaming subgraph minibatches with GraphSAINT normalisation.

:class:`SubgraphStream` turns a seeded sampler into an epoch-indexed
stream of :class:`~repro.graph.Batch` objects, reusing the runtime
substrate end to end: per-subgraph seeds come from
:func:`repro.runtime.task_seeds`, sampling fans out through
:class:`repro.runtime.ParallelExecutor`.

Seed architecture (the determinism contract tests pin down)::

    SeedSequence([stream_seed, 0])          → normalisation pilot
    SeedSequence([stream_seed, epoch + 1])  → epoch e's base seed
    task_seeds(base, samples_per_epoch)     → one seed per subgraph

Every subgraph therefore depends only on ``(stream_seed, epoch, index)``
— never on worker count or how many epochs ran before —
so a resumed run's epoch ``e`` is bit-identical to an uninterrupted
run's, and ``repro sample`` can reproduce any single subgraph offline.

Normalisation: GraphSAINT's loss weights ``α_v ≈ 1/λ_v`` counter the
sampler's node bias (hubs land in many more subgraphs than leaves). A
pilot run of ``norm_samples`` subgraphs estimates the inclusion
frequency ``λ_v`` once per stream; :meth:`SubgraphStream.node_norms`
returns Laplace-smoothed inverse frequencies, which the node-level loss
normalises to mean 1 within each batch.
"""

from __future__ import annotations

import numpy as np

from ..obs import current
from ..runtime import ParallelExecutor, task_seeds
from ..graph import Batch
from .samplers import SubgraphSampler

__all__ = ["SubgraphStream"]


def _derive_seed(stream_seed: int, tag: int) -> int:
    """One independent 64-bit seed from ``(stream_seed, tag)``."""
    sequence = np.random.SeedSequence([stream_seed, tag])
    return int(sequence.generate_state(1, dtype=np.uint64)[0])


class SubgraphStream:
    """Epoch-indexed minibatch stream over one sampler.

    Parameters
    ----------
    sampler:
        The seeded subgraph sampler to draw from.
    samples_per_epoch:
        Subgraphs per epoch (the "dataset size" the trainer sees).
    batch_size:
        Subgraphs per :class:`Batch`.
    seed:
        Stream seed — the only source of randomness (see module docs).
    executor:
        Optional :class:`ParallelExecutor` for fan-out; default serial.
    norm_samples:
        Pilot size for the inclusion-frequency estimate.
    """

    def __init__(self, sampler: SubgraphSampler, *,
                 samples_per_epoch: int = 64, batch_size: int = 8,
                 seed: int = 0, executor: ParallelExecutor | None = None,
                 norm_samples: int = 100):
        if samples_per_epoch < 1 or batch_size < 1:
            raise ValueError("samples_per_epoch and batch_size must be >= 1")
        self.sampler = sampler
        self.samples_per_epoch = samples_per_epoch
        self.batch_size = batch_size
        self.seed = seed
        self.executor = executor or ParallelExecutor(workers=1)
        self.norm_samples = norm_samples
        self._node_norms: np.ndarray | None = None

    # ------------------------------------------------------------------
    @property
    def dataset(self):
        return self.sampler.dataset

    def batches_per_epoch(self) -> int:
        return -(-self.samples_per_epoch // self.batch_size)

    # ------------------------------------------------------------------
    def node_norms(self) -> np.ndarray:
        """GraphSAINT loss weights ``α_v`` over all global node ids.

        ``α_v = (P + 1) / (count_v + 1)`` from a ``norm_samples``-subgraph
        pilot (tag-0 seed stream, computed once and cached) — the Laplace
        smoothing keeps never-sampled nodes finite. Consumers normalise
        within each batch, so only the ratios matter.
        """
        if self._node_norms is None:
            with current().span("sample/norm_pilot"):
                seeds = task_seeds(_derive_seed(self.seed, 0),
                                   self.norm_samples)
                counts = np.zeros(self.dataset.num_nodes, dtype=np.int64)
                for graph in self.executor.map(self.sampler.sample, seeds):
                    counts[graph.meta["node_id"]] += 1
            self._node_norms = ((self.norm_samples + 1.0)
                                / (counts + 1.0))
        return self._node_norms

    # ------------------------------------------------------------------
    def subgraphs(self, epoch: int = 0):
        """Lazily yield epoch ``epoch``'s subgraphs in stream order."""
        seeds = task_seeds(_derive_seed(self.seed, epoch + 1),
                           self.samples_per_epoch)
        for start in range(0, len(seeds), self.batch_size):
            yield from self.executor.map(
                self.sampler.sample, seeds[start:start + self.batch_size])

    def batches(self, epoch: int = 0):
        """Lazily yield epoch ``epoch`` as ``(Batch, node_norm_weights)``
        pairs.

        Sampling runs through the executor, chunked one minibatch at a
        time so memory stays flat.
        """
        seeds = task_seeds(_derive_seed(self.seed, epoch + 1),
                           self.samples_per_epoch)
        norms = self.node_norms()
        for start in range(0, len(seeds), self.batch_size):
            graphs = self.executor.map(self.sampler.sample,
                                       seeds[start:start + self.batch_size])
            batch = Batch(graphs)
            # Per-node loss weights aligned with the batch's node rows.
            batch_norms = np.concatenate(
                [norms[g.meta["node_id"]] for g in graphs])
            yield batch, batch_norms
