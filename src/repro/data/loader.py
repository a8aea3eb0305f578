"""Mini-batch loader producing :class:`~repro.graph.Batch` objects."""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from ..graph import Batch, Graph

__all__ = ["DataLoader"]


class DataLoader:
    """Iterate over a graph collection in (optionally shuffled) mini-batches.

    Parameters
    ----------
    graphs:
        A :class:`GraphDataset` or any sequence of graphs.
    batch_size:
        Graphs per batch (paper: 128 for pre-training, 16 inside the
        Lipschitz constant generator).
    shuffle:
        Reshuffle at the start of every epoch.
    rng:
        Seeded generator used for shuffling; required when ``shuffle=True``.
    """

    def __init__(self, graphs: Sequence[Graph], batch_size: int, *,
                 shuffle: bool = False, rng: np.random.Generator | None = None):
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        if shuffle and rng is None:
            raise ValueError("shuffle=True requires a seeded rng")
        self.graphs = list(graphs)
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.rng = rng

    def __len__(self) -> int:
        return -(-len(self.graphs) // self.batch_size)

    def __iter__(self) -> Iterator[Batch]:
        order = np.arange(len(self.graphs))
        if self.shuffle:
            self.rng.shuffle(order)
        for start in range(0, len(order), self.batch_size):
            chunk = order[start:start + self.batch_size]
            yield Batch([self.graphs[i] for i in chunk])
