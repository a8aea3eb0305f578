"""DataLoader ``__len__`` regression suite.

``len(loader)`` must agree with the number of batches iteration actually
yields for every combination of corpus size and batch size, shuffled or
not — including the degenerate corners (corpus smaller than one batch,
corpus an exact multiple of the batch size, empty corpus).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import DataLoader

from _helpers import make_triangle


def _graphs(rng, n):
    return [make_triangle(rng, y=i % 2) for i in range(n)]


@pytest.mark.parametrize("num_graphs", [0, 1, 3, 4, 5, 8, 9])
@pytest.mark.parametrize("batch_size", [1, 2, 4, 16])
@pytest.mark.parametrize("shuffle", [False, True], ids=["False", "shuffled"])
def test_len_agrees_with_iteration(rng, num_graphs, batch_size, shuffle):
    loader = DataLoader(_graphs(rng, num_graphs), batch_size,
                        shuffle=shuffle, rng=np.random.default_rng(3))
    batches = list(loader)
    assert len(loader) == len(batches)
    assert sum(b.num_graphs for b in batches) == num_graphs


def test_len_is_stable_across_epochs(rng):
    loader = DataLoader(_graphs(rng, 10), 3, shuffle=True,
                        rng=np.random.default_rng(0))
    assert [len(list(loader)) for _ in range(3)] == [len(loader)] * 3
