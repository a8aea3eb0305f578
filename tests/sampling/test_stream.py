"""SubgraphStream: batching, normalisation weights, determinism."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import Batch
from repro.sampling import SubgraphStream, load_node_dataset, make_sampler


@pytest.fixture(scope="module")
def dataset():
    return load_node_dataset("community-1m", seed=0, scale=0.001)


def _stream(dataset, **kwargs):
    defaults = dict(samples_per_epoch=6, batch_size=2, seed=9,
                    norm_samples=20)
    defaults.update(kwargs)
    return SubgraphStream(make_sampler("walk", dataset), **defaults)


def test_validates_arguments(dataset):
    with pytest.raises(ValueError):
        _stream(dataset, samples_per_epoch=0)
    with pytest.raises(ValueError):
        _stream(dataset, batch_size=0)


def test_batches_shape_and_alignment(dataset):
    stream = _stream(dataset)
    batches = list(stream.batches(epoch=0))
    assert len(batches) == stream.batches_per_epoch() == 3
    for batch, norms in batches:
        assert isinstance(batch, Batch)
        assert norms.shape == (batch.num_nodes,)
        assert (norms > 0).all()
        # Weights line up with the batch's node rows: norms[row] must equal
        # the global α_v of the node that row refers to.
        node_norms = stream.node_norms()
        global_ids = np.concatenate(
            [g.meta["node_id"] for g in batch.graphs])
        assert np.array_equal(norms, node_norms[global_ids])


def test_node_norms_cached_and_smoothed(dataset):
    stream = _stream(dataset)
    norms = stream.node_norms()
    assert norms is stream.node_norms()  # computed once
    assert norms.shape == (dataset.num_nodes,)
    assert np.isfinite(norms).all() and (norms > 0).all()
    # Never-sampled nodes get the Laplace ceiling (P + 1) / 1.
    assert norms.max() <= stream.norm_samples + 1.0
    # A pilot did run: some nodes were seen, so not all weights are the
    # ceiling, and frequent nodes get smaller weights.
    assert norms.min() < norms.max()


def test_norm_pilot_is_seed_deterministic(dataset):
    a = _stream(dataset).node_norms()
    b = _stream(dataset).node_norms()
    c = _stream(dataset, seed=10).node_norms()
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_subgraphs_agree_with_batches(dataset):
    stream = _stream(dataset)
    flat = [g for g in stream.subgraphs(epoch=0)]
    batched = [g for batch, _ in stream.batches(epoch=0)
               for g in batch.graphs]
    assert len(flat) == len(batched) == stream.samples_per_epoch
    for a, b in zip(flat, batched):
        assert np.array_equal(a.meta["node_id"], b.meta["node_id"])
        assert np.array_equal(a.edge_index, b.edge_index)
