"""Node-level SGCL: loss mechanics, training loop, checkpoint round trip.

Resume equivalence is covered for both levels in
``tests/resilience/test_autoresume.py``; the epoch-loop contract in
``tests/core/test_trainer_contract.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SGCLConfig, SGCLModel
from repro.sampling import (
    NodeSGCLTrainer,
    SubgraphStream,
    load_node_dataset,
    make_sampler,
    node_contrastive_loss,
    node_info_nce,
)
from repro.tensor import Tensor


@pytest.fixture(scope="module")
def dataset():
    return load_node_dataset("community-1m", seed=0, scale=0.0005)


@pytest.fixture()
def config():
    return SGCLConfig(hidden_dim=8, num_layers=2, epochs=1, seed=0)


def _stream(dataset, **kwargs):
    defaults = dict(samples_per_epoch=4, batch_size=2, seed=1,
                    norm_samples=10)
    defaults.update(kwargs)
    return SubgraphStream(
        make_sampler("walk", dataset, roots=8, walk_length=4), **defaults)


# ----------------------------------------------------------------------
# node_info_nce
# ----------------------------------------------------------------------
def test_node_info_nce_rejects_single_node(rng):
    z = Tensor(rng.normal(size=(1, 4)))
    with pytest.raises(ValueError):
        node_info_nce(z, z, tau=0.2)


# ----------------------------------------------------------------------
# node_contrastive_loss
# ----------------------------------------------------------------------
def test_node_contrastive_loss_is_finite(dataset, config, rng):
    stream = _stream(dataset)
    batch, norms = next(iter(stream.batches(epoch=0)))
    model = SGCLModel(dataset.num_features, config,
                      rng=np.random.default_rng(0))
    loss, stats = node_contrastive_loss(model, batch, stream.node_norms(),
                                        rng)
    assert loss is not None and np.isfinite(loss.item())
    for key in ("loss", "loss_s", "loss_g", "k_v_mean", "drop_fraction",
                "contrast_nodes"):
        assert np.isfinite(stats[key])
    assert 0.0 <= stats["drop_fraction"] < 1.0
    assert stats["contrast_nodes"] <= batch.num_nodes


def test_contrast_cap_limits_pair_count(dataset, config, rng):
    stream = _stream(dataset)
    batch, _ = next(iter(stream.batches(epoch=0)))
    model = SGCLModel(dataset.num_features, config,
                      rng=np.random.default_rng(0))
    _, stats = node_contrastive_loss(model, batch, stream.node_norms(),
                                     rng, max_contrast_nodes=5)
    assert stats["contrast_nodes"] == 5.0


# ----------------------------------------------------------------------
# NodeSGCLTrainer
# ----------------------------------------------------------------------
def test_pretrain_records_finite_history(dataset, config):
    trainer = NodeSGCLTrainer(dataset.num_features, config)
    history = trainer.pretrain(_stream(dataset), epochs=2)
    assert len(history) == 2
    for row in history:
        assert np.isfinite(row["loss"])
        assert row["num_batches"] == 2
        assert row["skipped_batches"] == 0
    assert history[0]["epoch"] == 1 and history[1]["epoch"] == 2


def test_checkpoint_round_trip(dataset, config, tmp_path):
    trainer = NodeSGCLTrainer(dataset.num_features, config)
    trainer.pretrain(_stream(dataset), epochs=1,
                     checkpoint_dir=tmp_path)
    assert (tmp_path / "latest.npz").exists()
    assert (tmp_path / "best.npz").exists()

    from repro.serve.checkpoint import read_checkpoint_header

    header = read_checkpoint_header(tmp_path / "latest.npz")
    assert header["metadata"]["node_level"] is True

    restored = NodeSGCLTrainer.from_checkpoint(tmp_path / "latest.npz")
    assert len(restored.history) == 1
    for original, copy in zip(trainer.model.parameters(),
                              restored.model.parameters()):
        assert np.array_equal(original.data, copy.data)
