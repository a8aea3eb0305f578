"""Checkpoint round-trip tests: save → load → identical behaviour."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from _helpers import make_path, make_triangle

from repro.baselines import make_method
from repro.core import SGCLConfig, SGCLTrainer
from repro.eval import embed_dataset
from repro.gnn import GNNEncoder
from repro.resilience import resume_trainer
from repro.serve import (
    SCHEMA_VERSION,
    EmbeddingService,
    load_checkpoint,
    load_trainer,
    read_checkpoint_header,
    save_checkpoint,
)


@pytest.fixture
def graphs(rng):
    return [make_triangle(rng, y=i % 2) for i in range(4)] + \
        [make_path(rng, n=4 + i % 3, y=i % 2) for i in range(4)]


def _trained_sgcl(graphs, epochs=1):
    trainer = SGCLTrainer(4, SGCLConfig(epochs=epochs, batch_size=4, seed=0))
    trainer.pretrain(graphs)
    return trainer


def test_sgcl_round_trip_identical_embeddings(tmp_path, graphs):
    trainer = _trained_sgcl(graphs)
    path = trainer.save_checkpoint(tmp_path / "sgcl.npz")
    service = EmbeddingService.from_checkpoint(path, max_batch_size=128)
    expected = embed_dataset(trainer.encoder, graphs, batch_size=128)
    assert np.allclose(service.embed(graphs), expected, atol=0)


def test_baseline_round_trip_identical_embeddings(tmp_path, graphs):
    model = make_method("GraphCL", 4, seed=0)
    model.pretrain(graphs, epochs=1)
    path = model.save_checkpoint(tmp_path / "graphcl")
    assert path.suffix == ".npz"
    encoder = load_checkpoint(path).build_encoder()
    expected = embed_dataset(model.encoder, graphs, batch_size=128)
    served = EmbeddingService(encoder, max_batch_size=128).embed(graphs)
    assert np.allclose(served, expected, atol=0)


def test_state_dict_round_trip_after_optimizer_steps(graphs):
    """Params + BatchNorm buffers restore bit-exact eval behaviour."""
    trainer = _trained_sgcl(graphs)
    encoder = trainer.encoder
    snapshot = encoder.state_dict()
    before = embed_dataset(encoder, graphs)
    trainer.pretrain(graphs, epochs=1)  # moves params and running stats
    assert not np.array_equal(embed_dataset(encoder, graphs), before)
    encoder.load_state_dict(snapshot)
    assert np.array_equal(embed_dataset(encoder, graphs), before)
    # BatchNorm running statistics are part of the snapshot.
    assert any("running_mean" in key for key in snapshot)


def test_resume_is_bit_exact(tmp_path, graphs):
    trainer = _trained_sgcl(graphs)
    path = trainer.save_checkpoint(tmp_path / "resume.npz")
    resumed = load_trainer(path)
    assert resumed.history == trainer.history
    trainer.pretrain(graphs, epochs=1)
    resumed.pretrain(graphs, epochs=1)
    original = trainer.model.state_dict()
    restored = resumed.model.state_dict()
    assert all(np.array_equal(original[k], restored[k]) for k in original)


def test_in_dim_validation(tmp_path, graphs):
    trainer = _trained_sgcl(graphs)
    path = trainer.save_checkpoint(tmp_path / "dim.npz")
    checkpoint = load_checkpoint(path)
    assert checkpoint.in_dim == 4
    other = SGCLTrainer(5, trainer.config)
    with pytest.raises(ValueError, match="in_dim"):
        checkpoint.restore(other.model)


def test_schema_version_validation(tmp_path):
    import json

    bogus = {"schema_version": SCHEMA_VERSION + 1}
    np.savez(tmp_path / "bad.npz", __header__=np.frombuffer(
        json.dumps(bogus).encode(), dtype=np.uint8))
    with pytest.raises(ValueError, match="schema version"):
        load_checkpoint(tmp_path / "bad.npz")


def test_header_metadata(tmp_path, rng):
    import repro

    encoder = GNNEncoder(4, 8, 2, rng=rng)
    path = save_checkpoint(tmp_path / "enc.npz", encoder,
                           metadata={"note": "hello"})
    header = read_checkpoint_header(path)
    assert header["repro_version"] == repro.__version__
    assert header["schema_version"] == SCHEMA_VERSION
    assert header["metadata"] == {"note": "hello"}
    assert header["encoder_spec"]["hidden_dim"] == 8
    assert header["config"] is None


def test_bare_encoder_checkpoint_rejected_by_load_trainer(tmp_path, rng):
    encoder = GNNEncoder(4, 8, 2, rng=rng)
    path = save_checkpoint(tmp_path / "enc.npz", encoder)
    with pytest.raises(ValueError, match="SGCLConfig"):
        load_trainer(path)


def test_restore_without_optimizer_state_raises(tmp_path, graphs, rng):
    encoder = GNNEncoder(4, 8, 2, rng=rng)
    path = save_checkpoint(tmp_path / "enc.npz", encoder)
    checkpoint = load_checkpoint(path)
    from repro.nn import Adam

    fresh = GNNEncoder(4, 8, 2, rng=rng)
    with pytest.raises(ValueError, match="optimizer state"):
        checkpoint.restore(fresh, Adam(fresh.parameters()))


def test_checkpoint_creates_parent_directories(tmp_path, graphs):
    trainer = _trained_sgcl(graphs)
    path = trainer.save_checkpoint(tmp_path / "deep" / "nested" / "ck.npz")
    assert path.exists()


def test_periodic_and_best_checkpoints(tmp_path, graphs):
    trainer = SGCLTrainer(4, SGCLConfig(epochs=2, batch_size=4, seed=0))
    trainer.pretrain(graphs, checkpoint_dir=tmp_path / "ck", save_every=2)
    names = sorted(p.name for p in (tmp_path / "ck").iterdir())
    assert "best.npz" in names
    assert "epoch-0002.npz" in names
    assert "epoch-0001.npz" not in names
    # best.npz is loadable and serves the best-loss epoch's encoder
    EmbeddingService.from_checkpoint(tmp_path / "ck" / "best.npz")


def test_baseline_periodic_checkpoints(tmp_path, graphs):
    model = make_method("GraphCL", 4, seed=0)
    model.pretrain(graphs, epochs=2, checkpoint_dir=tmp_path / "ck",
                   save_every=1)
    names = sorted(p.name for p in (tmp_path / "ck").iterdir())
    assert {"best.npz", "epoch-0001.npz", "epoch-0002.npz"} <= set(names)
    header = read_checkpoint_header(tmp_path / "ck" / "best.npz")
    assert header["metadata"]["method"] == "GraphCL"


# Fields SGCLConfig carried before the L_c / Θ_W ablations became λ = 0
# and the runtime knobs no workload set were removed, at their defaults.
RETIRED_CONFIG = {"use_complement_loss": True, "use_weight_reg": True,
                  "soft_view_weighting": True, "generator_batch_size": 16,
                  "prefetch_batches": 0}


def _save_with_retired_keys(trainer, directory, **retired):
    """A trainer bundle whose config dict has the older 26-field layout."""
    config = {**dataclasses.asdict(trainer.config), **RETIRED_CONFIG,
              **retired}
    return save_checkpoint(
        directory / "old.npz", trainer.model, config=config,
        optimizer=trainer.optimizer,
        rng_state={"shuffle": trainer._shuffle_rng.bit_generator.state,
                   "augment": trainer._augment_rng.bit_generator.state},
        metadata={"history": trainer.history})


def test_retired_config_keys_load_unchanged(tmp_path, graphs):
    trainer = _trained_sgcl(graphs)
    path = _save_with_retired_keys(trainer, tmp_path,
                                   generator_batch_size=32,
                                   prefetch_batches=2)
    assert load_checkpoint(path).config == trainer.config
    resumed = resume_trainer(tmp_path)
    assert resumed.config == trainer.config
    trainer.pretrain(graphs, epochs=1)
    resumed.pretrain(graphs, epochs=1)
    original = trainer.model.state_dict()
    restored = resumed.model.state_dict()
    assert all(np.array_equal(original[k], restored[k]) for k in original)


def test_retired_ablation_flags_become_zero_lambdas(tmp_path, graphs):
    trainer = _trained_sgcl(graphs)
    path = _save_with_retired_keys(trainer, tmp_path,
                                   use_complement_loss=False,
                                   use_weight_reg=False)
    expected = trainer.config.with_overrides(lambda_c=0.0, lambda_w=0.0)
    assert load_checkpoint(path).config == expected
    assert resume_trainer(tmp_path).config == expected


def test_retired_hard_views_flag_is_rejected(tmp_path, graphs):
    trainer = _trained_sgcl(graphs)
    path = _save_with_retired_keys(trainer, tmp_path,
                                   soft_view_weighting=False)
    with pytest.raises(ValueError, match="soft_view_weighting"):
        load_checkpoint(path).config
    with pytest.raises(ValueError, match="soft_view_weighting"):
        resume_trainer(tmp_path)
