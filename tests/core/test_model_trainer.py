"""SGCL model + trainer: configuration, training dynamics, ablations."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SGCLConfig, SGCLModel, SGCLTrainer
from repro.data import load_dataset
from repro.graph import Batch


@pytest.fixture(scope="module")
def mutag():
    return load_dataset("MUTAG", seed=0, scale=0.2)


def _batch(dataset, n=8):
    return Batch(dataset.graphs[:n])


def test_config_validation():
    with pytest.raises(ValueError):
        SGCLConfig(rho=0.0)
    with pytest.raises(ValueError):
        SGCLConfig(tau=2.0)
    with pytest.raises(ValueError):
        SGCLConfig(lipschitz_mode="fast")
    with pytest.raises(ValueError):
        SGCLConfig(augmentation="none")


def test_config_with_overrides():
    config = SGCLConfig().with_overrides(rho=0.7, tau=0.3)
    assert config.rho == 0.7 and config.tau == 0.3
    assert SGCLConfig().rho == 0.9  # original untouched


def test_semantic_scores_structure(mutag, rng):
    model = SGCLModel(mutag.num_features, SGCLConfig(), rng=rng)
    batch = _batch(mutag)
    scores = model.semantic_scores(batch)
    n = batch.num_nodes
    assert scores.constants.shape == (n,)
    assert scores.head_scores.shape == (n,)
    assert set(np.unique(scores.binary)) <= {0.0, 1.0}
    # Eq. 18: P=1 exactly where C=1; elsewhere P equals the head score.
    semantic = scores.binary == 1.0
    assert np.allclose(scores.keep_probability[semantic], 1.0)
    assert np.allclose(scores.keep_probability[~semantic],
                       scores.head_scores.data[~semantic])


def test_binarisation_is_per_graph(mutag, rng):
    """Each graph must contain both semantic and non-semantic nodes."""
    model = SGCLModel(mutag.num_features, SGCLConfig(), rng=rng)
    batch = _batch(mutag)
    scores = model.semantic_scores(batch)
    for graph_id in range(batch.num_graphs):
        binary = scores.binary[batch.nodes_of(graph_id)]
        assert binary.max() == 1.0
        assert binary.min() == 0.0


def test_generate_views_counts(mutag, rng):
    config = SGCLConfig(rho=0.8)
    model = SGCLModel(mutag.num_features, config, rng=rng)
    batch = _batch(mutag)
    scores = model.semantic_scores(batch)
    views, complements = model.generate_views(batch, scores,
                                              np.random.default_rng(0))
    assert len(views) == len(complements) == batch.num_graphs
    for graph, view_size in zip(batch.graphs, np.diff(views.node_offsets)):
        assert view_size == graph.num_nodes - int(
            round(0.2 * graph.num_nodes))


def test_views_never_drop_semantic_nodes(mutag, rng):
    model = SGCLModel(mutag.num_features, SGCLConfig(rho=0.6), rng=rng)
    batch = _batch(mutag)
    scores = model.semantic_scores(batch)
    views, _ = model.generate_views(batch, scores, np.random.default_rng(0))
    for graph_id in range(batch.num_graphs):
        nodes = batch.nodes_of(graph_id)
        binary = scores.binary[nodes]
        dropped = np.setdiff1d(nodes, views.parent_nodes) - nodes[0]
        assert all(binary[d] == 0.0 for d in dropped)


def test_loss_components_and_finiteness(mutag, rng):
    model = SGCLModel(mutag.num_features, SGCLConfig(), rng=rng)
    loss, stats = model.loss(_batch(mutag), np.random.default_rng(0))
    assert np.isfinite(loss.item())
    assert {"loss", "loss_s", "loss_g", "loss_c", "theta_w"} <= set(stats)


def test_ablation_flags_remove_components(mutag, rng):
    config = SGCLConfig(lambda_c=0.0, lambda_w=0.0, lambda_g=0.0)
    model = SGCLModel(mutag.num_features, config, rng=rng)
    _, stats = model.loss(_batch(mutag), np.random.default_rng(0))
    assert "loss_c" not in stats
    assert "theta_w" not in stats
    assert "loss_g" not in stats


def test_detach_semantics_blocks_contrastive_gradient_to_fq(mutag, rng):
    # Θ_W (Eq. 26) spans all parameters including f_q's, so disable it to
    # isolate the contrastive pathway.
    config = SGCLConfig(lambda_g=0.0, detach_semantics=True, lambda_w=0.0)
    model = SGCLModel(mutag.num_features, config, rng=rng)
    loss, _ = model.loss(_batch(mutag), np.random.default_rng(0))
    loss.backward()
    fq_grads = [p.grad for p in model.generator.encoder.parameters()]
    assert all(g is None or np.abs(g).sum() == 0 for g in fq_grads)
    # The probability head still learns through the soft-view pathway.
    assert model.prob_weight.grad is not None


def test_without_detach_gradient_reaches_fq(mutag, rng):
    config = SGCLConfig(lambda_g=0.0, detach_semantics=False, lambda_w=0.0)
    model = SGCLModel(mutag.num_features, config, rng=rng)
    loss, _ = model.loss(_batch(mutag), np.random.default_rng(0))
    loss.backward()
    fq_grads = [p.grad for p in model.generator.encoder.parameters()]
    assert any(g is not None and np.abs(g).sum() > 0 for g in fq_grads)


def test_fq_and_fk_do_not_share_parameters(mutag, rng):
    model = SGCLModel(mutag.num_features, SGCLConfig(conv="sage",
                                                     generator_conv="sage"),
                      rng=rng)
    fq_ids = {id(p) for p in model.generator.encoder.parameters()}
    fk_ids = {id(p) for p in model.f_k.parameters()}
    assert not fq_ids & fk_ids


def test_trainer_loss_decreases(mutag):
    trainer = SGCLTrainer(mutag.num_features,
                          SGCLConfig(epochs=4, batch_size=16, seed=0))
    history = trainer.pretrain(mutag.graphs)
    assert len(history) == 4
    assert history[-1]["loss_s"] < history[0]["loss_s"]


def test_trainer_deterministic_given_seed(mutag):
    def run():
        trainer = SGCLTrainer(mutag.num_features,
                              SGCLConfig(epochs=1, batch_size=16, seed=5))
        trainer.pretrain(mutag.graphs)
        return trainer.encoder.state_dict()

    a, b = run(), run()
    assert all(np.allclose(a[k], b[k]) for k in a)


def test_trainer_encoder_is_fk(mutag):
    trainer = SGCLTrainer(mutag.num_features, SGCLConfig(seed=0))
    assert trainer.encoder is trainer.model.f_k


@pytest.mark.parametrize("augmentation", ["random", "learnable"])
def test_ablation_augmentations_train(mutag, augmentation):
    trainer = SGCLTrainer(
        mutag.num_features,
        SGCLConfig(epochs=1, batch_size=16, seed=0,
                   augmentation=augmentation))
    history = trainer.pretrain(mutag.graphs)
    assert np.isfinite(history[0]["loss"])


def test_exact_mode_trains(mutag):
    trainer = SGCLTrainer(
        mutag.num_features,
        SGCLConfig(epochs=1, batch_size=8, seed=0, lipschitz_mode="exact"))
    history = trainer.pretrain(mutag.graphs[:16])
    assert np.isfinite(history[0]["loss"])


def test_precompute_lipschitz_uses_default_cache(mutag, tmp_path):
    """precompute_lipschitz serves K_V through PrecomputeCache by default
    (config.precompute_cache_dir), without changing numbers (PR 9)."""
    from repro.runtime import PrecomputeCache

    cache_dir = tmp_path / "kv-cache"
    config = SGCLConfig(epochs=1, batch_size=16, seed=0,
                        precompute_cache_dir=str(cache_dir))
    trainer = SGCLTrainer(mutag.num_features, config)
    graphs = mutag.graphs[:6]
    first = trainer.precompute_lipschitz(graphs)
    assert cache_dir.exists()  # default cache was created and populated
    second = trainer.precompute_lipschitz(graphs)
    for a, b in zip(first, second):
        assert np.array_equal(a, b)
    stats = PrecomputeCache(cache_dir).stats()
    assert stats["entries"] == len(graphs)
    # Explicit opt-out computes without touching any cache directory.
    off_config = SGCLConfig(epochs=1, batch_size=16, seed=0,
                            precompute_cache_dir=None)
    off_trainer = SGCLTrainer(mutag.num_features, off_config)
    uncached = off_trainer.precompute_lipschitz(graphs, cache=False)
    assert len(uncached) == len(graphs)


def test_precompute_cache_false_disables_default(mutag, tmp_path):
    cache_dir = tmp_path / "never-created"
    config = SGCLConfig(epochs=1, batch_size=16, seed=0,
                        precompute_cache_dir=str(cache_dir))
    trainer = SGCLTrainer(mutag.num_features, config)
    trainer.precompute_lipschitz(mutag.graphs[:3], cache=False)
    assert not cache_dir.exists()
