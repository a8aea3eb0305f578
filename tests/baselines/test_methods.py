"""Every baseline method: trains, produces finite embeddings, learns."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import NEURAL_METHODS, make_method
from repro.data import load_dataset
from repro.eval import embed_dataset
from repro.graph import Batch
from repro.tensor import Tensor


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("MUTAG", seed=0, scale=0.15)


@pytest.mark.parametrize("name", sorted(NEURAL_METHODS))
def test_pretrain_and_embed(name, dataset):
    model = make_method(name, dataset.num_features, seed=0)
    history = model.pretrain(dataset.graphs, epochs=1)
    if name != "No Pre-Train":
        assert len(history) == 1
        assert np.isfinite(history[-1]["loss"])
    embeddings = embed_dataset(model.encoder, dataset)
    assert embeddings.shape == (len(dataset), 32)
    assert np.isfinite(embeddings).all()


@pytest.mark.parametrize("name", ["GraphCL", "InfoGraph", "GAE", "Infomax",
                                  "AttrMasking", "ContextPred"])
def test_loss_decreases_over_epochs(name, dataset):
    model = make_method(name, dataset.num_features, seed=0)
    history = model.pretrain(dataset.graphs, epochs=5)
    assert history[-1]["loss"] < history[0]["loss"]


def test_unknown_method_rejected(dataset):
    with pytest.raises(KeyError):
        make_method("SuperGCL", dataset.num_features)


def test_sgcl_adapter_rejects_unknown_options(dataset):
    with pytest.raises(TypeError):
        make_method("SGCL", dataset.num_features, bogus_option=1)


def test_sgcl_ablation_variants_use_right_config(dataset):
    wo_vg = make_method("SGCL w/o VG", dataset.num_features)
    assert wo_vg.config.augmentation == "random"
    wo_lga = make_method("SGCL w/o LGA", dataset.num_features)
    assert wo_lga.config.augmentation == "learnable"
    wo_srl = make_method("SGCL w/o SRL", dataset.num_features)
    assert not wo_srl.config.use_semantic_readout
    wo_lc = make_method("SGCL w/o Lc", dataset.num_features)
    assert wo_lc.config.lambda_c == 0.0
    wo_lw = make_method("SGCL w/o LW", dataset.num_features)
    assert wo_lw.config.lambda_w == 0.0


def test_sgcl_variant_allows_overrides(dataset):
    model = make_method("SGCL", dataset.num_features, rho=0.7, epochs=2)
    assert model.config.rho == 0.7


def test_joao_updates_augmentation_distribution(dataset):
    model = make_method("JOAOv2", dataset.num_features, seed=0)
    before = model.aug_probs.copy()
    model.pretrain(dataset.graphs, epochs=2)
    assert not np.allclose(before, model.aug_probs)
    assert np.isclose(model.aug_probs.sum(), 1.0)


def test_graphcl_restricted_pool(dataset):
    model = make_method("GraphCL", dataset.num_features,
                        aug_names=("node_drop",), seed=0)
    model.pretrain(dataset.graphs, epochs=1)
    with pytest.raises(ValueError):
        make_method("GraphCL", dataset.num_features, aug_names=("bad",))


def test_adgcl_requires_gin(dataset):
    with pytest.raises(ValueError, match="GIN"):
        make_method("AD-GCL", dataset.num_features, conv="gcn", seed=0)


def test_adgcl_augmenter_not_in_encoder_optimizer(dataset):
    model = make_method("AD-GCL", dataset.num_features, seed=0)
    augmenter = {id(p) for p in model.edge_scorer.parameters()}
    main = {id(p) for p in model.optimizer.params}
    assert not augmenter & main


@pytest.mark.parametrize("pooling", ["sum", "mean", "max"])
def test_adgcl_view_readout_uses_encoder_pooling(pooling, dataset):
    """With every edge kept, AD-GCL's view embedding is the anchor's."""
    model = make_method("AD-GCL", dataset.num_features, pooling=pooling,
                        seed=0)
    model.eval()
    batch = Batch(dataset.graphs[:4])
    keep = Tensor(np.ones(batch.num_edges))
    view = model._view_embeddings(batch, keep).data
    anchor = model.projection(model.encoder.graph_representations(batch)).data
    np.testing.assert_allclose(view, anchor, rtol=0, atol=1e-12)


def test_simgrace_restores_weights_after_perturbation(dataset):
    model = make_method("SimGRACE", dataset.num_features, seed=0)
    before = dict(model.encoder.named_parameters())
    before = {k: v.data.copy() for k, v in before.items()}
    model.step(Batch(dataset.graphs[:4]))
    after = dict(model.encoder.named_parameters())
    # Trainable parameters are restored after the perturbation; BatchNorm
    # running statistics legitimately advance (normal training forward).
    assert all(np.allclose(before[k], after[k].data) for k in before)


def test_rgcl_node_probabilities_in_unit_interval(dataset):
    model = make_method("RGCL", dataset.num_features, seed=0)
    batch = Batch(dataset.graphs[:4])
    probabilities = model.node_probabilities(batch).data
    assert probabilities.shape == (batch.num_nodes,)
    assert ((probabilities >= 0) & (probabilities <= 1)).all()


def test_autogcl_views_are_valid(dataset):
    model = make_method("AutoGCL", dataset.num_features, seed=0)
    batch = Batch(dataset.graphs[:4])
    probs = model.generators[0].probabilities(batch)
    view, soft = model._materialise_view(batch, probs)
    assert view.num_graphs == 4
    assert len(soft) == view.num_nodes


def test_no_pretrain_is_noop(dataset):
    model = make_method("No Pre-Train", dataset.num_features, seed=0)
    before = model.encoder.state_dict()
    model.pretrain(dataset.graphs, epochs=5)
    after = model.encoder.state_dict()
    assert all(np.allclose(before[k], after[k]) for k in before)
