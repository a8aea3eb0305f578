"""Lipschitz constant generator: exact semantics, approximation, invariants."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from repro.core import LipschitzConstantGenerator, topology_distance
from repro.data import load_dataset
from repro.eval import roc_auc
from repro.gnn import GNNEncoder
from repro.graph import Batch, MessagePassingWorkspace
from repro.tensor import Tensor, no_grad

from _helpers import make_path, make_triangle


def test_topology_distance_formula():
    degrees = np.array([0.0, 1.0, 4.0])
    out = topology_distance(degrees)
    assert np.isclose(out[1], np.sqrt(2.0))
    assert np.isclose(out[2], np.sqrt(8.0))
    assert out[0] >= np.sqrt(2.0)  # isolated-node floor


def _sage_encoder(features, rng):
    return GNNEncoder(features, 16, 2, rng=rng, conv="sage")


def test_exact_matches_manual_leave_one_out(rng):
    """Exact mode must equal an explicit per-node masked recomputation."""
    graph = make_path(rng, n=5)
    encoder = _sage_encoder(4, rng)
    generator = LipschitzConstantGenerator(encoder, rng=rng, mode="exact")
    with no_grad():
        constants = generator.node_constants(Batch([graph])).data
        encoder.eval()
        workspace = MessagePassingWorkspace(graph.edge_index, 5)
        reference = encoder.node_representations(
            Tensor(graph.x), workspace).data
        topo = topology_distance(graph.degrees())
        for r in range(5):
            mask = np.ones(5)
            mask[r] = 0.0
            masked = encoder.node_representations(
                Tensor(graph.x), workspace, node_weight=Tensor(mask)).data
            expected = np.linalg.norm(reference - masked) / topo[r]
            assert np.isclose(constants[r], expected, atol=1e-8), r
        encoder.train()


def test_constants_positive_and_finite(rng, triangle):
    for mode in ("exact", "approx"):
        generator = LipschitzConstantGenerator(_sage_encoder(4, rng),
                                               rng=rng, mode=mode)
        with no_grad():
            constants = generator.node_constants(Batch([triangle])).data
        assert np.isfinite(constants).all()
        assert (constants >= 0).all()


def test_batched_equals_per_graph(rng):
    graphs = [make_triangle(rng), make_path(rng, n=6)]
    generator = LipschitzConstantGenerator(_sage_encoder(4, rng), rng=rng,
                                           mode="approx")
    with no_grad():
        together = generator.node_constants(Batch(graphs)).data
        separate = np.concatenate([
            generator.node_constants(Batch([g])).data for g in graphs])
    assert np.allclose(together, separate, atol=1e-8)


def test_mode_validation(rng):
    with pytest.raises(ValueError):
        LipschitzConstantGenerator(_sage_encoder(4, rng), rng=rng,
                                   mode="magic")


def test_training_flag_restored(rng, triangle):
    generator = LipschitzConstantGenerator(_sage_encoder(4, rng), rng=rng)
    generator.encoder.train()
    generator.node_constants(Batch([triangle]))
    assert generator.encoder.training
    generator.encoder.eval()
    generator.node_constants(Batch([triangle]))
    assert not generator.encoder.training


def test_gradient_flows_to_generator_parameters(rng, triangle):
    generator = LipschitzConstantGenerator(_sage_encoder(4, rng), rng=rng,
                                           mode="approx")
    generator.node_constants(Batch([triangle])).sum().backward()
    grads = [p.grad for p in generator.encoder.parameters()]
    assert any(g is not None and np.abs(g).sum() > 0 for g in grads)


def test_exact_gradient_flows(rng, triangle):
    generator = LipschitzConstantGenerator(_sage_encoder(4, rng), rng=rng,
                                           mode="exact")
    generator.node_constants(Batch([triangle])).sum().backward()
    grads = [p.grad for p in generator.encoder.parameters()]
    assert any(g is not None and np.abs(g).sum() > 0 for g in grads)


def test_exact_and_approx_rank_correlate_on_planted_data(rng):
    """Both modes should broadly agree on which nodes matter."""
    dataset = load_dataset("MUTAG", seed=0, scale=0.15)
    encoder = _sage_encoder(dataset.num_features, rng)
    exact = LipschitzConstantGenerator(encoder, rng=rng, mode="exact")
    approx = LipschitzConstantGenerator(encoder, rng=rng, mode="approx")
    correlations = []
    with no_grad():
        for graph in dataset.graphs[:10]:
            batch = Batch([graph])
            ke = exact.node_constants(batch).data
            ka = approx.node_constants(batch).data
            correlations.append(stats.spearmanr(ke, ka).statistic)
    assert np.nanmean(correlations) > 0.3


@pytest.mark.parametrize("dataset_name,scale", [("MUTAG", 0.15),
                                                ("IMDB-B", 0.04)])
def test_identifies_planted_semantic_nodes(dataset_name, scale):
    """The headline invariant: K is higher on planted semantic nodes.

    Averaged over two encoder initialisations because single random inits
    vary; the *statistic* (not a trained model) must separate semantic from
    background nodes well above chance.
    """
    dataset = load_dataset(dataset_name, seed=0, scale=scale)
    aucs = []
    for encoder_seed in (7, 21):
        local = np.random.default_rng(encoder_seed)
        encoder = _sage_encoder(dataset.num_features, local)
        generator = LipschitzConstantGenerator(encoder, rng=local,
                                               mode="approx")
        with no_grad():
            for graph in dataset.graphs[:15]:
                constants = generator.node_constants(Batch([graph])).data
                truth = graph.meta["semantic_nodes"].astype(int)
                if 0 < truth.sum() < len(truth):
                    aucs.append(roc_auc(truth, constants))
    assert np.mean(aucs) > 0.65, f"semantic AUC too low: {np.mean(aucs):.3f}"


def test_graph_without_edges_is_handled(rng):
    from repro.graph import Graph
    graph = Graph(rng.normal(size=(3, 4)), np.zeros((2, 0)))
    generator = LipschitzConstantGenerator(_sage_encoder(4, rng), rng=rng,
                                           mode="approx")
    with no_grad():
        constants = generator.node_constants(Batch([graph])).data
    assert np.isfinite(constants).all()


# ----------------------------------------------------------------------
# Batched exact mode (PR 9): mega-batch + chunking must not change K_V
# ----------------------------------------------------------------------
def test_exact_batched_equals_per_graph(rng):
    graphs = [make_triangle(rng), make_path(rng, n=6), make_path(rng, n=3)]
    generator = LipschitzConstantGenerator(_sage_encoder(4, rng), rng=rng,
                                           mode="exact")
    with no_grad():
        together = generator.node_constants(Batch(graphs)).data
        separate = np.concatenate([
            generator.node_constants(Batch([g])).data for g in graphs])
    assert np.allclose(together, separate, atol=1e-8)


def test_exact_chunking_matches_single_megabatch(rng):
    graphs = [make_triangle(rng), make_path(rng, n=5), make_path(rng, n=4)]
    generator = LipschitzConstantGenerator(_sage_encoder(4, rng), rng=rng,
                                           mode="exact")
    with no_grad():
        one_chunk = generator.node_constants(Batch(graphs)).data
        # Budget of 1 replica-node forces one chunk per graph.
        generator._REPLICA_NODE_BUDGET = 1
        per_graph_chunks = generator.node_constants(Batch(graphs)).data
    assert np.allclose(one_chunk, per_graph_chunks, atol=1e-8)


def test_exact_gradient_flows_through_batched_path(rng):
    graphs = [make_triangle(rng), make_path(rng, n=4)]
    generator = LipschitzConstantGenerator(_sage_encoder(4, rng), rng=rng,
                                           mode="exact")
    constants = generator.node_constants(Batch(graphs))
    constants.sum().backward()
    grads = [p.grad for p in generator.encoder.parameters()]
    assert any(g is not None and np.abs(g).sum() > 0 for g in grads)
