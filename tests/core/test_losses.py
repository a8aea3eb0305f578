"""Contrastive losses: Eq. 24–26 semantics and the generator likelihood."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import complement_loss, semantic_info_nce, weight_regularizer
from repro.core.losses import graph_likelihood_loss, sample_negative_pairs
from repro.nn import Linear, Parameter
from repro.tensor import Tensor

from _helpers import make_triangle


def _orthogonal_embeddings(n, dim=8):
    return Tensor(np.eye(n, dim))


def test_info_nce_prefers_aligned_pairs(rng):
    anchors = _orthogonal_embeddings(4)
    aligned = semantic_info_nce(anchors, anchors, tau=0.2)
    shuffled = Tensor(anchors.data[[1, 2, 3, 0]])
    misaligned = semantic_info_nce(anchors, shuffled, tau=0.2)
    assert aligned.item() < misaligned.item()


def test_info_nce_excludes_positive_from_denominator():
    """With orthogonal anchors/views, denominator sums only the n−1
    off-diagonal terms: loss = log((n−1)·e^0) − 1/τ."""
    n, tau = 4, 0.5
    anchors = _orthogonal_embeddings(n)
    loss = semantic_info_nce(anchors, anchors, tau)
    expected = np.log(n - 1) - 1.0 / tau
    assert np.isclose(loss.item(), expected, atol=1e-6)


def test_info_nce_requires_two_graphs(rng):
    single = Tensor(rng.normal(size=(1, 4)))
    with pytest.raises(ValueError):
        semantic_info_nce(single, single, 0.2)


def test_info_nce_gradient_pulls_positives_together(rng):
    anchors = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    views = Tensor(rng.normal(size=(4, 6)))
    loss = semantic_info_nce(anchors, views, 0.2)
    loss.backward()
    assert anchors.grad is not None
    assert np.isfinite(anchors.grad).all()


def test_info_nce_temperature_scales_hardness(rng):
    anchors = Tensor(rng.normal(size=(6, 8)))
    views = Tensor(anchors.data + rng.normal(0, 0.01, size=(6, 8)))
    sharp = semantic_info_nce(anchors, views, 0.1)
    smooth = semantic_info_nce(anchors, views, 1.0)
    # With near-perfect alignment, a smaller τ yields a lower loss.
    assert sharp.item() < smooth.item()


def test_info_nce_weighted_prefers_matched_rows(rng):
    """Node-level use: row i of both inputs is the same node, weighted by
    its sampling-bias correction."""
    z = Tensor(rng.normal(size=(12, 6)))
    weights = rng.uniform(0.5, 2.0, size=12)
    aligned = semantic_info_nce(z, z, tau=0.2, weights=weights)
    shuffled = semantic_info_nce(
        z, Tensor(z.data[rng.permutation(12)]), tau=0.2, weights=weights)
    assert np.isfinite(aligned.item())
    assert aligned.item() < shuffled.item()


def test_info_nce_weights_are_mean_normalised(rng):
    a = Tensor(rng.normal(size=(8, 4)))
    b = Tensor(rng.normal(size=(8, 4)))
    base = semantic_info_nce(a, b, tau=0.2).item()
    uniform = semantic_info_nce(a, b, tau=0.2,
                                weights=np.full(8, 7.0)).item()
    assert uniform == pytest.approx(base)  # uniform weights are a no-op
    skewed = semantic_info_nce(a, b, tau=0.2,
                               weights=np.arange(1.0, 9.0)).item()
    assert skewed != pytest.approx(base)


@pytest.mark.parametrize("weights, message", [
    (np.zeros(4), "zero mean"),
    (np.array([1.0, np.nan, 1.0, 1.0]), "finite"),
    (np.array([1.0, np.inf, 1.0, 1.0]), "finite"),
    (np.array([2.0, -1.0, 1.0, 1.0]), "non-negative"),
    (np.ones(3), "one entry per row"),
], ids=["all-zero", "nan", "inf", "negative", "wrong-length"])
def test_info_nce_rejects_unusable_weights(rng, weights, message):
    """Such weights used to give NaN or inf with at most a RuntimeWarning."""
    z = Tensor(rng.normal(size=(4, 3)))
    with pytest.raises(ValueError, match=message):
        semantic_info_nce(z, z, tau=0.2, weights=weights)


def test_complement_loss_penalises_close_complements(rng):
    anchors = _orthogonal_embeddings(3)
    views = anchors
    far = Tensor(-np.eye(3, 8))
    near = Tensor(anchors.data + 0.01)
    loss_far = complement_loss(anchors, views, far, 0.2)
    loss_near = complement_loss(anchors, views, near, 0.2)
    assert loss_far.item() < loss_near.item()


def test_complement_loss_nonnegative(rng):
    anchors = Tensor(rng.normal(size=(4, 8)))
    views = Tensor(rng.normal(size=(4, 8)))
    complements = Tensor(rng.normal(size=(4, 8)))
    assert complement_loss(anchors, views, complements, 0.2).item() > 0


def test_weight_regularizer_is_parameter_l2(rng):
    layer = Linear(3, 2, rng=rng)
    expected = np.sqrt(sum((p.data ** 2).sum() for p in layer.parameters()))
    assert np.isclose(weight_regularizer(layer).item(), expected, atol=1e-6)


def test_weight_regularizer_gradient(rng):
    layer = Linear(3, 2, rng=rng)
    weight_regularizer(layer).backward()
    assert layer.weight.grad is not None


def test_graph_likelihood_loss_decreases_with_training(rng, triangle):
    reps = Tensor(rng.normal(size=(3, 8)))
    w = Parameter(rng.normal(0, 0.1, size=8))
    from repro.nn import Adam
    optimizer = Adam([w], lr=0.05)
    degrees = triangle.degrees()
    first = None
    for step in range(50):
        loss = graph_likelihood_loss(reps, triangle.edge_index, degrees, w,
                                     np.random.default_rng(step))
        if first is None:
            first = loss.item()
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
    assert loss.item() < first


def test_graph_likelihood_edge_cases(rng):
    w = Tensor(rng.normal(size=4))
    empty = graph_likelihood_loss(Tensor(rng.normal(size=(3, 4))),
                                  np.zeros((2, 0), dtype=np.int64),
                                  np.zeros(3), w, rng)
    assert empty.item() == 0.0


def _path_edge_index(n):
    pairs = np.array([(i, i + 1) for i in range(n - 1)])
    return np.concatenate([pairs, pairs[:, ::-1]], axis=0).T


def test_sample_negative_pairs_rejects_self_loops_and_edges():
    """Regression: naive uniform sampling labelled real edges (and
    self-pairs) as negatives; the sampler must return true non-edges."""
    n = 10
    edge_index = _path_edge_index(n)
    observed = set(map(tuple, edge_index.T.tolist()))
    for seed in range(20):
        src, dst = sample_negative_pairs(
            n, edge_index.shape[1], edge_index,
            np.random.default_rng(seed))
        assert len(src) == edge_index.shape[1]  # sparse graph: no shortage
        assert (src != dst).all()
        assert not any((int(u), int(v)) in observed
                       for u, v in zip(src, dst))


def test_sample_negative_pairs_is_deterministic():
    edge_index = _path_edge_index(8)
    draws = [sample_negative_pairs(8, 14, edge_index,
                                   np.random.default_rng(99))
             for _ in range(2)]
    assert (draws[0][0] == draws[1][0]).all()
    assert (draws[0][1] == draws[1][1]).all()


def test_sample_negative_pairs_complete_graph_yields_nothing(rng, triangle):
    src, dst = sample_negative_pairs(3, 6, triangle.edge_index, rng)
    assert len(src) == 0 and len(dst) == 0


def test_graph_likelihood_loss_finite_on_complete_graph(rng, triangle):
    """Complete graphs have no non-edges; the loss falls back to fitting
    the positives alone instead of mislabelling edges as negatives."""
    loss = graph_likelihood_loss(Tensor(rng.normal(size=(3, 8))),
                                 triangle.edge_index, triangle.degrees(),
                                 Parameter(rng.normal(size=8)), rng)
    assert np.isfinite(loss.item())


def test_complement_loss_with_no_complement_samples(rng):
    """Satellite: 0-row Ĝ^c batch must give L_c = 0 (denominator is just
    the positive term) with a usable gradient, not a crash."""
    anchors = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
    views = Tensor(rng.normal(size=(4, 8)))
    loss = complement_loss(anchors, views, Tensor(np.zeros((0, 8))), 0.2)
    assert loss.item() == pytest.approx(0.0, abs=1e-9)
    loss.backward()
    assert anchors.grad is not None
    assert np.isfinite(anchors.grad).all()
