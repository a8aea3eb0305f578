"""Segment/gather kernels: correctness vs naive loops, gradients, edge cases."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import load_dataset
from repro.graph import Batch, MessagePassingWorkspace
from repro.sampling import SubgraphStream, load_node_dataset, make_sampler
from repro.tensor import (
    ScatterPlan,
    Tensor,
    gather,
    propagate,
    segment_max,
    segment_mean,
    segment_softmax,
    segment_sum,
)

import _composites as composite
from _helpers import numerical_gradient


def naive_segment_sum(values, index, num_segments):
    out = np.zeros((num_segments,) + values.shape[1:])
    for i, seg in enumerate(index):
        out[seg] += values[i]
    return out


def test_segment_sum_matches_naive(rng):
    values = rng.normal(size=(10, 3))
    index = rng.integers(4, size=10)
    out = segment_sum(Tensor(values), index, 4)
    assert np.allclose(out.data, naive_segment_sum(values, index, 4))


def test_segment_sum_empty_segment_is_zero(rng):
    values = rng.normal(size=(3, 2))
    index = np.array([0, 0, 2])
    out = segment_sum(Tensor(values), index, 4)
    assert np.allclose(out.data[1], 0.0)
    assert np.allclose(out.data[3], 0.0)


def test_segment_sum_gradient(rng):
    values0 = rng.normal(size=(6, 2))
    index = np.array([0, 1, 0, 2, 1, 0])

    def fn(arr):
        return float((naive_segment_sum(arr, index, 3) ** 2).sum())

    values = Tensor(values0.copy(), requires_grad=True)
    (segment_sum(values, index, 3) ** 2.0).sum().backward()
    numeric = numerical_gradient(fn, values0.copy())
    assert np.allclose(values.grad, numeric, atol=1e-6)


def test_segment_mean_matches_naive(rng):
    values = rng.normal(size=(8, 2))
    index = np.array([0, 0, 1, 1, 1, 2, 2, 2])
    out = segment_mean(Tensor(values), index, 3)
    for seg in range(3):
        assert np.allclose(out.data[seg], values[index == seg].mean(axis=0))


def test_segment_mean_empty_segment(rng):
    out = segment_mean(Tensor(rng.normal(size=(2, 2))), np.array([0, 0]), 2)
    assert np.allclose(out.data[1], 0.0)


def test_segment_max_matches_naive(rng):
    values = rng.normal(size=(8, 2))
    index = np.array([0, 0, 1, 1, 1, 2, 2, 2])
    out = segment_max(Tensor(values), index, 3)
    for seg in range(3):
        assert np.allclose(out.data[seg], values[index == seg].max(axis=0))


def test_segment_max_empty_fill():
    out = segment_max(Tensor(np.ones((1, 2))), np.array([0]), 3, fill=-7.0)
    assert np.allclose(out.data[1], -7.0)


def test_segment_max_gradient_routes_to_argmax():
    values = Tensor(np.array([[1.0], [5.0], [2.0]]), requires_grad=True)
    index = np.array([0, 0, 0])
    segment_max(values, index, 1).sum().backward()
    assert np.allclose(values.grad, [[0.0], [1.0], [0.0]])


def test_segment_max_gradient_splits_ties():
    values = Tensor(np.array([[3.0], [3.0]]), requires_grad=True)
    segment_max(values, np.array([0, 0]), 1).sum().backward()
    assert np.allclose(values.grad, [[0.5], [0.5]])


def test_gather_and_gradient(rng):
    values0 = rng.normal(size=(4, 2))
    index = np.array([1, 1, 3])
    values = Tensor(values0.copy(), requires_grad=True)
    out = gather(values, index)
    assert np.allclose(out.data, values0[index])
    out.sum().backward()
    expected = np.zeros_like(values0)
    np.add.at(expected, index, 1.0)
    assert np.allclose(values.grad, expected)


def test_gather_rejects_2d_index(rng):
    with pytest.raises(ValueError):
        gather(Tensor(rng.normal(size=(3, 2))), np.zeros((2, 2), dtype=int))


def test_segment_count():
    plan = ScatterPlan(np.array([0, 0, 2]), 4)
    assert plan.counts().tolist() == [2, 0, 1, 0]


def test_segment_softmax_sums_to_one_per_segment(rng):
    values = Tensor(rng.normal(size=12))
    index = np.repeat(np.arange(3), 4)
    out = segment_softmax(values, index, 3)
    for seg in range(3):
        assert np.isclose(out.data[index == seg].sum(), 1.0)


def test_segment_softmax_matches_dense_softmax(rng):
    values = rng.normal(size=4)
    out = segment_softmax(Tensor(values), np.zeros(4, dtype=int), 1)
    expected = np.exp(values - values.max())
    expected /= expected.sum()
    assert np.allclose(out.data, expected, atol=1e-12)


def test_segment_softmax_gradient(rng):
    values0 = rng.normal(size=6)
    index = np.array([0, 0, 0, 1, 1, 1])
    weights = rng.normal(size=6)

    def fn(arr):
        out = np.zeros(6)
        for seg in range(2):
            mask = index == seg
            e = np.exp(arr[mask] - arr[mask].max())
            out[mask] = e / e.sum()
        return float((out * weights).sum())

    values = Tensor(values0.copy(), requires_grad=True)
    (segment_softmax(values, index, 2) * Tensor(weights)).sum().backward()
    numeric = numerical_gradient(fn, values0.copy())
    assert np.allclose(values.grad, numeric, atol=1e-5)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 30), st.integers(1, 6), st.integers(0, 999))
def test_segment_sum_then_total_equals_full_sum(n, segments, seed):
    """Property: summing the segment sums recovers the total sum."""
    local = np.random.default_rng(seed)
    values = local.normal(size=(n, 2))
    index = local.integers(segments, size=n)
    out = segment_sum(Tensor(values), index, segments)
    assert np.allclose(out.data.sum(axis=0), values.sum(axis=0))


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 20), st.integers(0, 999))
def test_gather_inverse_of_segment_one_hot(n, seed):
    """Property: gather(segment_sum(x, id, n), id) == x when ids are unique."""
    local = np.random.default_rng(seed)
    values = local.normal(size=(n, 3))
    index = local.permutation(n)
    out = gather(segment_sum(Tensor(values), index, n), index)
    assert np.allclose(out.data, values)


# ----------------------------------------------------------------------
# segment_softmax normalisation + ScatterPlan fast path (PR 9)
# ----------------------------------------------------------------------
def test_segment_softmax_rows_sum_to_one(rng):
    values = rng.normal(size=12) * 10.0
    index = rng.integers(4, size=12)
    out = segment_softmax(Tensor(values), index, 4)
    sums = np.zeros(4)
    np.add.at(sums, index, out.data)
    occupied = np.bincount(index, minlength=4) > 0
    # Exactly 1, not 1 - epsilon: the old +1e-16 denominator made
    # attention rows sum to slightly less than one.
    assert np.allclose(sums[occupied], 1.0, rtol=0, atol=1e-12)


def test_scatter_plan_matches_planless(rng):
    """A plan and an index array plus segment count route identically."""
    values = rng.normal(size=(14, 3))
    scalars = rng.normal(size=14)
    index = rng.integers(5, size=14)
    plan = ScatterPlan(index, 5)

    for op in (segment_sum, segment_mean, segment_max):
        for payload in (values, scalars):
            with_plan = Tensor(payload, requires_grad=True)
            without = Tensor(payload, requires_grad=True)
            out_plan = op(with_plan, plan)
            out_none = op(without, index, 5)
            assert np.array_equal(out_plan.data, out_none.data)
            out_plan.sum().backward()
            out_none.sum().backward()
            assert np.array_equal(with_plan.grad, without.grad)


def test_scatter_plan_gather_and_softmax_match(rng):
    node_values = rng.normal(size=(5, 2))
    edge_values = rng.normal(size=14)
    index = rng.integers(5, size=14)
    plan = ScatterPlan(index, 5)

    a = Tensor(node_values, requires_grad=True)
    b = Tensor(node_values, requires_grad=True)
    out_plan, out_none = gather(a, plan), gather(b, index)
    assert np.array_equal(out_plan.data, out_none.data)
    (out_plan * out_plan).sum().backward()
    (out_none * out_none).sum().backward()
    assert np.array_equal(a.grad, b.grad)

    c = Tensor(edge_values, requires_grad=True)
    d = Tensor(edge_values, requires_grad=True)
    soft_plan = segment_softmax(c, plan)
    soft_none = segment_softmax(d, index, 5)
    assert np.array_equal(soft_plan.data, soft_none.data)
    (soft_plan * Tensor(edge_values)).sum().backward()
    (soft_none * Tensor(edge_values)).sum().backward()
    assert np.array_equal(c.grad, d.grad)


def test_scatter_plan_rejects_out_of_range_index(rng):
    plan = ScatterPlan(np.array([0, 1, 5]), 3)  # 5 >= num_segments
    with pytest.raises(IndexError):
        plan.scatter_sum(np.ones(3))
    with pytest.raises(IndexError):
        segment_sum(Tensor(np.ones((3, 2))), np.array([0, 1, 5]), 3)


def test_routing_argument_is_an_index_array_or_a_plan(rng):
    """An index array needs a segment count; a plan carries its own."""
    values = Tensor(rng.normal(size=(3, 2)))
    index = np.array([0, 1, 1])
    plan = ScatterPlan(index, 4)
    assert segment_sum(values, plan).shape == (4, 2)
    assert segment_sum(values, plan, 4).shape == (4, 2)
    with pytest.raises(ValueError):
        segment_sum(values, plan, 3)
    with pytest.raises(TypeError):
        segment_sum(values, index)
    with pytest.raises(ValueError):
        gather(values, plan)  # routes into 4 rows, values has 3


def test_negative_index_is_rejected(rng):
    values = Tensor(rng.normal(size=(3, 2)))
    with pytest.raises(IndexError):
        gather(values, np.array([0, -1]))
    with pytest.raises(IndexError):
        segment_sum(values, np.array([0, -1, 1]), 2)
    for edges in ([[0, -1], [1, 2]], [[0, 1], [1, 3]]):
        for normalized in (False, True):
            workspace = MessagePassingWorkspace(np.array(edges), 3)
            with pytest.raises(IndexError):
                propagate(values, workspace, normalized)


@pytest.fixture(scope="module")
def training_batches():
    """A 32-graph MUTAG batch and a 4-subgraph node-stream walk batch."""
    mutag = load_dataset("MUTAG", seed=0, scale=0.2)
    community = load_node_dataset("community-1m", seed=0, scale=0.005)
    stream = SubgraphStream(
        make_sampler("walk", community, roots=48, walk_length=6),
        samples_per_epoch=4, batch_size=4, seed=0, norm_samples=4)
    walk, _ = next(iter(stream.batches(epoch=0)))
    return {"mutag": Batch(mutag.graphs[:32]), "walk": walk}


@pytest.mark.parametrize("normalized", [False, True])
@pytest.mark.parametrize("name", ["mutag", "walk"])
def test_propagate_bit_equals_gather_segment_sum(training_batches, name,
                                                 normalized):
    """The sparse product adds each row's terms in the chain's order."""
    batch = training_batches[name]
    rng = np.random.default_rng(3)
    x = rng.normal(size=(batch.num_nodes, 32))
    upstream = Tensor(rng.normal(size=x.shape))
    outputs, grads = [], []
    for op in (propagate, composite.propagate):
        leaf = Tensor(x, requires_grad=True)
        out = op(leaf, batch.workspace(), normalized)
        (out * upstream).sum().backward()
        outputs.append(out.data)
        grads.append(leaf.grad)
    assert np.array_equal(outputs[0], outputs[1])
    assert np.array_equal(grads[0], grads[1])
