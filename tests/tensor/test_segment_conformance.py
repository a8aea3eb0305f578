"""Gradient conformance of every op in ``repro.tensor.segment.PROFILED_OPS``.

The test is parametrised over the table itself, so an op added there
without a case here fails. Each case runs, at float64:

* a central finite-difference check of the gradient;
* a ``retain_graph=True`` double pass, whose gradients must be exactly
  twice the first pass's — a vjp that wrote into a saved forward buffer
  would change the second pass.

Every op runs routed by an index array and by a :class:`ScatterPlan`,
and each index leaves one segment empty. ``gather`` has a 1-D case with
repeated rows: it carries the soft view weights of SGCL and RGCL.
``propagate`` routes over a :class:`MessagePassingWorkspace` instead: a
graph with a duplicate edge, a self-loop and an isolated node, summed
and GCN-normalised, plus a graph with no edges and a single-node graph.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np
import pytest

from repro.graph import MessagePassingWorkspace
from repro.tensor import Tensor, segment
from repro.tensor.segment import ScatterPlan

from _helpers import numerical_gradient


class Case(NamedTuple):
    name: str
    values: np.ndarray
    op: Callable[[Tensor], Tensor]


def _project(out: Tensor) -> Tensor:
    """A fixed random linear functional, to make any output a scalar."""
    weights = np.random.default_rng(99).normal(size=out.shape)
    return (out * Tensor(weights)).sum()


def _cases() -> dict[str, list[Case]]:
    rng = np.random.default_rng(0)
    index = np.array([0, 2, 2, 3, 0, 2, 3])  # segment 1 stays empty
    plan = ScatterPlan(index, 4)
    rows = np.array([4, 0, 0, 2, 6, 1])  # repeats, skips rows 3 and 5
    rows_plan = ScatterPlan(rows, 7)
    matrix = rng.normal(size=(7, 3))
    vector = rng.normal(size=7)
    # 0→1 twice, a self-loop at 3, node 6 isolated.
    graph = MessagePassingWorkspace(
        np.array([[0, 0, 1, 1, 2, 3, 3, 4, 5],
                  [1, 1, 0, 2, 1, 3, 0, 5, 4]]), 7)
    edgeless = MessagePassingWorkspace(np.zeros((2, 0), np.int64), 7)
    single = MessagePassingWorkspace(np.zeros((2, 0), np.int64), 1)

    def segment_op(fn, **kwargs):
        return [
            Case("rows", matrix,
                 lambda v: _project(fn(v, index, 4, **kwargs))),
            Case("vector", vector,
                 lambda v: _project(fn(v, index, 4, **kwargs))),
            Case("plan", matrix,
                 lambda v: _project(fn(v, plan, **kwargs))),
        ]

    return {
        "gather": [
            Case("rows", matrix, lambda v: _project(segment.gather(v, rows))),
            Case("vector", vector,
                 lambda v: _project(segment.gather(v, rows))),
            Case("plan", matrix,
                 lambda v: _project(segment.gather(v, rows_plan))),
        ],
        "segment_sum": segment_op(segment.segment_sum),
        "segment_mean": segment_op(segment.segment_mean),
        "segment_max": segment_op(segment.segment_max, fill=-1.0),
        "segment_softmax": segment_op(segment.segment_softmax),
        "propagate": [
            Case("sum", matrix,
                 lambda v: _project(segment.propagate(v, graph))),
            Case("sum-vector", vector,
                 lambda v: _project(segment.propagate(v, graph))),
            Case("normalized", matrix,
                 lambda v: _project(segment.propagate(v, graph, True))),
            Case("no-edges", matrix,
                 lambda v: _project(segment.propagate(v, edgeless))),
            Case("no-edges-normalized", matrix,
                 lambda v: _project(segment.propagate(v, edgeless, True))),
            Case("single-node", matrix[:1],
                 lambda v: _project(segment.propagate(v, single, True))),
        ],
    }


CASES = _cases()
TARGETS = [target for target, _, _ in segment.PROFILED_OPS]


@pytest.mark.parametrize("target", TARGETS)
def test_gradient_conformance(target):
    assert target in CASES, f"PROFILED_OPS row {target!r} has no case"
    for case in CASES[target]:
        leaf = Tensor(case.values.copy(), requires_grad=True)
        out = case.op(leaf)
        assert np.isfinite(out.item()), case.name
        out.backward(retain_graph=True)
        grad = leaf.grad.copy()
        out.backward(retain_graph=True)
        numeric = numerical_gradient(lambda x: case.op(Tensor(x)).item(),
                                     case.values.copy())
        np.testing.assert_allclose(
            grad, numeric, rtol=1e-5, atol=1e-7,
            err_msg=f"{case.name}: finite differences")
        np.testing.assert_allclose(
            leaf.grad, 2.0 * grad, rtol=1e-12, atol=1e-15,
            err_msg=f"{case.name}: retain_graph second pass")
