"""Gradient conformance of every op in ``repro.nn.functional.PROFILED_OPS``.

The test is parametrised over the table itself, so an op added there
without a case here fails. Each case runs, at float64:

* a central finite-difference check of every input's gradient;
* agreement with the composite op chain a fused op replaced (value and
  gradients), kept in ``tests/_composites.py`` as the oracle;
* a ``retain_graph=True`` double pass, whose gradients must be exactly
  twice the first pass's — a vjp that wrote into a saved forward buffer
  would change the second pass.

Degenerate inputs ride along as extra cases: a 0-row complement, a
complete graph with no negative pairs, and one-row BatchNorm.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np
import pytest

from repro.core.losses import graph_likelihood_loss
from repro.nn import functional
from repro.tensor import Tensor

import _composites as composite
from _helpers import numerical_gradient


class Case(NamedTuple):
    name: str
    inputs: dict[str, np.ndarray]
    fused: Callable[..., Tensor]
    oracle: Callable[..., Tensor] | None = None


def _project(out: Tensor) -> Tensor:
    """A fixed random linear functional, to make any output a scalar."""
    weights = np.random.default_rng(99).normal(size=out.shape)
    return (out * Tensor(weights)).sum()


def _cases() -> dict[str, list[Case]]:
    rng = np.random.default_rng(0)
    normal = rng.normal
    square = np.array([[0, 1, 1, 2, 2, 3, 3, 0], [1, 0, 2, 1, 3, 2, 0, 3]])
    pair_src = np.array([0, 1, 2, 3, 0, 1])
    pair_dst = np.array([1, 2, 3, 0, 2, 3])
    pair_targets = np.array([1.0, 1.0, 1.0, 1.0, 0.0, 0.0])
    degrees = np.array([2.0, 2.0, 2.0, 2.0])
    triangle = np.array([[0, 1, 1, 2, 2, 0], [1, 0, 2, 1, 0, 2]])
    mask = (rng.random((4, 3)) > 0.3).astype(np.float64)

    def likelihood(edge_index, n):
        # A fresh generator per call: finite differences re-run the loss
        # and must see the same negative pairs every time.
        def loss(h, w):
            return graph_likelihood_loss(h, edge_index, np.bincount(
                edge_index[0], minlength=n).astype(np.float64), w,
                np.random.default_rng(3))
        return loss

    return {
        "cross_entropy": [Case(
            "rows", {"logits": normal(size=(5, 3))},
            lambda logits: functional.cross_entropy(
                logits, np.array([0, 2, 1, 1, 0])))],
        "binary_cross_entropy_with_logits": [Case(
            "masked", {"logits": normal(size=(4, 3))},
            lambda logits: functional.binary_cross_entropy_with_logits(
                logits, (mask > 0.5).astype(np.float64), mask))],
        "mse_loss": [Case(
            "rows", {"prediction": normal(size=(4, 3))},
            lambda prediction: functional.mse_loss(
                prediction, np.ones((4, 3))))],
        "l2_normalize": [Case(
            "rows", {"x": normal(size=(4, 3))},
            lambda x: _project(functional.l2_normalize(x)))],
        "cosine_similarity_matrix": [Case(
            "rows", {"a": normal(size=(4, 3)), "b": normal(size=(5, 3))},
            lambda a, b: _project(functional.cosine_similarity_matrix(a, b)))],
        "info_nce": [
            Case("eq24", {"a": normal(size=(5, 4)), "v": normal(size=(5, 4))},
                 lambda a, v: functional.info_nce(a, v, 0.5),
                 lambda a, v: composite.info_nce(a, v, 0.5)),
            Case("eq24-weighted",
                 {"a": normal(size=(5, 4)), "v": normal(size=(5, 4))},
                 lambda a, v: functional.info_nce(
                     a, v, 0.3, weights=np.array([1.0, 2.0, 0.5, 0.0, 3.0])),
                 lambda a, v: composite.info_nce(
                     a, v, 0.3, weights=np.array([1.0, 2.0, 0.5, 0.0, 3.0]))),
            Case("eq25", {"a": normal(size=(4, 3)), "v": normal(size=(4, 3)),
                          "c": normal(size=(6, 3))},
                 lambda a, v, c: functional.info_nce(a, v, 0.5, complement=c),
                 lambda a, v, c: composite.info_nce(a, v, 0.5, complement=c)),
            Case("eq25-no-complement",
                 {"a": normal(size=(4, 3)), "v": normal(size=(4, 3))},
                 lambda a, v: functional.info_nce(
                     a, v, 0.5, complement=Tensor(np.zeros((0, 3)))),
                 lambda a, v: composite.info_nce(
                     a, v, 0.5, complement=Tensor(np.zeros((0, 3))))),
        ],
        "edge_likelihood": [
            Case("pairs", {"h": normal(size=(4, 3)), "w": normal(size=3)},
                 lambda h, w: functional.edge_likelihood(
                     h, w, degrees, pair_src, pair_dst, pair_targets),
                 lambda h, w: composite.edge_likelihood(
                     h, w, degrees, pair_src, pair_dst, pair_targets)),
            Case("graph-with-negatives",
                 {"h": normal(size=(4, 3)), "w": normal(size=3)},
                 likelihood(square, 4)),
            Case("complete-graph-no-negatives",
                 {"h": normal(size=(3, 3)), "w": normal(size=3)},
                 likelihood(triangle, 3),
                 lambda h, w: composite.edge_likelihood(
                     h, w, np.full(3, 2.0), triangle[0], triangle[1],
                     np.ones(6))),
        ],
        "linear": [
            Case("bias", {"x": normal(size=(5, 3)), "w": normal(size=(3, 2)),
                          "b": normal(size=2)},
                 lambda x, w, b: _project(functional.linear(x, w, b)),
                 lambda x, w, b: _project(composite.linear(x, w, b))),
            Case("no-bias", {"x": normal(size=(5, 3)),
                             "w": normal(size=(3, 2))},
                 lambda x, w: _project(functional.linear(x, w)),
                 lambda x, w: _project(composite.linear(x, w))),
        ],
        "batch_norm": [
            Case("rows", {"x": normal(2.0, 3.0, size=(6, 3)),
                          "g": normal(size=3), "b": normal(size=3)},
                 lambda x, g, b: _project(
                     functional.batch_norm(x, g, b, 1e-5)[0]),
                 lambda x, g, b: _project(
                     composite.batch_norm(x, g, b, 1e-5)[0])),
            Case("one-row", {"x": normal(size=(1, 3)),
                             "g": normal(size=3), "b": normal(size=3)},
                 lambda x, g, b: _project(
                     functional.batch_norm(x, g, b, 1e-5)[0]),
                 lambda x, g, b: _project(
                     composite.batch_norm(x, g, b, 1e-5)[0])),
        ],
        "parameter_norm": [Case(
            "params", {"p": normal(size=(3, 2)), "q": normal(size=4),
                       "r": normal(size=1)},
            lambda p, q, r: functional.parameter_norm([p, q, r]),
            lambda p, q, r: composite.parameter_norm([p, q, r]))],
    }


CASES = _cases()
TARGETS = [target for target, _, _ in functional.PROFILED_OPS]


def _gradients(fn, inputs, *, passes: int = 1):
    leaves = {name: Tensor(value.copy(), requires_grad=True)
              for name, value in inputs.items()}
    out = fn(**leaves)
    grads = []
    for _ in range(passes):
        out.backward(retain_graph=True)
        grads.append({name: leaf.grad.copy()
                      for name, leaf in leaves.items()})
    return out.item(), grads


@pytest.mark.parametrize("target", TARGETS)
def test_gradient_conformance(target):
    assert target in CASES, f"PROFILED_OPS row {target!r} has no case"
    for case in CASES[target]:
        value, (grads, twice) = _gradients(case.fused, case.inputs, passes=2)
        assert np.isfinite(value), case.name
        for name, array in case.inputs.items():
            def scalar(x, name=name):
                return case.fused(**{**{k: Tensor(v) for k, v in
                                        case.inputs.items()},
                                     name: Tensor(x)}).item()
            numeric = numerical_gradient(scalar, array.copy())
            np.testing.assert_allclose(
                grads[name], numeric, rtol=1e-5, atol=1e-7,
                err_msg=f"{case.name}: finite differences, {name}")
            np.testing.assert_allclose(
                twice[name], 2.0 * grads[name], rtol=1e-12, atol=1e-15,
                err_msg=f"{case.name}: retain_graph second pass, {name}")
        if case.oracle is not None:
            want_value, (want,) = _gradients(case.oracle, case.inputs)
            assert np.isclose(value, want_value, rtol=1e-12, atol=1e-13), \
                case.name
            for name in case.inputs:
                np.testing.assert_allclose(
                    grads[name], want[name], rtol=1e-9, atol=1e-12,
                    err_msg=f"{case.name}: composite oracle, {name}")


def test_complement_free_loss_is_zero_with_zero_gradient(rng):
    """L_c with no complement rows: log(exp(s_ii)) − s_ii = 0."""
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    loss = functional.info_nce(a, Tensor(rng.normal(size=(3, 4))), 0.2,
                               complement=Tensor(np.zeros((0, 4))))
    loss.backward()
    assert loss.item() == 0.0
    assert np.abs(a.grad).max() < 1e-15


def test_one_row_batch_norm_outputs_beta():
    x = Tensor(np.array([[1.0, -2.0]]), requires_grad=True)
    beta = Tensor(np.array([0.5, 0.25]), requires_grad=True)
    out, mean, var = functional.batch_norm(
        x, Tensor(np.ones(2), requires_grad=True), beta, 1e-5)
    assert np.array_equal(out.data, [[0.5, 0.25]])
    assert np.array_equal(mean, [1.0, -2.0]) and np.array_equal(var, [0, 0])
