"""Reverse-mode automatic differentiation on numpy arrays.

This module is the computational substrate for the whole reproduction: the
paper's models were written against PyTorch, which is unavailable here, so we
implement the needed subset — a :class:`Tensor` wrapping an ``ndarray``, a
dynamic tape, and vector-Jacobian products for every primitive the GNN stack
uses.

Design notes
------------
* The tape is implicit: each ``Tensor`` produced by an op keeps references to
  its parents and a ``_backward`` vjp that accumulates gradients into
  them. ``Tensor.backward`` topologically sorts the graph and runs vjps
  in reverse order.
* Gradients are plain ``numpy`` arrays stored on ``Tensor.grad``.
* Broadcasting follows numpy semantics; ``_unbroadcast`` reduces gradients
  back to the parent's shape.
* A module-level switch (:func:`no_grad`) disables taping for inference.
* ``backward`` is *consuming*: it releases each visited node's vjp,
  parent references and intermediate (non-leaf) gradient buffer as soon as
  they have been used, so a training step holds no tape garbage after the
  pass. A second ``backward`` on the same tape raises instead of silently
  double-accumulating (pass ``retain_graph=True`` to opt back into the
  re-runnable-tape behaviour, in which gradients accumulate across calls).
* Vjps donate freshly allocated arrays to :meth:`Tensor._accumulate`
  (``own=True``), which then adopts the buffer instead of copying into a
  zero-initialised one — the backward pass allocates roughly half as many
  arrays as a naive implementation.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = ["Tensor", "no_grad", "is_grad_enabled", "as_tensor"]

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Context manager that disables gradient taping inside its block."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def is_grad_enabled() -> bool:
    """Return whether ops executed now will be recorded on the tape."""
    return _GRAD_ENABLED


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over dimensions that were 1 in the original shape.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def as_tensor(value, requires_grad: bool = False) -> "Tensor":
    """Coerce ``value`` (Tensor, ndarray, scalar, list) to a Tensor."""
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=np.float64), requires_grad=requires_grad)


class Tensor:
    """A numpy array with reverse-mode autodiff support.

    Parameters
    ----------
    data:
        Array-like payload; stored as ``float64`` unless already a float
        ndarray.
    requires_grad:
        Whether gradients should be accumulated for this leaf.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents",
                 "_consumed")

    def __init__(self, data, requires_grad: bool = False):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float64)
        self.data: np.ndarray = arr
        self.grad: np.ndarray | None = None
        self.requires_grad: bool = bool(requires_grad)
        self._backward: Callable[["Tensor"], None] | None = None
        self._parents: tuple["Tensor", ...] = ()
        self._consumed: bool = False

    # ------------------------------------------------------------------
    # Basic introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, precision=4, threshold=8)}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying ndarray (shared, not copied)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a new Tensor sharing data but cut from the tape."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    # ------------------------------------------------------------------
    # Tape plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _make(data: np.ndarray, parents: Sequence["Tensor"],
              backward: Callable[["Tensor"], None] | None) -> "Tensor":
        """Create an op output; record it on the tape if grad is enabled."""
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires and backward is not None:
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray, own: bool = False) -> None:
        """Add ``grad`` into ``self.grad`` (allocating on first touch).

        ``own=True`` promises that ``grad`` is a freshly allocated float64
        array the caller will not touch again, letting the first
        accumulation adopt the buffer instead of copying it. Vjps in this
        module use it for every gradient they materialise themselves;
        pass-through gradients (views of ``out.grad``) keep ``own=False``.
        """
        if not self.requires_grad:
            return
        if self.grad is None:
            if grad.shape != self.data.shape:
                grad = np.broadcast_to(grad, self.data.shape)
                own = False
            self.grad = grad if own else np.array(grad, dtype=np.float64)
        else:
            self.grad += grad

    def backward(self, grad: np.ndarray | None = None, *,
                 retain_graph: bool = False) -> None:
        """Backpropagate from this tensor through the recorded tape.

        Parameters
        ----------
        grad:
            Seed gradient; defaults to ones (scalar outputs may omit it).
        retain_graph:
            By default the tape is *consumed*: every visited node's vjp,
            parent links and intermediate gradient buffer are released as
            soon as the pass is done with them, and a second ``backward``
            on the same tensor raises ``RuntimeError`` (it would otherwise
            silently double-accumulate into the leaves). Pass ``True`` to
            keep the tape alive for another pass.
        """
        if self._consumed:
            raise RuntimeError(
                "backward() on an already-consumed tape: the first call "
                "released its intermediate state, so a second pass would "
                "silently accumulate garbage. Recompute the forward pass, "
                "or use backward(retain_graph=True) on the first call.")
        if grad is None:
            grad = np.ones_like(self.data, dtype=np.float64)
        else:
            grad = np.asarray(grad, dtype=np.float64)
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        self._accumulate(grad)
        for node in reversed(topo):
            backward_fn = node._backward
            if backward_fn is not None:
                if node.grad is not None:
                    backward_fn(node)
                # An intermediate's gradient buffer is dead weight once
                # propagated — and must not survive into a retained-tape
                # second pass, where it would compound. Leaves (no vjp)
                # keep their accumulated .grad for the optimiser.
                node.grad = None
                if not retain_graph:
                    # Release the tape as we go: the vjp and the parent
                    # links are only needed again under retain_graph.
                    node._backward = None
                    node._parents = ()
        if not retain_graph:
            self._consumed = True

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = as_tensor(other)

        def backward(out: Tensor) -> None:
            grad = out.grad
            g_self = _unbroadcast(grad, self.shape)
            self._accumulate(g_self, own=g_self is not grad)
            g_other = _unbroadcast(grad, other.shape)
            other._accumulate(g_other, own=g_other is not grad)

        return Tensor._make(self.data + other.data, (self, other), backward)

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        other = as_tensor(other)

        def backward(out: Tensor) -> None:
            grad = out.grad
            g_self = _unbroadcast(grad, self.shape)
            self._accumulate(g_self, own=g_self is not grad)
            other._accumulate(_unbroadcast(-grad, other.shape), own=True)

        return Tensor._make(self.data - other.data, (self, other), backward)

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other).__sub__(self)

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)

        def backward(out: Tensor) -> None:
            grad = out.grad
            self._accumulate(_unbroadcast(grad * other.data, self.shape),
                             own=True)
            other._accumulate(_unbroadcast(grad * self.data, other.shape),
                              own=True)

        return Tensor._make(self.data * other.data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = as_tensor(other)

        def backward(out: Tensor) -> None:
            grad = out.grad
            self._accumulate(_unbroadcast(grad / other.data, self.shape),
                             own=True)
            other._accumulate(_unbroadcast(
                -grad * self.data / (other.data ** 2), other.shape), own=True)

        return Tensor._make(self.data / other.data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        def backward(out: Tensor) -> None:
            self._accumulate(-out.grad, own=True)

        return Tensor._make(-self.data, (self,), backward)

    def __pow__(self, exponent: float) -> "Tensor":
        exponent = float(exponent)

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad * exponent * self.data ** (exponent - 1),
                             own=True)

        return Tensor._make(self.data ** exponent, (self,), backward)

    # Comparisons return plain boolean ndarrays (non-differentiable).
    def __gt__(self, other):
        return self.data > (other.data if isinstance(other, Tensor) else other)

    def __lt__(self, other):
        return self.data < (other.data if isinstance(other, Tensor) else other)

    def __ge__(self, other):
        return self.data >= (other.data if isinstance(other, Tensor) else other)

    def __le__(self, other):
        return self.data <= (other.data if isinstance(other, Tensor) else other)

    # ------------------------------------------------------------------
    # Matrix ops
    # ------------------------------------------------------------------
    def __matmul__(self, other) -> "Tensor":
        """Matrix product supporting the 1-D/2-D combinations numpy allows.

        Batched (>2-D) matmul is intentionally unsupported — the GNN stack
        works on flat node matrices.
        """
        other = as_tensor(other)
        if self.ndim > 2 or other.ndim > 2:
            raise ValueError("matmul supports only 1-D and 2-D operands")

        def backward(out: Tensor) -> None:
            grad = out.grad
            a, b = self.data, other.data
            if a.ndim == 1 and b.ndim == 1:        # dot product → scalar
                self._accumulate(grad * b, own=True)
                other._accumulate(grad * a, own=True)
            elif a.ndim == 2 and b.ndim == 2:      # (n,k)@(k,m)
                self._accumulate(grad @ b.T, own=True)
                other._accumulate(a.T @ grad, own=True)
            elif a.ndim == 1:                      # (k,)@(k,m) → (m,)
                self._accumulate(b @ grad, own=True)
                other._accumulate(np.outer(a, grad), own=True)
            else:                                  # (n,k)@(k,) → (n,)
                self._accumulate(np.outer(grad, b), own=True)
                other._accumulate(a.T @ grad, own=True)

        return Tensor._make(self.data @ other.data, (self, other), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def transpose(self, axes: tuple[int, ...] | None = None) -> "Tensor":
        def backward(out: Tensor) -> None:
            if axes is None:
                self._accumulate(out.grad.T)
            else:
                inverse = np.argsort(axes)
                self._accumulate(out.grad.transpose(inverse))

        data = self.data.T if axes is None else self.data.transpose(axes)
        return Tensor._make(data, (self,), backward)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.shape

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad.reshape(original))

        return Tensor._make(self.data.reshape(shape), (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        def backward(out: Tensor) -> None:
            grad = np.zeros_like(self.data, dtype=np.float64)
            np.add.at(grad, index, out.grad)
            self._accumulate(grad, own=True)

        return Tensor._make(self.data[index], (self,), backward)

    # ------------------------------------------------------------------
    # Nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        value = np.exp(self.data)

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad * value, own=True)

        return Tensor._make(value, (self,), backward)

    def log(self) -> "Tensor":
        def backward(out: Tensor) -> None:
            self._accumulate(out.grad / self.data, own=True)

        return Tensor._make(np.log(self.data), (self,), backward)

    def sqrt(self) -> "Tensor":
        value = np.sqrt(self.data)

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad * 0.5 / np.maximum(value, 1e-12),
                             own=True)

        return Tensor._make(value, (self,), backward)

    def abs(self) -> "Tensor":
        def backward(out: Tensor) -> None:
            self._accumulate(out.grad * np.sign(self.data), own=True)

        return Tensor._make(np.abs(self.data), (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad * mask, own=True)

        return Tensor._make(self.data * mask, (self,), backward)

    def leaky_relu(self, slope: float = 0.2) -> "Tensor":
        mask = self.data > 0
        scale = np.where(mask, 1.0, slope)

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad * scale, own=True)

        return Tensor._make(self.data * scale, (self,), backward)

    def sigmoid(self) -> "Tensor":
        value = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60, 60)))

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad * value * (1.0 - value), own=True)

        return Tensor._make(value, (self,), backward)

    def tanh(self) -> "Tensor":
        value = np.tanh(self.data)

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad * (1.0 - value ** 2), own=True)

        return Tensor._make(value, (self,), backward)

    def softplus(self) -> "Tensor":
        """``log(1 + e^x)`` — the ρ(x) of the paper's Lemma 2, stable form."""
        with np.errstate(invalid="ignore"):  # NaN: the guard reports
            value = np.logaddexp(0.0, self.data)

        def backward(out: Tensor) -> None:
            self._accumulate(
                out.grad / (1.0 + np.exp(-np.clip(self.data, -60, 60))),
                own=True)

        return Tensor._make(value, (self,), backward)

    def clip(self, low: float | None, high: float | None) -> "Tensor":
        lo = -np.inf if low is None else low
        hi = np.inf if high is None else high
        mask = (self.data >= lo) & (self.data <= hi)

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad * mask, own=True)

        return Tensor._make(np.clip(self.data, lo, hi), (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: int | tuple[int, ...] | None = None,
            keepdims: bool = False) -> "Tensor":
        def backward(out: Tensor) -> None:
            grad = out.grad
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else axis
                for ax in sorted(a % self.ndim for a in axes):
                    grad = np.expand_dims(grad, ax)
            # broadcast_to gives a read-only view; _accumulate copies it on
            # first touch and adds through it afterwards — one pass either
            # way, instead of the old explicit .copy() plus add.
            self._accumulate(np.broadcast_to(grad, self.shape))

        return Tensor._make(self.data.sum(axis=axis, keepdims=keepdims),
                            (self,), backward)

    def mean(self, axis: int | tuple[int, ...] | None = None,
             keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            axes = (axis,) if isinstance(axis, int) else axis
            count = int(np.prod([self.shape[a % self.ndim] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        value = self.data.max(axis=axis, keepdims=keepdims)

        def backward(out: Tensor) -> None:
            grad = out.grad
            full = value
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis)
                full = np.expand_dims(value, axis)
            mask = (self.data == full)
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None \
                else mask.sum()
            self._accumulate(mask * (grad / counts), own=True)

        return Tensor._make(value, (self,), backward)

    def norm(self, axis: int | None = None, keepdims: bool = False,
             eps: float = 1e-12) -> "Tensor":
        """L2 norm, differentiable at 0 via an epsilon floor."""
        squared = (self * self).sum(axis=axis, keepdims=keepdims)
        return (squared + eps).sqrt()

    # ------------------------------------------------------------------
    # Softmax family (row-wise, numerically stable)
    # ------------------------------------------------------------------
    def log_softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        value = shifted - log_z
        softmax = np.exp(value)

        def backward(out: Tensor) -> None:
            grad_sum = out.grad.sum(axis=axis, keepdims=True)
            self._accumulate(out.grad - softmax * grad_sum, own=True)

        return Tensor._make(value, (self,), backward)

    def softmax(self, axis: int = -1) -> "Tensor":
        return self.log_softmax(axis=axis).exp()


def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Differentiable concatenation along ``axis``."""
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(out: Tensor) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            index = [slice(None)] * out.ndim
            index[axis] = slice(start, stop)
            tensor._accumulate(out.grad[tuple(index)])

    data = np.concatenate([t.data for t in tensors], axis=axis)
    return Tensor._make(data, tensors, backward)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Differentiable stacking along a new ``axis``."""
    tensors = [as_tensor(t) for t in tensors]

    def backward(out: Tensor) -> None:
        for i, tensor in enumerate(tensors):
            tensor._accumulate(np.take(out.grad, i, axis=axis), own=True)

    data = np.stack([t.data for t in tensors], axis=axis)
    return Tensor._make(data, tensors, backward)


def where(condition, a: Tensor, b: Tensor) -> Tensor:
    """Differentiable select; ``condition`` is a boolean ndarray or Tensor.

    A Tensor condition contributes its (non-differentiable) ``.data`` —
    coercing the Tensor object itself through ``np.asarray`` would build a
    bogus 0-d object array instead of reading the payload.
    """
    a, b = as_tensor(a), as_tensor(b)
    if isinstance(condition, Tensor):
        condition = condition.data
    condition = np.asarray(condition, dtype=bool)

    def backward(out: Tensor) -> None:
        grad = out.grad
        a._accumulate(_unbroadcast(grad * condition, a.shape), own=True)
        b._accumulate(_unbroadcast(grad * ~condition, b.shape), own=True)

    return Tensor._make(np.where(condition, a.data, b.data), (a, b), backward)


# ----------------------------------------------------------------------
# Profiler op table (consumed by repro.obs.profiler)
# ----------------------------------------------------------------------
def _size_of(value) -> int:
    if isinstance(value, Tensor):
        return value.data.size
    if isinstance(value, np.ndarray):
        return value.size
    return 1


def _flops_elementwise(args, kwargs, out) -> float:
    """One fused pass over the output (forward only)."""
    return float(_size_of(out))


def _flops_matmul(args, kwargs, out) -> float:
    """2·k multiply-adds per output element, k = the contracted dim."""
    a = args[0]
    k = a.shape[-1] if a.ndim else 1
    return 2.0 * k * _size_of(out)


def _flops_reduction(args, kwargs, out) -> float:
    """One pass over the *input* (sum/mean/max read every element)."""
    return float(_size_of(args[0]))


def _flops_zero(args, kwargs, out) -> float:
    """Data movement only (transpose/reshape/indexing/concat)."""
    return 0.0


#: ``(target, op label, flops estimator)`` rows consumed by
#: :class:`repro.obs.profiler.OpProfiler`. ``target`` is either
#: ``"Tensor.<method>"`` (patched on the class, so every call site sees
#: it) or a module-level function name (patched in this module and
#: re-bound in every importing ``repro.*`` module). Estimators receive
#: ``(args, kwargs, result)`` and return forward-pass flops; ``backward``
#: is timed but carries no static estimate (its work depends on the tape).
PROFILED_OPS = [
    ("Tensor.__add__", "add", _flops_elementwise),
    ("Tensor.__radd__", "add", _flops_elementwise),
    ("Tensor.__sub__", "sub", _flops_elementwise),
    ("Tensor.__rsub__", "sub", _flops_elementwise),
    ("Tensor.__mul__", "mul", _flops_elementwise),
    ("Tensor.__rmul__", "mul", _flops_elementwise),
    ("Tensor.__truediv__", "div", _flops_elementwise),
    ("Tensor.__rtruediv__", "div", _flops_elementwise),
    ("Tensor.__neg__", "neg", _flops_elementwise),
    ("Tensor.__pow__", "pow", _flops_elementwise),
    ("Tensor.__matmul__", "matmul", _flops_matmul),
    ("Tensor.__getitem__", "getitem", _flops_zero),
    ("Tensor.transpose", "transpose", _flops_zero),
    ("Tensor.reshape", "reshape", _flops_zero),
    ("Tensor.exp", "exp", _flops_elementwise),
    ("Tensor.log", "log", _flops_elementwise),
    ("Tensor.sqrt", "sqrt", _flops_elementwise),
    ("Tensor.abs", "abs", _flops_elementwise),
    ("Tensor.relu", "relu", _flops_elementwise),
    ("Tensor.leaky_relu", "leaky_relu", _flops_elementwise),
    ("Tensor.sigmoid", "sigmoid", _flops_elementwise),
    ("Tensor.tanh", "tanh", _flops_elementwise),
    ("Tensor.softplus", "softplus", _flops_elementwise),
    ("Tensor.clip", "clip", _flops_elementwise),
    ("Tensor.sum", "sum", _flops_reduction),
    ("Tensor.mean", "mean", _flops_reduction),
    ("Tensor.max", "max", _flops_reduction),
    ("Tensor.norm", "norm", _flops_reduction),
    ("Tensor.log_softmax", "log_softmax", _flops_elementwise),
    ("Tensor.softmax", "softmax", _flops_elementwise),
    ("Tensor.backward", "backward", None),
    ("concatenate", "concatenate", _flops_zero),
    ("stack", "stack", _flops_zero),
    ("where", "where", _flops_elementwise),
]
