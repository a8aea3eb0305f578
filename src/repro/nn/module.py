"""Module / Parameter system (a minimal ``torch.nn.Module`` analogue)."""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

import numpy as np

from ..tensor import Tensor
from .functional import parameter_norm

__all__ = ["Parameter", "Module"]


class Parameter(Tensor):
    """A Tensor registered as a trainable leaf of a :class:`Module`."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


class Module:
    """Base class with automatic parameter / submodule registration.

    Attributes assigned as :class:`Parameter` or :class:`Module` instances are
    discovered by :meth:`parameters` and :meth:`named_parameters`. A
    ``training`` flag toggles layers with distinct train/eval behaviour
    (Dropout, BatchNorm).
    """

    def __init__(self):
        self.training = True

    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, value in vars(self).items():
            full = f"{prefix}{name}"
            if isinstance(value, Parameter):
                yield full, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{full}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Parameter):
                        yield f"{full}.{i}", item
                    elif isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{full}.{i}.")

    def parameters(self) -> list[Parameter]:
        return [param for _, param in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        yield self
        for value in vars(self).values():
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.modules()

    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        return self.train(False)

    @contextmanager
    def evaluating(self) -> Iterator["Module"]:
        """Run the block in eval mode, then restore the caller's mode —
        also when the block raises."""
        was_training = self.training
        self.eval()
        try:
            yield self
        finally:
            self.train(was_training)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------------
    #: names of non-trainable ndarray attributes that belong to the module's
    #: state (e.g. BatchNorm running statistics). Subclasses override.
    _buffer_names: tuple[str, ...] = ()

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        """Registered buffers (running statistics etc.), dotted-path keyed."""
        for name in self._buffer_names:
            yield f"{prefix}{name}", getattr(self, name)
        for name, value in vars(self).items():
            full = f"{prefix}{name}"
            if isinstance(value, Module):
                yield from value.named_buffers(prefix=f"{full}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_buffers(prefix=f"{full}.{i}.")

    def state_dict(self) -> dict[str, np.ndarray]:
        """Snapshot all parameters and buffers (copies), dotted-path keyed.

        Buffers (BatchNorm running statistics) are included so that a
        save → mutate → load round-trip restores the module's *behaviour*,
        not only its trainable weights.
        """
        state = {name: param.data.copy()
                 for name, param in self.named_parameters()}
        for name, buffer in self.named_buffers():
            state[name] = np.array(buffer, copy=True)
        return state

    def _state_targets(self) -> dict[str, tuple[object, str | None]]:
        """name → (parameter, None) or (owning module, attribute name)."""
        targets: dict[str, tuple[object, str | None]] = {
            name: (param, None) for name, param in self.named_parameters()}
        stack: list[tuple[Module, str]] = [(self, "")]
        while stack:
            module, prefix = stack.pop()
            for name in module._buffer_names:
                targets[f"{prefix}{name}"] = (module, name)
            for name, value in vars(module).items():
                if isinstance(value, Module):
                    stack.append((value, f"{prefix}{name}."))
                elif isinstance(value, (list, tuple)):
                    for i, item in enumerate(value):
                        if isinstance(item, Module):
                            stack.append((item, f"{prefix}{name}.{i}."))
        return targets

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameter and buffer values in place; keys/shapes must match."""
        targets = self._state_targets()
        missing = set(targets) - set(state)
        unexpected = set(state) - set(targets)
        if missing or unexpected:
            raise KeyError(
                f"state_dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}")
        for name, value in state.items():
            target, attribute = targets[name]
            if attribute is None:
                if target.data.shape != value.shape:
                    raise ValueError(
                        f"shape mismatch for {name}: "
                        f"{target.data.shape} vs {value.shape}")
                target.data[...] = value
            else:
                setattr(target, attribute, np.array(value, copy=True))

    def num_parameters(self) -> int:
        return sum(param.size for param in self.parameters())

    def weight_norm(self) -> Tensor:
        """L2 norm over all parameters — the paper's Θ_W = ‖W‖ (Eq. 26)."""
        return parameter_norm(self.parameters())
