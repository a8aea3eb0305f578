"""Numerical guard rails for the training hot path.

A single NaN loss or an overflowing gradient silently poisons every
parameter it touches — and contrastive pre-training keeps running,
producing an encoder that embeds everything to garbage. The
:class:`NumericsGuard` sits between the batch loss and
``optimizer.step`` in :meth:`repro.core.trainer.PretrainLoop.pretrain` —
the one loop behind pre-training, the fine-tunes and generator
adaptation — and checks every batch:

* the loss components reported by the model (``loss``, ``loss_s``, …)
  must all be finite;
* the global gradient norm must be finite after ``backward()``;
* optionally, gradients are rescaled so their global L2 norm never
  exceeds ``grad_clip``.

What happens on a non-finite value is the guard's *policy*:

``"raise"``
    Abort with :class:`NumericsError` — strict mode for CI and debugging.
``"skip"``
    Drop the batch (no optimizer step), count it under
    ``numerics/skipped_batches``, and keep training. The default: one bad
    batch costs one batch, not the run.
``"warn"``
    Emit a :class:`RuntimeWarning` and proceed anyway (the pre-guard
    behaviour, but visible).

The guard never draws random numbers and never touches model state
unless a check fires (or ``grad_clip`` is set), so seeded runs are
bit-identical with and without it as long as no guard triggers.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from ..obs import current

__all__ = ["NumericsError", "NumericsGuard", "global_grad_norm"]

#: valid guard policies, in strictness order
POLICIES = ("raise", "skip", "warn")


class NumericsError(FloatingPointError):
    """A non-finite loss or gradient was detected under policy ``raise``."""


def global_grad_norm(parameters) -> float:
    """L2 norm over every parameter gradient (0.0 if none are set)."""
    total = 0.0
    for param in parameters:
        grad = param.grad
        if grad is not None:
            total += float((grad * grad).sum())
    return math.sqrt(total)


class NumericsGuard:
    """Per-batch NaN/Inf detection and optional gradient clipping.

    Parameters
    ----------
    policy:
        ``"raise"`` / ``"skip"`` / ``"warn"`` — see the module docstring.
    grad_clip:
        Maximum global gradient L2 norm; gradients are rescaled in place
        when the norm exceeds it. ``None`` (default) disables clipping.
    observer:
        Observer receiving the ``numerics/*`` counters; defaults to the
        ambient :func:`repro.obs.current` at check time.

    Attributes
    ----------
    flagged_batches:
        Batches in which any check found a non-finite value.
    skipped_batches:
        Batches dropped under policy ``"skip"``.
    clipped_batches:
        Batches whose gradients were rescaled by ``grad_clip``.
    """

    def __init__(self, policy: str = "skip", grad_clip: float | None = None,
                 observer=None):
        if policy not in POLICIES:
            raise ValueError(
                f"unknown numerics policy {policy!r}; choose from {POLICIES}")
        if grad_clip is not None and not grad_clip > 0:
            raise ValueError(f"grad_clip must be positive, got {grad_clip}")
        self.policy = policy
        self.grad_clip = grad_clip
        self._observer = observer
        self.flagged_batches = 0
        self.skipped_batches = 0
        self.clipped_batches = 0

    # ------------------------------------------------------------------
    def _obs(self):
        return self._observer if self._observer is not None else current()

    def _flag(self, where: str, detail: str) -> bool:
        """Apply the policy to one finding; returns whether to proceed."""
        self.flagged_batches += 1
        obs = self._obs()
        obs.increment("numerics/nonfinite_batches")
        message = f"non-finite {where}: {detail}"
        if self.policy == "raise":
            raise NumericsError(message)
        if self.policy == "skip":
            self.skipped_batches += 1
            obs.increment("numerics/skipped_batches")
            return False
        warnings.warn(f"{message} (continuing under policy 'warn')",
                      RuntimeWarning, stacklevel=3)
        return True

    # ------------------------------------------------------------------
    def check_loss(self, stats: dict[str, float]) -> bool:
        """Check every reported loss component; True = safe to backward.

        ``stats`` is the per-batch dict the models already produce
        (``loss``, ``loss_s``, ``loss_g``, ``k_v_mean``, …); any NaN or
        ±Inf value triggers the policy.
        """
        bad = {key: value for key, value in stats.items()
               if not np.isfinite(value)}
        if not bad:
            return True
        detail = ", ".join(f"{key}={value}" for key, value
                           in sorted(bad.items()))
        return self._flag("loss", detail)

    def guard_gradients(self, parameters, grad_norm: float) -> bool:
        """Check (and optionally clip) gradients; True = safe to step.

        ``grad_norm`` is the already-computed global L2 norm (the trainer
        computes it once and reuses it for telemetry). Clipping rescales
        every ``param.grad`` in place so the global norm equals
        ``grad_clip``.
        """
        if not np.isfinite(grad_norm):
            return self._flag("gradient", f"global grad norm is {grad_norm}")
        if self.grad_clip is not None and grad_norm > self.grad_clip:
            scale = self.grad_clip / grad_norm
            for param in parameters:
                if param.grad is not None:
                    param.grad *= scale
            self.clipped_batches += 1
            self._obs().increment("numerics/clipped_batches")
        return True
