"""Versioned model checkpoints: one ``.npz`` bundle + JSON header.

A checkpoint freezes everything needed to serve — or resume training — a
pre-trained model:

* ``model/<key>`` — the module's full :meth:`Module.state_dict` (parameters
  and buffers such as BatchNorm running statistics);
* ``encoder/<key>`` — the downstream encoder's state, stored separately so a
  serving process can rebuild just the encoder without knowing the training
  module's attribute layout;
* ``optimizer/<key>`` — optimiser slot variables (Adam moments / SGD
  velocities), for bit-exact training resume;
* ``__header__`` — JSON metadata: schema version, library version,
  creation time, input feature dimension, the encoder's architecture spec,
  the :class:`SGCLConfig` (when saving SGCL), optional RNG stream states and
  free-form user metadata.

Loads validate the schema version and, on :meth:`Checkpoint.restore`, the
input feature dimension, so stale or mismatched bundles fail loudly instead
of producing garbage embeddings. Writes go through :func:`atomic_write`
(temp file + rename), so concurrent benchmark runs can never observe a
truncated bundle.

Every bundle additionally embeds a **sha256 checksum** of its array
payload in the header; :func:`load_checkpoint` recomputes and compares it
(raising :class:`CheckpointIntegrityError` on mismatch), and
:func:`verify_checkpoint` turns any corruption — truncation, bit flips,
an unreadable archive — into a boolean for checkpoint discovery
(:func:`repro.resilience.find_latest_checkpoint`), which skips invalid
files instead of dying mid-resume. Bundles from before the checksum era
load unchanged (no checksum → nothing to compare).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from pathlib import Path

import numpy as np

from .. import __version__
from ..core.config import SGCLConfig
from ..data.io import atomic_write
from ..gnn import GNNEncoder
from ..nn import Module, Optimizer

__all__ = [
    "SCHEMA_VERSION",
    "Checkpoint",
    "CheckpointIntegrityError",
    "save_checkpoint",
    "load_checkpoint",
    "read_checkpoint_header",
    "verify_checkpoint",
    "load_trainer",
]

SCHEMA_VERSION = 1

_GROUPS = ("model", "encoder", "optimizer")


class CheckpointIntegrityError(ValueError):
    """A checkpoint's array payload does not match its stored checksum."""


def _current_config_fields(raw: dict) -> dict:
    """Map a stored config dict that still carries retired
    :class:`SGCLConfig` fields onto today's fields.

    ``generator_batch_size`` (never read) and ``prefetch_batches``
    (wall-time only) are dropped whatever they hold. The L_c and Θ_W
    ablation flags become ``lambda_c=0`` / ``lambda_w=0``. The hard-view
    ablation ``soft_view_weighting=False`` has no current equivalent and
    raises :class:`ValueError`.
    """
    raw = dict(raw)
    raw.pop("generator_batch_size", None)
    raw.pop("prefetch_batches", None)
    if not raw.pop("soft_view_weighting", True):
        raise ValueError(
            "checkpoint config sets soft_view_weighting=False; hard "
            "(unweighted) views are no longer supported")
    if not raw.pop("use_complement_loss", True):
        raw["lambda_c"] = 0.0
    if not raw.pop("use_weight_reg", True):
        raw["lambda_w"] = 0.0
    return raw


def _arrays_checksum(arrays: dict[str, np.ndarray]) -> str:
    """sha256 over the array payload (key, dtype, shape, bytes; sorted).

    Stable across save/load because ``.npz`` round-trips dtype and shape
    exactly; the ``__header__`` entry is excluded so the checksum can be
    stored inside it.
    """
    digest = hashlib.sha256()
    for key in sorted(arrays):
        if key == "__header__":
            continue
        value = np.ascontiguousarray(arrays[key])
        digest.update(key.encode())
        digest.update(str(value.dtype).encode())
        digest.update(str(value.shape).encode())
        digest.update(value.tobytes())
    return digest.hexdigest()


def _find_encoder(model: Module) -> GNNEncoder | None:
    if isinstance(model, GNNEncoder):
        return model
    encoder = getattr(model, "encoder", None)
    return encoder if isinstance(encoder, GNNEncoder) else None


def save_checkpoint(path: str | Path, model: Module, *,
                    config: SGCLConfig | dict | None = None,
                    optimizer: Optimizer | None = None,
                    metadata: dict | None = None,
                    rng_state: dict | None = None) -> Path:
    """Write ``model`` (and friends) to ``path`` (``.npz`` appended if missing).

    Parameters
    ----------
    model:
        Any :class:`Module` — an :class:`SGCLModel`, a baseline pretrainer or
        a bare :class:`GNNEncoder`. If the module is (or exposes via
        ``.encoder``) a :class:`GNNEncoder`, its architecture spec and state
        are stored so :meth:`Checkpoint.build_encoder` can serve it.
    config:
        Hyper-parameter dataclass (or plain dict) stored in the header;
        required later by :func:`load_trainer`.
    optimizer:
        Optimiser whose slot variables should be bundled for training resume.
    metadata:
        Free-form JSON-encodable dict (method name, dataset, history, …).
    rng_state:
        JSON-encodable RNG stream states (``Generator.bit_generator.state``)
        for deterministic resume; trainers pass this automatically.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    encoder = _find_encoder(model)
    arrays: dict[str, np.ndarray] = {}
    for key, value in model.state_dict().items():
        arrays[f"model/{key}"] = value
    if encoder is not None:
        for key, value in encoder.state_dict().items():
            arrays[f"encoder/{key}"] = value
    if optimizer is not None:
        for key, value in optimizer.state_dict().items():
            arrays[f"optimizer/{key}"] = value
    if dataclasses.is_dataclass(config):
        config = dataclasses.asdict(config)
    header = {
        "checksum": _arrays_checksum(arrays),
        "schema_version": SCHEMA_VERSION,
        "repro_version": __version__,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "model_class": type(model).__name__,
        "in_dim": None if encoder is None else encoder.in_dim,
        "encoder_spec": None if encoder is None else encoder.spec(),
        "config": config,
        "optimizer_class": None if optimizer is None
        else type(optimizer).__name__,
        "rng_state": rng_state,
        "metadata": metadata or {},
    }
    arrays["__header__"] = np.frombuffer(
        json.dumps(header).encode(), dtype=np.uint8)
    with atomic_write(path, suffix=".npz") as tmp:
        np.savez_compressed(tmp, **arrays)
    return path


def _validated_header(archive) -> dict:
    header = json.loads(bytes(archive["__header__"]).decode())
    version = header.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported checkpoint schema version {version!r} "
            f"(this build reads version {SCHEMA_VERSION})")
    return header


def read_checkpoint_header(path: str | Path) -> dict:
    """Read and validate just the JSON header (cheap; arrays untouched)."""
    with np.load(Path(path), allow_pickle=False) as archive:
        return _validated_header(archive)


def load_checkpoint(path: str | Path) -> "Checkpoint":
    """Load a bundle written by :func:`save_checkpoint`.

    When the header carries a checksum (every bundle written since the
    field was introduced), the array payload is re-hashed and compared —
    a truncated or bit-flipped bundle raises
    :class:`CheckpointIntegrityError` here instead of producing silently
    wrong parameters downstream.
    """
    groups: dict[str, dict[str, np.ndarray]] = {g: {} for g in _GROUPS}
    arrays: dict[str, np.ndarray] = {}
    with np.load(Path(path), allow_pickle=False) as archive:
        header = _validated_header(archive)
        for key in archive.files:
            if key == "__header__":
                continue
            group, _, name = key.partition("/")
            if group not in groups or not name:
                raise ValueError(f"malformed checkpoint entry {key!r}")
            groups[group][name] = arrays[key] = archive[key]
    expected = header.get("checksum")
    if expected is not None and _arrays_checksum(arrays) != expected:
        raise CheckpointIntegrityError(
            f"checkpoint {path} failed its sha256 integrity check; "
            "the file is corrupt (truncated write or bit rot)")
    return Checkpoint(header, groups["model"], groups["encoder"],
                      groups["optimizer"])


def verify_checkpoint(path: str | Path) -> bool:
    """Whether ``path`` is a fully readable, checksum-valid bundle.

    Any failure mode — missing file, truncated archive, malformed header,
    wrong schema version, checksum mismatch — returns False rather than
    raising, so checkpoint discovery can skip damaged files and fall back
    to an older valid one.
    """
    try:
        load_checkpoint(path)
    except Exception:  # noqa: BLE001 — every failure means "not usable"
        return False
    return True


class Checkpoint:
    """A loaded checkpoint: header metadata plus the three array groups."""

    def __init__(self, header: dict, model_state: dict[str, np.ndarray],
                 encoder_state: dict[str, np.ndarray],
                 optimizer_state: dict[str, np.ndarray]):
        self.header = header
        self.model_state = model_state
        self.encoder_state = encoder_state
        self.optimizer_state = optimizer_state

    # ------------------------------------------------------------------
    @property
    def schema_version(self) -> int:
        return self.header["schema_version"]

    @property
    def repro_version(self) -> str:
        return self.header["repro_version"]

    @property
    def model_class(self) -> str:
        return self.header["model_class"]

    @property
    def in_dim(self) -> int | None:
        return self.header["in_dim"]

    @property
    def encoder_spec(self) -> dict | None:
        return self.header["encoder_spec"]

    @property
    def config(self) -> SGCLConfig | None:
        """The stored hyper-parameters as an :class:`SGCLConfig` (or None)."""
        raw = self.header["config"]
        return (None if raw is None
                else SGCLConfig(**_current_config_fields(raw)))

    @property
    def rng_state(self) -> dict | None:
        return self.header["rng_state"]

    @property
    def metadata(self) -> dict:
        return self.header["metadata"]

    def __repr__(self) -> str:
        return (f"Checkpoint(model_class={self.model_class!r}, "
                f"in_dim={self.in_dim}, "
                f"repro_version={self.repro_version!r})")

    # ------------------------------------------------------------------
    def restore(self, model: Module,
                optimizer: Optimizer | None = None) -> Module:
        """Load the stored state into ``model`` (and ``optimizer``) in place.

        Validates the input feature dimension against the target model's
        encoder before touching any parameter, so a checkpoint trained on a
        different feature space fails atomically.
        """
        target = _find_encoder(model)
        if (self.in_dim is not None and target is not None
                and target.in_dim != self.in_dim):
            raise ValueError(
                f"checkpoint was trained with in_dim={self.in_dim}; "
                f"target model has in_dim={target.in_dim}")
        model.load_state_dict(self.model_state)
        if optimizer is not None:
            if not self.optimizer_state:
                raise ValueError("checkpoint carries no optimizer state")
            optimizer.load_state_dict(self.optimizer_state)
        return model

    def build_encoder(self, *,
                      rng: np.random.Generator | None = None) -> GNNEncoder:
        """Reconstruct the downstream encoder from its stored spec + state."""
        if self.encoder_spec is None:
            raise ValueError(
                "checkpoint has no encoder spec; it was saved from a module "
                "without a GNNEncoder")
        encoder = GNNEncoder.from_spec(self.encoder_spec, rng=rng)
        encoder.load_state_dict(self.encoder_state)
        return encoder


def load_trainer(path: str | Path):
    """Rebuild a full :class:`SGCLTrainer` (model + optimiser + RNG streams).

    Requires a checkpoint written by :meth:`SGCLTrainer.save_checkpoint`
    (i.e. one carrying an :class:`SGCLConfig`); resumed pre-training is
    bit-identical to never having stopped.
    """
    from ..core.trainer import SGCLTrainer

    return SGCLTrainer.from_checkpoint(path)
