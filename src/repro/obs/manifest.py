"""Run manifests: what exactly produced a run log / checkpoint.

A :class:`RunManifest` pins everything needed to re-run or audit a
training run — the configuration, a content fingerprint of the dataset,
the git commit, the seed and the software environment — as one small JSON
file written atomically next to the run's event log and checkpoints.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from ..data.io import atomic_write
from ..graph import update_graph_hash

__all__ = ["RunManifest", "dataset_fingerprint", "git_sha"]


def dataset_fingerprint(graphs) -> str:
    """Order-sensitive content hash of a graph corpus (hex, 16 chars).

    Hashes every graph's feature matrix and edge index (shape, dtype and
    bytes), so two manifests share a fingerprint iff the training corpora
    were bit-identical. Labels are excluded — pre-training never sees them.
    """
    digest = hashlib.sha256()
    for graph in graphs:
        update_graph_hash(digest, graph)
    return digest.hexdigest()[:16]


def git_sha(repo_root: str | Path | None = None) -> str | None:
    """Current git commit hash, or None outside a repo / without git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            cwd=repo_root, timeout=5)
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


class RunManifest:
    """Reproducibility record for one run.

    Parameters
    ----------
    run_id:
        Matches the ``run`` key of the run's events.
    config:
        Hyper-parameters — a dataclass (e.g. :class:`SGCLConfig`) or a
        plain dict; stored as a dict.
    dataset:
        Dataset descriptor, e.g. ``{"name": ..., "num_graphs": ...,
        "fingerprint": dataset_fingerprint(graphs)}``.
    seed:
        The run's root seed.
    extra:
        Anything else worth pinning (CLI arguments, method name).
    """

    def __init__(self, run_id: str, *, config=None, dataset: dict | None = None,
                 seed: int | None = None, extra: dict | None = None,
                 clock=time.time):
        if dataclasses.is_dataclass(config):
            config = dataclasses.asdict(config)
        self.run_id = run_id
        self.config = config
        self.dataset = dataset
        self.seed = seed
        self.extra = extra or {}
        self.created = time.strftime(
            "%Y-%m-%dT%H:%M:%S", time.localtime(clock()))
        self.git_sha = git_sha()
        self.environment = {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "platform": platform.platform(),
        }

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "created": self.created,
            "git_sha": self.git_sha,
            "seed": self.seed,
            "config": self.config,
            "dataset": self.dataset,
            "environment": self.environment,
            "extra": self.extra,
        }

    def write(self, path: str | Path) -> Path:
        """Atomically write the manifest JSON to ``path``."""
        path = Path(path)
        with atomic_write(path) as tmp:
            tmp.write_text(json.dumps(self.to_dict(), indent=2,
                                      sort_keys=True))
        return path

    @staticmethod
    def read(path: str | Path) -> dict:
        """Load a previously written manifest as a plain dict."""
        return json.loads(Path(path).read_text())
