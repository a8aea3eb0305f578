"""Tests for run manifests and dataset fingerprints."""

from __future__ import annotations

import numpy as np

from repro.core import SGCLConfig
from repro.data import load_dataset
from repro.graph import Graph
from repro.obs import RunManifest, dataset_fingerprint, git_sha
from repro.runtime import graph_fingerprint
from repro.serve import graph_digest


def _graph(seed: int) -> Graph:
    rng = np.random.default_rng(seed)
    return Graph(rng.normal(size=(4, 3)),
                 np.array([[0, 1, 2], [1, 2, 3]]))


def test_fingerprint_is_deterministic():
    assert dataset_fingerprint([_graph(0), _graph(1)]) \
        == dataset_fingerprint([_graph(0), _graph(1)])


def test_fingerprint_sensitive_to_content_and_order():
    base = dataset_fingerprint([_graph(0), _graph(1)])
    assert dataset_fingerprint([_graph(1), _graph(0)]) != base
    assert dataset_fingerprint([_graph(0), _graph(2)]) != base
    mutated = _graph(1)
    mutated.x[0, 0] += 1.0
    assert dataset_fingerprint([_graph(0), mutated]) != base


def test_fingerprint_matches_generated_dataset_identity():
    a = load_dataset("MUTAG", seed=0, scale=0.05)
    b = load_dataset("MUTAG", seed=0, scale=0.05)
    c = load_dataset("MUTAG", seed=1, scale=0.05)
    assert dataset_fingerprint(a.graphs) == dataset_fingerprint(b.graphs)
    assert dataset_fingerprint(a.graphs) != dataset_fingerprint(c.graphs)


def test_fingerprint_is_pinned():
    """Store manifests, precompute-cache keys and run manifests persist
    these fingerprints, so the hash must never move."""
    g = Graph(np.arange(6).reshape(3, 2) / 4,
              np.array([[0, 1, 1, 2], [1, 0, 2, 1]]))
    h = Graph(np.arange(6, dtype=np.float32).reshape(2, 3),
              np.array([[0, 1], [1, 0]], dtype=np.int32))
    assert dataset_fingerprint([g, h]) == "27ee92d54a0447a6"
    assert dataset_fingerprint([h, g]) == "4286db9d2f06990b"
    assert dataset_fingerprint([]) == "e3b0c44298fc1c14"
    # One graph's fingerprint is a prefix of its serving digest.
    assert graph_fingerprint(g) == graph_digest(g)[:16] == "1467c604993c6ed3"


def test_manifest_round_trip(tmp_path):
    manifest = RunManifest(
        "run1", config=SGCLConfig(epochs=3), seed=7,
        dataset={"name": "mutag", "fingerprint": "ab" * 8},
        extra={"command": "pretrain"})
    path = manifest.write(tmp_path / "run1.manifest.json")
    loaded = RunManifest.read(path)
    assert loaded["run_id"] == "run1"
    assert loaded["seed"] == 7
    assert loaded["config"]["epochs"] == 3  # dataclass became a dict
    assert loaded["config"]["rho"] == 0.9
    assert loaded["dataset"]["name"] == "mutag"
    assert loaded["extra"] == {"command": "pretrain"}
    assert loaded["environment"]["numpy"] == np.__version__
    assert "python" in loaded["environment"]


def test_git_sha_in_this_repo_is_a_hash_or_none():
    sha = git_sha()
    assert sha is None or (len(sha) == 40
                           and all(c in "0123456789abcdef" for c in sha))
