"""Golden values of one seeded DatasetStore write sequence.

The sequence covers every branch of the commit path: new graphs,
revisions of existing ids, a replayed committed batch, a crash after the
batch write (retried both after :meth:`DatasetStore.recover` and
directly) and a quarantined head followed by an append. The test pins
each append's ``(version, created)``, a digest of every committed
manifest (without the wall-clock ``created`` field), a digest of the
arrays every version loads, and ``superseded_digests(a, b)`` for every
pair ``a <= b``. A property test checks the store's
``superseded_digests`` against an oracle built from two ``id_digests``
walks.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.ingest.store as store_module
from repro.ingest import DatasetStore
from repro.obs import Observer

from ._corpus import make_corpus


class _Crash(RuntimeError):
    pass


def _crash_at(monkeypatch, point: str) -> None:
    def crash_point(name, **_):
        if name == point:
            raise _Crash(name)
    monkeypatch.setattr(store_module, "crash_point", crash_point)


def _revised(seed: int, n: int, ids: str, shift: float) -> list:
    graphs = make_corpus(seed=seed, n=n, ids=ids)
    for graph in graphs[:2]:
        graph.x = graph.x + shift
    return graphs


def _write_sequence(store: DatasetStore, monkeypatch) -> list:
    """Run the seeded sequence; returns each append's (version, created)."""
    outcomes = []

    def append(graphs, **kwargs):
        manifest, created = store.append(graphs, name="golden", **kwargs)
        outcomes.append((manifest["version"], created))

    append(make_corpus(seed=0, n=4, ids="g"))                 # v1 new ids
    append(make_corpus(seed=1, n=3))                          # v2 implicit ids
    append(_revised(seed=0, n=4, ids="g", shift=4.0)[1:])     # v3 revisions
    append(make_corpus(seed=1, n=3))                          # replay of v2
    append(make_corpus(seed=0, n=4, ids="g"))                 # replay of v1
    for seed, ids, recover in ((2, "h", True), (3, "k", False)):
        _crash_at(monkeypatch, "ingest/batch_written")
        with pytest.raises(_Crash):
            store.append(make_corpus(seed=seed, n=2, ids=ids), name="golden")
        monkeypatch.undo()
        if recover:
            store.recover()
        append(make_corpus(seed=seed, n=2, ids=ids))          # v4, v5
    append(_revised(seed=5, n=3, ids="h", shift=-2.0))        # v6
    store.manifest_path(6).write_text("{not json")
    assert store.resolve()["version"] == 5                    # quarantines v6
    append(_revised(seed=6, n=3, ids="k", shift=1.5))         # v6 reused
    append(make_corpus(seed=7, n=2, ids="g"), dedupe=False)   # v7
    return outcomes


def _digest(payload) -> str:
    return hashlib.sha256(payload).hexdigest()[:16]


def _manifest_digest(manifest: dict) -> str:
    body = {key: value for key, value in manifest.items() if key != "created"}
    return _digest(json.dumps(body, sort_keys=True).encode())


def _dataset_digest(dataset) -> str:
    digest = hashlib.sha256(dataset.name.encode())
    digest.update(f"{dataset.num_classes}:{dataset.task}".encode())
    for graph in dataset.graphs:
        for array in (graph.x, graph.edge_index):
            digest.update(f"{array.dtype}{array.shape}".encode())
            digest.update(np.ascontiguousarray(array).tobytes())
        digest.update(repr(graph.y).encode())
    return digest.hexdigest()[:16]


_EMPTY = "e3b0c44298fc1c14"  # digest of an empty superseded list

GOLDEN_OUTCOMES = [(1, True), (2, True), (3, True), (2, False), (1, False),
                   (4, True), (5, True), (6, True), (6, True), (7, True)]
GOLDEN_MANIFESTS = {
    1: "6986a659756b6eda", 2: "f7880c5b2a393ef7", 3: "bd2d3a080cbd5f43",
    4: "2ee7dd538f8d7cec", 5: "2ea0e120b559d0ba", 6: "21c59b90b9974774",
    7: "a81ece23d61d1e5e"}
GOLDEN_LOADS = {
    1: "f8952803d10ed2c6", 2: "b36657a3066177a8", 3: "7fe3935d0f464f8b",
    4: "b690f9d4e28e46fd", 5: "2cd84e0b287f3f82", 6: "1bf0ba90da47f5d0",
    7: "ef3b0994be64e6e6"}
GOLDEN_SUPERSEDED = {
    (1, 1): _EMPTY, (1, 2): _EMPTY, (1, 3): "50aa3277e48b40d1",
    (1, 4): "50aa3277e48b40d1", (1, 5): "50aa3277e48b40d1",
    (1, 6): "50aa3277e48b40d1", (1, 7): "bcb3c9d7a6030139",
    (2, 2): _EMPTY, (2, 3): "50aa3277e48b40d1", (2, 4): "50aa3277e48b40d1",
    (2, 5): "50aa3277e48b40d1", (2, 6): "50aa3277e48b40d1",
    (2, 7): "bcb3c9d7a6030139",
    (3, 3): _EMPTY, (3, 4): _EMPTY, (3, 5): _EMPTY, (3, 6): _EMPTY,
    (3, 7): "7453b3d875ce9cdb",
    (4, 4): _EMPTY, (4, 5): _EMPTY, (4, 6): _EMPTY,
    (4, 7): "7453b3d875ce9cdb",
    (5, 5): _EMPTY, (5, 6): "d3ddedea1d426593", (5, 7): "8a2374c47387c64e",
    (6, 6): _EMPTY, (6, 7): "7453b3d875ce9cdb",
    (7, 7): _EMPTY}
GOLDEN_QUARANTINE = ["batch-ae34f16f6848ab0a.npz", "v000006.json"]


@pytest.fixture()
def store(tmp_path) -> DatasetStore:
    return DatasetStore(tmp_path / "store", observer=Observer())


def test_write_sequence_matches_golden_values(store, monkeypatch):
    outcomes = _write_sequence(store, monkeypatch)
    versions = store.versions()
    manifests = {v: _manifest_digest(store.manifest(v)) for v in versions}
    loads = {v: _dataset_digest(store.load(v)) for v in versions}
    superseded = {
        (a, b): _digest(",".join(store.superseded_digests(a, b)).encode())
        for a in versions for b in versions if a <= b}
    quarantine = sorted(p.name for p in store.quarantine_dir.iterdir())
    assert outcomes == GOLDEN_OUTCOMES
    assert manifests == GOLDEN_MANIFESTS
    assert loads == GOLDEN_LOADS
    assert superseded == GOLDEN_SUPERSEDED
    assert quarantine == GOLDEN_QUARANTINE


def _oracle_superseded(store: DatasetStore, old: int, new: int) -> list:
    """Two independent chain walks, one per version."""
    before = store.id_digests(old)
    after = store.id_digests(new)
    return sorted(before[gid] for gid in before
                  if gid in after and after[gid] != before[gid])


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(plan=st.lists(
    st.tuples(st.integers(0, 3), st.integers(1, 3), st.booleans(),
              st.booleans()),
    min_size=1, max_size=5))
def test_superseded_digests_equals_two_walk_oracle(tmp_path_factory, plan):
    """Random revise/add/quarantine sequences; every version pair agrees."""
    store = DatasetStore(tmp_path_factory.mktemp("prop") / "store",
                         observer=Observer())
    for step, (seed, n, shift, corrupt_head) in enumerate(plan):
        graphs = make_corpus(seed=seed, n=n, ids="g")
        if shift:
            for graph in graphs:
                graph.x = graph.x + step + 1.0
        store.append(graphs)
        if corrupt_head and len(store.versions()) > 1:
            store.manifest_path(max(store.versions())).write_text("{")
            store.resolve()
    versions = store.versions()
    for a in versions:
        for b in versions:
            assert store.superseded_digests(a, b) \
                == _oracle_superseded(store, a, b)
