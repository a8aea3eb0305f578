"""DatasetStore: commits, dedupe, lineage, corruption and revisions."""

from __future__ import annotations

import json
import zipfile

import numpy as np
import pytest

from repro.ingest import DatasetStore, StoreCorruptionError, combine_statistics
from repro.obs import Observer

from ._corpus import make_corpus


@pytest.fixture()
def store(tmp_path) -> DatasetStore:
    return DatasetStore(tmp_path / "store", observer=Observer())


def test_append_commits_a_verifiable_version(store):
    graphs = make_corpus(seed=0, n=5)
    manifest, created = store.append(graphs, name="unit")
    assert created
    assert manifest["version"] == 1
    assert manifest["parent"] == 0
    assert manifest["parent_fingerprint"] == "0" * 16
    assert manifest["num_graphs"] == 5
    assert manifest["total_graphs"] == 5
    assert manifest["num_features"] == graphs[0].x.shape[1]
    assert len(manifest["graphs"]) == 5
    assert store.versions() == [1]
    assert store.batch_path(manifest["batch_fingerprint"]).exists()

    resolved = store.resolve()  # verify=True walks the whole chain
    assert resolved["fingerprint"] == manifest["fingerprint"]
    dataset = store.load()
    assert dataset.name == "unit-v000001"
    assert len(dataset.graphs) == 5
    np.testing.assert_array_equal(dataset.graphs[0].x, graphs[0].x)


def test_append_dedupes_replayed_batches(store):
    graphs = make_corpus(seed=0, n=4)
    first, created1 = store.append(graphs)
    again, created2 = store.append(graphs)
    assert created1 and not created2
    assert again["version"] == first["version"]
    assert store.versions() == [1]
    # dedupe=False forces a new version for identical content
    forced, created3 = store.append(graphs, dedupe=False)
    assert created3 and forced["version"] == 2


def test_chain_links_and_exact_cumulative_statistics(store):
    batch1 = make_corpus(seed=0, n=4)
    batch2 = make_corpus(seed=1, n=3)
    m1, _ = store.append(batch1)
    m2, _ = store.append(batch2)
    assert m2["parent"] == 1
    assert m2["parent_fingerprint"] == m1["fingerprint"]
    assert m2["total_graphs"] == 7
    expected = combine_statistics(m1["statistics"], m2["statistics"])
    assert m2["cumulative_statistics"] == expected
    assert [m["version"] for m in store.chain(2)] == [1, 2]


def test_corrupt_head_is_quarantined_and_resolution_falls_back(store):
    store.append(make_corpus(seed=0, n=3))
    m2, _ = store.append(make_corpus(seed=1, n=3))
    store.manifest_path(2).write_text("{not json")
    resolved = store.resolve()
    assert resolved["version"] == 1
    assert not store.manifest_path(2).exists()
    assert (store.quarantine_dir / store.manifest_path(2).name).exists()
    # the store keeps appending after the fallback — version ids stay
    # monotonic past the quarantined head
    m3, created = store.append(make_corpus(seed=2, n=3))
    assert created and m3["version"] == 2
    assert m3["parent_fingerprint"] == store.manifest(1)["fingerprint"]


def test_interior_corruption_is_fatal(store):
    store.append(make_corpus(seed=0, n=3))
    store.append(make_corpus(seed=1, n=3))
    store.manifest_path(1).write_text("{not json")
    with pytest.raises(StoreCorruptionError):
        store.resolve()


def test_tampered_batch_fails_verification_and_is_quarantined(store):
    manifest, _ = store.append(make_corpus(seed=0, n=3))
    batch = store.batch_path(manifest["batch_fingerprint"])
    other = DatasetStore(store.root.parent / "other")
    other_manifest, _ = other.append(make_corpus(seed=9, n=3))
    batch.write_bytes(
        other.batch_path(other_manifest["batch_fingerprint"]).read_bytes())
    with pytest.raises(StoreCorruptionError):
        store.load(verify=False)  # content check happens at load time too
    assert not batch.exists()  # quarantined, not deleted
    assert (store.quarantine_dir / batch.name).exists()


def test_recover_quarantines_orphan_batches(store):
    manifest, _ = store.append(make_corpus(seed=0, n=3))
    orphan = store.batches_dir / "batch-00000000deadbeef.npz"
    orphan.write_bytes(b"half-written")
    report = store.recover()
    assert report["quarantined_batches"] == [orphan.name]
    assert not orphan.exists()
    # the committed batch is untouched
    assert store.batch_path(manifest["batch_fingerprint"]).exists()
    assert len(store.load().graphs) == 3


def test_latest_revision_wins_and_superseded_digests(store):
    batch1 = make_corpus(seed=0, n=4, ids="g")
    store.append(batch1)
    # revise g1 and g2 (shifted features), re-submit g3 unchanged
    revised = [g.copy() for g in batch1[1:4]]
    for graph in revised[:2]:
        graph.x = graph.x + 4.0
    store.append(revised)

    dataset = store.load()
    assert len(dataset.graphs) == 4  # ids deduped, not 7 rows
    by_id = {meta["id"]: meta["digest"]
             for meta in store.resolve()["graphs"]}
    ids = store.id_digests(2)
    old = store.id_digests(1)
    assert ids["g1"] != old["g1"] and ids["g2"] != old["g2"]
    assert ids["g3"] == old["g3"]
    assert by_id["g1"] == ids["g1"]

    superseded = store.superseded_digests(1, 2)
    assert sorted(superseded) == sorted([old["g1"], old["g2"]])
    assert store.superseded_digests(2, 2) == []


def test_window_trains_on_recent_batches_only(store):
    for seed in (0, 1, 2):
        store.append(make_corpus(seed=seed, n=3))
    full = store.load()
    recent = store.load(window=2)
    assert len(full.graphs) == 9
    assert len(recent.graphs) == 6
    with pytest.raises(ValueError):
        store.load(window=0)


def test_missing_version_and_empty_store(store):
    with pytest.raises(FileNotFoundError):
        store.resolve()
    store.append(make_corpus(seed=0, n=3))
    with pytest.raises(KeyError):
        store.resolve(7)


def test_stats_summary(store):
    assert store.stats() == {"versions": 0, "total_graphs": 0, "latest": None}
    store.append(make_corpus(seed=0, n=4, ids="g"))
    store.append(make_corpus(seed=1, n=2))
    stats = store.stats()
    assert stats["versions"] == 2
    assert stats["latest"] == 2
    assert stats["total_graphs"] == 6
    assert stats["distinct_graphs"] == 6
    assert stats["quarantined"] == 0


def test_manifest_roundtrips_through_json(store):
    manifest, _ = store.append(make_corpus(seed=0, n=3))
    assert json.loads(json.dumps(manifest)) == manifest


def _compression(path) -> set[int]:
    with zipfile.ZipFile(path) as archive:
        return {info.compress_type for info in archive.infolist()}


def test_reingest_repairs_a_store_whose_batch_file_went_missing(store):
    graphs = make_corpus(seed=0, n=3, ids="g")
    first, _ = store.append(graphs)
    store.append(make_corpus(seed=1, n=2, ids="h"))
    batch = store.batch_path(first["batch_fingerprint"])
    batch.write_bytes(b"rotted")
    with pytest.raises(StoreCorruptionError):
        store.load()
    assert not batch.exists()  # quarantined by the content check
    with pytest.raises(StoreCorruptionError):
        store.resolve()  # every version's lineage references the batch
    repaired, created = store.append(graphs)
    assert created and repaired["version"] == 3
    assert batch.exists()  # identical content-addressed bytes rewritten
    assert store.resolve()["version"] == 3
    for version in (1, 2, 3):
        store.load(version)  # the old versions verify again
    assert len(store.load().graphs) == 5  # the g ids dedupe


def test_batch_files_are_stored_uncompressed(store):
    manifest, _ = store.append(make_corpus(seed=0, n=3))
    batch = store.batch_path(manifest["batch_fingerprint"])
    assert _compression(batch) == {zipfile.ZIP_STORED}


def test_compressed_batches_from_earlier_stores_load_and_append(store):
    first, _ = store.append(make_corpus(seed=0, n=3, ids="g"))
    batch = store.batch_path(first["batch_fingerprint"])
    with np.load(batch) as archive:
        arrays = {key: archive[key] for key in archive.files}
    batch.unlink()
    np.savez_compressed(batch, **arrays)  # the earlier on-disk layout
    assert _compression(batch) == {zipfile.ZIP_DEFLATED}

    assert store.resolve()["version"] == 1  # verify=True
    assert len(store.load().graphs) == 3    # content fingerprint re-checked
    replay, created = store.append(make_corpus(seed=0, n=3, ids="g"))
    assert not created and replay["version"] == 1
    second, created = store.append(make_corpus(seed=1, n=2, ids="h"))
    assert created and second["version"] == 2
    assert _compression(batch) == {zipfile.ZIP_DEFLATED}  # not rewritten
    assert len(store.load().graphs) == 5


def _count_manifest_reads(store, monkeypatch) -> list[int]:
    calls: list[int] = []
    read = store.manifest

    def manifest(version):
        calls.append(version)
        return read(version)

    monkeypatch.setattr(store, "manifest", manifest)
    return calls


@pytest.mark.parametrize("versions", [1, 4, 9])
def test_a_write_reads_each_manifest_about_once(store, monkeypatch,
                                                versions):
    """A new batch plus its superseded diff: V + 2 manifest reads at most."""
    for seed in range(versions):
        store.append(make_corpus(seed=seed, n=2, ids="g"))
    calls = _count_manifest_reads(store, monkeypatch)
    _, created = store.append(make_corpus(seed=versions, n=2, ids="g"))
    assert created
    assert len(store.superseded_digests(versions, versions + 1)) == 2
    assert len(calls) <= versions + 2, calls
