"""RefreshController + IngestPipeline: fine-tune, resume, swap, go-live."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SGCLConfig, SGCLTrainer
from repro.fleet import build_fleet
from repro.ingest import (
    DatasetStore,
    DriftDetector,
    IngestPipeline,
    RefreshController,
    corpus_statistics,
    read_live,
    write_live,
)
from repro.obs import Observer
from repro.serve import ModelRegistry, load_trainer
from repro.validate import ValidationError

from ._corpus import FEATURES, make_corpus

CONFIG = SGCLConfig(hidden_dim=8, num_layers=2, batch_size=4, epochs=1,
                    seed=0, precompute_cache_dir=None)


def make_controller(tmp_path, *, epochs=1, router=None, sub="a"):
    store = DatasetStore(tmp_path / sub / "store", observer=Observer())
    registry = ModelRegistry(tmp_path / sub / "registry")
    controller = RefreshController(store, registry, epochs=epochs,
                                   config=CONFIG, router=router,
                                   observer=Observer())
    return store, registry, controller


def test_bootstrap_refresh_goes_live_and_skips_when_current(tmp_path):
    store, registry, controller = make_controller(tmp_path)
    store.append(make_corpus(seed=0, n=6))

    outcome = controller.refresh()
    assert outcome.model == "sgcl-v000001"
    assert outcome.epochs_trained == 1
    assert not outcome.skipped and not outcome.interrupted
    assert "sgcl-v000001" in registry

    live = read_live(store.root)
    assert live["model"] == "sgcl-v000001"
    assert live["dataset_version"] == 1
    assert live["fingerprint"] == store.resolve()["fingerprint"]
    assert live["statistics"]["k_v"] is not None  # K_V under the new model

    again = controller.refresh()
    assert again.skipped and again.model == "sgcl-v000001"
    forced = controller.refresh(force=True)
    assert not forced.skipped


def test_refresh_fine_tunes_from_the_live_model(tmp_path):
    store, registry, controller = make_controller(tmp_path)
    store.append(make_corpus(seed=0, n=6))
    controller.refresh()
    store.append(make_corpus(seed=1, n=4))

    outcome = controller.refresh()
    assert outcome.model == "sgcl-v000002"
    assert outcome.epochs_trained == 1
    trainer = load_trainer(registry.path("sgcl-v000002"))
    # one bootstrap epoch + one fine-tune epoch, carried through history
    assert len(trainer.history) == 2
    live = read_live(store.root)
    assert live["dataset_version"] == 2 and live["epochs"] == 2


def test_interrupted_refresh_resumes_bit_identically(tmp_path):
    corpus = make_corpus(seed=3, n=6)

    store_a, registry_a, straight = make_controller(tmp_path, epochs=2,
                                                    sub="straight")
    store_a.append(corpus)
    reference = straight.refresh()

    # simulate a refresh killed after its first epoch: same plan, the
    # work dir holds a 1-epoch checkpoint, then the controller is re-run
    store_b, registry_b, resumed = make_controller(tmp_path, epochs=2,
                                                   sub="resumed")
    store_b.append(corpus)
    manifest = store_b.resolve()
    work_dir = resumed._work_dir(manifest["version"])
    work_dir.mkdir(parents=True)
    plan = resumed._plan(work_dir, dataset_version=manifest["version"],
                         parent_model=None, base_epochs=0)
    assert plan["target_epochs"] == 2
    trainer = SGCLTrainer(manifest["num_features"], CONFIG)
    trainer.pretrain(store_b.load().graphs, epochs=1, checkpoint_dir=work_dir)

    outcome = resumed.refresh()
    assert outcome.resumed
    assert outcome.epochs_trained == 1  # finished the plan, not restarted it

    ref = load_trainer(registry_a.path(reference.model))
    res = load_trainer(registry_b.path(outcome.model))
    def numeric(history):  # identical up to wall-clock timings
        return [{k: v for k, v in row.items() if k != "epoch_seconds"}
                for row in history]
    assert numeric(ref.history) == numeric(res.history)
    for key, value in ref.model.state_dict().items():
        np.testing.assert_array_equal(value, res.model.state_dict()[key])


def test_refresh_swaps_fleet_and_evicts_only_changed_rows(tmp_path):
    store, registry, controller = make_controller(tmp_path)
    batch1 = make_corpus(seed=0, n=6, ids="g")
    store.append(batch1)
    controller.refresh()  # no fleet yet: bootstrap

    router = build_fleet(registry.path("sgcl-v000001"), 2,
                         version="sgcl-v000001")
    controller.router = router
    graphs = store.load().graphs
    before = router.embed_detailed(graphs)
    assert before.served_versions() == {"sgcl-v000001"}

    # revise two graphs, leave one unchanged, and refresh through the fleet
    revised = [g.copy() for g in batch1[:3]]
    for graph in revised[:2]:
        graph.x = graph.x + 1.0
    store.append(revised)
    outcome = controller.refresh()
    assert outcome.model == "sgcl-v000002"
    assert outcome.invalidated == 2  # g0 and g1 only; g2 stayed warm

    after = router.embed_detailed(store.load().graphs)
    assert after.served_versions() == {"sgcl-v000002"}  # zero mixing
    assert len(after.embeddings) == 6


def test_pipeline_validates_drift_checks_and_refreshes(tmp_path):
    store, registry, controller = make_controller(tmp_path)
    pipeline = IngestPipeline(store, controller=controller,
                              observer=Observer())

    first = pipeline.ingest(make_corpus(seed=0, n=6))
    assert first.version == 1 and first.drift is None  # nothing live yet
    controller.refresh()

    dup = pipeline.ingest(make_corpus(seed=0, n=6))
    assert not dup.created and dup.action == "duplicate"

    shifted = [g.copy() for g in make_corpus(seed=1, n=4)]
    for graph in shifted:
        graph.x = graph.x + 4.0
    report = pipeline.ingest(shifted)
    assert report.version == 2
    assert report.refresh_due and report.drift.scores["feature"] >= 2.0
    assert "kv" in report.drift.scores  # live generator reached the store

    outcome = controller.refresh()
    assert outcome.model == "sgcl-v000002"
    assert read_live(store.root)["dataset_version"] == 2


def test_ingest_reads_the_live_pointer_once(tmp_path, monkeypatch):
    """A go-live between two reads must not mix models in one drift check."""
    import repro.ingest.pipeline as pipeline_module

    store = DatasetStore(tmp_path / "store", observer=Observer())
    store.append(make_corpus(seed=0, n=4))
    old = corpus_statistics(make_corpus(seed=0, n=4))
    new = corpus_statistics(make_corpus(seed=2, n=4, shift=3.0))
    write_live(store.root, {"model": "m-old", "dataset_version": 1,
                            "statistics": old})
    read = pipeline_module.read_live

    def read_then_go_live(root):
        live = read(root)
        write_live(root, {"model": "m-new", "dataset_version": 1,
                          "statistics": new})
        return live

    monkeypatch.setattr(pipeline_module, "read_live", read_then_go_live)
    references = []

    class RecordingDetector(DriftDetector):
        def __init__(self, reference, **kwargs):
            references.append(reference)
            super().__init__(reference, **kwargs)

    monkeypatch.setattr(pipeline_module, "DriftDetector", RecordingDetector)
    pipeline = IngestPipeline(store, observer=Observer())
    models = []
    monkeypatch.setattr(pipeline._generator, "get",
                        lambda registry, name: models.append(name))
    report = pipeline.ingest(make_corpus(seed=1, n=3))
    assert models == ["m-old"]
    assert references == [old]
    assert report.drift.scores == DriftDetector(old).check(
        store.resolve()["statistics"]).scores


def test_pipeline_drops_invalid_graphs_and_rejects_empty_batches(tmp_path):
    store, _, controller = make_controller(tmp_path)
    pipeline = IngestPipeline(store, observer=Observer())
    good = make_corpus(seed=0, n=3)
    bad = make_corpus(seed=1, n=1)
    bad[0].x = np.full_like(bad[0].x, np.nan)

    report = pipeline.ingest(good + bad)
    assert report.dropped == 1 and report.num_graphs == 3
    assert len(store.load().graphs) == 3
    with pytest.raises(ValidationError):
        pipeline.ingest([bad[0].copy()])
    strict = IngestPipeline(store, policy="raise", observer=Observer())
    with pytest.raises(ValidationError):
        strict.ingest(good + bad)


def test_watch_sweeps_spool_and_refreshes_on_drift(tmp_path):
    from repro.data import GraphDataset
    from repro.data.io import save_dataset

    store, registry, controller = make_controller(tmp_path)
    store.append(make_corpus(seed=0, n=6))
    controller.refresh()

    spool = tmp_path / "spool"
    spool.mkdir()
    shifted = [g.copy() for g in make_corpus(seed=1, n=4)]
    for graph in shifted:
        graph.x = graph.x + 4.0
    save_dataset(GraphDataset("stream", shifted, 2, "classification"),
                 spool / "batch-001.npz")

    pipeline = IngestPipeline(store, controller=controller,
                              observer=Observer())
    naps = []
    reports = pipeline.watch(spool, interval=0.01, max_cycles=2,
                             sleep=naps.append)
    assert len(reports) == 1 and reports[0].refresh_due
    assert naps == [0.01]  # sleeps between cycles, not after the last
    assert (spool / "ingested" / "batch-001.npz").exists()
    assert read_live(store.root)["model"] == "sgcl-v000002"
