"""Command-line interface smoke tests."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import build_parser, main


def test_parser_rejects_missing_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_version_flag(capsys):
    import repro

    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert repro.__version__ in capsys.readouterr().out


def test_datasets_command(capsys):
    main(["datasets", "--scale", "0.02"])
    out = capsys.readouterr().out
    assert "mutag" in out
    assert "zinc" in out


def test_pretrain_command(capsys):
    main(["pretrain", "--method", "GraphCL", "--dataset", "MUTAG",
          "--epochs", "1", "--scale", "0.13"])
    out = capsys.readouterr().out
    assert "GraphCL on MUTAG" in out
    assert "%" in out


def test_inspect_command(capsys):
    main(["inspect", "--dataset", "MUTAG", "--epochs", "1",
          "--scale", "0.13"])
    out = capsys.readouterr().out
    assert "semantic-node identification" in out


def test_inspect_command_with_workers_and_cache(capsys, tmp_path):
    args = ["inspect", "--dataset", "MUTAG", "--epochs", "1",
            "--scale", "0.13", "--workers", "2",
            "--cache-dir", str(tmp_path / "pc")]
    main(args)
    first = capsys.readouterr().out
    main(args)  # second run must be served from the cache
    second = capsys.readouterr().out

    def auc(out):
        return out.splitlines()[0]

    assert auc(first) == auc(second)
    assert "0 hit(s)" in first       # cold cache: everything misses
    assert "0 miss(es)" in second    # warm cache: everything hits


def test_pretrain_command_with_workers_matches_serial(capsys):
    base = ["pretrain", "--method", "GraphCL", "--dataset", "MUTAG",
            "--epochs", "1", "--scale", "0.13", "--seeds", "2"]
    main(base + ["--workers", "1"])
    serial = capsys.readouterr().out
    main(base + ["--workers", "2"])
    parallel = capsys.readouterr().out
    assert serial == parallel
    assert "GraphCL on MUTAG" in serial


def test_transfer_command(capsys):
    main(["transfer", "--method", "GAE", "--downstream", "BACE",
          "--epochs", "1", "--finetune-epochs", "2", "--scale", "0.05"])
    out = capsys.readouterr().out
    assert "ROC-AUC" in out


def test_datasets_json_flag(capsys):
    main(["datasets", "--json", "--scale", "0.02"])
    payload = json.loads(capsys.readouterr().out)
    assert "mutag" in payload
    assert payload["mutag"]["num_graphs"] > 0
    assert payload["mutag"]["task"] == "classification"
    assert payload["bbbp"]["task"] == "multitask"


def test_save_then_embed_round_trip(capsys, tmp_path):
    checkpoint = tmp_path / "ck" / "graphcl.npz"
    main(["save", "--method", "GraphCL", "--dataset", "MUTAG",
          "--epochs", "1", "--scale", "0.1", "--out", str(checkpoint)])
    assert checkpoint.exists()
    assert "saved GraphCL" in capsys.readouterr().out

    out_file = tmp_path / "embeddings.npz"
    main(["embed", "--checkpoint", str(checkpoint), "--dataset", "MUTAG",
          "--scale", "0.1", "--out", str(out_file), "--stats"])
    out = capsys.readouterr().out
    assert "embeddings" in out
    assert '"hit_rate"' in out
    with np.load(out_file) as archive:
        embeddings = archive["embeddings"]
        labels = archive["labels"]
    assert embeddings.shape[0] == labels.shape[0] > 0


def test_serve_command_runs_a_fleet(capsys, tmp_path):
    checkpoint = tmp_path / "ck" / "graphcl.npz"
    main(["save", "--method", "GraphCL", "--dataset", "MUTAG",
          "--epochs", "1", "--scale", "0.1", "--out", str(checkpoint)])
    capsys.readouterr()

    out_file = tmp_path / "embeddings.npz"
    main(["serve", "--checkpoint", str(checkpoint), "--dataset", "MUTAG",
          "--scale", "0.1", "--workers", "3", "--repeat", "2",
          "--out", str(out_file), "--stats"])
    out = capsys.readouterr().out
    assert "across 3 worker(s) [hash]" in out
    assert '"policy": "hash"' in out
    with np.load(out_file) as archive:
        served = archive["embeddings"]

    # The fleet must be bit-identical to single-service embedding.
    main(["embed", "--checkpoint", str(checkpoint), "--dataset", "MUTAG",
          "--scale", "0.1", "--out", str(tmp_path / "single.npz")])
    capsys.readouterr()
    with np.load(tmp_path / "single.npz") as archive:
        single = archive["embeddings"]
    assert np.array_equal(served, single)


def test_serve_canary_slice_requires_checkpoint(tmp_path):
    with pytest.raises(SystemExit, match="canary-checkpoint"):
        main(["serve", "--checkpoint", str(tmp_path / "x.npz"),
              "--canary-slice", "0.5"])


def test_embed_rejects_mismatched_features(tmp_path):
    checkpoint = tmp_path / "gcl.npz"
    main(["save", "--method", "GraphCL", "--dataset", "MUTAG",
          "--epochs", "1", "--scale", "0.1", "--out", str(checkpoint)])
    with pytest.raises(SystemExit, match="node features"):
        main(["embed", "--checkpoint", str(checkpoint),
              "--dataset", "PROTEINS", "--scale", "0.1"])


def test_pretrain_checkpoint_dir_then_resume(capsys, tmp_path):
    """Crash-safe mode writes per-epoch checkpoints and resumes from them."""
    directory = tmp_path / "run"
    base = ["pretrain", "--method", "SGCL", "--dataset", "MUTAG",
            "--scale", "0.1", "--checkpoint-dir", str(directory)]
    main(base + ["--epochs", "2"])
    out = capsys.readouterr().out
    assert "2 epoch(s)" in out
    assert (directory / "latest.npz").exists()

    # Asking for more epochs picks up where the first run stopped.
    main(base + ["--epochs", "3", "--resume"])
    out = capsys.readouterr().out
    assert "resuming at epoch 3" in out
    assert "3 epoch(s)" in out

    # Already satisfied: resume is a no-op, not a retrain.
    main(base + ["--epochs", "3", "--resume"])
    out = capsys.readouterr().out
    assert "3 epoch(s)" in out


def test_pretrain_resume_requires_checkpoint_dir():
    with pytest.raises(SystemExit, match="--checkpoint-dir"):
        main(["pretrain", "--resume"])


def test_pretrain_checkpoint_dir_rejects_baselines(tmp_path):
    with pytest.raises(SystemExit, match="SGCL only"):
        main(["pretrain", "--method", "GraphCL",
              "--checkpoint-dir", str(tmp_path)])


@pytest.mark.parametrize("level", ["graph", "node"])
def test_pretrain_sigint_writes_emergency_checkpoint(level, monkeypatch,
                                                     tmp_path, capsys):
    """One single-run path for both levels: a SIGINT during the first
    epoch stops at its end, writes emergency.npz and exits 130."""
    import signal

    from repro.core import SGCLTrainer
    from repro.sampling import NodeSGCLTrainer
    from repro.serve.checkpoint import read_checkpoint_header

    cls = NodeSGCLTrainer if level == "node" else SGCLTrainer
    original = cls._epoch_batches

    def interrupted(self, data):
        signal.raise_signal(signal.SIGINT)
        return original(self, data)

    monkeypatch.setattr(cls, "_epoch_batches", interrupted)
    args = ["pretrain", "--method", "SGCL", "--epochs", "3",
            "--checkpoint-dir", str(tmp_path)]
    if level == "node":
        args += ["--node-level", "--dataset", "community-1m", "--scale",
                 "0.002", "--samples-per-epoch", "4", "--subgraph-batch",
                 "2", "--workers", "1"]
    else:
        args += ["--dataset", "MUTAG", "--scale", "0.1"]
    with pytest.raises(SystemExit) as excinfo:
        main(args)
    assert excinfo.value.code == 130
    assert "interrupted (SIGINT) after 1 epoch(s)" in capsys.readouterr().out
    header = read_checkpoint_header(tmp_path / "emergency.npz")
    assert len(header["metadata"]["history"]) == 1
    assert header["metadata"].get("node_level", False) == (level == "node")


def test_embed_reports_failing_checkpoint_path(tmp_path):
    missing = tmp_path / "nope.npz"
    with pytest.raises(SystemExit, match="nope.npz"):
        main(["embed", "--checkpoint", str(missing), "--dataset", "MUTAG",
              "--scale", "0.1"])


def test_embed_reports_corrupt_checkpoint_path(tmp_path):
    bad = tmp_path / "bad.npz"
    bad.write_bytes(b"not an archive at all")
    with pytest.raises(SystemExit, match="bad.npz"):
        main(["embed", "--checkpoint", str(bad), "--dataset", "MUTAG",
              "--scale", "0.1"])


#: The other commands that open a checkpoint, each on a dataset whose
#: feature count differs from MUTAG's 9 (community-1m has 32, PROTEINS 5).
OTHER_CHECKPOINT_COMMANDS = {
    "embed-node-level": ["embed", "--node-level", "--dataset",
                         "community-1m", "--scale", "0.0005"],
    "serve": ["serve", "--workers", "1", "--dataset", "PROTEINS",
              "--scale", "0.1"],
}


@pytest.fixture(scope="module")
def mutag_checkpoint(tmp_path_factory):
    checkpoint = tmp_path_factory.mktemp("ckpt") / "gcl.npz"
    main(["save", "--method", "GraphCL", "--dataset", "MUTAG",
          "--epochs", "1", "--scale", "0.1", "--out", str(checkpoint)])
    return checkpoint


@pytest.mark.parametrize("command", list(OTHER_CHECKPOINT_COMMANDS))
def test_checkpoint_commands_report_failing_checkpoint_path(command,
                                                            tmp_path):
    argv = OTHER_CHECKPOINT_COMMANDS[command]
    missing = tmp_path / "nope.npz"
    with pytest.raises(SystemExit,
                       match=f"^{argv[0]}: cannot load checkpoint .*nope.npz"):
        main(argv + ["--checkpoint", str(missing)])


@pytest.mark.parametrize("command", list(OTHER_CHECKPOINT_COMMANDS))
def test_checkpoint_commands_report_corrupt_checkpoint_path(command,
                                                            tmp_path):
    argv = OTHER_CHECKPOINT_COMMANDS[command]
    bad = tmp_path / "bad.npz"
    bad.write_bytes(b"not an archive at all")
    with pytest.raises(SystemExit,
                       match=f"^{argv[0]}: cannot load checkpoint .*bad.npz"):
        main(argv + ["--checkpoint", str(bad)])


@pytest.mark.parametrize("command", list(OTHER_CHECKPOINT_COMMANDS))
def test_checkpoint_commands_reject_mismatched_features(command,
                                                        mutag_checkpoint):
    argv = OTHER_CHECKPOINT_COMMANDS[command]
    with pytest.raises(SystemExit,
                       match="^checkpoint expects 9 node features; "
                             f"{argv[argv.index('--dataset') + 1]} has"):
        main(argv + ["--checkpoint", str(mutag_checkpoint)])


def test_main_translates_keyboard_interrupt_to_130(monkeypatch, capsys):
    import repro.cli as cli

    def interrupt(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(
        cli, "build_parser",
        lambda: _parser_with(interrupt))
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["datasets"])
    assert excinfo.value.code == 130
    assert "interrupted" in capsys.readouterr().err


def _parser_with(fn):
    import argparse

    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="command", required=True)
    stub = sub.add_parser("datasets")
    stub.set_defaults(fn=fn)
    return parser


def test_pretrain_with_log_dir_writes_log_manifest_and_reports(
        tmp_path, capsys):
    log_dir = tmp_path / "runs"
    main(["pretrain", "--method", "SGCL", "--dataset", "MUTAG",
          "--epochs", "2", "--scale", "0.1", "--log-dir", str(log_dir),
          "--trace"])
    out = capsys.readouterr().out
    assert "SGCL on MUTAG" in out
    assert "pretrain/epoch" in out  # --trace prints the span tree

    logs = sorted(log_dir.glob("run-*.jsonl"))
    manifests = sorted(log_dir.glob("run-*.manifest.json"))
    assert len(logs) == 1 and len(manifests) == 1

    from repro.obs import RunManifest, load_events

    events = load_events(logs[0])
    kinds = [e["event"] for e in events]
    assert kinds[0] == "run_start"
    assert kinds.count("epoch") == 2
    assert "eval" in kinds
    assert "run_end" in kinds
    assert kinds[-1] == "trace"
    epoch = next(e for e in events if e["event"] == "epoch")
    for key in ("loss_s", "theta_w", "k_v_mean", "k_v_std", "k_v_min",
                "k_v_max", "drop_fraction", "grad_norm"):
        assert key in epoch

    manifest = RunManifest.read(manifests[0])
    assert manifest["dataset"]["name"] == "MUTAG"
    assert len(manifest["dataset"]["fingerprint"]) == 16
    assert manifest["config"]["epochs"] == 2

    main(["report", str(logs[0])])
    report_out = capsys.readouterr().out
    assert "== training: SGCL" in report_out
    assert "== spans ==" in report_out
    assert "lipschitz/generator" in report_out


def test_profile_command_writes_artifacts_and_gates_against_itself(
        capsys, tmp_path):
    out_dir = tmp_path / "prof"
    base = ["profile", "--epochs", "1", "--max-graphs", "16"]
    main(base + ["--trace-events", "--out-dir", str(out_dir), "--json"])
    out = capsys.readouterr().out
    payload = json.loads(out[:out.index("artifacts:")])
    assert payload["attributed_fraction"] >= 0.90
    assert payload["rows"] and payload["by_op"]

    hotpath = json.loads((out_dir / "hotpath.json").read_text())
    assert hotpath["by_op"] == payload["by_op"]
    trace = json.loads((out_dir / "trace.json").read_text())
    names = {e["name"] for e in trace["traceEvents"]}
    assert "pretrain/batch" in names  # span track
    assert "matmul" in names  # op track (--trace-events)
    flame = (out_dir / "flamegraph.txt").read_text()
    assert flame and all(line.rsplit(" ", 1)[1].isdigit()
                         for line in flame.splitlines())

    # The same seeded workload gates cleanly against its own baseline.
    # Call counts are checked exactly (seeded run => deterministic); the
    # share/per-call tolerances are widened because this deliberately tiny
    # workload (~40ms) is scheduler-noise-dominated — tolerance
    # calibration itself is unit-tested in tests/obs/test_profiler.py.
    main(base + ["--compare", str(out_dir / "hotpath.json"),
                 "--share-tolerance", "0.3", "--per-call-ratio", "10"])
    out = capsys.readouterr().out
    assert "perf gate: OK" in out


def test_profile_compare_refuses_mismatched_workloads(capsys, tmp_path):
    out_dir = tmp_path / "prof"
    main(["profile", "--epochs", "1", "--max-graphs", "16",
          "--out-dir", str(out_dir)])
    capsys.readouterr()
    with pytest.raises(SystemExit, match="matching flags"):
        main(["profile", "--epochs", "2", "--max-graphs", "16",
              "--compare", str(out_dir / "hotpath.json")])


def test_profile_table_output_shows_hot_rows(capsys):
    main(["profile", "--epochs", "1", "--max-graphs", "16", "--top", "5"])
    out = capsys.readouterr().out
    assert "span" in out and "self ms" in out
    assert "attributed to" in out


# ----------------------------------------------------------------------
# Continuous learning: ingest + refresh
# ----------------------------------------------------------------------
def _ingest_args(tmp_path, extra=()):
    return ["ingest", "--store", str(tmp_path / "store"),
            "--registry", str(tmp_path / "registry"),
            "--dataset", "MUTAG", "--scale", "0.08", "--batch-size", "8",
            *extra]


def test_ingest_then_refresh_then_drifted_ingest(capsys, tmp_path):
    main(_ingest_args(tmp_path, ["--take", "8", "--json"]))
    first = json.loads(capsys.readouterr().out)
    assert first["version"] == 1 and first["created"]
    assert first["drift"] is None  # nothing live yet

    main(["refresh", "--store", str(tmp_path / "store"),
          "--registry", str(tmp_path / "registry"),
          "--batch-size", "8", "--refresh-epochs", "1", "--json"])
    refreshed = json.loads(capsys.readouterr().out)
    assert refreshed["model"] == "sgcl-v000001"
    assert refreshed["epochs_trained"] == 1 and not refreshed["skipped"]

    # replaying the same batch is a no-op commit
    main(_ingest_args(tmp_path, ["--take", "8", "--json"]))
    replay = json.loads(capsys.readouterr().out)
    assert not replay["created"] and replay["action"] == "duplicate"

    main(_ingest_args(tmp_path, ["--skip", "8", "--take", "8",
                                 "--shift-features", "4.0", "--json"]))
    drifted = json.loads(capsys.readouterr().out)
    assert drifted["version"] == 2
    assert drifted["action"] == "refresh"
    assert drifted["drift"]["scores"]["feature"] >= 2.0
    assert "kv" in drifted["drift"]["scores"]  # live generator was used

    main(["refresh", "--store", str(tmp_path / "store"),
          "--registry", str(tmp_path / "registry"),
          "--batch-size", "8", "--refresh-epochs", "1", "--json"])
    second = json.loads(capsys.readouterr().out)
    assert second["model"] == "sgcl-v000002"


def test_ingest_human_output_suggests_refresh(capsys, tmp_path):
    main(_ingest_args(tmp_path, ["--take", "6"]))
    out = capsys.readouterr().out
    assert "version 1" in out

    main(["refresh", "--store", str(tmp_path / "store"),
          "--registry", str(tmp_path / "registry"),
          "--batch-size", "8", "--refresh-epochs", "1"])
    capsys.readouterr()

    main(_ingest_args(tmp_path, ["--skip", "6", "--take", "6",
                                 "--shift-features", "4.0"]))
    out = capsys.readouterr().out
    assert "drift crossed the refresh threshold" in out


def test_refresh_requires_registry(tmp_path):
    with pytest.raises(SystemExit, match="registry"):
        main(["refresh", "--store", str(tmp_path / "store")])


def test_refresh_watch_ingests_spool_and_goes_live(capsys, tmp_path):
    from repro.data import GraphDataset, load_dataset
    from repro.data.io import save_dataset

    main(_ingest_args(tmp_path, ["--take", "8"]))
    main(["refresh", "--store", str(tmp_path / "store"),
          "--registry", str(tmp_path / "registry"),
          "--batch-size", "8", "--refresh-epochs", "1"])
    capsys.readouterr()

    spool = tmp_path / "spool"
    spool.mkdir()
    dataset = load_dataset("MUTAG", seed=0, scale=0.08)
    drifted = [g.copy() for g in dataset.graphs[8:14]]
    for graph in drifted:
        graph.x = graph.x + 4.0
    save_dataset(GraphDataset("stream", drifted, dataset.num_classes),
                 spool / "batch-001.npz")

    main(["refresh", "--store", str(tmp_path / "store"),
          "--registry", str(tmp_path / "registry"),
          "--batch-size", "8", "--refresh-epochs", "1",
          "--watch", "--spool", str(spool),
          "--interval", "0", "--max-cycles", "2", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["batches"] == 1
    assert payload["refreshes"] == 1
    assert payload["live"]["model"] == "sgcl-v000002"
    assert (spool / "ingested" / "batch-001.npz").exists()


def test_refresh_watch_requires_spool(tmp_path):
    with pytest.raises(SystemExit, match="spool"):
        main(["refresh", "--store", str(tmp_path / "store"),
              "--registry", str(tmp_path / "registry"), "--watch"])
