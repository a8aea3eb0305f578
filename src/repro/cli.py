"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``datasets``
    List registered datasets with their generated statistics.
``pretrain``
    Pre-train a method on a dataset and report unsupervised CV accuracy.
    With ``--node-level``, train node-level SGCL on sampled subgraphs of
    a large node dataset (``community-1m``) and report the node
    linear-probe accuracy instead.
``sample``
    Draw seeded subgraphs from a node dataset and summarise the stream
    (reproduces exactly what ``pretrain --node-level`` consumes).
``transfer``
    Pre-train on ZincLike and fine-tune on a MoleculeNet-style task.
``inspect``
    Print per-node Lipschitz constants vs planted ground truth.
``save``
    Pre-train a method and write a serving checkpoint.
``embed``
    Serve embeddings of a dataset from a checkpoint (cached inference).
``serve``
    Serve a dataset through an N-shard embedding fleet (consistent-hash
    routing, failover, optional canary deploy) and report fleet telemetry.
``report``
    Render a JSONL run log (written via ``--log-dir``) as tables.
``profile``
    Op-level profile of a seeded pretrain slice: hot-path table
    (self/cumulative time per op×span), Chrome-trace + flamegraph
    artifacts, and a ``--compare`` perf-regression gate against the
    committed ``BENCH_hotpath.json`` baseline.
``doctor``
    Validate a dataset's structural invariants and smoke-test the guarded
    training path; non-zero exit on any failure (CI gate). With
    ``--drift-store`` it also scores the dataset against the store's live
    training statistics and fails at the refresh threshold.
``ingest``
    Validate, commit and drift-check one graph batch into an append-only
    versioned :class:`~repro.ingest.DatasetStore` (crash-safe, dedupes
    replayed batches).
``refresh``
    Fine-tune the live model onto the newest committed dataset version,
    register it and atomically go live; ``--watch`` polls a spool
    directory and refreshes whenever drift crosses the threshold.

``pretrain`` and ``transfer`` accept ``--log-dir DIR`` (write a JSONL
event log + run manifest under DIR) and ``--trace`` (print the span tree
after the run).

``pretrain --checkpoint-dir DIR`` switches to the crash-safe single-run
path, which ``pretrain --node-level`` always takes: every epoch refreshes
``DIR/latest.npz``, SIGINT/SIGTERM stop the run at the next epoch
boundary and write ``DIR/emergency.npz`` on the way out (exit code 130),
and ``--resume`` continues bit-exactly from the most advanced *valid*
checkpoint in DIR (corrupt files are skipped — see docs/RESILIENCE.md).
Every command exits 130 on Ctrl-C instead of dumping a traceback.

``pretrain``, ``transfer`` and ``inspect`` accept ``--workers N`` (fan
seed / precompute work out over N worker processes; default: the
``REPRO_WORKERS`` environment variable, else serial). Results are
bit-identical for any worker count — see docs/RUNTIME.md. ``inspect``
additionally accepts ``--cache-dir DIR`` to serve Lipschitz constants
from a content-addressed precompute cache.

Examples
--------
::

    python -m repro datasets --json
    python -m repro pretrain --method SGCL --dataset MUTAG --epochs 5 \
        --log-dir runs --trace
    python -m repro report runs/run-<id>.jsonl
    python -m repro transfer --method SGCL --downstream BBBP
    python -m repro inspect --dataset PROTEINS
    python -m repro save --method SGCL --dataset MUTAG --out ckpt/sgcl.npz
    python -m repro embed --checkpoint ckpt/sgcl.npz --dataset MUTAG \
        --out embeddings.npz --stats
    python -m repro serve --checkpoint ckpt/sgcl.npz --dataset MUTAG \
        --workers 4 --repeat 3 --stats
    python -m repro doctor --dataset MUTAG --scale 0.1
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__


def _observer_from_args(args):
    """(observer, log_path) for ``--log-dir``/``--trace``; no-op otherwise."""
    if not (getattr(args, "log_dir", None) or getattr(args, "trace", False)):
        from .obs import NULL_OBSERVER

        return NULL_OBSERVER, None
    from pathlib import Path

    from .obs import JSONLSink, Observer

    observer = Observer()
    log_path = None
    if args.log_dir:
        log_path = Path(args.log_dir) / f"run-{observer.run_id}.jsonl"
        observer.sinks.append(JSONLSink(log_path))
    return observer, log_path


def _write_manifest(observer, log_path, args, *, command: str) -> None:
    """Pin config + dataset fingerprint + environment next to the log."""
    from .data import load_dataset
    from .obs import RunManifest, dataset_fingerprint

    dataset_name = getattr(args, "dataset", None) or args.downstream
    dataset = load_dataset(dataset_name, seed=0, scale=args.scale)
    manifest = RunManifest(
        observer.run_id,
        config={key: value for key, value in vars(args).items()
                if key not in ("fn", "command")},
        dataset={"name": dataset_name, "num_graphs": len(dataset),
                 "fingerprint": dataset_fingerprint(dataset.graphs)},
        seed=0, extra={"command": command})
    manifest.write(log_path.with_suffix(".manifest.json"))


def _finish_observer(observer, log_path, args) -> None:
    if not observer.enabled:
        return
    observer.emit_trace()
    observer.close()
    if getattr(args, "trace", False):
        from .obs import render_span_tree

        print(render_span_tree(observer.tracer))
    if log_path is not None:
        print(f"run log: {log_path}  (render with `repro report {log_path}`)")


def _cmd_datasets(args: argparse.Namespace) -> None:
    from .data import available_datasets, load_dataset
    from .sampling import available_node_datasets, load_node_dataset

    if args.json:
        payload = {}
        for name in available_datasets():
            dataset = load_dataset(name, seed=0, scale=args.scale)
            payload[name] = {**dataset.statistics(), "task": dataset.task}
        for name in available_node_datasets():
            dataset = load_node_dataset(name, seed=0, scale=args.scale)
            payload[name] = {**dataset.statistics(), "task": "node"}
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    print(f"{'name':<18}{'graphs':>8}{'avg nodes':>11}{'avg edges':>11}"
          f"{'classes':>9}{'task':>16}")
    for name in available_datasets():
        dataset = load_dataset(name, seed=0, scale=args.scale)
        stats = dataset.statistics()
        print(f"{name:<18}{stats['num_graphs']:>8}"
              f"{stats['avg_nodes']:>11.1f}{stats['avg_edges']:>11.1f}"
              f"{stats['num_classes']:>9}{dataset.task:>16}")
    for name in available_node_datasets():
        dataset = load_node_dataset(name, seed=0, scale=args.scale)
        stats = dataset.statistics()
        print(f"{name:<18}{1:>8}"
              f"{stats['num_nodes']:>11.1f}{stats['num_edges']:>11.1f}"
              f"{stats['num_classes']:>9}{'node':>16}")


def _pretrain_single(args: argparse.Namespace) -> None:
    """One seeded SGCL run (``--checkpoint-dir``/``--resume``/``--node-level``).

    Unlike the benchmark path this trains ONE seeded run: an
    :class:`~repro.core.SGCLTrainer` on the dataset's graphs, or with
    ``--node-level`` a :class:`~repro.sampling.NodeSGCLTrainer` on a
    :class:`~repro.sampling.SubgraphStream` followed by the node-level
    linear probe. With ``--checkpoint-dir``, ``latest.npz`` is refreshed
    atomically every epoch and ``--resume`` picks up from the most
    advanced valid checkpoint — bit-identical to a run that was never
    interrupted. A first SIGINT/SIGTERM stops the loop at the next epoch
    boundary, writes ``emergency.npz`` (when there is a checkpoint
    directory) and exits 130.
    """
    from pathlib import Path

    from .core import SGCLConfig, SGCLTrainer
    from .resilience import interrupt_guard, resume_trainer

    flag = "--node-level" if args.node_level else "--checkpoint-dir/--resume"
    if args.method != "SGCL":
        raise SystemExit(f"pretrain: {flag} supports --method SGCL only "
                         f"(got {args.method!r})")
    directory = Path(args.checkpoint_dir) if args.checkpoint_dir else None
    observer, log_path = _observer_from_args(args)
    if args.node_level:
        from .runtime import ParallelExecutor
        from .sampling import NodeSGCLTrainer, SubgraphStream, \
            load_node_dataset, make_sampler

        dataset = load_node_dataset(args.dataset, seed=0, scale=args.scale)
        data = SubgraphStream(
            make_sampler(args.sampler, dataset),
            samples_per_epoch=args.samples_per_epoch,
            batch_size=args.subgraph_batch, seed=0,
            executor=ParallelExecutor(args.workers))
        trainer_cls = NodeSGCLTrainer
        config = SGCLConfig(epochs=args.epochs, seed=0)
        if log_path is not None:
            from .obs import RunManifest

            RunManifest(
                observer.run_id,
                config={key: value for key, value in vars(args).items()
                        if key not in ("fn", "command")},
                dataset={"name": args.dataset, **dataset.statistics()},
                seed=0, extra={"command": "pretrain --node-level"},
            ).write(log_path.with_suffix(".manifest.json"))
    else:
        from .data import load_dataset

        dataset = load_dataset(args.dataset, seed=0, scale=args.scale)
        data = dataset.graphs
        trainer_cls = SGCLTrainer
        config = SGCLConfig(epochs=args.epochs, batch_size=32, seed=0)
        if log_path is not None:
            _write_manifest(observer, log_path, args, command="pretrain")
    with observer.activate():
        trainer = resume_trainer(directory) if args.resume else None
        if trainer is None:
            trainer = trainer_cls(dataset.num_features, config)
        elif (type(trainer) is not trainer_cls
              or trainer.in_dim != dataset.num_features):
            raise SystemExit(
                f"pretrain: checkpoints in {directory} hold a "
                f"{type(trainer).__name__} trained with "
                f"in_dim={trainer.in_dim}; this run needs a "
                f"{trainer_cls.__name__} for {args.dataset} "
                f"({dataset.num_features} node features)")
        done = len(trainer.history)
        remaining = max(0, args.epochs - done)
        if args.resume and done:
            print(f"resuming at epoch {done + 1} "
                  f"({remaining} of {args.epochs} epoch(s) remaining)")
        with interrupt_guard(on_interrupt=trainer.request_stop) as state:
            if remaining:
                trainer.pretrain(data, epochs=remaining,
                                 checkpoint_dir=directory)
        if state.interrupted:
            where = "no checkpoint directory"
            if directory is not None:
                path = trainer.save_emergency_checkpoint(directory)
                where = (f"emergency checkpoint written to {path} — "
                         f"resume with --resume")
            _finish_observer(observer, log_path, args)
            print(f"interrupted ({state.signal_name}) after "
                  f"{len(trainer.history)} epoch(s); {where}")
            raise SystemExit(130)
        if args.node_level:
            from .eval import node_linear_probe

            probe = node_linear_probe(
                trainer.encoder, dataset, seed=0,
                num_nodes=min(500, dataset.num_nodes))
    _finish_observer(observer, log_path, args)
    loss = trainer.history[-1]["loss"] if trainer.history else float("nan")
    suffix = f"; checkpoints in {directory}" if directory else ""
    if args.node_level:
        print(f"SGCL node-level on {args.dataset} "
              f"({dataset.num_nodes} nodes, sampler={args.sampler}): "
              f"{len(trainer.history)} epoch(s), loss {loss:.4f}, "
              f"probe accuracy {probe['accuracy']:.1%} "
              f"({probe['num_train']}/{probe['num_test']} train/test)"
              f"{suffix}")
    else:
        print(f"SGCL on {args.dataset}: {len(trainer.history)} epoch(s) "
              f"(loss {loss:.4f}){suffix}")


def _cmd_pretrain(args: argparse.Namespace) -> None:
    from .bench import run_unsupervised

    if args.resume and not args.checkpoint_dir:
        raise SystemExit("pretrain: --resume requires --checkpoint-dir")
    if args.node_level or args.checkpoint_dir:
        _pretrain_single(args)
        return
    observer, log_path = _observer_from_args(args)
    if log_path is not None:
        _write_manifest(observer, log_path, args, command="pretrain")
    started = time.perf_counter()
    with observer.activate():
        observer.event("run_start", command="pretrain", method=args.method,
                       dataset=args.dataset, epochs=args.epochs,
                       seeds=args.seeds)
        mean, std = run_unsupervised(
            args.method, args.dataset, seeds=list(range(args.seeds)),
            scale=args.scale, epochs=args.epochs, classifier=args.classifier,
            workers=args.workers)
        observer.event("run_end",
                       wall_seconds=round(time.perf_counter() - started, 3),
                       accuracy_mean=mean, accuracy_std=std)
    _finish_observer(observer, log_path, args)
    print(f"{args.method} on {args.dataset}: "
          f"{mean:.2f} ± {std:.2f} % ({args.seeds} seed(s))")


def _cmd_transfer(args: argparse.Namespace) -> None:
    from .bench import run_transfer

    observer, log_path = _observer_from_args(args)
    if log_path is not None:
        _write_manifest(observer, log_path, args, command="transfer")
    started = time.perf_counter()
    with observer.activate():
        observer.event("run_start", command="transfer", method=args.method,
                       dataset=args.downstream, epochs=args.epochs,
                       seeds=args.seeds)
        mean, std = run_transfer(
            args.method, args.downstream, seeds=list(range(args.seeds)),
            pretrain_scale=args.scale, downstream_scale=args.scale,
            pretrain_epochs=args.epochs,
            finetune_epochs=args.finetune_epochs, workers=args.workers)
        observer.event("run_end",
                       wall_seconds=round(time.perf_counter() - started, 3),
                       roc_auc_mean=mean, roc_auc_std=std)
    _finish_observer(observer, log_path, args)
    print(f"{args.method} → {args.downstream}: "
          f"ROC-AUC {mean:.2f} ± {std:.2f} %")


def _cmd_report(args: argparse.Namespace) -> None:
    from .obs import render_run_report

    print(render_run_report(args.log))


def _cmd_doctor(args: argparse.Namespace) -> None:
    from .validate import render_doctor_report, run_doctor

    report = run_doctor(args.dataset, seed=args.seed, scale=args.scale,
                        epochs=args.epochs, batch_size=args.batch_size,
                        max_graphs=args.max_graphs,
                        drift_store=args.drift_store,
                        drift_warn=args.drift_warn,
                        drift_refresh=args.drift_refresh)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_doctor_report(report))
    if not report["ok"]:
        raise SystemExit(1)


def _make_controller(args, store):
    """RefreshController for the ingest/refresh commands (None w/o registry)."""
    from .core import SGCLConfig
    from .ingest import RefreshController
    from .serve import ModelRegistry

    if not getattr(args, "registry", None):
        return None
    config = SGCLConfig(batch_size=args.batch_size, seed=args.seed,
                        precompute_cache_dir=None)
    return RefreshController(
        store, ModelRegistry(args.registry), model_base=args.model_base,
        epochs=args.refresh_epochs, window=args.window, config=config)


def _cmd_ingest(args: argparse.Namespace) -> None:
    """Validate, commit and drift-check one batch into a DatasetStore."""
    from .data import load_dataset
    from .data.io import load_saved_dataset
    from .ingest import DatasetStore, IngestPipeline

    store = DatasetStore(args.store)
    recovered = store.recover()
    pipeline = IngestPipeline(store, controller=_make_controller(args, store),
                              policy=args.policy,
                              warn_threshold=args.warn_threshold,
                              refresh_threshold=args.refresh_threshold)
    if args.from_npz:
        dataset = load_saved_dataset(args.from_npz)
        graphs = dataset.graphs
        name, num_classes, task = (dataset.name, dataset.num_classes,
                                   dataset.task)
    else:
        dataset = load_dataset(args.dataset, seed=args.seed, scale=args.scale)
        end = None if args.take is None else args.skip + args.take
        graphs = dataset.graphs[args.skip:end]
        name, num_classes, task = (args.dataset, dataset.num_classes,
                                   dataset.task)
    if not graphs:
        raise SystemExit("ingest: the batch selection is empty")
    if args.shift_features or args.tag_ids:
        graphs = [g.copy() for g in graphs]
        for i, graph in enumerate(graphs):
            if args.shift_features:
                graph.x = graph.x + args.shift_features
            if args.tag_ids:
                graph.meta["graph_id"] = f"{args.tag_ids}{args.skip + i}"
    report = pipeline.ingest(graphs, name=name, num_classes=num_classes,
                             task=task)
    payload = {**report.to_dict(), "store": str(store.root),
               "recovered": recovered, **store.stats()}
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        drift = "" if report.drift is None else (
            f", drift {report.drift.max_score:.2f} "
            f"({report.action})")
        print(f"ingested {report.num_graphs} graph(s) as version "
              f"{report.version} of {store.root}"
              f"{' [duplicate batch]' if not report.created else ''}"
              f"{f', dropped {report.dropped}' if report.dropped else ''}"
              f"{drift}")
        if report.refresh_due:
            print("drift crossed the refresh threshold — run "
                  f"`repro refresh --store {store.root}`")


def _cmd_refresh(args: argparse.Namespace) -> None:
    """Fine-tune, register and go live on the newest dataset version."""
    from .ingest import DatasetStore, IngestPipeline, read_live

    store = DatasetStore(args.store)
    controller = _make_controller(args, store)
    if controller is None:
        raise SystemExit("refresh: --registry is required")
    if args.watch:
        if not args.spool:
            raise SystemExit("refresh: --watch requires --spool")
        pipeline = IngestPipeline(
            store, controller=controller, policy=args.policy,
            warn_threshold=args.warn_threshold,
            refresh_threshold=args.refresh_threshold)
        reports = pipeline.watch(args.spool, interval=args.interval,
                                 max_cycles=args.max_cycles)
        live = read_live(store.root)
        payload = {
            "cycles": args.max_cycles, "batches": len(reports),
            "refreshes": sum(1 for r in reports if r.refresh_due),
            "live": live,
        }
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(f"watch: {len(reports)} batch(es) ingested; live model "
                  f"{live['model'] if live else None}")
        return
    outcome = controller.refresh(args.version, force=args.force)
    if args.json:
        print(json.dumps(outcome.to_dict(), indent=2, sort_keys=True))
        return
    if outcome.skipped:
        print(f"refresh: live model already covers dataset version "
              f"{outcome.dataset_version} (use --force to retrain)")
    elif outcome.interrupted:
        print(f"refresh: interrupted after {outcome.epochs_trained} "
              f"epoch(s); run again to resume bit-identically")
        raise SystemExit(130)
    else:
        print(f"refresh: {outcome.model} live on dataset version "
              f"{outcome.dataset_version} ({outcome.epochs_trained} "
              f"epoch(s) trained, {outcome.invalidated} cache row(s) "
              f"invalidated)")


def _cmd_inspect(args: argparse.Namespace) -> None:
    from .core import SGCLConfig, SGCLTrainer
    from .core.analysis import semantic_identification_auc
    from .data import load_dataset

    dataset = load_dataset(args.dataset, seed=0, scale=args.scale)
    trainer = SGCLTrainer(dataset.num_features,
                          SGCLConfig(epochs=args.epochs, batch_size=32,
                                     seed=0))
    trainer.pretrain(dataset.graphs)
    cache = None
    if args.cache_dir:
        from .runtime import PrecomputeCache

        cache = PrecomputeCache(args.cache_dir)
    graphs = dataset.graphs[:40]
    constants = trainer.precompute_lipschitz(graphs, workers=args.workers,
                                             cache=cache)
    scores = {id(graph): k_v for graph, k_v in zip(graphs, constants)}
    auc = semantic_identification_auc(
        lambda g: scores[id(g)], graphs)
    print(f"semantic-node identification ROC-AUC on {args.dataset}: "
          f"{auc:.3f}")
    if cache is not None:
        stats = cache.stats()
        print(f"precompute cache: {stats['hits']} hit(s), "
              f"{stats['misses']} miss(es), {stats['entries']} entries")


def _cmd_save(args: argparse.Namespace) -> None:
    from .baselines import make_method
    from .data import load_dataset

    dataset = load_dataset(args.dataset, seed=args.seed, scale=args.scale)
    model = make_method(args.method, dataset.num_features, seed=args.seed)
    model.pretrain(dataset.graphs, epochs=args.epochs)
    try:
        path = model.save_checkpoint(
            args.out, metadata={"cli_method": args.method,
                                "cli_dataset": args.dataset,
                                "cli_epochs": args.epochs,
                                "cli_seed": args.seed})
    except OSError as error:
        raise SystemExit(
            f"save: cannot write checkpoint {args.out}: {error}") from error
    print(f"saved {args.method} pre-trained on {args.dataset} "
          f"({args.epochs} epoch(s)) to {path}")


def _cmd_sample(args: argparse.Namespace) -> None:
    """Draw seeded subgraphs and report the stream's shape.

    The exact subgraphs a ``pretrain --node-level`` run would see (same
    seed derivation), reproducible offline: ``repro sample --epoch 3
    --index 7`` prints epoch 3's 8th subgraph, bit-identical to the one
    the trainer consumed.
    """
    import numpy as np

    from .runtime import ParallelExecutor
    from .sampling import SubgraphStream, load_node_dataset, make_sampler

    observer, log_path = _observer_from_args(args)
    dataset = load_node_dataset(args.dataset, seed=0, scale=args.scale)
    sampler = make_sampler(args.sampler, dataset)
    stream = SubgraphStream(sampler, samples_per_epoch=args.samples,
                            batch_size=args.samples, seed=args.seed,
                            executor=ParallelExecutor(args.workers))
    with observer.activate():
        graphs = list(stream.subgraphs(epoch=args.epoch))
    _finish_observer(observer, log_path, args)
    nodes = np.array([g.num_nodes for g in graphs], dtype=float)
    edges = np.array([g.num_edges / 2 for g in graphs], dtype=float)
    payload = {
        "dataset": args.dataset,
        "sampler": args.sampler,
        "seed": args.seed,
        "epoch": args.epoch,
        "samples": len(graphs),
        "nodes": {"mean": float(nodes.mean()), "min": int(nodes.min()),
                  "max": int(nodes.max())},
        "edges": {"mean": float(edges.mean()), "min": int(edges.min()),
                  "max": int(edges.max())},
    }
    if args.index is not None:
        graph = graphs[args.index]
        payload["subgraph"] = {
            "index": args.index,
            "num_nodes": graph.num_nodes,
            "num_edges": graph.num_edges // 2,
            "node_ids": graph.meta["node_id"][:20].tolist(),
        }
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    print(f"{args.sampler} sampler on {args.dataset} "
          f"({dataset.num_nodes} nodes): {len(graphs)} subgraph(s), "
          f"epoch {args.epoch}, seed {args.seed}")
    print(f"  nodes/subgraph: mean {nodes.mean():.1f} "
          f"[{int(nodes.min())}, {int(nodes.max())}]")
    print(f"  edges/subgraph: mean {edges.mean():.1f} "
          f"[{int(edges.min())}, {int(edges.max())}]")
    if args.index is not None:
        sub = payload["subgraph"]
        print(f"  subgraph {sub['index']}: {sub['num_nodes']} nodes, "
              f"{sub['num_edges']} edges, first ids {sub['node_ids']}")


def _open_checkpoint(command: str, args: argparse.Namespace, build, load):
    """Open ``args.checkpoint`` for ``command``: ``(build(), load())``.

    ``build`` makes what serves the checkpoint, ``load`` the dataset to
    serve. An unreadable checkpoint, or one whose ``in_dim`` differs from
    the dataset's feature count, exits with a one-line message.
    """
    import zipfile

    from .serve import read_checkpoint_header

    try:
        header = read_checkpoint_header(args.checkpoint)
        served = build()
    except (OSError, ValueError, KeyError, zipfile.BadZipFile) as error:
        raise SystemExit(
            f"{command}: cannot load checkpoint {args.checkpoint}: "
            f"{error}") from error
    dataset = load()
    if header["in_dim"] is not None \
            and dataset.num_features != header["in_dim"]:
        raise SystemExit(
            f"checkpoint expects {header['in_dim']} node features; "
            f"{args.dataset} has {dataset.num_features}")
    return served, dataset


def _write_npz(command: str, path: str, **arrays):
    """Atomically write ``arrays`` to ``path`` (``.npz`` suffix enforced)."""
    from pathlib import Path

    import numpy as np

    from .data.io import atomic_write

    out = Path(path)
    if out.suffix != ".npz":
        out = out.with_suffix(".npz")
    try:
        with atomic_write(out, suffix=".npz") as tmp:
            np.savez_compressed(tmp, **arrays)
    except OSError as error:
        raise SystemExit(f"{command}: cannot write {out}: {error}") from error
    return out


def _parse_node_ids(spec: str) -> list[int]:
    """``"0,5,9-12"`` → ``[0, 5, 9, 10, 11, 12]``."""
    ids: list[int] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part:
            low, high = part.split("-", 1)
            ids.extend(range(int(low), int(high) + 1))
        else:
            ids.append(int(part))
    if not ids:
        raise SystemExit(f"embed: no node ids in --nodes {spec!r}")
    return ids


def _embed_node_level(args: argparse.Namespace) -> None:
    """Per-node embeddings through the graph-level service (ego-nets)."""
    import numpy as np

    from .sampling import NodeEmbeddingIndex, load_node_dataset
    from .serve import EmbeddingService

    service, dataset = _open_checkpoint(
        "embed", args,
        lambda: EmbeddingService.from_checkpoint(
            args.checkpoint, max_batch_size=args.batch_size),
        lambda: load_node_dataset(args.dataset, seed=args.seed,
                                  scale=args.scale))
    node_ids = np.asarray(_parse_node_ids(args.nodes), dtype=np.int64)
    if node_ids.min() < 0 or node_ids.max() >= dataset.num_nodes:
        raise SystemExit(
            f"embed: node ids must be in [0, {dataset.num_nodes}); "
            f"got {node_ids.min()}..{node_ids.max()}")
    index = NodeEmbeddingIndex(service, dataset, seed=args.seed)
    embeddings = index.embed_nodes(node_ids)
    if args.out:
        out = _write_npz("embed", args.out, embeddings=embeddings,
                         node_ids=node_ids, labels=dataset.y[node_ids])
        print(f"wrote {embeddings.shape[0]}×{embeddings.shape[1]} node "
              f"embeddings to {out}")
    else:
        print(f"embedded {embeddings.shape[0]} node(s) "
              f"→ {embeddings.shape[1]}-dim")
    if args.stats:
        print(json.dumps(service.stats(), indent=2))


def _cmd_embed(args: argparse.Namespace) -> None:
    from .data import load_dataset
    from .serve import EmbeddingService

    if args.node_level:
        _embed_node_level(args)
        return
    service, dataset = _open_checkpoint(
        "embed", args,
        lambda: EmbeddingService.from_checkpoint(
            args.checkpoint, max_batch_size=args.batch_size),
        lambda: load_dataset(args.dataset, seed=args.seed, scale=args.scale))
    embeddings = service.embed(dataset.graphs)
    if args.out:
        out = _write_npz("embed", args.out, embeddings=embeddings,
                         labels=dataset.labels())
        print(f"wrote {embeddings.shape[0]}×{embeddings.shape[1]} "
              f"embeddings to {out}")
    else:
        print(f"embedded {embeddings.shape[0]} graphs "
              f"→ {embeddings.shape[1]}-dim")
    if args.stats:
        print(json.dumps(service.stats(), indent=2))


def _cmd_profile(args: argparse.Namespace) -> None:
    from pathlib import Path

    from .data.io import atomic_write
    from .obs.export import write_chrome_trace, write_collapsed_stacks
    from .obs.profile_run import profile_pretrain
    from .obs.profiler import compare_hotpaths

    observer, profiler, payload = profile_pretrain(
        args.dataset, scale=args.scale, epochs=args.epochs,
        batch_size=args.batch_size, seed=args.seed,
        max_graphs=args.max_graphs, trace_events=args.trace_events)
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        width = max([len("span")] + [min(len(r["span"]), 60)
                                     for r in payload["rows"][:args.top]])
        print(f"{'span':<{width}}  {'op':<18}{'calls':>7}{'self ms':>9}"
              f"{'cum ms':>9}{'share':>7}")
        for row in payload["rows"][:args.top]:
            span = row["span"]
            if len(span) > width:  # keep the informative tail
                span = "…" + span[-(width - 1):]
            print(f"{span:<{width}}  {row['op']:<18}{row['calls']:>7}"
                  f"{row['self_s'] * 1e3:>9.2f}{row['cum_s'] * 1e3:>9.2f}"
                  f"{row['self_share']:>7.1%}")
        print(f"wall {payload['wall_seconds'] * 1e3:.1f}ms — "
              f"{payload['attributed_fraction']:.1%} attributed to "
              f"op×span rows ({payload['op_fraction']:.1%} in profiled "
              f"ops, the rest in per-span '(other)' glue)")
    if args.out_dir:
        out = Path(args.out_dir)
        with atomic_write(out / "hotpath.json") as tmp:
            tmp.write_text(json.dumps(payload, indent=2, sort_keys=True),
                           encoding="utf-8")
        write_chrome_trace(out / "trace.json", observer.tracer, profiler)
        write_collapsed_stacks(out / "flamegraph.txt", profiler.records())
        print(f"artifacts: {out}/hotpath.json, {out}/trace.json "
              f"(load in Perfetto), {out}/flamegraph.txt "
              f"(collapsed stacks)")
    if args.compare:
        try:
            baseline = json.loads(Path(args.compare).read_text())
        except (OSError, ValueError) as error:
            raise SystemExit(
                f"profile: cannot read baseline {args.compare}: "
                f"{error}") from error
        if baseline.get("config") != payload["config"]:
            raise SystemExit(
                f"profile: baseline {args.compare} was recorded with "
                f"config {baseline.get('config')}, this run used "
                f"{payload['config']} — rerun with matching flags")
        violations = compare_hotpaths(
            payload, baseline, share_tolerance=args.share_tolerance,
            per_call_ratio=args.per_call_ratio)
        if violations:
            print(f"perf gate: {len(violations)} regression(s) vs "
                  f"{args.compare}:")
            for violation in violations:
                print(f"  - {violation}")
            raise SystemExit(1)
        print(f"perf gate: OK vs {args.compare} "
              f"(share tolerance ±{args.share_tolerance}, per-call "
              f"ratio {args.per_call_ratio}x)")


def _cmd_serve(args: argparse.Namespace) -> None:
    import zipfile
    from pathlib import Path

    from .data import load_dataset
    from .fleet import CanaryController, build_fleet
    from .serve import EmbeddingService

    if args.canary_checkpoint is None and args.canary_slice is not None:
        raise SystemExit("serve: --canary-slice requires --canary-checkpoint")
    router, dataset = _open_checkpoint(
        "serve", args,
        lambda: build_fleet(args.checkpoint, args.workers,
                            policy=args.policy, cache_size=args.cache_size,
                            max_batch_size=args.batch_size),
        lambda: load_dataset(args.dataset, seed=args.seed, scale=args.scale))
    controller = None
    if args.canary_checkpoint:
        from .serve.checkpoint import load_checkpoint

        slice_fraction = args.canary_slice \
            if args.canary_slice is not None else 0.25
        try:
            bundle = load_checkpoint(args.canary_checkpoint)
        except (OSError, ValueError, KeyError, zipfile.BadZipFile) as error:
            raise SystemExit(
                f"serve: cannot load canary checkpoint "
                f"{args.canary_checkpoint}: {error}") from error
        version = bundle.metadata.get("name") \
            or Path(args.canary_checkpoint).stem
        router.deploy_canary(
            lambda: EmbeddingService(bundle.build_encoder(),
                                     cache_size=args.cache_size,
                                     max_batch_size=args.batch_size),
            version, slice_fraction)
        controller = CanaryController(router)
    observer, log_path = _observer_from_args(args)
    with observer.activate(), router:
        embeddings = None
        for _ in range(args.repeat):
            result = router.embed_detailed(dataset.graphs)
            embeddings = result.embeddings
        stats = router.stats()
        versions = sorted(result.served_versions())
        print(f"served {stats['graphs']} graph(s) over {args.repeat} pass(es) "
              f"across {stats['workers']} worker(s) [{stats['policy']}]: "
              f"hit rate {stats['cache']['hit_rate']:.3f}, "
              f"p50 {stats['latency']['p50_ms']:.2f}ms, "
              f"version(s) {', '.join(versions)}")
        if controller is not None:
            decision = controller.step()
            print(f"canary decision: {decision} "
                  f"(stable is now {router.workers[0].version})")
        if args.out:
            out = _write_npz("serve", args.out, embeddings=embeddings,
                             labels=dataset.labels())
            print(f"wrote {embeddings.shape[0]}×{embeddings.shape[1]} "
                  f"embeddings to {out}")
        if args.stats:
            print(json.dumps(stats, indent=2))
        if args.metrics_textfile:
            from .obs.export import write_prometheus_text

            write_prometheus_text(args.metrics_textfile, router.telemetry)
            print(f"metrics textfile: {args.metrics_textfile} "
                  f"(Prometheus text format)")
    _finish_observer(observer, log_path, args)


def _add_observability_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--log-dir", default=None,
                        help="write a JSONL event log + run manifest here")
    parser.add_argument("--trace", action="store_true",
                        help="print the span tree after the run")


def _add_runtime_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes for seed/precompute fan-out "
                             "(default: $REPRO_WORKERS, else serial); "
                             "results are bit-identical for any count")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="SGCL reproduction command line")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    datasets = sub.add_parser("datasets", help="list registered datasets")
    datasets.add_argument("--scale", type=float, default=0.05)
    datasets.add_argument("--json", action="store_true",
                          help="machine-readable statistics on stdout")
    datasets.set_defaults(fn=_cmd_datasets)

    pretrain = sub.add_parser("pretrain", help="unsupervised protocol")
    pretrain.add_argument("--method", default="SGCL")
    pretrain.add_argument("--dataset", default="MUTAG")
    pretrain.add_argument("--epochs", type=int, default=5)
    pretrain.add_argument("--seeds", type=int, default=1)
    pretrain.add_argument("--scale", type=float, default=0.1)
    pretrain.add_argument("--classifier", default="logreg",
                          choices=["logreg", "svm"])
    pretrain.add_argument("--checkpoint-dir", default=None,
                          help="crash-safe single-run mode: refresh a "
                               "checkpoint here every epoch (SGCL only)")
    pretrain.add_argument("--resume", action="store_true",
                          help="continue from the most advanced valid "
                               "checkpoint in --checkpoint-dir")
    pretrain.add_argument("--node-level", action="store_true",
                          help="node-level SGCL over sampled subgraphs of a "
                               "node dataset (e.g. community-1m); reports "
                               "linear-probe accuracy")
    pretrain.add_argument("--sampler", default="walk",
                          choices=["walk", "neighbor", "edge"],
                          help="subgraph sampler for --node-level")
    pretrain.add_argument("--samples-per-epoch", type=int, default=64,
                          help="subgraphs per epoch for --node-level")
    pretrain.add_argument("--subgraph-batch", type=int, default=8,
                          help="subgraphs per minibatch for --node-level")
    _add_observability_flags(pretrain)
    _add_runtime_flags(pretrain)
    pretrain.set_defaults(fn=_cmd_pretrain)

    sample = sub.add_parser(
        "sample", help="draw seeded subgraphs from a node dataset")
    sample.add_argument("--dataset", default="community-1m")
    sample.add_argument("--sampler", default="walk",
                        choices=["walk", "neighbor", "edge"])
    sample.add_argument("--samples", type=int, default=16,
                        help="subgraphs to draw")
    sample.add_argument("--epoch", type=int, default=0,
                        help="epoch whose seed stream to reproduce")
    sample.add_argument("--index", type=int, default=None,
                        help="also print this subgraph's provenance")
    sample.add_argument("--seed", type=int, default=0)
    sample.add_argument("--scale", type=float, default=0.01)
    sample.add_argument("--json", action="store_true",
                        help="machine-readable summary on stdout")
    _add_observability_flags(sample)
    _add_runtime_flags(sample)
    sample.set_defaults(fn=_cmd_sample)

    transfer = sub.add_parser("transfer", help="transfer protocol")
    transfer.add_argument("--method", default="SGCL")
    transfer.add_argument("--downstream", default="BBBP")
    transfer.add_argument("--epochs", type=int, default=3)
    transfer.add_argument("--finetune-epochs", type=int, default=5)
    transfer.add_argument("--seeds", type=int, default=1)
    transfer.add_argument("--scale", type=float, default=0.08)
    _add_observability_flags(transfer)
    _add_runtime_flags(transfer)
    transfer.set_defaults(fn=_cmd_transfer)

    report = sub.add_parser(
        "report", help="render a JSONL run log as tables")
    report.add_argument("log", help="path to a run-<id>.jsonl event log")
    report.set_defaults(fn=_cmd_report)

    doctor = sub.add_parser(
        "doctor", help="dataset invariants + guarded smoke pretrain")
    doctor.add_argument("--dataset", default="MUTAG")
    doctor.add_argument("--seed", type=int, default=0)
    doctor.add_argument("--scale", type=float, default=0.1)
    doctor.add_argument("--epochs", type=int, default=1,
                        help="smoke pre-training epochs")
    doctor.add_argument("--batch-size", type=int, default=16)
    doctor.add_argument("--max-graphs", type=int, default=32,
                        help="graphs used by the smoke pre-train")
    doctor.add_argument("--json", action="store_true",
                        help="machine-readable report on stdout")
    doctor.add_argument("--drift-store", default=None,
                        help="DatasetStore root with a live model: also "
                             "score the dataset's drift against the live "
                             "training statistics (validate/drift_*)")
    doctor.add_argument("--drift-warn", type=float, default=0.5,
                        help="drift score that warns")
    doctor.add_argument("--drift-refresh", type=float, default=2.0,
                        help="drift score that fails the doctor verdict")
    doctor.set_defaults(fn=_cmd_doctor)

    def _add_continuity_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--store", required=True,
                       help="DatasetStore root directory")
        p.add_argument("--registry", default=None,
                       help="ModelRegistry root (enables refresh + K_V drift)")
        p.add_argument("--model-base", default="sgcl",
                       help="refreshed models are named <base>-v<version>")
        p.add_argument("--refresh-epochs", type=int, default=2,
                       help="fine-tune epochs per refresh")
        p.add_argument("--window", type=int, default=None,
                       help="train on the last N batches only")
        p.add_argument("--batch-size", type=int, default=32,
                       help="training batch size for bootstrap refreshes")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--policy", default="drop",
                       choices=["drop", "raise", "warn"],
                       help="what to do with structurally invalid graphs")
        p.add_argument("--warn-threshold", type=float, default=0.5)
        p.add_argument("--refresh-threshold", type=float, default=2.0)
        p.add_argument("--json", action="store_true",
                       help="machine-readable report on stdout")

    ingest = sub.add_parser(
        "ingest", help="commit a graph batch to a versioned dataset store")
    _add_continuity_flags(ingest)
    ingest.add_argument("--from-npz", default=None,
                        help="ingest a batch written by save_dataset")
    ingest.add_argument("--dataset", default="MUTAG",
                        help="synthesise the batch from this dataset "
                             "(ignored with --from-npz)")
    ingest.add_argument("--scale", type=float, default=0.08)
    ingest.add_argument("--skip", type=int, default=0,
                        help="skip this many leading graphs")
    ingest.add_argument("--take", type=int, default=None,
                        help="batch size cap (default: the rest)")
    ingest.add_argument("--shift-features", type=float, default=None,
                        help="add this constant to every feature "
                             "(deterministic drift injection)")
    ingest.add_argument("--tag-ids", default=None, metavar="PREFIX",
                        help="assign graph_id=<PREFIX><index> so re-ingested "
                             "graphs supersede earlier revisions")
    ingest.set_defaults(fn=_cmd_ingest)

    refresh = sub.add_parser(
        "refresh", help="fine-tune + go live on the newest dataset version")
    _add_continuity_flags(refresh)
    refresh.add_argument("--version", type=int, default=None,
                         help="target dataset version (default: newest)")
    refresh.add_argument("--force", action="store_true",
                         help="retrain even if the live model is current")
    refresh.add_argument("--watch", action="store_true",
                         help="poll --spool for batches, refreshing on drift")
    refresh.add_argument("--spool", default=None,
                         help="spool directory of *.npz batches for --watch")
    refresh.add_argument("--interval", type=float, default=5.0,
                         help="seconds between --watch sweeps")
    refresh.add_argument("--max-cycles", type=int, default=None,
                         help="stop --watch after N sweeps (default: forever)")
    refresh.set_defaults(fn=_cmd_refresh)

    inspect = sub.add_parser("inspect", help="semantic-node diagnostics")
    inspect.add_argument("--dataset", default="PROTEINS")
    inspect.add_argument("--epochs", type=int, default=4)
    inspect.add_argument("--scale", type=float, default=0.08)
    inspect.add_argument("--cache-dir", default=None,
                        help="content-addressed precompute cache for the "
                             "Lipschitz constants")
    _add_runtime_flags(inspect)
    inspect.set_defaults(fn=_cmd_inspect)

    save = sub.add_parser("save", help="pretrain → serving checkpoint")
    save.add_argument("--method", default="SGCL")
    save.add_argument("--dataset", default="MUTAG")
    save.add_argument("--epochs", type=int, default=5)
    save.add_argument("--seed", type=int, default=0)
    save.add_argument("--scale", type=float, default=0.1)
    save.add_argument("--out", required=True,
                      help="checkpoint path (.npz appended if missing)")
    save.set_defaults(fn=_cmd_save)

    embed = sub.add_parser("embed",
                           help="checkpoint → embeddings (cached service)")
    embed.add_argument("--checkpoint", required=True)
    embed.add_argument("--dataset", default="MUTAG")
    embed.add_argument("--seed", type=int, default=0)
    embed.add_argument("--scale", type=float, default=0.1)
    embed.add_argument("--batch-size", type=int, default=64,
                       help="micro-batch size of the serving encoder")
    embed.add_argument("--out", default=None,
                       help="write embeddings + labels to this .npz")
    embed.add_argument("--stats", action="store_true",
                       help="print service telemetry after embedding")
    embed.add_argument("--node-level", action="store_true",
                       help="serve per-node embeddings of a node dataset "
                            "(deterministic ego-nets through the same "
                            "cached service)")
    embed.add_argument("--nodes", default="0-15",
                       help="node ids for --node-level: comma list and/or "
                            "ranges, e.g. '0,5,9-12'")
    embed.set_defaults(fn=_cmd_embed)

    serve = sub.add_parser(
        "serve", help="checkpoint → sharded embedding fleet")
    serve.add_argument("--checkpoint", required=True)
    serve.add_argument("--dataset", default="MUTAG")
    serve.add_argument("--workers", type=int, default=2,
                       help="fleet replicas behind the router")
    serve.add_argument("--policy", default="hash",
                       choices=["hash", "random"],
                       help="consistent-hash sharding vs the random-routing "
                            "baseline")
    serve.add_argument("--repeat", type=int, default=2,
                       help="passes over the dataset (later passes exercise "
                            "the shard caches)")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--scale", type=float, default=0.1)
    serve.add_argument("--batch-size", type=int, default=64)
    serve.add_argument("--cache-size", type=int, default=1024,
                       help="per-replica embedding cache capacity")
    serve.add_argument("--canary-checkpoint", default=None,
                       help="deploy this checkpoint as a canary before "
                            "serving; promoted or rolled back on telemetry "
                            "after the run (needs 32 requests per slot)")
    serve.add_argument("--canary-slice", type=float, default=None,
                       help="fraction of digest space the canary serves "
                            "(default 0.25)")
    serve.add_argument("--out", default=None,
                       help="write embeddings + labels to this .npz")
    serve.add_argument("--stats", action="store_true",
                       help="print fleet telemetry after serving")
    serve.add_argument("--metrics-textfile", default=None,
                       help="write router telemetry here in Prometheus "
                            "text exposition format (node-exporter "
                            "textfile-collector compatible)")
    _add_observability_flags(serve)
    serve.set_defaults(fn=_cmd_serve)

    profile = sub.add_parser(
        "profile", help="op-level profile of a seeded pretrain slice")
    profile.add_argument("--dataset", default="MUTAG")
    profile.add_argument("--scale", type=float, default=0.1)
    profile.add_argument("--epochs", type=int, default=2)
    profile.add_argument("--batch-size", type=int, default=32)
    profile.add_argument("--seed", type=int, default=0)
    profile.add_argument("--max-graphs", type=int, default=64,
                         help="graphs in the profiled slice")
    profile.add_argument("--top", type=int, default=15,
                         help="hot-path rows to print")
    profile.add_argument("--trace-events", action="store_true",
                         help="record per-op Chrome trace events (an op "
                              "timeline track in trace.json; costs one "
                              "dict per op call)")
    profile.add_argument("--out-dir", default=None,
                         help="write hotpath.json, trace.json (Perfetto) "
                              "and flamegraph.txt (collapsed stacks) here")
    profile.add_argument("--json", action="store_true",
                         help="machine-readable hot-path payload on stdout")
    profile.add_argument("--compare", default=None,
                         help="baseline hot-path JSON (BENCH_hotpath.json); "
                              "exit 1 on regression beyond tolerance")
    profile.add_argument("--share-tolerance", type=float, default=0.10,
                         help="max absolute growth of an op's self-time "
                              "share vs baseline")
    profile.add_argument("--per-call-ratio", type=float, default=3.0,
                         help="max growth of an op's normalised per-call "
                              "cost vs baseline")
    profile.set_defaults(fn=_cmd_profile)
    return parser


def main(argv: list[str] | None = None) -> None:
    args = build_parser().parse_args(argv)
    try:
        args.fn(args)
    except KeyboardInterrupt:
        # Commands that can do better (pretrain --checkpoint-dir) trap the
        # signal themselves and never reach this handler.
        print("interrupted", file=sys.stderr)
        raise SystemExit(130) from None


if __name__ == "__main__":  # pragma: no cover
    main()
