"""Benchmark harness: seeded experiment runners and paper-vs-measured tables.

Each ``run_*`` function executes one cell of a paper table (method ×
dataset) across seeds and returns ``(mean, std)`` in percent. The
``print_comparison_table`` helper renders measured numbers next to the
paper's, including the average-rank (A.R.) column the paper reports, and
``save_results`` appends machine-readable JSON under ``results/``.

Workloads are scaled-down by default (synthetic datasets, few epochs) so the
whole suite finishes on CPU; absolute numbers are therefore not expected to
match the paper — the tables exist to compare *shape* (who wins, rough
ordering). See EXPERIMENTS.md.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from ..baselines import kernel_feature_map, make_method
from ..data import (
    label_rate_split,
    load_dataset,
    scaffold_split,
    train_test_split,
)
from ..data.io import atomic_write
from ..obs import current
from ..eval import (
    cross_validated_accuracy,
    embed_dataset,
    finetune_classifier,
    finetune_multitask,
    mean_std,
)

__all__ = [
    "run_unsupervised",
    "run_kernel_unsupervised",
    "run_transfer",
    "run_semisupervised",
    "average_ranks",
    "print_comparison_table",
    "save_results",
    "results_dir",
]


def results_dir() -> Path:
    """Directory for machine-readable benchmark outputs."""
    root = Path(os.environ.get("REPRO_RESULTS_DIR",
                               Path(__file__).resolve().parents[3] / "results"))
    root.mkdir(parents=True, exist_ok=True)
    return root


# ----------------------------------------------------------------------
# Protocol runners
# ----------------------------------------------------------------------
def run_unsupervised(method: str, dataset_name: str, *, seeds: list[int],
                     scale: float = 0.05, node_scale: float = 1.0,
                     epochs: int = 5, folds: int = 5,
                     classifier: str = "logreg",
                     method_overrides: dict | None = None,
                     workers: int | None = None) -> tuple[float, float]:
    """Unsupervised protocol (Table III): pretrain → embed → k-fold CV.

    Follows §VI.B: the encoder pre-trains on 90 % of the data treated as
    unlabeled; embeddings of all graphs are then classified with k-fold CV.
    Returns accuracy mean/std (%) over seeds.

    ``workers`` fans the seeds out over worker processes (default:
    ``REPRO_WORKERS`` or serial); each seed is an independent deterministic
    job, so results are bit-identical for any worker count. The inner CV
    already runs inside a seed job, so folds stay serial (``workers=1``)
    to avoid nested pools.
    """
    from ..runtime import ParallelExecutor

    def cell(seed: int) -> float:
        dataset = load_dataset(dataset_name, seed=seed, scale=scale,
                               node_scale=node_scale)
        rng = np.random.default_rng(seed)
        pretrain_idx, _ = train_test_split(len(dataset), 0.1, rng)
        model = make_method(method, dataset.num_features, seed=seed,
                            **(method_overrides or {}))
        model.pretrain([dataset[i] for i in pretrain_idx], epochs=epochs)
        embeddings = embed_dataset(model.encoder, dataset)
        accuracy, _ = cross_validated_accuracy(
            embeddings, dataset.labels(), k=folds, classifier=classifier,
            seed=seed, workers=1)
        return accuracy

    accuracies = ParallelExecutor(workers).map(cell, seeds)
    scores = []
    for seed, accuracy in zip(seeds, accuracies):
        scores.append(accuracy * 100.0)
        current().event("eval", protocol="unsupervised", method=method,
                        dataset=dataset_name, seed=seed, accuracy=accuracy)
    return mean_std(scores)


def run_kernel_unsupervised(kernel: str, dataset_name: str, *,
                            seeds: list[int], scale: float = 0.05,
                            node_scale: float = 1.0, folds: int = 5,
                            classifier: str = "logreg",
                            workers: int | None = None
                            ) -> tuple[float, float]:
    """Kernel-method branch of Table III: explicit feature map → k-fold CV.

    Kernel feature maps are cheap, so ``workers`` parallelises the CV
    folds rather than the seeds.
    """
    scores = []
    for seed in seeds:
        dataset = load_dataset(dataset_name, seed=seed, scale=scale,
                               node_scale=node_scale)
        features = kernel_feature_map(kernel, dataset.graphs)
        accuracy, _ = cross_validated_accuracy(
            features, dataset.labels(), k=folds, classifier=classifier,
            seed=seed, workers=workers)
        scores.append(accuracy * 100.0)
    return mean_std(scores)


def run_transfer(method: str, downstream_name: str, *, seeds: list[int],
                 pretrain_scale: float = 0.1, downstream_scale: float = 0.1,
                 pretrain_epochs: int = 3, finetune_epochs: int = 8,
                 method_overrides: dict | None = None,
                 workers: int | None = None) -> tuple[float, float]:
    """Transfer protocol (Table IV): ZincLike pretrain → scaffold finetune.

    Returns ROC-AUC mean/std (%) over seeds. ``workers`` fans the seeds
    out (default: ``REPRO_WORKERS`` or serial) with bit-identical results.
    """
    from ..runtime import ParallelExecutor

    def cell(seed: int) -> float:
        corpus = load_dataset("ZINC", seed=seed, scale=pretrain_scale)
        model = make_method(method, corpus.num_features, seed=seed,
                            **(method_overrides or {}))
        model.pretrain(corpus.graphs, epochs=pretrain_epochs)
        downstream = load_dataset(downstream_name, seed=seed,
                                  scale=downstream_scale)
        splits = scaffold_split(downstream)
        rng = np.random.default_rng(seed + 1)
        return finetune_multitask(model.encoder, downstream, splits,
                                  epochs=finetune_epochs, rng=rng)

    aucs = ParallelExecutor(workers).map(cell, seeds)
    scores = []
    for seed, auc in zip(seeds, aucs):
        if not np.isnan(auc):
            scores.append(auc * 100.0)
            current().event("eval", protocol="transfer", method=method,
                            dataset=downstream_name, seed=seed, roc_auc=auc)
    # A fully degenerate test split (possible at tiny scales) scores chance.
    return mean_std(scores) if scores else (50.0, 0.0)


def run_semisupervised(method: str, dataset_name: str, label_rate: float, *,
                       seeds: list[int], scale: float = 0.05,
                       node_scale: float = 1.0, pretrain_epochs: int = 5,
                       finetune_epochs: int = 10,
                       method_overrides: dict | None = None,
                       workers: int | None = None) -> tuple[float, float]:
    """Semi-supervised protocol (Table VI): pretrain → label-rate finetune.

    ``workers`` fans the seeds out (default: ``REPRO_WORKERS`` or serial)
    with bit-identical results.
    """
    from ..runtime import ParallelExecutor

    def cell(seed: int) -> float:
        dataset = load_dataset(dataset_name, seed=seed, scale=scale,
                               node_scale=node_scale)
        rng = np.random.default_rng(seed)
        train_idx, test_idx = train_test_split(len(dataset), 0.2, rng)
        model = make_method(method, dataset.num_features, seed=seed,
                            **(method_overrides or {}))
        model.pretrain([dataset[i] for i in train_idx],
                       epochs=pretrain_epochs)
        labels = dataset.labels()
        labelled_local = label_rate_split(labels[train_idx], label_rate, rng)
        labelled_idx = train_idx[labelled_local]
        return finetune_classifier(model.encoder, dataset, labelled_idx,
                                   test_idx, epochs=finetune_epochs, rng=rng)

    accuracies = ParallelExecutor(workers).map(cell, seeds)
    return mean_std([a * 100.0 for a in accuracies])


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def average_ranks(table: dict[str, dict[str, float | None]],
                  datasets: list[str]) -> dict[str, float]:
    """Average rank per method across datasets (lower = better), skipping
    missing cells — the A.R. column of Tables III/IV.

    A cell is *missing* when the method's row lacks the dataset key, holds
    ``None`` (a run that never happened) or holds NaN (a run that produced
    no usable score — e.g. a fully degenerate split); missing cells simply
    do not contribute to that method's average instead of crashing the
    table or poisoning the ranking.
    """
    ranks: dict[str, list[float]] = {m: [] for m in table}
    for dataset in datasets:
        scored = [(m, v[dataset]) for m, v in table.items()
                  if v.get(dataset) is not None
                  and not np.isnan(v[dataset])]
        scored.sort(key=lambda kv: -kv[1])
        for position, (method, _) in enumerate(scored, start=1):
            ranks[method].append(float(position))
    return {m: float(np.mean(r)) if r else float("nan")
            for m, r in ranks.items()}


def print_comparison_table(title: str, datasets: list[str],
                           measured: dict[str, dict[str, tuple[float, float]]],
                           paper: dict[str, dict[str, float | None]] | None
                           ) -> None:
    """Render a paper-style table: one row per method, measured (±std) and
    the paper's value in brackets, plus measured/paper average ranks."""
    print(f"\n=== {title} ===")
    header = f"{'Method':<16}" + "".join(f"{d:>22}" for d in datasets) \
        + f"{'A.R.':>7}"
    print(header)
    measured_points = {m: {d: v[d][0] if d in v else None for d in datasets}
                       for m, v in measured.items()}
    measured_ranks = average_ranks(measured_points, datasets)
    paper_ranks = average_ranks(paper, datasets) if paper else {}
    for method, row in measured.items():
        cells = []
        for dataset in datasets:
            if dataset in row:
                mean, std = row[dataset]
                cell = f"{mean:5.1f}±{std:4.1f}"
            else:
                cell = "   -  "
            reference = (paper or {}).get(method, {}).get(dataset)
            cell += f" [{reference:5.1f}]" if reference is not None \
                else " [  -  ]"
            cells.append(f"{cell:>22}")
        rank = measured_ranks.get(method, float('nan'))
        paper_rank = paper_ranks.get(method)
        rank_cell = f"{rank:4.1f}"
        print(f"{method:<16}" + "".join(cells) + f"{rank_cell:>7}"
              + (f" [{paper_rank:.1f}]" if paper_rank is not None else ""))
    print("(measured ±std [paper]; A.R. = average rank, lower is better)")


def save_results(name: str, payload: dict) -> Path:
    """Write one bench's results to ``results/<name>.json`` (with metadata).

    The write is atomic (temp file + rename) so concurrent bench runs can
    never leave a truncated JSON file behind.
    """
    path = results_dir() / f"{name}.json"
    record = {
        "bench": name,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "results": payload,
    }
    with atomic_write(path) as tmp:
        tmp.write_text(json.dumps(record, indent=2, default=_jsonify))
    return path


def _jsonify(value):
    if isinstance(value, (np.floating, np.integer)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON serialisable: {type(value)}")
