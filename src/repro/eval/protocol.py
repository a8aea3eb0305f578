"""Downstream evaluation protocols (paper §VI.A–§VI.E).

Three protocols are implemented, matching the paper's experimental setups:

* **Unsupervised** — freeze the pre-trained encoder, embed every graph, then
  SVM (or logistic-regression) 10-fold cross-validation accuracy.
* **Transfer** — fine-tune encoder + linear head on a scaffold-split
  multi-task binary dataset; report test ROC-AUC selected at the best
  validation epoch.
* **Semi-supervised** — fine-tune encoder + linear head on a stratified
  label-rate subset; report accuracy on the held-out test split.

Fine-tuning mutates the encoder; both fine-tune helpers snapshot its
parameters on entry and restore them on exit, so one pre-trained encoder can
be evaluated on many downstream tasks (the Table IV loop).
"""

from __future__ import annotations

import numpy as np

from ..data import DataLoader, GraphDataset, stratified_kfold
from ..gnn import GNNEncoder
from ..nn import (
    Adam,
    Linear,
    binary_cross_entropy_with_logits,
    cross_entropy,
)
from ..obs import current
from ..tensor import no_grad
from .linear_model import LogisticRegression
from .metrics import accuracy, mean_std, multitask_roc_auc
from .svm import OneVsRestSVC

__all__ = [
    "embed_dataset",
    "cross_validated_accuracy",
    "finetune_multitask",
    "finetune_classifier",
]


def embed_dataset(encoder: GNNEncoder, dataset, batch_size: int = 128,
                  service=None, **embed_kwargs) -> np.ndarray:
    """Frozen graph-level embeddings of every graph (eval mode, no grad).

    Passing a :class:`repro.serve.EmbeddingService` routes the request
    through its content-addressed cache, so repeated embeddings of the same
    graphs (CV folds, sweeps over downstream settings) skip the encoder
    entirely; ``encoder`` is ignored in that case and custom
    ``embed_kwargs`` are rejected because cached rows would not reflect
    them.
    """
    if service is not None:
        if embed_kwargs:
            raise ValueError(
                "embed_kwargs are incompatible with the embedding cache; "
                "call the encoder directly instead")
        return service.embed(dataset)
    encoder.eval()
    chunks = []
    with no_grad(), current().span("eval/embed"):
        for batch in DataLoader(dataset, batch_size):
            chunks.append(
                encoder.graph_representations(batch, **embed_kwargs).data)
    encoder.train()
    return np.concatenate(chunks, axis=0)


def _make_classifier(classifier: str, seed: int):
    if classifier == "svm":
        return OneVsRestSVC(kernel="rbf", C=1.0, seed=seed)
    if classifier == "logreg":
        return LogisticRegression(C=1.0)
    raise ValueError(f"unknown classifier {classifier!r}")


def cross_validated_accuracy(embeddings: np.ndarray, labels: np.ndarray, *,
                             k: int = 10, classifier: str = "svm",
                             seed: int = 0,
                             workers: int | None = None) -> tuple[float, float]:
    """K-fold CV accuracy of a classifier on frozen embeddings.

    Returns ``(mean, std)`` over folds — the paper's Table III cells.
    Embeddings are standardised per fold using train statistics only.

    ``workers`` fans the folds out over a
    :class:`repro.runtime.ParallelExecutor` (default: ``REPRO_WORKERS`` or
    serial). Folds are generated up front from the seeded RNG and each
    fold is fitted independently, so any worker count returns bit-identical
    scores.
    """
    from ..runtime import ParallelExecutor

    _make_classifier(classifier, seed)  # fail fast, before any fan-out
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    folds = list(stratified_kfold(labels, k, rng))

    def score(fold) -> float:
        train_idx, test_idx = fold
        # Span name follows the classifier ("eval/svm" or "eval/logreg"),
        # one span per CV fold, so traces show where protocol time goes
        # (in worker processes the observer is a no-op; see runtime docs).
        with current().span(f"eval/{classifier}"):
            mu = embeddings[train_idx].mean(axis=0)
            sigma = embeddings[train_idx].std(axis=0) + 1e-8
            train_x = (embeddings[train_idx] - mu) / sigma
            test_x = (embeddings[test_idx] - mu) / sigma
            model = _make_classifier(classifier, seed)
            model.fit(train_x, labels[train_idx])
            return accuracy(labels[test_idx], model.predict(test_x))

    fold_scores = ParallelExecutor(workers).map(score, folds)
    return mean_std(fold_scores)


# ----------------------------------------------------------------------
# Fine-tuning protocols
# ----------------------------------------------------------------------
def _snapshot(*modules):
    return [m.state_dict() for m in modules]


def _restore(modules, states):
    for module, state in zip(modules, states):
        module.load_state_dict(state)


def finetune_multitask(encoder: GNNEncoder, dataset: GraphDataset,
                       splits: tuple[np.ndarray, np.ndarray, np.ndarray], *,
                       epochs: int = 20, lr: float = 1e-3, batch_size: int = 32,
                       rng: np.random.Generator) -> float:
    """Transfer-learning fine-tune: encoder + linear head, BCE on valid labels.

    Returns the test ROC-AUC at the epoch with the best validation ROC-AUC
    (the Hu et al. 2020 protocol the paper follows). The encoder's
    pre-trained parameters are restored before returning.
    """
    if dataset.task != "multitask":
        raise ValueError("finetune_multitask expects a multitask dataset")
    train_idx, valid_idx, test_idx = splits
    head = Linear(encoder.out_dim, dataset.num_classes, rng=rng)
    saved = _snapshot(encoder)
    optimizer = Adam(encoder.parameters() + head.parameters(), lr=lr)
    train_graphs = [dataset[i] for i in train_idx]
    best_valid, best_test = -np.inf, float("nan")
    for _ in range(epochs):
        encoder.train()
        loader = DataLoader(train_graphs, batch_size, shuffle=True, rng=rng)
        for batch in loader:
            labels = batch.labels().astype(np.float64)
            mask = ~np.isnan(labels)
            targets = np.nan_to_num(labels, nan=0.0)
            logits = head(encoder.graph_representations(batch))
            loss = binary_cross_entropy_with_logits(logits, targets, mask=mask)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        valid_auc = _multitask_auc(encoder, head, dataset, valid_idx)
        if np.isnan(valid_auc):
            # Degenerate validation split (single-class tasks on a tiny
            # scaffold split): treat as chance so selection still proceeds.
            valid_auc = 0.5
        if valid_auc >= best_valid:
            best_valid = valid_auc
            best_test = _multitask_auc(encoder, head, dataset, test_idx)
    _restore([encoder], saved)
    return best_test


def _multitask_auc(encoder, head, dataset, indices) -> float:
    encoder.eval()
    graphs = [dataset[i] for i in indices]
    scores, labels = [], []
    with no_grad():
        for batch in DataLoader(graphs, 128):
            scores.append(head(encoder.graph_representations(batch)).data)
            labels.append(batch.labels().astype(np.float64))
    encoder.train()
    return multitask_roc_auc(np.concatenate(labels), np.concatenate(scores))


def finetune_classifier(encoder: GNNEncoder, dataset: GraphDataset,
                        train_idx: np.ndarray, test_idx: np.ndarray, *,
                        epochs: int = 20, lr: float = 1e-3,
                        batch_size: int = 32,
                        rng: np.random.Generator) -> float:
    """Semi-supervised fine-tune: cross-entropy on the labelled subset.

    Returns test accuracy at the final epoch; encoder parameters are
    restored before returning.
    """
    head = Linear(encoder.out_dim, dataset.num_classes, rng=rng)
    saved = _snapshot(encoder)
    optimizer = Adam(encoder.parameters() + head.parameters(), lr=lr)
    train_graphs = [dataset[i] for i in train_idx]
    for _ in range(epochs):
        encoder.train()
        for batch in DataLoader(train_graphs, batch_size, shuffle=True, rng=rng):
            # Unlabeled graphs (y=None → NaN label) carry no supervision;
            # drop their rows before the loss — cross_entropy rejects
            # non-finite targets rather than int-casting NaN to garbage.
            labels_f, valid = _finite_labels(batch)
            if not valid.any():
                continue
            logits = head(encoder.graph_representations(batch))
            if not valid.all():
                rows = np.flatnonzero(valid)
                logits, labels_f = logits[rows], labels_f[rows]
            loss = cross_entropy(logits, labels_f.astype(np.int64))
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
    encoder.eval()
    predictions, labels = [], []
    with no_grad():
        for batch in DataLoader([dataset[i] for i in test_idx], 128):
            labels_f, valid = _finite_labels(batch)
            if not valid.any():
                continue
            logits = head(encoder.graph_representations(batch))
            rows = np.flatnonzero(valid)
            predictions.append(np.argmax(logits.data[rows], axis=1))
            labels.append(labels_f[rows].astype(np.int64))
    encoder.train()
    score = accuracy(np.concatenate(labels), np.concatenate(predictions))
    _restore([encoder], saved)
    return score


def _finite_labels(batch) -> tuple[np.ndarray, np.ndarray]:
    """Batch labels as float plus a finite-row (labeled) mask."""
    labels = np.asarray(batch.labels())
    if labels.dtype.kind not in "fc":
        labels = labels.astype(np.float64)
    return labels, np.isfinite(labels)
