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

from ..core.trainer import ClosureLoop
from ..data import DataLoader, GraphDataset, stratified_kfold
from ..gnn import GNNEncoder
from ..nn import Linear, binary_cross_entropy_with_logits, cross_entropy
from ..obs import current
from ..tensor import no_grad
from ..validate.numerics import NumericsError
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
    chunks = []
    with encoder.evaluating(), no_grad(), current().span("eval/embed"):
        for batch in DataLoader(dataset, batch_size):
            chunks.append(
                encoder.graph_representations(batch, **embed_kwargs).data)
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
def _finetune_loop(method_name, encoder, head, batch_loss, *, lr,
                   batch_size, rng) -> ClosureLoop:
    """Encoder + head updates over shuffled minibatches, in train mode."""
    return ClosureLoop(
        method_name, encoder.parameters() + head.parameters(), lr=lr,
        epoch_batches=lambda graphs: DataLoader(graphs, batch_size,
                                                shuffle=True, rng=rng),
        batch_loss=batch_loss, start=encoder.train)


def _eval_logits(encoder, head, dataset, indices):
    """Head logits (eval mode, no grad) and float labels of the graphs at
    ``indices``.

    Non-finite logits raise :class:`NumericsError`: argmax and ROC-AUC
    would otherwise turn them into a plausible-looking score.
    """
    batches = list(DataLoader([dataset[i] for i in indices], 128))
    with encoder.evaluating(), no_grad():
        logits = np.concatenate([head(encoder.graph_representations(b)).data
                                 for b in batches])
    if not np.isfinite(logits).all():
        raise NumericsError("non-finite evaluation logits after fine-tuning")
    return logits, np.concatenate([_float_labels(b) for b in batches])


def _float_labels(batch) -> np.ndarray:
    """Batch labels as float64; NaN marks an unlabelled graph or task."""
    return np.asarray(batch.labels(), dtype=np.float64)


def finetune_multitask(encoder: GNNEncoder, dataset: GraphDataset,
                       splits: tuple[np.ndarray, np.ndarray, np.ndarray], *,
                       epochs: int = 20, lr: float = 1e-3, batch_size: int = 32,
                       rng: np.random.Generator) -> float:
    """Transfer-learning fine-tune: encoder + linear head, BCE on valid labels.

    Returns the test ROC-AUC at the epoch with the best validation ROC-AUC
    (the Hu et al. 2020 protocol the paper follows). The encoder's
    pre-trained parameters are restored before returning. Training runs
    through :class:`~repro.core.trainer.ClosureLoop` (``epoch`` events
    tagged ``finetune/transfer``); non-finite evaluation logits raise
    :class:`~repro.validate.NumericsError`.
    """
    if dataset.task != "multitask":
        raise ValueError("finetune_multitask expects a multitask dataset")
    train_idx, valid_idx, test_idx = splits
    head = Linear(encoder.out_dim, dataset.num_classes, rng=rng)
    saved = encoder.state_dict()

    def batch_loss(batch):
        labels = _float_labels(batch)
        logits = head(encoder.graph_representations(batch))
        loss = binary_cross_entropy_with_logits(
            logits, np.nan_to_num(labels, nan=0.0), mask=~np.isnan(labels))
        return loss, {"loss": loss.item()}

    def auc(indices) -> float:
        logits, labels = _eval_logits(encoder, head, dataset, indices)
        return multitask_roc_auc(labels, logits)

    loop = _finetune_loop("finetune/transfer", encoder, head, batch_loss,
                          lr=lr, batch_size=batch_size, rng=rng)
    train_graphs = [dataset[i] for i in train_idx]
    best_valid, best_test = -np.inf, float("nan")
    for _ in range(epochs):
        loop.pretrain(train_graphs, 1)
        valid_auc = auc(valid_idx)
        if np.isnan(valid_auc):
            # Degenerate validation split (single-class tasks on a tiny
            # scaffold split): treat as chance so selection still proceeds.
            valid_auc = 0.5
        if valid_auc >= best_valid:
            best_valid, best_test = valid_auc, auc(test_idx)
    encoder.load_state_dict(saved)
    return best_test


def finetune_classifier(encoder: GNNEncoder, dataset: GraphDataset,
                        train_idx: np.ndarray, test_idx: np.ndarray, *,
                        epochs: int = 20, lr: float = 1e-3,
                        batch_size: int = 32,
                        rng: np.random.Generator) -> float:
    """Semi-supervised fine-tune: cross-entropy on the labelled subset.

    Returns test accuracy at the final epoch; encoder parameters are
    restored before returning. Training runs through
    :class:`~repro.core.trainer.ClosureLoop` (``epoch`` events tagged
    ``finetune/semi-supervised``; a batch of unlabelled graphs only counts
    as skipped); non-finite evaluation logits raise
    :class:`~repro.validate.NumericsError`.
    """
    head = Linear(encoder.out_dim, dataset.num_classes, rng=rng)
    saved = encoder.state_dict()

    def batch_loss(batch):
        # Unlabeled graphs (y=None → NaN label) carry no supervision;
        # drop their rows before the loss — cross_entropy rejects
        # non-finite targets rather than int-casting NaN to garbage.
        labels = _float_labels(batch)
        valid = np.isfinite(labels)
        if not valid.any():
            return None, {}
        logits = head(encoder.graph_representations(batch))
        if not valid.all():
            rows = np.flatnonzero(valid)
            logits, labels = logits[rows], labels[rows]
        loss = cross_entropy(logits, labels.astype(np.int64))
        return loss, {"loss": loss.item()}

    loop = _finetune_loop("finetune/semi-supervised", encoder, head,
                          batch_loss, lr=lr, batch_size=batch_size, rng=rng)
    loop.pretrain([dataset[i] for i in train_idx], epochs)
    logits, labels = _eval_logits(encoder, head, dataset, test_idx)
    labelled = np.isfinite(labels)
    encoder.load_state_dict(saved)
    if not labelled.any():
        raise ValueError("finetune_classifier: no labelled test graph")
    return accuracy(labels[labelled].astype(np.int64),
                    np.argmax(logits[labelled], axis=1))
