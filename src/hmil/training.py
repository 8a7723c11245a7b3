"""Minibatch training on the tape: losses, the Adam loop, evaluation.

Losses are recorded on the same tape as the forward pass, so one
backward sweep yields parameter gradients.  Shuffling derives from
(seed, epoch), making whole runs reproducible bit for bit.  Every entry
point takes raw JSON documents; ``train`` encodes its corpus once and
gathers each minibatch from it, and ``predict_scores`` streams documents
through the model one chunk at a time.  Scoring memory is bounded by a
chunk's leaf columns plus one block of instance activations per bag node
(``model.BLOCK_ACTIVATIONS``, 4096 rows at embed_dim 32), however large
the chunk's bags.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from .batching import build_batch, finish_batch, new_columns, take
from .encoding import EncodingError, encode_document
from .model import Model, forward
from .nn import (AdamState, ShapeError, Tape, Tensor, adam_step, backward,
                 flat_gradient)

__all__ = [
    "CHUNK_SIZE",
    "TrainConfig",
    "TrainingReport",
    "TrainingDiverged",
    "OutputDiverged",
    "loss_softmax_ce",
    "loss_mse",
    "softmax",
    "train",
    "predict_scores",
    "evaluate_accuracy",
]

# documents per forward pass when scoring
CHUNK_SIZE = 256
LOSSES = ("ce", "mse")  # softmax cross-entropy, mean squared error


class TrainingDiverged(Exception):
    """``what`` came out non-finite at (``epoch``, ``batch_index``)."""

    def __init__(self, what: str, epoch: int, batch_index: int):
        super().__init__(f"{what} in epoch {epoch}, batch {batch_index}")
        self.epoch = epoch
        self.batch_index = batch_index


class OutputDiverged(TrainingDiverged):
    """The last minibatch, scored again after the last step (which came
    at ``epoch``, ``batch_index``), gave a non-finite output."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 64
    learning_rate: float = 1e-3
    seed: int = 0
    loss: str = "ce"  # one of LOSSES

    def __post_init__(self):
        for name, low in (("epochs", 0), ("batch_size", 1), ("seed", 0)):
            value = getattr(self, name)
            if type(value) is not int or value < low:  # a bool is no int
                raise ValueError(f"{name} must be an int >= {low}")
        lr = self.learning_rate  # not nan, inf, or an int beyond float64
        if type(lr) not in (int, float) or not abs(lr) <= sys.float_info.max:
            raise ValueError("learning_rate must be a finite number")
        if self.loss not in LOSSES:
            raise ValueError(f"unknown loss {self.loss!r}")


@dataclass
class TrainingReport:
    metric_name: str
    epoch_loss: list[float] = field(default_factory=list)
    epoch_metric: list[float] = field(default_factory=list)


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def loss_softmax_ce(logits: Tensor, labels: np.ndarray,
                    tape: Tape | None = None) -> Tensor:
    """Mean cross-entropy of softmax(logits) against integer labels."""
    labels = np.asarray(labels)
    if labels.shape != (logits.rows,):
        raise ShapeError(f"labels shape {labels.shape} does not match "
                         f"{logits.rows} logit rows")
    if logits.cols < 2:
        raise ShapeError("softmax cross-entropy needs >= 2 columns")
    if labels.size and (labels.min() < 0 or labels.max() >= logits.cols):
        raise ShapeError(f"labels must lie in [0, {logits.cols})")
    z = logits.data
    zmax = z.max(axis=1, keepdims=True)
    logsumexp = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1))
    picked = z[np.arange(z.shape[0]), labels]
    out = Tensor(np.mean(logsumexp - picked))
    if tape is not None:
        n = z.shape[0]

        def backward_fn(g: np.ndarray):
            d = softmax(z)
            d[np.arange(n), labels] -= 1.0
            return (g[0, 0] * d / n,)

        tape.record(out, (logits,), backward_fn)
    return out


def loss_mse(pred: Tensor, target: np.ndarray,
             tape: Tape | None = None) -> Tensor:
    """Mean squared error over every entry of ``pred``."""
    target = np.asarray(target, dtype=np.float64)
    if target.shape != pred.shape:
        raise ShapeError(f"target shape {target.shape} does not match "
                         f"prediction shape {pred.shape}")
    diff = pred.data - target
    out = Tensor(np.mean(diff * diff))
    if tape is not None:
        def backward_fn(g: np.ndarray):
            return (g[0, 0] * 2.0 * diff / diff.size,)

        tape.record(out, (pred,), backward_fn)
    return out


def _check_targets(config: TrainConfig, model: Model, targets: np.ndarray,
                   n_docs: int) -> np.ndarray:
    if config.loss == "ce":
        targets = np.asarray(targets, dtype=np.int64)
        if targets.shape != (n_docs,):
            raise ShapeError(f"expected {n_docs} integer labels, "
                             f"got shape {targets.shape}")
        return targets
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != (n_docs, model.config.output_dim):
        raise ShapeError(
            f"expected targets of shape ({n_docs}, "
            f"{model.config.output_dim}), got {targets.shape}")
    return targets


def train(model: Model, docs: list, targets,
          config: TrainConfig) -> TrainingReport:
    """Adam minibatch training, in place on the model's parameters.

    Raises EncodingError, with the document's ``index``, before any
    step if a document does not fit the model's schema, and
    TrainingDiverged the moment a loss comes out non-finite, or its
    OutputDiverged if the last minibatch, scored again after the last
    step, does; the model is then left in its state at that point for
    inspection.
    """
    targets = _check_targets(config, model, targets, len(docs))
    corpus = build_batch(docs, model.schema)
    params, values = model.parameters(), model.values
    state = AdamState(np.zeros(values.size), np.zeros(values.size))
    report = TrainingReport(
        metric_name="accuracy" if config.loss == "ce" else "mse")

    batch = None
    for epoch in range(config.epochs):
        order = np.random.default_rng([config.seed, epoch]).permutation(len(docs))
        total_loss = 0.0
        hits = 0.0
        for batch_index, start in enumerate(
                range(0, len(docs), config.batch_size)):
            chosen = order[start:start + config.batch_size]
            batch = take(corpus, chosen, model.schema)
            batch_targets = targets[chosen]

            tape = Tape()
            out = forward(model, batch, tape)
            if config.loss == "ce":
                loss = loss_softmax_ce(out, batch_targets, tape)
                hits += float(np.sum(out.data.argmax(axis=1) == batch_targets))
            else:
                loss = loss_mse(out, batch_targets, tape)
            value = loss.data[0, 0]
            if not np.isfinite(value):
                raise TrainingDiverged(f"non-finite loss {float(value)}",
                                       epoch, batch_index)
            total_loss += value * len(chosen)

            adam_step(values, flat_gradient(backward(tape, loss), params),
                      state, lr=config.learning_rate)

        epoch_loss = total_loss / max(len(docs), 1)
        report.epoch_loss.append(float(epoch_loss))
        report.epoch_metric.append(
            float(hits / max(len(docs), 1)) if config.loss == "ce"
            else float(epoch_loss))
    # no loss follows the last step, yet it can leave parameters whose
    # outputs overflow, as a huge learning rate does
    if batch is not None and not np.isfinite(forward(model, batch).data).all():
        raise OutputDiverged("non-finite model output after the last step",
                             epoch, batch_index)
    return report


def predict_scores(model: Model, items: Iterable) -> Iterator[tuple]:
    """Score ``(key, document, error)`` items, such as the lines of a
    JSONL file, and yield ``(key, outputs, error)`` per item in input
    order: the model's output row for a document that fits, else None
    with the item's own error or the document's EncodingError.

    One forward pass scores each ``CHUNK_SIZE`` documents that fit, and
    a chunk's items are yielded as soon as it is scored, so a stream of
    any length is never held whole.
    """
    columns, pending = new_columns(model.schema), []
    for key, doc, error in items:
        if error is None:
            try:
                encode_document(doc, model.schema, columns)
            except EncodingError as exc:
                error = exc
        pending.append((key, error))
        # node_paths in finish_batch recurses as deep as the schema nests,
        # so it is called from this frame, not from a helper below it
        if len(columns["$"]) == CHUNK_SIZE:  # one root row per document
            yield from _paired(pending, forward(
                model, finish_batch(columns, model.schema)).data)
            columns, pending = new_columns(model.schema), []
    yield from _paired(pending, forward(
        model, finish_batch(columns, model.schema)).data
        if columns["$"] else ())


def _paired(pending: list[tuple], scores) -> Iterator[tuple]:
    """Each pending ``(key, error)`` with its row of ``scores``, if any."""
    rows = iter(scores)
    for key, error in pending:
        yield key, None if error is not None else next(rows), error


def evaluate_accuracy(model: Model, docs: list, labels) -> float:
    """Fraction of documents whose highest output is their label;
    raises the EncodingError of the first document that does not fit."""
    predicted = []
    for _, outputs, error in predict_scores(
            model, ((i, doc, None) for i, doc in enumerate(docs))):
        if error is not None:
            raise error
        predicted.append(int(np.argmax(outputs)))
    return (float(np.mean(np.array(predicted) == np.asarray(labels)))
            if len(docs) else 0.0)
