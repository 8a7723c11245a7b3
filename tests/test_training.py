"""Loss functions, the Adam training loop, and evaluation helpers."""

import itertools
import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from hmil.batching import build_batch
from hmil.encoding import EncodingError
from hmil.model import ModelConfig, build_model, forward
from hmil.nn import ShapeError, Tape, Tensor, backward
from hmil.schema import Bag, NumericLeaf
from hmil.training import (
    CHUNK_SIZE,
    TrainConfig,
    OutputDiverged,
    TrainingDiverged,
    evaluate_accuracy,
    loss_mse,
    loss_softmax_ce,
    predict_scores,
    softmax,
    train,
)

PLAIN_BAG = Bag(count=1, child=NumericLeaf(count=1, mean=0.0, std=1.0))


def two_blob_dataset(n_docs=60, n_items=10, seed=0):
    """Bags of draws around +1 (class 1) or -1 (class 0): linearly
    separable through the bag mean."""
    rng = np.random.default_rng(seed)
    raw, labels = [], []
    for _ in range(n_docs):
        label = int(rng.integers(0, 2))
        center = 1.0 if label else -1.0
        raw.append(list(rng.normal(center, 0.5, size=n_items)))
        labels.append(label)
    return raw, np.array(labels)


class TestSoftmaxCrossEntropy:
    def test_uniform_two_class_loss_is_ln_2(self):
        loss = loss_softmax_ce(Tensor([[0.0, 0.0]]), [0])
        np.testing.assert_allclose(loss.data, [[0.6931471805599453]],
                                   rtol=1e-15)

    def test_confident_logit_loss(self):
        # the max-shifted form pays ~1e-15 absolute to cancellation here
        loss = loss_softmax_ce(Tensor([[10.0, 0.0]]), [0])
        np.testing.assert_allclose(loss.data, [[math.log1p(math.exp(-10.0))]],
                                   rtol=0, atol=1e-14)

    def test_uniform_gradient_is_half_each_way(self):
        logits = Tensor([[0.0, 0.0]])
        tape = Tape()
        loss = loss_softmax_ce(logits, [0], tape)
        grads = backward(tape, loss)
        np.testing.assert_allclose(grads[logits], [[-0.5, 0.5]], rtol=1e-15)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        raw = rng.normal(0, 2, size=(5, 4))
        labels = np.array([0, 3, 1, 1, 2])
        logits = Tensor(raw.copy())
        tape = Tape()
        grads = backward(tape, loss_softmax_ce(logits, labels, tape))
        eps = 1e-6
        fd = np.zeros_like(raw)
        for i in range(raw.shape[0]):
            for j in range(raw.shape[1]):
                up, down = raw.copy(), raw.copy()
                up[i, j] += eps
                down[i, j] -= eps
                fd[i, j] = (loss_softmax_ce(Tensor(up), labels).data[0, 0]
                            - loss_softmax_ce(Tensor(down), labels).data[0, 0]) \
                    / (2 * eps)
        np.testing.assert_allclose(grads[logits], fd, rtol=1e-6, atol=1e-9)

    def test_rejects_malformed_inputs(self):
        with pytest.raises(ShapeError):
            loss_softmax_ce(Tensor([[0.0, 0.0]]), [0, 1])
        with pytest.raises(ShapeError):
            loss_softmax_ce(Tensor([[0.0]]), [0])
        with pytest.raises(ShapeError):
            loss_softmax_ce(Tensor([[0.0, 0.0]]), [2])

    def test_stable_for_huge_logits(self):
        loss = loss_softmax_ce(Tensor([[1000.0, 0.0]]), [0])
        assert np.isfinite(loss.data[0, 0])
        assert loss.data[0, 0] >= 0.0


class TestMse:
    def test_value_and_gradient(self):
        pred = Tensor([[1.0]])
        tape = Tape()
        loss = loss_mse(pred, [[3.0]], tape)
        np.testing.assert_allclose(loss.data, [[4.0]], rtol=1e-15)
        grads = backward(tape, loss)
        np.testing.assert_allclose(grads[pred], [[-4.0]], rtol=1e-15)

    def test_mean_over_all_entries(self):
        loss = loss_mse(Tensor([[0.0, 0.0], [0.0, 0.0]]),
                        [[1.0, 1.0], [3.0, 1.0]])
        np.testing.assert_allclose(loss.data, [[3.0]], rtol=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            loss_mse(Tensor([[1.0]]), [[1.0, 2.0]])


class TestSoftmaxHelper:
    def test_rows_sum_to_one_and_survive_big_inputs(self):
        p = softmax(np.array([[1000.0, 0.0], [3.0, 4.0]]))
        np.testing.assert_allclose(p.sum(axis=1), [1.0, 1.0], rtol=1e-12)
        assert np.all(np.isfinite(p))
        np.testing.assert_allclose(p[0], [1.0, 0.0], atol=1e-300)


class TestTrainLoop:
    def test_separable_task_reaches_full_accuracy(self):
        docs, labels = two_blob_dataset()
        model = build_model(PLAIN_BAG,
                            ModelConfig(embed_dim=4, hidden_dim=4,
                                        output_dim=2, seed=1))
        report = train(model, docs, labels,
                       TrainConfig(epochs=30, batch_size=16,
                                   learning_rate=1e-2, seed=1))
        assert evaluate_accuracy(model, docs, labels) == 1.0
        assert report.epoch_loss[-1] < report.epoch_loss[0]
        assert report.metric_name == "accuracy"
        assert all(0.0 <= m <= 1.0 for m in report.epoch_metric)

    def test_bit_identical_reruns(self):
        docs, labels = two_blob_dataset(n_docs=20)
        runs = []
        for _ in range(2):
            model = build_model(PLAIN_BAG,
                                ModelConfig(embed_dim=3, hidden_dim=3,
                                            output_dim=2, seed=2))
            report = train(model, docs, labels,
                           TrainConfig(epochs=3, batch_size=8, seed=5))
            runs.append(([p.data.copy() for p in model.parameters()], report))
        for pa, pb in zip(runs[0][0], runs[1][0]):
            np.testing.assert_array_equal(pa, pb)
        assert runs[0][1] == runs[1][1]

    def test_shuffle_seed_changes_the_run(self):
        docs, labels = two_blob_dataset(n_docs=20)
        finals = []
        for shuffle_seed in (5, 6):
            model = build_model(PLAIN_BAG,
                                ModelConfig(embed_dim=3, hidden_dim=3,
                                            output_dim=2, seed=2))
            train(model, docs, labels,
                  TrainConfig(epochs=3, batch_size=8, seed=shuffle_seed))
            finals.append(np.concatenate(
                [p.data.reshape(-1) for p in model.parameters()]))
        assert not np.array_equal(finals[0], finals[1])

    def test_zero_epochs_changes_nothing(self):
        docs, labels = two_blob_dataset(n_docs=10)
        model = build_model(PLAIN_BAG, ModelConfig(output_dim=2, seed=3))
        before = [p.data.copy() for p in model.parameters()]
        report = train(model, docs, labels, TrainConfig(epochs=0))
        for p, b in zip(model.parameters(), before):
            np.testing.assert_array_equal(p.data, b)
        assert report.epoch_loss == [] and report.epoch_metric == []

    def test_tiny_step_does_not_increase_loss(self):
        docs, labels = two_blob_dataset(n_docs=16)
        model = build_model(PLAIN_BAG,
                            ModelConfig(embed_dim=3, hidden_dim=3,
                                        output_dim=2, seed=4))

        def current_loss():
            batch = build_batch(docs, model.schema)
            return loss_softmax_ce(forward(model, batch), labels).data[0, 0]

        before = current_loss()
        train(model, docs, labels,
              TrainConfig(epochs=1, batch_size=len(docs),
                          learning_rate=1e-6, seed=0))
        assert current_loss() <= before + 1e-9

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_raises_with_location(self):
        docs, _ = two_blob_dataset(n_docs=8)
        model = build_model(PLAIN_BAG, ModelConfig(output_dim=1, seed=0))
        targets = np.full((8, 1), 1e200)
        with pytest.raises(TrainingDiverged) as exc:
            train(model, docs, targets,
                  TrainConfig(epochs=1, batch_size=8, loss="mse"))
        assert exc.value.epoch == 0 and exc.value.batch_index == 0

    def test_divergence_message_prints_a_plain_float(self):
        exc = TrainingDiverged(1, 2, np.float64(np.nan))
        assert str(exc) == "non-finite loss nan in epoch 1, batch 2"

    def test_output_divergence_is_a_training_divergence(self):
        exc = OutputDiverged(1, 2)
        assert isinstance(exc, TrainingDiverged)
        assert (exc.epoch, exc.batch_index) == (1, 2)
        assert str(exc) == ("non-finite model output after the last step "
                            "in epoch 1, batch 2")

    def test_report_serializes_to_json(self):
        docs, labels = two_blob_dataset(n_docs=10)
        model = build_model(PLAIN_BAG, ModelConfig(output_dim=2))
        report = train(model, docs, labels, TrainConfig(epochs=2, seed=7))
        text = json.dumps(asdict(report), sort_keys=True)
        assert '"metric_name": "accuracy"' in text

    def test_mse_regression_on_bag_mean(self):
        rng = np.random.default_rng(9)
        raw = [list(rng.normal(0, 1, size=6)) for _ in range(40)]
        targets = np.array([[np.mean(d)] for d in raw])
        model = build_model(PLAIN_BAG,
                            ModelConfig(embed_dim=4, hidden_dim=4, seed=5))
        train(model, raw, targets,
              TrainConfig(epochs=60, batch_size=10, learning_rate=1e-2,
                          loss="mse", seed=1))
        scores = forward(model, build_batch(raw, PLAIN_BAG)).data
        assert np.mean((scores - targets) ** 2) < 0.05

    def test_config_validation(self):
        for kw in ({"epochs": -1}, {"loss": "hinge"}, {"seed": -1},
                   {"seed": True}, {"batch_size": 2.5}, {"epochs": "3"},
                   {"learning_rate": "x"}, {"learning_rate": float("nan")},
                   {"learning_rate": float("inf")},
                   {"learning_rate": 10**400}, {"learning_rate": True}):
            with pytest.raises(ValueError):
                TrainConfig(**kw)


class TestEvaluation:
    def test_predict_scores_shape_and_chunking(self):
        docs, _ = two_blob_dataset(n_docs=7)
        model = build_model(PLAIN_BAG, ModelConfig(output_dim=2))
        items = [(f"k{i}", doc, None) for i, doc in enumerate(docs)]
        items.insert(3, ("bad", None, "no document"))
        items.insert(5, ("odd", {"a": 1}, None))
        scored = list(predict_scores(model, items))
        assert [key for key, _, _ in scored] == [key for key, _, _ in items]
        assert scored[3] == ("bad", None, "no document")
        assert scored[5][1] is None
        assert isinstance(scored[5][2], EncodingError)
        # fewer than CHUNK_SIZE documents: one forward pass, so the rows
        # are exactly those of batching them all
        want = forward(model, build_batch(docs, PLAIN_BAG)).data
        got = [out for _, out, error in scored if error is None]
        assert np.array_equal(np.vstack(got), want)

    def test_streams_one_chunk_at_a_time(self):
        model = build_model(PLAIN_BAG, ModelConfig(output_dim=2))
        pulled = []

        def endless():
            for i in itertools.count():
                pulled.append(i)
                yield (i, None, "unparsable") if i % 3 == 0 \
                    else (i, [float(i)], None)

        first = next(predict_scores(model, endless()))
        assert first == (0, None, "unparsable")
        # two of every three items fit, so item 3 * CHUNK_SIZE / 2 - 1 is
        # the CHUNK_SIZE-th that fits: it closes the first chunk, and
        # nothing past it is read
        assert pulled[-1] == 3 * CHUNK_SIZE // 2 - 1

    def test_empty_document_list(self):
        model = build_model(PLAIN_BAG, ModelConfig(output_dim=2))
        assert list(predict_scores(model, [])) == []
        assert evaluate_accuracy(model, [], []) == 0.0

    def test_accuracy_raises_the_first_misfit(self):
        model = build_model(PLAIN_BAG, ModelConfig(output_dim=2))
        with pytest.raises(EncodingError, match="expected array"):
            evaluate_accuracy(model, [[1.0], "x", {}], [0, 1, 0])
