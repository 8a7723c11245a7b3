"""Checks for the verification harness itself.

The harness is the last line of defense, so these tests confirm its
oracles fire: known-good models must pass, an injected aggregation
fault must fail, and the kernel baseline must match hand-derived
values.
"""

import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

import hmil.verification as ver
from hmil.batching import build_batch
from hmil.generators import random_document, random_schema
from hmil.model import ModelConfig, build_model
from hmil.schema import Bag, NumericLeaf, SchemaError, infer_schema
from hmil.training import TrainConfig
from hmil.verification import (
    benchmark_nested_task,
    benchmark_product_task,
    benchmark_variance_task,
    check_concentration,
    check_dirac_identity,
    check_embedding_bounds,
    check_gradients,
    check_matrix_collapse,
    check_permutation_invariance,
    check_pipeline_round_trip,
    concentration_experiment,
    mmd_baseline,
    run_suite,
    summarize_report,
)

SMOKE_TRAIN = TrainConfig(epochs=12, batch_size=32, learning_rate=3e-3)


def digest(result: dict) -> str:
    """sha256 of a benchmark result, pinning every accuracy and echoed
    setting to the bytes the task produced when the pin was recorded."""
    return hashlib.sha256(
        json.dumps(result, sort_keys=True).encode("utf-8")).hexdigest()


class TestMmd:
    def test_two_point_analytic_value(self):
        # x = {0, 0}, y = {1, 1}, bandwidth 1: within-terms are 1, the
        # cross term is exp(-1/2), so the estimate is 2 * (1 - exp(-1/2))
        r = mmd_baseline(np.array([[0.0], [0.0]]), np.array([[1.0], [1.0]]),
                         kernel_bandwidth=1.0)
        assert r == pytest.approx(0.7869386805747332, abs=1e-15)

    def test_identical_samples_exactly_zero(self):
        x = np.random.default_rng(0).normal(size=(40, 3))
        assert mmd_baseline(x, x.copy(), kernel_bandwidth=0.7) == 0.0

    def test_identical_bag_lists_exactly_zero(self):
        bags = [[1.0, 2.0], [3.0], [0.5, -0.5, 4.0]]
        assert mmd_baseline(bags, [list(b) for b in bags], 1.0) == 0.0

    def test_bandwidth_must_be_positive(self):
        x = np.zeros((3, 1))
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="bandwidth"):
                mmd_baseline(x, x, kernel_bandwidth=bad)

    def test_needs_two_points_per_side(self):
        with pytest.raises(ValueError, match=">= 2"):
            mmd_baseline(np.zeros((1, 1)), np.zeros((5, 1)), 1.0)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        x, y = rng.normal(size=(30, 2)), rng.normal(size=(20, 2))
        a = mmd_baseline(x, y, 1.3)
        b = mmd_baseline(y, x, 1.3)
        assert abs(a - b) < 1e-12

    def test_separated_gaussians_match_kernel_expectation(self):
        # with the clusters 5 sigma apart the cross term is ~exp(-12.5),
        # and each within-term estimates E[k] = 1/sqrt(1 + 2 sigma^2),
        # so the value should sit near 2/sqrt(3)
        rng = np.random.default_rng(5)
        x = rng.normal(0.0, 1.0, (500, 1))
        y = rng.normal(5.0, 1.0, (500, 1))
        r = mmd_baseline(x, y, kernel_bandwidth=1.0)
        assert r > 0.5
        assert r == pytest.approx(2.0 / math.sqrt(3.0), abs=0.05)

    def test_same_distribution_near_zero_unequal_sizes(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(300, 1))
        y = rng.normal(size=(200, 1))
        assert abs(mmd_baseline(x, y, 1.0)) < 0.02


class TestConcentration:
    def test_constant_model_zero_deviation(self):
        model = build_model(ver.PLAIN_BAG, ModelConfig(output_dim=1, seed=0))
        for p in model.parameters():
            p.data[:] = 0.0
        rng = np.random.default_rng(1)
        table = concentration_experiment(
            model, bag_sizes=(4, 16), repeats=20, rng=rng)
        assert table == {4: 0.0, 16: 0.0}

    def test_decay_report_passes(self):
        rep = run_suite("concentration", 0)
        assert rep["passed"]
        d = rep["checks"][0]["details"]
        assert d["inversions"] <= 1
        assert d["ratio_largest_over_smallest"] < 0.25
        # deviation at the largest size is small but not zero
        assert 0.0 < d["medians"][-1] < d["medians"][0]

    def test_decay_scale_is_roughly_root_l(self):
        # quadrupling the size four times should shrink the median by
        # about 8x under root-l averaging noise; allow a wide band
        d = check_concentration(3)["details"]
        shrink = d["medians"][0] / d["medians"][-1]
        assert 4.0 < shrink < 16.0

    def test_seeded_reproducibility(self):
        assert check_concentration(9) == check_concentration(9)


class TestInvariantChecks:
    def test_permutation_invariance_small(self):
        c = check_permutation_invariance(0, cases=50)
        assert c["passed"] and c["details"]["max_deviation"] < 1e-9

    def test_permutation_check_catches_order_dependence(self):
        # swap mean pooling for first-row selection; the check must fail
        import hmil.model as model_mod

        def first_row(instances, offsets, tape=None):
            from hmil.nn import Tensor
            if instances.rows == 0:
                return Tensor(np.zeros((len(offsets) - 1, instances.cols)))
            rows = np.minimum(np.asarray(offsets)[:-1], instances.rows - 1)
            return Tensor(instances.data[rows])

        original = model_mod.segment_mean
        model_mod.segment_mean = first_row
        try:
            c = check_permutation_invariance(0, cases=30)
        finally:
            model_mod.segment_mean = original
        assert not c["passed"]
        assert c["details"]["max_deviation"] > 1e-6

    def test_dirac_small(self):
        c = check_dirac_identity(0, cases=50)
        assert c["passed"] and c["details"]["max_deviation"] < 1e-9

    def test_collapse_small(self):
        c = check_matrix_collapse(0, models=10)
        assert c["passed"] and c["details"]["max_deviation"] < 1e-10

    def test_gradients(self):
        c = check_gradients(0)
        assert c["passed"] and c["details"]["max_rel_error"] < 1e-4

    def test_embedding_bounds_small(self):
        c = check_embedding_bounds(0, documents=500)
        assert c["passed"] and c["details"]["violations"] == 0

    def test_pipeline_small(self):
        c = check_pipeline_round_trip(0, schemas=2, docs_per_schema=100)
        assert c["passed"] and c["details"]["violations"] == 0

    def test_pipeline_fails_on_a_bad_document(self, monkeypatch):
        docs = [{"a": [1.0]}, {"a": [2.0, 3.0]}]
        schema = infer_schema(docs)
        bad = {"a": ["x"], "b": 1}
        monkeypatch.setattr(ver, "_inferable_case",
                            lambda rng, n_docs:
                            (schema, docs + [bad]))
        c = check_pipeline_round_trip(0, schemas=1, docs_per_schema=3)
        assert not c["passed"]
        assert c["details"]["violations"] == 2
        assert c["details"]["batched"] == 0


PLAIN_BAG = Bag(count=1, child=NumericLeaf(count=1, mean=0.0, std=1.0))


class TestCollapse:
    def test_folded_weights_shape(self):
        model = build_model(PLAIN_BAG, ModelConfig(embed_dim=6))
        batch = build_batch([[1.0, 2.0]], PLAIN_BAG)
        ver._collapse_deviation(model, [batch], inner_dim=3)
        assert model.layers["$"][2].shape == (7, 6)

    @given(st.integers(0, 2**32 - 1))
    def test_outputs_agree_below_1e_10(self, seed):
        rng = np.random.default_rng(seed)
        gen = random_schema(rng, max_depth=3, require_bag=True)
        raw = [random_document(rng, gen) for _ in range(5)]
        try:
            schema = infer_schema(raw)
        except SchemaError:
            assume(False)
        model = build_model(schema, ModelConfig(embed_dim=4, hidden_dim=4,
                                                seed=seed % 2**31))
        batch = build_batch(raw, schema)
        assert ver._collapse_deviation(model, [batch], inner_dim=5) < 1e-10

    def test_exact_on_empty_bags(self):
        model = build_model(PLAIN_BAG, ModelConfig(seed=9))
        batch = build_batch([[], []], PLAIN_BAG)
        assert ver._collapse_deviation(model, [batch], inner_dim=8) == 0.0

    @pytest.mark.parametrize("wrong_fold", [
        # skips the inner matrix
        lambda inner, post: np.vstack([np.eye(*inner.shape) @ post[:-1],
                                       post[-1:]]),
        # drops the non-empty indicator row
        lambda inner, post: np.vstack([inner @ post[:-1],
                                       np.zeros_like(post[-1:])]),
    ])
    def test_wrong_fold_fails(self, monkeypatch, wrong_fold):
        monkeypatch.setattr(ver, "_fold", wrong_fold)
        c = check_matrix_collapse(0, models=5)
        assert not c["passed"]
        assert c["details"]["max_deviation"] > 1e-6


class TestBenchmarkConstructions:
    def test_antithetic_bag_mean_exactly_zero(self):
        rng = np.random.default_rng(0)
        for sigma in (1.0, 2.0):
            bag = ver._antithetic_bag(rng, sigma, 50)
            assert len(bag) == 50
            assert float(np.mean(bag)) == 0.0

    def test_grouped_doc_classes_share_union(self):
        # the shuffled class is a regrouping of the same draws, so with
        # a cloned rng the two unions are the same multiset
        doc_a = ver._grouped_doc(np.random.default_rng(7), 5, 8, True)
        doc_b = ver._grouped_doc(np.random.default_rng(7), 5, 8, False)
        union_a = sorted(v for bag in doc_a for v in bag)
        union_b = sorted(v for bag in doc_b for v in bag)
        assert union_a == union_b

    def test_variance_task_smoke(self):
        r = benchmark_variance_task(0, n_train=200, n_test=100,
                                    train_config=SMOKE_TRAIN)
        assert r["mil_accuracy"] >= 0.9
        # the baseline input is identically zero, so balanced test
        # labels pin its accuracy at exactly one half
        assert r["mean_baseline_accuracy"] == 0.5
        assert 0.35 <= r["shuffled_accuracy"] <= 0.65
        assert digest(r) == ("bf602f8008303237889bed44b9187ee1"
                             "f03825ce9af4eb5a02fccede688ec9bd")

    def test_variance_task_seeded_reproducibility(self):
        a = benchmark_variance_task(1, n_train=120, n_test=60,
                                    train_config=SMOKE_TRAIN)
        b = benchmark_variance_task(1, n_train=120, n_test=60,
                                    train_config=SMOKE_TRAIN)
        assert a == b

    def test_nested_task_smoke(self):
        r = benchmark_nested_task(0, n_train=300, n_test=120, n_bags=8,
                                  bag_size=12, train_config=SMOKE_TRAIN)
        assert r["nested_accuracy"] >= 0.8
        assert 0.35 <= r["flat_accuracy"] <= 0.65
        assert digest(r) == ("0830207563538c09ff54170fe58153a8"
                             "3bbf745204ffbf7ad0dd48a566d49cf0")

    def test_product_task_smoke(self):
        r = benchmark_product_task(0, n_train=600, n_test=200, bag_size=40,
                                   train_config=TrainConfig(
                                       epochs=20, batch_size=32,
                                       learning_rate=3e-3))
        assert r["joint_accuracy"] >= 0.7
        assert 0.35 <= r["x_only_accuracy"] <= 0.65
        assert r["x_only_on_x_label_accuracy"] >= 0.9
        assert digest(r) == ("c6a01c07449258cb6ccc0e59639cc4c4"
                             "c3badd3c632859acb36b17ae5f235058")


class TestSuites:
    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("everything", 0)

    def test_concentration_suite_shape(self):
        rep = run_suite("concentration", 2)
        assert rep["suite"] == "concentration"
        assert rep["seed"] == 2
        assert [c["name"] for c in rep["checks"]] == ["concentration_decay"]
        assert rep["passed"] is True

    def test_report_is_json_clean(self):
        rep = run_suite("concentration", 4)
        assert json.dumps(rep, sort_keys=True) == json.dumps(
            run_suite("concentration", 4), sort_keys=True)

    def test_summary_table(self):
        rep = run_suite("concentration", 0)
        text = summarize_report(rep)
        assert "concentration_decay" in text
        assert "pass" in text
        assert "seed: 0" in text

    def test_summary_marks_failures(self):
        rep = {"suite": "x", "seed": 0, "passed": False,
               "checks": [{"name": "broken", "passed": False,
                           "details": {"value": 2.0}}]}
        text = summarize_report(rep)
        assert "FAIL" in text


def children() -> set[str]:
    """Pids of this process's children, as the kernel lists them."""
    pid = os.getpid()
    return set(Path(f"/proc/{pid}/task/{pid}/children").read_text().split())


def usable_cpus(monkeypatch, count: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


class TestParallelChecks:
    """run_suite deals a suite's checks round-robin to child
    interpreters: reports must not depend on how many, and no child may
    outlive the call."""

    @pytest.mark.parametrize("suite", ["invariants", "concentration"])
    def test_same_report_at_any_cpu_count(self, monkeypatch, suite):
        before = children()
        reports = []
        for count in (1, 2, 12):
            usable_cpus(monkeypatch, count)
            reports.append(run_suite(suite, 3))
        # where the affinity call is missing, the CPU count stands in
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        reports.append(run_suite(suite, 3))
        assert reports[0]["passed"]
        assert all(report == reports[0] for report in reports[1:])
        assert children() == before

    def test_failed_worker_raises_with_its_checks_and_code(
            self, monkeypatch, tmp_path):
        worker = tmp_path / "worker"
        worker.write_text("#!/bin/sh\nexit 3\n")
        worker.chmod(0o755)
        usable_cpus(monkeypatch, 2)
        monkeypatch.setattr(sys, "executable", str(worker))
        before = children()
        with pytest.raises(ChildProcessError, match="running check_gradients,"
                           " check_concentration exited with code 3"):
            ver._run_checks(("check_mmd_baseline", "check_gradients",
                             "check_mmd_baseline", "check_concentration"), 0)
        assert children() == before

    @pytest.mark.parametrize("setting,seen", [(None, "1"), ("2", "2")])
    def test_workers_run_one_blas_thread_unless_told(
            self, monkeypatch, tmp_path, setting, seen):
        worker = tmp_path / "worker"
        worker.write_text(f"#!/bin/sh\necho \"$OPENBLAS_NUM_THREADS\" "
                          f"> {tmp_path / 'seen'}\nexit 3\n")
        worker.chmod(0o755)
        usable_cpus(monkeypatch, 2)
        monkeypatch.setattr(sys, "executable", str(worker))
        if setting is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", setting)
        with pytest.raises(ChildProcessError):
            ver._run_checks(("check_mmd_baseline", "check_mmd_baseline"), 0)
        assert (tmp_path / "seen").read_text() == seen + "\n"

    @pytest.mark.parametrize("executable", ["", "missing"])
    def test_share_runs_here_when_no_child_starts(
            self, monkeypatch, tmp_path, executable):
        names = ("check_gradients", "check_mmd_baseline", "check_gradients")
        expected = [getattr(ver, name)(5) for name in names]
        usable_cpus(monkeypatch, 3)
        monkeypatch.setattr(sys, "executable",
                            executable and str(tmp_path / executable))
        before = children()
        assert ver._run_checks(names, 5) == expected
        assert children() == before

    def test_interrupt_in_the_callers_share_stops_the_workers(
            self, monkeypatch):
        # the caller looks its check names up when it runs them, so a
        # rebinding (as a tracer's) reaches its share
        def interrupt(seed):
            raise KeyboardInterrupt

        usable_cpus(monkeypatch, 2)
        monkeypatch.setattr(ver, "check_gradients", interrupt)
        before = children()
        with pytest.raises(KeyboardInterrupt):
            ver._run_checks(("check_gradients", "check_concentration"), 0)
        assert children() == before
