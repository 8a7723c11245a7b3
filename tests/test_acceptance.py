"""End-to-end acceptance bars.

Each test pins one externally checkable claim: an exact tolerance, an
accuracy bar with its no-signal control, or byte determinism.  Numbers
(case counts, tolerances, runtime budgets) are fixed contracts, so they
appear literally rather than as shared constants.
"""

import hashlib
import json
import time

import numpy as np

from hmil.cli import main
from hmil.model import load_model
from hmil.schema import (
    Bag,
    CategoricalLeaf,
    NumericLeaf,
    Product,
    infer_schema,
)
from hmil.verification import (
    benchmark_nested_task,
    benchmark_product_task,
    benchmark_variance_task,
    check_dirac_identity,
    check_embedding_bounds,
    check_gradients,
    check_matrix_collapse,
    check_permutation_invariance,
    check_pipeline_round_trip,
    run_suite,
)

SEED = 2024


def timed(fn, *args, **kwargs):
    start = time.monotonic()
    result = fn(*args, **kwargs)
    return result, time.monotonic() - start


def test_01_permutation_invariance_1000_cases():
    check, elapsed = timed(check_permutation_invariance, SEED, 1000)
    assert check["details"]["cases"] == 1000
    assert check["details"]["max_deviation"] < 1e-9
    assert check["passed"]
    assert elapsed < 60.0


def test_02_dirac_identity_1000_cases():
    check = check_dirac_identity(SEED, cases=1000)
    assert check["details"]["max_deviation"] < 1e-9
    assert check["passed"]


def test_03_matrix_collapse_100_models():
    check = check_matrix_collapse(SEED, models=100)
    assert check["details"]["max_deviation"] < 1e-10
    assert check["passed"]


def test_04_gradient_agreement():
    check = check_gradients(SEED)
    assert check["details"]["max_rel_error"] < 1e-4
    assert check["passed"]


def test_05_concentration_decay():
    report, elapsed = timed(run_suite, "concentration", SEED)
    details = report["checks"][0]["details"]
    assert details["bag_sizes"] == [4, 16, 64, 256]
    assert details["repeats"] == 200
    assert details["inversions"] <= 1
    medians = details["medians"]
    assert medians[-1] < 0.25 * medians[0]
    assert report["passed"]
    assert elapsed < 120.0


def test_06_variance_task_with_controls():
    result, elapsed = timed(benchmark_variance_task, SEED)
    assert result["mil_accuracy"] >= 0.95
    assert result["mean_baseline_accuracy"] <= 0.55
    assert result["shuffled_accuracy"] <= 0.55
    assert elapsed < 300.0


def test_07_nested_task_with_structure_erased_control():
    result, elapsed = timed(benchmark_nested_task, SEED)
    assert result["nested_accuracy"] >= 0.9
    assert result["flat_accuracy"] <= 0.55
    assert elapsed < 600.0


def test_08_product_task_with_marginal_control():
    result, elapsed = timed(benchmark_product_task, SEED)
    assert result["joint_accuracy"] >= 0.9
    assert abs(result["x_only_accuracy"] - 0.5) <= 0.05
    assert result["x_only_on_x_label_accuracy"] >= 0.95
    assert elapsed < 300.0


def test_09_embedding_bounds_10000_inputs():
    check = check_embedding_bounds(SEED, documents=10000)
    assert check["details"]["documents"] >= 10000
    assert check["details"]["violations"] == 0
    assert check["passed"]


def test_10_schema_round_trip():
    with open("tests/data/fitness_week.json", "r", encoding="utf-8") as fh:
        week = json.load(fh)
    schema = infer_schema([week])
    assert isinstance(schema, Product)
    assert schema.field_names == ("weekNumber", "workouts")
    assert isinstance(schema.field("weekNumber").schema, CategoricalLeaf)
    assert schema.field("weekNumber").schema.values == ("39",)
    workouts = schema.field("workouts").schema
    assert isinstance(workouts, Bag)
    workout = workouts.child
    assert workout.field_names == ("avgPace", "calories", "distance",
                                   "duration", "speedData", "sport")
    assert workout.field("speedData").optional
    speed_data = workout.field("speedData").schema
    assert speed_data.field_names == ("altitude", "labels", "speed")
    for name in ("altitude", "speed"):
        bag = speed_data.field(name).schema
        assert isinstance(bag, Bag)
        assert isinstance(bag.child, NumericLeaf)
    assert isinstance(speed_data.field("labels").schema.child,
                      CategoricalLeaf)
    assert isinstance(workout.field("sport").schema, CategoricalLeaf)
    assert workout.field("sport").schema.values == ("running", "swimming")

    check = check_pipeline_round_trip(SEED, schemas=10, docs_per_schema=1000)
    assert check["details"]["documents"] == 10000
    assert check["details"]["violations"] == 0
    assert check["passed"]


def test_11_determinism(tmp_path, capsys):
    assert main(["verify", "--suite", "all", "--seed", str(SEED)]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--suite", "all", "--seed", str(SEED)]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert json.loads(first)["passed"] is True
    # the report's bytes at this seed, so any drift in a number shows
    assert hashlib.sha256(first.encode("utf-8")).hexdigest() == (
        "8c13a8f697153bcb2c09ed47da0404491110567a985a06ac080e63d73201f4fc")

    rng = np.random.default_rng(SEED)
    train = tmp_path / "train.jsonl"
    with open(train, "w") as fh:
        for i in range(80):
            doc = {"xs": [float(v) for v in
                          rng.normal(0, 2.0 if i % 2 else 1.0, 12)],
                   "y": i % 2}
            fh.write(json.dumps(doc) + "\n")
    schema = tmp_path / "schema.json"
    assert main(["infer", "--input", str(train),
                 "--output", str(schema)]) == 0
    for name in ("a", "b"):
        rc = main(["train", "--schema", str(schema), "--train", str(train),
                   "--label-field", "y", "--output",
                   str(tmp_path / f"{name}.bin"), "--epochs", "3",
                   "--seed", "11"])
        assert rc == 0
    assert ((tmp_path / "a.bin").read_bytes()
            == (tmp_path / "b.bin").read_bytes())
    load_model(str(tmp_path / "a.bin"))
