"""Smoke runs of the scripts in scripts/ at small sizes, so an API
change that breaks one fails here instead of at its next manual run."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv", [
    ["mmd_scaling.py", "--sizes", "8", "16"],
    ["concentration_curve.py", "--sizes", "4", "8", "--repeats", "3"],
])
def test_script_exits_0(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr


def _perfbench_module(name):
    """``perfbench/<name>.py``, loaded with perfbench on the path, since
    its modules import each other by bare name."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        spec = importlib.util.spec_from_file_location(
            f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return module


def test_perfbench_layers_resolve():
    """Every function the traced benchmark run wraps still exists, so a
    deletion that would crash ``perfbench/run.py --trace 1`` fails here."""
    layers = _perfbench_module("layers")
    assert layers.LAYERS
    for layer in layers.LAYERS:
        module = importlib.import_module(layer.module)
        assert callable(getattr(module, layer.function, None)), layer.name


@pytest.mark.parametrize("aggregation, mean_calls, max_calls", [
    ("mean", 1, 0), ("max", 0, 1), ("meanmax", 1, 1)])
def test_perfbench_tracer_sees_pooling(aggregation, mean_calls, max_calls):
    """The tracer wraps module-level bindings, so the forward pass must
    look its pooling functions up when called: a table of them built at
    import would keep the unwrapped ones, and the traced run would
    report no pooling calls."""
    import hmil.cli  # noqa: F401  (imports every module the tracer wraps)
    from hmil.batching import build_batch
    from hmil.model import ModelConfig, build_model
    from hmil.verification import PLAIN_BAG

    tracer = _perfbench_module("tracer").Tracer(
        _perfbench_module("layers").LAYERS, "hmil")
    model = build_model(PLAIN_BAG, ModelConfig(aggregation=aggregation))
    batch = build_batch([[1.0, 2.0], [], [3.0]], PLAIN_BAG)
    with tracer.installed():
        sys.modules["hmil.model"].forward(model, batch)
    metrics = tracer.metrics()
    assert metrics["nn.segment_mean.calls"] == mean_calls
    assert metrics["nn.segment_max.calls"] == max_calls


def test_bench_pairs_writes_the_paired_summary(tmp_path):
    """``bench_pairs.py`` pairs two synthetic ``.bench_out/`` directories
    by workload and seed, says which metrics resolve a gain, and counts
    each side's ``src/hmil`` lines."""
    (tmp_path / "change").mkdir()
    for side, files in (("parent", {"a.py": "1\n2\n3\n"}),
                        ("change", {"a.py": "1\n2\n", "b.py": "1\n2\n",
                                    "notes.txt": "not counted\n"})):
        (tmp_path / side / "src" / "hmil").mkdir(parents=True)
        for name, text in files.items():
            (tmp_path / side / "src" / "hmil" / name).write_text(text)
    (tmp_path / "change" / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text())
    walls = {"parent": [4.0, 3.0, 5.0], "change": [3.0, 3.0, 4.0]}
    # the change's set-up is 30% slower, past the 25% bound
    setups = {"parent": [0.1, 0.1, 0.1], "change": [0.13, 0.13, 0.13]}
    # the change's memory is lower in every pair: a resolved gain
    rss = {"parent": [50.0, 52.0, 51.0], "change": [40.0, 41.0, 40.0]}
    for side, offset in (("parent", 0), ("change", 1)):
        out = tmp_path / side / ".bench_out"
        out.mkdir(parents=True)
        for i, (seed, wall, setup, peak) in enumerate(
                zip((7, 8, 9), walls[side], setups[side], rss[side])):
            values = {"setup_s": setup, "wall_s": wall, "peak_rss_mb": peak,
                      "ops_ok_ratio": 1.0}
            path = out / f"result-verify-invariants-{seed}-trace0.json"
            path.write_text(json.dumps({
                "correct": True, "seconds": 30.0,
                "output_sha256": f"sha{seed}",
                "environment": {"git_sha": side, "nproc": 2},
                "metrics": {k: {"value": v} for k, v in values.items()}}))
            # the parent finishes first in even pairs
            os.utime(path, (0, 10 * i + (offset if i % 2 == 0 else 1 - offset)))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_pairs.py"),
         "--parent", str(tmp_path / "parent"),
         "--change", str(tmp_path / "change"), "--seeds", "7", "8", "9",
         "--slug", "smoke", "--what", "a smoke run"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    bench = json.loads((tmp_path / "change" / "BENCH_smoke.json").read_text())
    assert bench["git"] == {"parent_commit": "parent",
                            "change_commit": "change"}
    assert bench["command"].endswith("--seconds 30 --trace 0")
    (name, wl), = bench["workloads"].items()
    assert name == "verify-invariants"
    assert wl["first_in_pair"] == ["parent", "change", "parent"]
    assert wl["all_correct"] and wl["outputs_equal"]
    wall = wl["metrics"]["wall_s"]
    assert wall["parent"] == {"runs": [4.0, 3.0, 5.0], "median": 4.0,
                              "q1": 3.5, "q3": 4.5, "iqr": 1.0}
    assert wall["change"]["median"] == 3.0
    assert (wall["change_better_pairs"], wall["ties"]) == (2, 1)
    assert wall["median_difference_exceeds_parent_iqr"] is False
    assert {name: m["gain_resolved"] for name, m in wl["metrics"].items()} == {
        "setup_s": False, "wall_s": False, "peak_rss_mb": True,
        "ops_ok_ratio": False}
    assert "peak_rss_mb: 51 -> 40, change won 3/3, exceeds parent IQR: " \
        "True, gain resolved: True" in proc.stdout
    assert wall["change_worse_beyond_bound"] is False
    setup = wl["metrics"]["setup_s"]
    assert setup["change_worse_beyond_bound"] is True
    assert wl["metrics"]["ops_ok_ratio"]["change_worse_beyond_bound"] is False
    assert "setup_s: 0.1 -> 0.13" in proc.stdout
    assert "worse beyond bound: True" in proc.stdout
    assert bench["src_hmil_lines"] == {"parent": 3, "change": 4,
                                       "difference": 1}
    assert "src/hmil lines: 3 -> 4 (+1)" in proc.stdout
    ok = wl["metrics"]["ops_ok_ratio"]
    assert (ok["change_better_pairs"], ok["ties"]) == (0, 3)


# the parent's runs: median 2.45, inclusive quartiles 2.225 and 2.675
PARENT_RUNS = [2.0 + i / 10 for i in range(10)]


@pytest.mark.parametrize("change, better, resolved", [
    # 9 of 10 pairs won, and the medians 1.45 apart, past the IQR
    ([1.0] * 9 + [9.0], "lower", True),
    # 8 of 10 pairs won is too few
    ([1.0] * 8 + [9.0, 9.0], "lower", False),
    # every pair won, but by less than the parent's IQR
    ([v - 0.1 for v in PARENT_RUNS], "lower", False),
    # a higher-is-better metric: lost in every pair, then won by 0.55
    ([1.0] * 10, "higher", False),
    ([3.0] * 10, "higher", True),
])
def test_bench_pairs_resolves_a_gain_by_the_nine_tenths_rule(
        change, better, resolved):
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    m = module.compare(PARENT_RUNS, change, better, 0.25)
    assert m["parent"]["iqr"] == pytest.approx(0.45)
    assert m["gain_resolved"] is resolved


@pytest.mark.parametrize("field, values", [
    ("cpus_usable", (2, 1)),
    ("blas_threads", (1, 2)),
    ("python", ("3.11.7", "3.12.1")),
    ("numpy", ("2.4.6", "1.26.4")),
])
def test_bench_pairs_refuses_pairs_from_different_environments(
        tmp_path, field, values):
    """A parallel gain measured on two CPU counts, or any gain across
    interpreters or libraries, is no gain: the script exits 2."""
    (tmp_path / "change").mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text())
    metrics = {name: {"value": 1.0} for name in
               ("setup_s", "wall_s", "peak_rss_mb", "ops_ok_ratio")}
    for side, value in zip(("parent", "change"), values):
        out = tmp_path / side / ".bench_out"
        out.mkdir(parents=True, exist_ok=True)
        env = {"cpus_usable": 2, "blas_threads": 1, "python": "3.11.7",
               "numpy": "2.4.6", "git_sha": side, field: value}
        (out / "result-verify-invariants-7-trace0.json").write_text(
            json.dumps({"correct": True, "seconds": 30.0,
                        "output_sha256": "sha", "environment": env,
                        "metrics": metrics}))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_pairs.py"),
         "--parent", str(tmp_path / "parent"),
         "--change", str(tmp_path / "change"), "--seeds", "7",
         "--slug", "mixed", "--what", "runs on two machines"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert f"'{field}': {values[0]!r}" in proc.stderr
    assert "different environments" in proc.stderr
    assert not (tmp_path / "change" / "BENCH_mixed.json").exists()
