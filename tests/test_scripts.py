"""Smoke runs of the scripts in scripts/ at small sizes, so an API
change that breaks one fails here instead of at its next manual run."""

import importlib
import importlib.util
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
