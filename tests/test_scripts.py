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


def test_perfbench_layers_resolve():
    """Every function the traced benchmark run wraps still exists, so a
    deletion that would crash ``perfbench/run.py --trace 1`` fails here."""
    sys.path.insert(0, str(ROOT / "perfbench"))  # layers imports tracer
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_layers", ROOT / "perfbench" / "layers.py")
        layers = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(layers)
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    assert layers.LAYERS
    for layer in layers.LAYERS:
        module = importlib.import_module(layer.module)
        assert callable(getattr(module, layer.function, None)), layer.name
