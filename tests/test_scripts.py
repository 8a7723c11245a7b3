"""Smoke runs of the scripts in scripts/ at small sizes, so an API
change that breaks one fails here instead of at its next manual run.
run_benchmarks.py has no size flags and takes minutes; it is left out."""

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
