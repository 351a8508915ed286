"""Smoke test: the quick demos run to completion from a fresh interpreter.

Demo 01 trains a model for about 12 s and is left out.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", [
    "02_translation_equivariance.py", "03_predator_prey_simulation.py", "04_on_grid_completion.py",
])
def test_demo_exits_cleanly(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env, cwd=tmp_path,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert not any(tmp_path.iterdir())  # it writes no file
