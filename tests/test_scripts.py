"""Smoke test for the demo scripts: each runs against the library in src/
and exits 0."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv",
    [["gap_demo.py"], ["coloring_pipeline.py", "k4"], ["oracle_sweep.py", "--instances", "40"], ["search_counts.py"]],
    ids=["gap_demo", "coloring_pipeline", "oracle_sweep", "search_counts"],
)
def test_script_runs(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
