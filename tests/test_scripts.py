"""Smoke test for the demo scripts: each runs against the library in src/
and exits 0."""

import os
import shutil
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


def _compare_solve(old_root, new_root):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "compare_solve.py"), str(old_root), str(new_root), "--pairs", "2"],
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_compare_solve_passes_the_repo_against_itself():
    done = _compare_solve(ROOT, ROOT)
    assert done.returncode == 0, done.stderr
    rows = done.stdout.splitlines()[1:]
    assert [row.split()[:3] for row in rows] == [
        ["K4", "nonstrict", "UNSAT"],
        ["K4", "strict", "UNSAT"],
        ["W5", "nonstrict", "UNSAT"],
        ["C5", "nonstrict", "SAT"],
        ["Petersen", "nonstrict", "SAT"],
        ["Petersen", "strict", "SAT"],
    ]
    assert all(row.endswith("/2") for row in rows)  # pairs won out of 2


def test_compare_solve_stops_where_the_searches_differ(tmp_path):
    # a tree that tries "wrap" first makes other decisions on the first rung
    shutil.copytree(ROOT / "src", tmp_path / "src")
    mdl = tmp_path / "src" / "mdlsat" / "mdl.py"
    text = mdl.read_text()
    assert "assign(2 * next_free, " in text
    mdl.write_text(text.replace("assign(2 * next_free, ", "assign(2 * next_free + 1, "))
    done = _compare_solve(ROOT, tmp_path)
    assert done.returncode == 1
    assert "K4 nonstrict: the trees differ" in done.stderr
