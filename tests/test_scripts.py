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


def _compare_front(old_root, new_root):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "compare_front.py"), str(old_root), str(new_root), "--pairs", "2"],
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_compare_front_passes_the_repo_against_itself():
    done = _compare_front(ROOT, ROOT)
    assert done.returncode == 0, done.stderr
    rows = done.stdout.splitlines()[1:]
    assert [row.split()[0] for row in rows] == [
        "v100-c400", "v100-c500", "v200-c800", "v200-c1000", "v300-c1200", "v300-c1500", "all"
    ]
    assert all(row.endswith("/2") for row in rows[:-1])  # pairs won out of 2


def test_compare_front_stops_where_the_relaxations_differ(tmp_path):
    # a tree that reads x < y as x - y <= 0 relaxes the first file differently
    shutil.copytree(ROOT / "src", tmp_path / "src")
    idl = tmp_path / "src" / "mdlsat" / "idl.py"
    text = idl.read_text()
    assert "Relation.LT: ((False, 1),)," in text
    idl.write_text(text.replace("Relation.LT: ((False, 1),),", "Relation.LT: ((False, 0),),"))
    done = _compare_front(ROOT, tmp_path)
    assert done.returncode == 1
    assert "v100-c400: the trees differ in the relaxation" in done.stderr
