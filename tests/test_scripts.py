"""Tests of the scripts: each demo runs against the library in src/ and exits
0, and compare.py stops at the first difference between two trees."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv, row",
    [
        (["gap_demo.py"], None),
        (["coloring_pipeline.py", "k4"], None),
        (["oracle_sweep.py", "--instances", "40"], None),
        # K4 nonstrict: verdict, decisions, conflicts, lemmas, engine adds and cycles
        (["search_counts.py"], "K4 nonstrict UNSAT 8 9 72 238 4"),
    ],
    ids=["gap_demo", "coloring_pipeline", "oracle_sweep", "search_counts"],
)
def test_script_runs(argv, row):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    if row is not None:  # the printed row, without its CPU time
        assert row.split() in [line.split()[:-1] for line in done.stdout.splitlines()], done.stdout


def _compare(new_root, *files):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "compare.py"), str(ROOT), str(new_root), *map(str, files),
         "--pairs", "2"],
        capture_output=True,
        text=True,
        timeout=120,
    )


def _mutant(tmp_path, module, old, new):
    shutil.copytree(ROOT / "src", tmp_path / "src")
    path = tmp_path / "src" / "mdlsat" / module
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new))
    return tmp_path


@pytest.fixture(scope="module")
def self_run():
    """compare.py's two tables for the repo against itself, run once for both tests."""
    done = _compare(ROOT)
    assert done.returncode == 0, done.stderr
    return [table.splitlines()[1:] for table in done.stdout.split("\n\n")]


def test_compare_front_passes_the_repo_against_itself(self_run):
    front = self_run[0]
    assert [row.split()[0] for row in front] == [
        "v100-c400", "v100-c500", "v200-c800", "v200-c1000", "v300-c1200", "v300-c1500", "all"
    ]
    assert all(row.endswith("/2") for row in front[:-1])  # pairs won out of 2


def test_compare_solve_passes_the_repo_against_itself(self_run):
    search = self_run[1]
    assert [row.split()[:3] for row in search] == [
        ["K4", "nonstrict", "UNSAT"],
        ["K4", "strict", "UNSAT"],
        ["W5", "nonstrict", "UNSAT"],
        ["C5", "nonstrict", "SAT"],
        ["Petersen", "nonstrict", "SAT"],
        ["Petersen", "strict", "SAT"],
    ]
    assert all(row.endswith("/2") for row in search)  # pairs won out of 2


def test_compare_front_reads_the_files_it_is_given(tmp_path):
    (tmp_path / "sat.mdl").write_text("mod 16\nx + 1 <= y\n")
    (tmp_path / "unsat.mdl").write_text("mod 16\nx >= 0\nx + 1 <= 0\n")
    done = _compare(ROOT, tmp_path / "sat.mdl", tmp_path / "unsat.mdl")
    assert done.returncode == 0, done.stderr
    front = done.stdout.split("\n\n")[0].splitlines()[1:]
    assert [row.split()[:2] for row in front[:-1]] == [["sat", "SAT"], ["unsat", "UNSAT"]]
    assert front[-1].split()[0] == "all"


def test_compare_stops_where_the_searches_differ(tmp_path):
    # a tree that tries "wrap" first makes other decisions on the first rung
    done = _compare(_mutant(tmp_path, "mdl.py", "assign(2 * next_free, ", "assign(2 * next_free + 1, "))
    assert done.returncode == 1
    assert "K4 nonstrict: the trees differ" in done.stderr


def test_compare_stops_where_the_lemmas_differ(tmp_path):
    # a lemma pass that keeps "not G, or not a >= t" when that bound is G's
    # own literal adds clauses that are always true: the search makes the
    # same decisions and conflicts, and only the lemma count (item 3) differs
    done = _compare(_mutant(tmp_path, "mdl.py", "if j < len(ta) and ca[j] not in guard:", "if j < len(ta):"))
    assert done.returncode == 1
    assert "K4 nonstrict: the trees differ in the verdict, decisions, conflicts and lemmas at item 3" in done.stderr


def test_compare_stops_where_the_certificates_differ(tmp_path):
    # a tree that rotates each negative cycle to its largest vertex returns
    # the same verdict with the same edges, in another order
    old = "min(range(len(cycle)), key=lambda i: cycle[i].x)"
    done = _compare(_mutant(tmp_path, "idl.py", old, old.replace("min", "max")))
    assert done.returncode == 1
    assert "v100-c400: the trees differ in the outcome" in done.stderr


def test_compare_stops_where_the_relaxations_differ(tmp_path):
    # a tree that reads x < y as x - y <= 0 relaxes the first file differently;
    # the report names the first differing edge, not the whole edge list
    done = _compare(_mutant(tmp_path, "idl.py", "Relation.LT: ((False, 1),),", "Relation.LT: ((False, 0),),"))
    assert done.returncode == 1
    assert "v100-c400: the trees differ in the relaxation" in done.stderr
    assert len(done.stderr) < 500, done.stderr
