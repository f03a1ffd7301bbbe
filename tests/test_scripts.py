"""Tests of the scripts: each demo runs against the library in src/ and exits
0, oracle_sweep.py counts the models outside the candidate domain, and
compare.py stops at the first difference between two trees, or with
--verdicts at the first verdict that differs or model that fails."""

import importlib.util
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from conftest import time_limit

ROOT = Path(__file__).resolve().parent.parent


def _script(name, *args, src=ROOT / "src"):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=60,
    )


@pytest.mark.parametrize(
    "argv",
    [["gap_demo.py"], ["coloring_pipeline.py", "k4"], ["oracle_sweep.py", "--instances", "40"]],
    ids=["gap_demo", "coloring_pipeline", "oracle_sweep"],
)
def test_script_runs(argv):
    done = _script(*argv)
    assert done.returncode == 0, done.stderr


def _compare(new_root, *files, old_root=ROOT):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "compare.py"), str(old_root), str(new_root), *map(str, files),
         "--pairs", "2"],
        capture_output=True,
        text=True,
        timeout=120,
    )


def _load_compare():
    spec = importlib.util.spec_from_file_location("compare", ROOT / "scripts" / "compare.py")
    compare = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(compare)
    return compare


def _mutant(tmp_path, module, old, new):
    shutil.copytree(ROOT / "src", tmp_path / "src")
    path = tmp_path / "src" / "mdlsat" / module
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new))
    return tmp_path


def test_oracle_sweep_counts_the_models_outside_the_domain(tmp_path):
    # a tree whose small-model bound is B = 0, so D = {0, N-1}
    old = "return DomainBound(b, system.modulus.n)"
    mutant = _mutant(tmp_path, "mdl.py", old, old.replace("(b,", "(0,"))
    done = _script("oracle_sweep.py", "--instances", "40", src=mutant / "src")
    assert done.returncode == 1, done.stderr
    assert "MODEL OUTSIDE THE DOMAIN at seed" in done.stdout
    assert "models outside the domain" in done.stdout.splitlines()[-1]


@pytest.fixture(scope="module")
def self_run():
    """compare.py's two tables for the repo against itself, run once for both tests."""
    done = _compare(ROOT)
    assert done.returncode == 0, done.stderr
    return [table.splitlines()[1:] for table in done.stdout.split("\n\n")]


def test_compare_front_passes_the_repo_against_itself(self_run):
    front = self_run[0]
    assert [row.split()[0] for row in front] == [
        "sat-v100", "unsat-v100", "sat-v200", "unsat-v200", "sat-v300", "unsat-v300", "all"
    ]
    assert all(row.endswith("/2") for row in front[:-1])  # pairs won out of 2


def test_compare_front_reads_the_benchmarks_relaxation_files(monkeypatch):
    compare = _load_compare()
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import workloads

    expected = [(instance.name, instance.text) for instance in workloads.WORKLOADS["relaxation"](1)]
    assert compare.relaxation_files() == expected


def test_compare_solve_passes_the_repo_against_itself(self_run):
    search = self_run[1]
    # verdict, decisions, conflicts, lemmas, engine adds and cycles, its
    # races and the edges its searches read
    assert [" ".join(row.split()[:10]) for row in search] == [
        "K4 nonstrict UNSAT 8 9 72 238 4 15 281",
        "K4 strict UNSAT 8 9 126 253 4 24 257",
        "W5 nonstrict UNSAT 12 13 120 350 6 20 436",
        "C5 nonstrict SAT 15 5 60 220 5 12 277",
        "Petersen nonstrict SAT 32 10 180 590 10 25 714",
        "Petersen strict SAT 32 10 315 635 10 65 984",
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
    part = "verdict, decisions, conflicts, lemmas, adds and cycles"
    assert f"K4 nonstrict: the trees differ in the {part} at item 3" in done.stderr


def test_compare_stops_where_the_engine_work_differs(tmp_path):
    # a tree that counts each race twice makes the same search
    done = _compare(_mutant(tmp_path, "idl.py", "self.repairs += 1", "self.repairs += 2"))
    assert done.returncode == 1
    assert "K4 nonstrict: the trees differ in the repairs and scanned at item 0" in done.stderr


def test_compare_stops_where_the_certificates_differ(tmp_path):
    # a tree that rotates each negative cycle to its largest vertex returns
    # the same verdict with the same edges, in another order
    old = "min(range(len(cycle)), key=lambda i: cycle[i].x)"
    done = _compare(_mutant(tmp_path, "idl.py", old, old.replace("min", "max")))
    assert done.returncode == 1
    assert "unsat-v100: the trees differ in the outcome" in done.stderr


def test_compare_stops_where_the_relaxations_differ(tmp_path):
    # a tree that reads x < y as x - y <= 0 relaxes the first file differently;
    # the report names the first differing edge, not the whole edge list
    done = _compare(_mutant(tmp_path, "idl.py", "Relation.LT: ((False, 1),),", "Relation.LT: ((False, 0),),"))
    assert done.returncode == 1
    assert done.stderr.startswith("sat-v100: the trees differ in the relaxation"), done.stderr
    assert len(done.stderr) < 500, done.stderr


def _search_rows(done):
    return [row.split() for row in done.stdout.split("\n\n")[1].splitlines()[1:]]


def test_compare_verdicts_times_a_search_that_moved(tmp_path):
    # the tree that tries "wrap" first, which the identity check stops at the
    # first rung, gives every rung the same verdict, so --verdicts times them
    # all and prints each count that moved as OLD/NEW
    done = _compare(_mutant(tmp_path, "mdl.py", "assign(2 * next_free, ", "assign(2 * next_free + 1, "), "--verdicts")
    assert done.returncode == 0, done.stderr
    rows = _search_rows(done)
    assert [row[:3] for row in rows] == [
        ["K4", "nonstrict", "UNSAT"],
        ["K4", "strict", "UNSAT"],
        ["W5", "nonstrict", "UNSAT"],
        ["C5", "nonstrict", "SAT"],
        ["Petersen", "nonstrict", "SAT"],
        ["Petersen", "strict", "SAT"],
    ]
    assert rows[0][3:5] == ["8/10", "9/11"]  # K4 nonstrict's decisions and conflicts moved
    assert all(row[-1].endswith("/2") for row in rows)  # pairs won out of 2


def test_compare_verdicts_stops_where_the_verdicts_differ(tmp_path):
    # a tree that calls every satisfiable rung UNSAT
    done = _compare(_mutant(tmp_path, "mdl.py", "return SolveOutcome(True, model,", "return SolveOutcome(False, None,"),
                    "--verdicts")
    assert done.returncode == 1
    assert "C5 nonstrict: the trees differ in the verdict" in done.stderr


def test_compare_verdicts_stops_where_a_model_fails(tmp_path):
    # a tree that skips its own re-check and returns all zeros, one colour for every vertex
    old = "model = {v: greatest[v] for v in range(p)}\n    if eval_system(system, model) is not None:"
    done = _compare(_mutant(tmp_path, "mdl.py", old, "model = dict.fromkeys(range(p), 0)\n    if False:"), "--verdicts")
    assert done.returncode == 1
    assert "C5 nonstrict: the new tree's model does not satisfy its system" in done.stderr


_SPIN = ("    p = system.num_vars\n    literals, unguarded", "    while True:\n        pass\n    p = system.num_vars\n    literals, unguarded")


def _compare_here(monkeypatch, capsys, new_root, *args, old_root=ROOT, **constants):
    """compare.py's main run in this process with its module constants
    (LIMIT, RELABELS) set to ``constants``; the result reads as ``_compare``'s.
    The two trees' modules are dropped after it, so that the next run
    imports its trees afresh under the same package names."""
    compare = _load_compare()
    for name, value in constants.items():
        monkeypatch.setattr(compare, name, value)
    before = set(sys.modules)
    try:
        with time_limit(120.0):
            code = compare.main([str(old_root), str(new_root), *args, "--pairs", "2"])
    finally:
        for name in set(sys.modules) - before:
            if name.partition(".")[0] in ("mdlsat_old", "mdlsat_new"):
                del sys.modules[name]
    out, err = capsys.readouterr()
    return SimpleNamespace(returncode=code, stdout=out, stderr=err)


def test_compare_both_trees_reaching_the_limit_is_no_difference(tmp_path, monkeypatch, capsys):
    # a tree whose search never ends, against itself: not even K4 is
    # decided within the limit, and no rung is timed
    mutant = _mutant(tmp_path, "mdl.py", *_SPIN)
    done = _compare_here(monkeypatch, capsys, mutant, old_root=mutant, LIMIT=0.05)
    assert done.returncode == 0, done.stderr
    rows = _search_rows(done)
    assert [row[:2] for row in rows][:2] == [["K4", "nonstrict"], ["K4", "strict"]]
    assert all(row[2:] == ["timeout"] * 8 + ["-", "-"] for row in rows)


def test_compare_stops_where_one_tree_reaches_the_limit(tmp_path, monkeypatch, capsys):
    done = _compare_here(monkeypatch, capsys, _mutant(tmp_path, "mdl.py", *_SPIN), LIMIT=0.2)
    assert done.returncode == 1
    part = "verdict, decisions, conflicts, lemmas, adds and cycles"
    assert f"K4 nonstrict: the trees differ in the {part} at item 0" in done.stderr
    assert "old: UNSAT\n  new: timeout" in done.stderr


def test_compare_verdicts_prints_where_one_tree_reaches_the_limit(tmp_path, monkeypatch, capsys):
    # a tree whose search never ends decides no rung; with --verdicts that
    # is printed, not a failure, and no rung is timed
    done = _compare_here(monkeypatch, capsys, _mutant(tmp_path, "mdl.py", *_SPIN), "--verdicts", LIMIT=0.2)
    assert done.returncode == 0, done.stderr
    rows = _search_rows(done)
    assert rows[0] == ["K4", "nonstrict", "UNSAT/timeout", "8/timeout", "9/timeout", "72/timeout", "238/timeout",
                       "4/timeout", "15/timeout", "281/timeout", "-", "-"]
    assert [row[2] for row in rows] == ["UNSAT/timeout"] * 3 + ["SAT/timeout"] * 3


def test_compare_relabel_solves_each_random_rung_again(monkeypatch, capsys):
    done = _compare_here(monkeypatch, capsys, ROOT, "--random", "--relabel", RELABELS=1)
    assert done.returncode == 0, done.stderr
    _, search, relabelled = [table.splitlines()[1:] for table in done.stdout.split("\n\n")]
    rungs = [row.split()[:4] for row in search[6:]]  # graph (two words), variant, verdict
    assert [rung[:2] for rung in rungs] == [
        ["n=40", "d4.6"], ["n=40", "d4.6"], ["n=60", "d4.0"], ["n=60", "d4.0"], ["n=60", "d4.6"]
    ]
    rows = [row.split() for row in relabelled]
    assert [row[:4] for row in rows] == rungs
    # one permutation is its own median and maximum, and one tree gives
    # both sides the same decisions
    assert all(row[4] == row[5] == row[6] == row[7] != "timeout" for row in rows)
