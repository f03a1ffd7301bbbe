#!/usr/bin/env python3
"""Check that two mdlsat trees read and relax alike, then time that front end.

    compare_front.py OLD_ROOT NEW_ROOT [--pairs P]

Each ROOT is a checkout whose ``src/mdlsat`` is imported under a package
name of its own, as in ``compare_solve.py``.  The inputs are seed-1
``cli.gen_random`` files at N = 2^32 of the size of the relaxation
benchmark: 100, 200 and 300 variables with 4 or 5 constraints per variable
and offsets up to 2^20.  Each tree generates each file with its own
``gen_random``; the two texts must be equal, and so must the two trees'
``parse_system`` systems, ``relax_to_idl`` constraints with their origins,
and ``solve_idl`` outcomes.  At the first difference the script prints
both sides and exits 1.

It then makes P pairs of parse -> relax -> ``solve_idl`` runs per file, the
two trees taking turns to go first, and prints the median CPU milliseconds
of each stage for each tree, the median new/old ratio of the three stages
together and the pairs the new tree won.  The last row sums the medians
over the files.
"""

import argparse
import statistics
import sys
import time
from pathlib import Path

from compare_solve import load

N = 2**32
SIZES = [(v, c) for v in (100, 200, 300) for c in (4, 5)]
STAGES = ("parse", "relax", "solve")


def front(tree, text):
    """The three stages on ``text``, each result with its CPU seconds."""
    started = time.process_time()
    system = tree.core.parse_system(text)
    parsed = time.process_time()
    relaxation = tree.idl.relax_to_idl(system)
    relaxed = time.process_time()
    outcome = tree.idl.solve_idl(relaxation.constraints)
    solved = time.process_time()
    return (system, relaxation, outcome), (parsed - started, relaxed - parsed, solved - relaxed)


def _edges(constraints):
    return tuple((c.x, c.y, c.k, c.origin) for c in constraints)


def plain(system, relaxation, outcome):
    """The results as plain values, so that the two trees' classes compare."""
    body = tuple((c.lhs, c.rel.value, c.rhs) for c in system.constraints)
    return {
        "system": (system.modulus.n, system.symbols.names, body),
        "relaxation": (relaxation.zero_var, _edges(relaxation.constraints)),
        "outcome": (outcome.sat, outcome.model, outcome.cycle and _edges(outcome.cycle)),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("old_root", type=Path, help="checkout whose src/mdlsat is the baseline")
    parser.add_argument("new_root", type=Path, help="checkout whose src/mdlsat is timed against it")
    parser.add_argument("--pairs", type=int, default=20, help="timed pairs of runs per file (default 20)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    trees = [load(args.old_root, "mdlsat_old"), load(args.new_root, "mdlsat_new")]

    columns = " ".join(f"{f'{side}_{stage}':>10}" for stage in STAGES for side in ("old", "new"))
    print(f"{'file':<14} {'verdict':<7} {columns} {'ratio':>6} {'won':>7}")
    totals = [[0.0] * len(STAGES) for _ in trees]
    for num_vars, per_var in SIZES:
        name = f"v{num_vars}-c{per_var * num_vars}"
        texts = [t.cli.gen_random(num_vars, per_var * num_vars, 2**20, N, 1) for t in trees]
        if texts[0] != texts[1]:
            print(f"{name}: the trees generate different files", file=sys.stderr)
            return 1
        old, new = [plain(*front(t, texts[0])[0]) for t in trees]
        for part in old:
            if old[part] != new[part]:
                print(f"{name}: the trees differ in the {part}\n  old: {old[part]}\n  new: {new[part]}",
                      file=sys.stderr)
                return 1
        cpu = ([], [])
        for pair in range(args.pairs):
            for side in (pair % 2, 1 - pair % 2):
                cpu[side].append(front(trees[side], texts[side])[1])
        medians = [[statistics.median(run[i] for run in runs) for i in range(len(STAGES))] for runs in cpu]
        for total, median in zip(totals, medians):
            total[:] = [a + b for a, b in zip(total, median)]
        sums = [[sum(run) for run in runs] for runs in cpu]
        ratio = statistics.median(b / max(a, 1e-9) for a, b in zip(*sums))
        won = sum(b < a for a, b in zip(*sums))
        verdict = "SAT" if old["outcome"][0] else "UNSAT"
        cells = " ".join(f"{1e3 * medians[side][i]:>10.2f}" for i in range(len(STAGES)) for side in (0, 1))
        print(f"{name:<14} {verdict:<7} {cells} {ratio:>6.3f} {f'{won}/{args.pairs}':>7}")
    cells = " ".join(f"{1e3 * totals[side][i]:>10.2f}" for i in range(len(STAGES)) for side in (0, 1))
    print(f"{'all':<14} {'':<7} {cells} {sum(totals[1]) / max(sum(totals[0]), 1e-9):>6.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
