#!/usr/bin/env python3
"""Check that two mdlsat trees give the same results in both readings, then time them.

    compare.py OLD_ROOT NEW_ROOT [FILE ...] [--pairs P] [--random]

Each ROOT is a checkout whose ``src/mdlsat`` is imported under a package
name of its own, so both trees run in this one process.

The integer front end goes first, on the constraint FILEs, or without them
on seed-1 ``cli.gen_random`` files at N = 2^32 of the relaxation
benchmark's size: 100, 200 and 300 variables, 4 or 5 constraints per
variable, offsets up to 2^20.  Those files all turn UNSAT within their
first hundred constraints, so ``solve_idl`` sees little of them; any
``bench/run.py`` run writes the benchmark's own relaxation files to
``.bench_work/relaxation-seed<N>/*.mdl``, and those can be given instead:

    compare.py OLD NEW .bench_work/relaxation-seed1/*.mdl

The two trees' texts,
``parse_system`` systems, ``relax_to_idl`` constraints with their origins
and ``solve_idl`` outcomes must be equal; so a table both readings share,
such as ``idl.ORIENTED``, is reported where the relaxation differs.  The
modular search goes second, on the rungs of ``search_counts.py``
(``--random`` adds its random rungs), each encoded by each tree's own
``encode_3col``: verdict, decisions, conflicts, static lemmas and model
must be equal.

At the first difference the script names the file or rung, the part and
its first differing item in both trees, and exits 1.  Otherwise it makes P
pairs of runs per file and rung, the trees taking turns to go first, and
prints the median CPU milliseconds of each front-end stage and of each
``mdl.solve`` call, the median new/old ratio and the pairs the new tree
won; the front-end table's last row sums the medians over the files.
Timing both trees in one process takes out the drift between separate
runs, which on a shared host can reach 2x and hides a 10% change.
"""

import argparse
import importlib
import importlib.util
import itertools
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

N = 2**32
SIZES = [(v, c) for v in (100, 200, 300) for c in (4, 5)]
STAGES = ("parse", "relax", "solve")


def load(root: Path, name: str) -> SimpleNamespace:
    """Import ``root/src/mdlsat`` as the package ``name``."""
    init = root / "src" / "mdlsat" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    modules = ("cli", "core", "idl", "mdl", "reductions")
    return SimpleNamespace(**{m: importlib.import_module(f"{name}.{m}") for m in modules})


def differ(name: str, old: dict, new: dict) -> bool:
    """Report the first part, and its first item, where two trees' results differ."""
    for part in old:
        items = itertools.zip_longest(old[part], new[part], fillvalue="(no item)")
        for index, (a, b) in enumerate(items):
            if a != b:
                print(f"{name}: the trees differ in the {part} at item {index}\n  old: {a}\n  new: {b}",
                      file=sys.stderr)
                return True
    return False


def paired(pairs: int, run):
    """Run ``run(side)``, which returns the CPU seconds of each stage, for P
    pairs, the sides taking turns to go first.  Returns each side's median
    of each stage, the median new/old ratio of the stage sums and the pairs
    the new side won."""
    cpu = ([], [])
    for pair in range(pairs):
        for side in (pair % 2, 1 - pair % 2):
            cpu[side].append(run(side))
    medians = [[statistics.median(stage) for stage in zip(*runs)] for runs in cpu]
    sums = [[sum(stages) for stages in runs] for runs in cpu]
    ratio = statistics.median(b / max(a, 1e-9) for a, b in zip(*sums))
    return medians, ratio, sum(b < a for a, b in zip(*sums))


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


def search(tree, system):
    """The CPU seconds of one ``mdl.solve`` call, as a one-stage run."""
    started = time.process_time()
    tree.mdl.solve(system)
    return (time.process_time() - started,)


def _edges(constraints):
    return tuple((c.x, c.y, c.k, c.origin) for c in constraints or ())


def _model(model):
    return tuple(sorted(model.items())) if model else ()


def front_parts(text, system, relaxation, outcome):
    """The front end's results as tuples of plain values, so that the two trees' classes compare."""
    return {
        "file": tuple(text.splitlines()),
        "system": (system.modulus.n, *system.symbols.names,
                   *((c.lhs, c.rel.value, c.rhs) for c in system.constraints)),
        "relaxation": (relaxation.zero_var, *_edges(relaxation.constraints)),
        "outcome": (outcome.sat, *_model(outcome.model), *_edges(outcome.cycle)),
    }


def front_inputs(trees, files):
    """(name, text for each tree) of the given files, or else of each tree's generated files."""
    if files:
        return [(path.stem, [path.read_text()] * len(trees)) for path in files]
    return [
        (f"v{num_vars}-c{per_var * num_vars}",
         [t.cli.gen_random(num_vars, per_var * num_vars, 2**20, N, 1) for t in trees])
        for num_vars, per_var in SIZES
    ]


def check_front(trees, pairs: int, files=()) -> bool:
    """Print the front-end table; False at the first file where the trees differ."""
    columns = " ".join(f"{f'{side}_{stage}':>10}" for stage in STAGES for side in ("old", "new"))
    print(f"{'file':<14} {'verdict':<7} {columns} {'ratio':>6} {'won':>7}")
    totals = [[0.0] * len(STAGES) for _ in trees]
    for name, texts in front_inputs(trees, files):
        old, new = [front_parts(text, *front(t, text)[0]) for t, text in zip(trees, texts)]
        if differ(name, old, new):
            return False
        medians, ratio, won = paired(pairs, lambda side: front(trees[side], texts[side])[1])
        for total, median in zip(totals, medians):
            total[:] = [a + b for a, b in zip(total, median)]
        verdict = "SAT" if old["outcome"][0] else "UNSAT"
        cells = " ".join(f"{1e3 * medians[side][i]:>10.2f}" for i in range(len(STAGES)) for side in (0, 1))
        print(f"{name:<14} {verdict:<7} {cells} {ratio:>6.3f} {f'{won}/{pairs}':>7}")
    cells = " ".join(f"{1e3 * totals[side][i]:>10.2f}" for i in range(len(STAGES)) for side in (0, 1))
    print(f"{'all':<14} {'':<7} {cells} {sum(totals[1]) / max(sum(totals[0]), 1e-9):>6.3f}")
    return True


def check_search(trees, pairs: int, rungs) -> bool:
    """Print the search table; False at the first rung where the trees differ."""
    print(f"{'graph':<12} {'variant':<10} {'verdict':<7} {'decisions':>9} {'conflicts':>9} {'lemmas':>6} "
          f"{'old_ms':>8} {'new_ms':>8} {'ratio':>6} {'won':>7}")
    for name, build, variant in rungs:
        graph = build()
        systems = [
            t.reductions.encode_3col(t.reductions.Graph(graph.n, graph.edges), t.core.Modulus(N),
                                     t.reductions.Variant(variant.value))[0]
            for t in trees
        ]
        outcomes = [t.mdl.solve(s) for t, s in zip(trees, systems)]
        old, new = [
            {"verdict, decisions, conflicts and lemmas": (o.sat, o.stats.nodes, o.stats.conflicts, o.stats.lemmas),
             "model": _model(o.model)}
            for o in outcomes
        ]
        if differ(f"{name} {variant.value}", old, new):
            return False
        medians, ratio, won = paired(pairs, lambda side: search(trees[side], systems[side]))
        sat, decisions, conflicts, lemmas = old["verdict, decisions, conflicts and lemmas"]
        print(f"{name:<12} {variant.value:<10} {'SAT' if sat else 'UNSAT':<7} {decisions:>9} {conflicts:>9} {lemmas:>6} "
              f"{1e3 * medians[0][0]:>8.2f} {1e3 * medians[1][0]:>8.2f} {ratio:>6.3f} {f'{won}/{pairs}':>7}")
    return True


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("old_root", type=Path, help="checkout whose src/mdlsat is the baseline")
    parser.add_argument("new_root", type=Path, help="checkout whose src/mdlsat is timed against it")
    parser.add_argument("files", type=Path, nargs="*",
                        help="constraint files for the front-end table (default: generated ones)")
    parser.add_argument("--pairs", type=int, default=20, help="timed pairs of runs per file and rung (default 20)")
    parser.add_argument("--random", action="store_true", help="add the random G(n, m) rungs")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    trees = [load(args.old_root, "mdlsat_old"), load(args.new_root, "mdlsat_new")]
    if not check_front(trees, args.pairs, args.files):
        return 1
    # the rung table builds its graphs with a plain ``import mdlsat``
    sys.path.insert(0, str(args.new_root / "src"))
    from search_counts import LADDER, RANDOM

    print()
    return 0 if check_search(trees, args.pairs, LADDER + (RANDOM if args.random else [])) else 1


if __name__ == "__main__":
    sys.exit(main())
