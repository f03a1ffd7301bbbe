#!/usr/bin/env python3
"""Check that two mdlsat trees give the same results in both readings, then time them.

    compare.py OLD_ROOT NEW_ROOT [FILE ...] [--pairs P] [--random] [--large] [--verdicts]

Each ROOT is a checkout whose ``src/mdlsat`` is imported under a package
name of its own, so both trees run in this one process.  Giving one tree
twice lists its results: ``compare.py . . --random --large --pairs 1``.

The integer front end goes first, on the constraint FILEs, or without them
on the six seed-1 files of the benchmark's ``relaxation`` workload, which
``bench/workloads.py`` of this script's own checkout writes.  The two
trees' ``parse_system`` systems, ``relax_to_idl`` constraints with their
origins and ``solve_idl`` outcomes must be equal; so a table both readings
share, such as ``idl.ORIENTED``, is reported where the relaxation differs.

The modular search goes second, on rungs of 3-colouring graphs, each
encoded by each tree's own ``encode_3col`` at N = 2^32 in one variant: K4
in both variants, the wheel W5 with its hub last, the cycle C5 and the
Petersen graph in both variants.  ``--random`` adds random G(n, m) graphs
with n <= 60, which take tenths of a second each, and ``--large`` those
with n = 100-200, which take seconds; each has m = round(n*d/2) edges,
drawn as ``rng.sample(range(n), 2)`` from a fresh ``random.Random(0)``
until m are distinct.  Each tree's SAT model must satisfy its system by
that tree's ``satisfies``, and the verdict, the decisions, the conflicts,
the static lemmas derived before the search, the engine's adds and the
negative cycles they returned, and the model must be equal, and so must
the engine's races (``repairs``) and the edges its searches read
(``scanned``) where both trees count them; a tree that does not prints
``-`` for them.  With ``--verdicts`` only the verdicts must be equal, so a
change that moves the search can still be timed, and a count that differs
is printed as OLD/NEW.

At the first difference the script names the file or rung, the part and
its first differing item in both trees, and exits 1.  Otherwise it makes P
pairs of runs per file and rung, the trees taking turns to go first, and
prints the median CPU milliseconds of each front-end stage and of each
``mdl.solve`` call, the distance between the quartiles of the old tree's
run totals (``old_iqr``), the median new/old ratio and the pairs the new
tree won; the front-end table's last row sums the medians over the files.
Timing both trees in one process takes out the drift between separate
runs, which on a shared host can reach 2x and hides a 10% change.
"""

import argparse
import importlib
import importlib.util
import itertools
import random
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
N = 2**32
STAGES = ("parse", "relax", "solve")
COUNTS = ("decisions", "conflicts", "lemmas", "adds", "cycles", "repairs", "scanned")
TAIL = f"{'old_iqr':>8} {'ratio':>6} {'won':>7}"


def random_graph(n: int, degree: float):
    """G(n, m) with m = round(n*degree/2) as (n, edges), drawn from ``random.Random(0)``."""
    rng = random.Random(0)
    m = round(n * degree / 2)
    edges = set()
    while len(edges) < m:
        v, w = rng.sample(range(n), 2)
        edges.add((min(v, w), max(v, w)))
    return n, edges


def random_rungs(*specs):
    return [(f"n={n} d{degree}", random_graph(n, degree), variant) for n, degree, variant in specs]


C5 = [(v, (v + 1) % 5) for v in range(5)]
K4 = (4, list(itertools.combinations(range(4), 2)))
W5 = (6, C5 + [(v, 5) for v in range(5)])  # the hub last
PETERSEN = (10, C5 + [(v, v + 5) for v in range(5)] + [(5 + v, 5 + (v + 2) % 5) for v in range(5)])

LADDER = [
    ("K4", K4, "nonstrict"),
    ("K4", K4, "strict"),
    ("W5", W5, "nonstrict"),
    ("C5", (5, C5), "nonstrict"),
    ("Petersen", PETERSEN, "nonstrict"),
    ("Petersen", PETERSEN, "strict"),
]
RANDOM = random_rungs(
    (40, 4.6, "nonstrict"), (40, 4.6, "strict"), (60, 4.0, "nonstrict"), (60, 4.0, "strict"), (60, 4.6, "strict")
)
LARGE = random_rungs(
    (100, 4.0, "nonstrict"), (100, 4.0, "strict"), (150, 4.0, "nonstrict"), (150, 4.6, "nonstrict"),
    (200, 4.0, "strict"), (200, 4.6, "nonstrict"), (200, 4.6, "strict"),
)


def _import(name: str, path: Path, **spec_args):
    """Import the file ``path`` as the module ``name``."""
    spec = importlib.util.spec_from_file_location(name, path, **spec_args)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # a dataclass looks its module up here
    spec.loader.exec_module(module)
    return module


def load(root: Path, name: str) -> SimpleNamespace:
    """Import ``root/src/mdlsat`` as the package ``name``."""
    init = root / "src" / "mdlsat" / "__init__.py"
    _import(name, init, submodule_search_locations=[str(init.parent)])
    return SimpleNamespace(**{m: importlib.import_module(f"{name}.{m}") for m in ("core", "idl", "mdl", "reductions")})


def relaxation_files() -> list:
    """(name, text) of the benchmark's seed-1 ``relaxation`` files."""
    workloads = _import("bench_workloads", ROOT / "bench" / "workloads.py")
    return [(instance.name, instance.text) for instance in workloads.WORKLOADS["relaxation"](1)]


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
    of each stage, and the ``TAIL`` cells: the quartile distance of the old
    side's stage sums, the median new/old ratio of the sums and the pairs
    the new side won."""
    cpu = ([], [])
    for pair in range(pairs):
        for side in (pair % 2, 1 - pair % 2):
            cpu[side].append(run(side))
    medians = [[statistics.median(stage) for stage in zip(*runs)] for runs in cpu]
    sums = [[sum(stages) for stages in runs] for runs in cpu]
    q1, _, q3 = statistics.quantiles(sums[0], n=4) if pairs > 1 else (0, 0, 0)
    ratio = statistics.median(b / max(a, 1e-9) for a, b in zip(*sums))
    won = sum(b < a for a, b in zip(*sums))
    return medians, f"{1e3 * (q3 - q1):>8.2f} {ratio:>6.3f} {f'{won}/{pairs}':>7}"


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


def front_parts(system, relaxation, outcome):
    """The front end's results as tuples of plain values, so that the two trees' classes compare."""
    return {
        "system": (system.modulus.n, *system.symbols.names,
                   *((c.lhs, c.rel.value, c.rhs) for c in system.constraints)),
        "relaxation": (relaxation.zero_var, *_edges(relaxation.constraints)),
        "outcome": (outcome.sat, *_model(outcome.model), *_edges(outcome.cycle)),
    }


def check_front(trees, pairs: int, files=()) -> bool:
    """Print the front-end table; False at the first file where the trees differ."""
    columns = " ".join(f"{f'{side}_{stage}':>10}" for stage in STAGES for side in ("old", "new"))
    print(f"{'file':<14} {'verdict':<7} {columns} {TAIL}")
    totals = [[0.0] * len(STAGES) for _ in trees]
    for name, text in [(path.stem, path.read_text()) for path in files] or relaxation_files():
        old, new = [front_parts(*front(t, text)[0]) for t in trees]
        if differ(name, old, new):
            return False
        medians, tail = paired(pairs, lambda side: front(trees[side], text)[1])
        for total, median in zip(totals, medians):
            total[:] = [a + b for a, b in zip(total, median)]
        verdict = "SAT" if old["outcome"][0] else "UNSAT"
        cells = " ".join(f"{1e3 * medians[side][i]:>10.2f}" for i in range(len(STAGES)) for side in (0, 1))
        print(f"{name:<14} {verdict:<7} {cells} {tail}")
    cells = " ".join(f"{1e3 * totals[side][i]:>10.2f}" for i in range(len(STAGES)) for side in (0, 1))
    print(f"{'all':<14} {'':<7} {cells} {'':>8} {sum(totals[1]) / max(sum(totals[0]), 1e-9):>6.3f}")
    return True


def check_search(trees, pairs: int, rungs, verdicts: bool = False) -> bool:
    """Print the search table; False at the first rung where a SAT model
    fails its tree's ``satisfies`` or the trees differ, with ``verdicts``
    only where their verdicts differ."""
    columns = " ".join(f"{count:>9}" for count in COUNTS)
    print(f"{'graph':<12} {'variant':<10} {'verdict':<7} {columns} {'old_ms':>8} {'new_ms':>8} {TAIL}")
    for name, (n, edges), variant in rungs:
        rung = f"{name} {variant}"
        systems = [
            t.reductions.encode_3col(t.reductions.Graph.from_edges(n, edges), t.core.Modulus(N),
                                     t.reductions.Variant(variant))[0]
            for t in trees
        ]
        outcomes = [t.mdl.solve(s) for t, s in zip(trees, systems)]
        for side, t, system, o in zip(("old", "new"), trees, systems, outcomes):
            if o.sat and not t.core.satisfies(system, o.model):
                print(f"{rung}: the {side} tree's model does not satisfy its system", file=sys.stderr)
                return False
        counts = [(s.nodes, s.conflicts, s.lemmas, s.adds, s.cycles, getattr(s, "repairs", "-"), getattr(s, "scanned", "-"))
                  for s in (o.stats for o in outcomes)]
        parts = [
            {"verdict": (o.sat,)} if verdicts else
            {"verdict, decisions, conflicts, lemmas, adds and cycles": (o.sat, *c[:5]), "model": _model(o.model)}
            for o, c in zip(outcomes, counts)
        ]
        if not verdicts and "-" not in counts[0] + counts[1]:  # an older tree may not count its engine's work
            for part, c in zip(parts, counts):
                part["repairs and scanned"] = c[5:]
        if differ(rung, *parts):
            return False
        medians, tail = paired(pairs, lambda side: search(trees[side], systems[side]))
        cells = " ".join(f"{a if a == b else f'{a}/{b}':>9}" for a, b in zip(*counts))
        print(f"{name:<12} {variant:<10} {'SAT' if outcomes[0].sat else 'UNSAT':<7} {cells} "
              f"{1e3 * medians[0][0]:>8.2f} {1e3 * medians[1][0]:>8.2f} {tail}")
    return True


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("old_root", type=Path, help="checkout whose src/mdlsat is the baseline")
    parser.add_argument("new_root", type=Path, help="checkout whose src/mdlsat is timed against it")
    parser.add_argument("files", type=Path, nargs="*",
                        help="constraint files for the front-end table (default: the benchmark's relaxation files)")
    parser.add_argument("--pairs", type=int, default=20, help="timed pairs of runs per file and rung (default 20)")
    parser.add_argument("--random", action="store_true", help="add the random G(n, m) rungs with n <= 60")
    parser.add_argument("--large", action="store_true", help="add the random G(n, m) rungs with n = 100-200")
    parser.add_argument("--verdicts", action="store_true",
                        help="on the rungs, check the verdicts and models but not the counts")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    trees = [load(args.old_root, "mdlsat_old"), load(args.new_root, "mdlsat_new")]
    if not check_front(trees, args.pairs, args.files):
        return 1
    print()
    rungs = LADDER + (RANDOM if args.random else []) + (LARGE if args.large else [])
    return 0 if check_search(trees, args.pairs, rungs, args.verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
