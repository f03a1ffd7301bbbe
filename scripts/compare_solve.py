#!/usr/bin/env python3
"""Check that two mdlsat trees search alike, then time their ``mdl.solve``.

    compare_solve.py OLD_ROOT NEW_ROOT [--pairs P] [--random]

Each ROOT is a checkout whose ``src/mdlsat`` is imported under a package
name of its own, so both trees run in this one process.  The instances are
the rungs of ``search_counts.py`` (``--random`` adds its random rungs).  Each
tree encodes each graph with its own ``encode_3col``, and the two must give
the same verdict, decisions, conflicts and model; at the first instance
where they differ the script prints both and exits 1.

It then makes P pairs of ``solve`` calls per instance, the two trees taking
turns to go first, and prints the median CPU time of each, the median
new/old ratio and the pairs the new tree won.  Timing both in one process
takes out the drift between separate runs, which on a shared host can reach
2x and hides a 10% change.
"""

import argparse
import importlib
import importlib.util
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

N = 2**32


def load(root: Path, name: str) -> SimpleNamespace:
    """Import ``root/src/mdlsat`` as the package ``name``."""
    init = root / "src" / "mdlsat" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    modules = ("cli", "core", "idl", "mdl", "reductions")
    return SimpleNamespace(**{m: importlib.import_module(f"{name}.{m}") for m in modules})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("old_root", type=Path, help="checkout whose src/mdlsat is the baseline")
    parser.add_argument("new_root", type=Path, help="checkout whose src/mdlsat is timed against it")
    parser.add_argument("--pairs", type=int, default=20, help="timed pairs of calls per instance (default 20)")
    parser.add_argument("--random", action="store_true", help="add the random G(n, m) rungs")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    trees = [load(args.old_root, "mdlsat_old"), load(args.new_root, "mdlsat_new")]
    # the rung table builds its graphs with a plain ``import mdlsat``
    sys.path.insert(0, str(args.new_root / "src"))
    from search_counts import LADDER, RANDOM

    print(f"{'graph':<12} {'variant':<10} {'verdict':<7} {'decisions':>9} {'conflicts':>9} "
          f"{'old_ms':>8} {'new_ms':>8} {'ratio':>6} {'won':>7}")
    for name, build, variant in LADDER + (RANDOM if args.random else []):
        graph = build()
        systems = [
            t.reductions.encode_3col(t.reductions.Graph(graph.n, graph.edges), t.core.Modulus(N),
                                     t.reductions.Variant(variant.value))[0]
            for t in trees
        ]
        outcomes = [t.mdl.solve(s) for t, s in zip(trees, systems)]
        old, new = [(o.sat, o.stats.nodes, o.stats.conflicts, o.model) for o in outcomes]
        if old != new:
            print(f"{name} {variant.value}: the trees differ\n  old: {old[:3]} {old[3]}\n  new: {new[:3]} {new[3]}",
                  file=sys.stderr)
            return 1
        cpu = ([], [])
        for pair in range(args.pairs):
            for side in (pair % 2, 1 - pair % 2):
                started = time.process_time()
                trees[side].mdl.solve(systems[side])
                cpu[side].append(time.process_time() - started)
        ratio = statistics.median(b / max(a, 1e-9) for a, b in zip(*cpu))
        won = sum(b < a for a, b in zip(*cpu))
        verdict = "SAT" if old[0] else "UNSAT"
        print(f"{name:<12} {variant.value:<10} {verdict:<7} {old[1]:>9} {old[2]:>9} "
              f"{1e3 * statistics.median(cpu[0]):>8.2f} {1e3 * statistics.median(cpu[1]):>8.2f} "
              f"{ratio:>6.3f} {f'{won}/{args.pairs}':>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
