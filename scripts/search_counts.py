#!/usr/bin/env python3
"""Print the search counts of ``mdl.solve`` on a ladder of 3-coloring encodings.

Each rung is a graph encoded by ``encode_3col`` at N = 2^32 in one variant.
For each rung the script prints the verdict, the decisions, the conflicts,
the static lemmas derived before the search, the calls ``solve`` made to
``DiffEngine.add`` and the negative cycles they returned, and the CPU
seconds of the ``solve`` call.  Every count is read off the ``SearchStats``
of that one call.  The counts are deterministic, so a change to the search
shows up as a change in them; the CPU time is as noisy as the host.

The default rungs are the ones the tests pin: K4 in both variants, the
wheel W5 with its hub last, the cycle C5 and the Petersen graph in both
variants.  ``--random`` adds random G(n, m) graphs with n <= 60 and
m = round(n*d/2), each drawn as ``rng.sample(range(n), 2)`` from a fresh
``random.Random(0)`` until m distinct edges exist; they take tenths of a
second each.  ``--large`` adds such graphs with n = 100-200, which take
seconds each.
"""

import argparse
import random
import sys
import time

from coloring_pipeline import NAMED
from mdlsat.core import Modulus, satisfies
from mdlsat.mdl import solve
from mdlsat.reductions import Graph, Variant, encode_3col

N = 2**32


def wheel5() -> Graph:
    """The rim cycle on 0..4 and the hub, vertex 5, last."""
    return Graph.from_edges(6, [(v, (v + 1) % 5) for v in range(5)] + [(v, 5) for v in range(5)])


def random_graph(n: int, degree: float) -> Graph:
    """G(n, m) with m = round(n*degree/2), drawn from ``random.Random(0)``."""
    rng = random.Random(0)
    m = round(n * degree / 2)
    edges = set()
    while len(edges) < m:
        v, w = rng.sample(range(n), 2)
        edges.add((min(v, w), max(v, w)))
    return Graph(n, frozenset(edges))


LADDER = [
    ("K4", NAMED["k4"], Variant.NONSTRICT),
    ("K4", NAMED["k4"], Variant.STRICT),
    ("W5", wheel5, Variant.NONSTRICT),
    ("C5", NAMED["c5"], Variant.NONSTRICT),
    ("Petersen", NAMED["petersen"], Variant.NONSTRICT),
    ("Petersen", NAMED["petersen"], Variant.STRICT),
]

RANDOM = [
    ("n=40 d4.6", lambda: random_graph(40, 4.6), Variant.NONSTRICT),
    ("n=40 d4.6", lambda: random_graph(40, 4.6), Variant.STRICT),
    ("n=60 d4.0", lambda: random_graph(60, 4.0), Variant.NONSTRICT),
    ("n=60 d4.0", lambda: random_graph(60, 4.0), Variant.STRICT),
    ("n=60 d4.6", lambda: random_graph(60, 4.6), Variant.STRICT),
]

LARGE = [
    ("n=100 d4.0", lambda: random_graph(100, 4.0), Variant.NONSTRICT),
    ("n=100 d4.0", lambda: random_graph(100, 4.0), Variant.STRICT),
    ("n=150 d4.0", lambda: random_graph(150, 4.0), Variant.NONSTRICT),
    ("n=150 d4.6", lambda: random_graph(150, 4.6), Variant.NONSTRICT),
    ("n=200 d4.0", lambda: random_graph(200, 4.0), Variant.STRICT),
    ("n=200 d4.6", lambda: random_graph(200, 4.6), Variant.NONSTRICT),
    ("n=200 d4.6", lambda: random_graph(200, 4.6), Variant.STRICT),
]


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--random", action="store_true", help="add the random G(n, m) rungs with n <= 60")
    parser.add_argument("--large", action="store_true", help="add the random G(n, m) rungs with n = 100-200")
    args = parser.parse_args()

    print(f"{'graph':<12} {'variant':<10} {'verdict':<7} {'decisions':>9} {'conflicts':>9} {'lemmas':>7} "
          f"{'adds':>8} {'cycles':>6} {'cpu_s':>7}")
    for name, build, variant in LADDER + (RANDOM if args.random else []) + (LARGE if args.large else []):
        system, _ = encode_3col(build(), Modulus(N), variant)
        started = time.process_time()
        outcome = solve(system)
        cpu = time.process_time() - started
        if outcome.sat and not satisfies(system, outcome.model):
            print(f"{name} {variant.value}: the model fails re-evaluation", file=sys.stderr)
            return 2
        stats = outcome.stats
        verdict = "SAT" if outcome.sat else "UNSAT"
        print(f"{name:<12} {variant.value:<10} {verdict:<7} {stats.nodes:>9} {stats.conflicts:>9} "
              f"{stats.lemmas:>7} {stats.adds:>8} {stats.cycles:>6} {cpu:>7.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
