#!/usr/bin/env python3
"""Sweep seeded random systems, comparing the CDCL solver against enumeration.

Prints agreement counts, the total decisions and total conflicts over the
sweep (so the decisions per conflict), and the most decisions one search
took.  Any disagreement would be a solver bug; none is expected.  Every SAT
model, the search's and the enumeration's, must also lie in the bounded
candidate domain of the paper's small-model bound.  Each disagreement and
each model outside the domain is named by its seed and counted, and either
makes the sweep exit 1.
"""

import argparse
import random
import time

from mdlsat.cli import gen_random
from mdlsat.core import parse_system
from mdlsat.mdl import brute_force_sat, small_model_bound, solve


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=int, default=500)
    parser.add_argument("--max-vars", type=int, default=3)
    parser.add_argument("--max-mod", type=int, default=12)
    parser.add_argument("--max-offset", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0, help="base seed for the sweep")
    args = parser.parse_args()

    sat = unsat = disagreements = outside = 0
    worst_nodes = total_nodes = total_conflicts = 0
    started = time.monotonic()
    for i in range(args.instances):
        seed = args.seed + i
        rng = random.Random(seed)
        p = rng.randint(1, args.max_vars)
        n = rng.randint(2, args.max_mod)
        m = rng.randint(0, args.max_offset)
        cons = rng.randint(1, 6)
        system = parse_system(gen_random(p, cons, m, n, seed))
        searched = solve(system)
        enumerated = brute_force_sat(system)
        worst_nodes = max(worst_nodes, searched.stats.nodes)
        total_nodes += searched.stats.nodes
        total_conflicts += searched.stats.conflicts
        if searched.sat != enumerated.sat:
            disagreements += 1
            print(f"DISAGREEMENT at seed {seed}")
        bound = small_model_bound(system)
        for outcome in (searched, enumerated):
            if outcome.sat and not all(v in bound for v in outcome.model.values()):
                outside += 1
                print(f"MODEL OUTSIDE THE DOMAIN at seed {seed}")
        if searched.sat:
            sat += 1
        else:
            unsat += 1
    elapsed = time.monotonic() - started
    print(f"{args.instances} instances in {elapsed:.1f}s: {sat} SAT, {unsat} UNSAT, "
          f"{disagreements} disagreements, {total_nodes} decisions and {total_conflicts} conflicts "
          f"in all, at most {worst_nodes} decisions, {outside} models outside the domain")
    return 1 if disagreements or outside else 0


if __name__ == "__main__":
    raise SystemExit(main())
