#!/usr/bin/env python3
"""Round-trip a graph through the 3-coloring reduction.

Encodes the graph, decides the encoded system, decodes a coloring from the
model (or reports non-colorability), and cross-checks the decoded coloring
plus the witness construction for a coloring found by direct search.
"""

import argparse
import itertools
import sys
import time

from mdlsat.core import Modulus, satisfies
from mdlsat.mdl import solve
from mdlsat.reductions import (
    Graph,
    Variant,
    coloring_to_witness,
    decode_coloring,
    encode_3col,
    verify_coloring,
)

NAMED = {
    "k3": lambda: Graph.complete(3),
    "k4": lambda: Graph.complete(4),
    "c5": lambda: Graph.cycle(5),
    "petersen": lambda: Graph.from_edges(
        10,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
    ),
}


def direct_coloring(graph):
    for values in itertools.product(range(3), repeat=graph.n):
        coloring = dict(enumerate(values))
        if verify_coloring(graph, coloring):
            return coloring
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("graph", choices=sorted(NAMED), help="which built-in graph to run")
    parser.add_argument("--variant", choices=["nonstrict", "strict"], default="nonstrict")
    parser.add_argument("--mod", type=int, default=16)
    args = parser.parse_args()

    graph = NAMED[args.graph]()
    variant = Variant(args.variant)
    system, meta = encode_3col(graph, Modulus(args.mod), variant)
    print(f"{args.graph}: {graph.n} vertices, {len(graph.edges)} edges")
    print(f"encoded: {system.num_vars} variables, {len(system.constraints)} constraints, mod {args.mod}")

    started = time.monotonic()
    outcome = solve(system)
    print(f"solved in {time.monotonic() - started:.2f}s, {outcome.stats.nodes} decisions: "
          f"{'SAT' if outcome.sat else 'UNSAT'}")

    reference = direct_coloring(graph)
    if outcome.sat != (reference is not None):
        print("MISMATCH between reduction verdict and direct coloring search", file=sys.stderr)
        return 2

    if outcome.sat:
        coloring = decode_coloring(meta, outcome.model)
        assert verify_coloring(graph, coloring)
        print("decoded coloring:", " ".join(f"{v}:{coloring[v]}" for v in sorted(coloring)))
        witness = coloring_to_witness(graph, reference, Modulus(args.mod), variant)
        assert satisfies(system, witness)
        print("witness built from a directly-found coloring satisfies the encoding")
    else:
        print("graph is not 3-colorable; direct search agrees")
    return 0


if __name__ == "__main__":
    sys.exit(main())
