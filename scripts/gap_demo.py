#!/usr/bin/env python3
"""Show where the integer reading of wraparound constraints goes wrong.

Runs three small systems through both semantics and prints the verdicts
side by side: one is satisfiable only with wraparound, one only over the
integers, and one flips from an integer refutation to a modular model.
"""

from mdlsat.cli import gen_chain, gen_idl_paper, gen_intro1
from mdlsat.core import parse_system, render_constraint
from mdlsat.idl import check_idl_cycle, relax_to_idl, solve_idl
from mdlsat.mdl import solve


def describe(title, text):
    system = parse_system(text)
    modular = solve(system)
    relaxation = relax_to_idl(system)
    integer = solve_idl(relaxation.constraints)
    print(f"== {title} (mod {system.modulus.n}) ==")
    for c in system.constraints:
        print(f"    {render_constraint(c, system.symbols)}")
    print(f"  modular : {'SAT' if modular.sat else 'UNSAT'}", end="")
    if modular.sat:
        named = {system.symbols.name_of(v): value for v, value in modular.model.items()}
        print(f"  {named}")
    else:
        print(f"  ({modular.stats.nodes} decisions)")
    print(f"  integer : {'SAT' if integer.sat else 'UNSAT'}", end="")
    if integer.sat:
        print()
    else:
        assert check_idl_cycle(integer.cycle)
        print(f"  cycle weight {sum(c.k for c in integer.cycle)}")
    print()


def main():
    describe("satisfiable only with wraparound", gen_intro1(16))
    describe("satisfiable only over the integers", gen_chain(5))
    describe("negative cycle that wraparound dissolves", gen_idl_paper(10))


if __name__ == "__main__":
    main()
