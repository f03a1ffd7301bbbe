"""Command-line front end: solve, reduce, decode, gen.

Decision runs exit 10 (SAT) or 20 (UNSAT); other commands exit 0 on
success.  Usage and parse problems exit 1; a failed internal re-check of a
produced answer, or a model file given to ``decode`` that does not satisfy
the encoding, exits 2 with nothing on stdout.  Each command returns its
whole report, and ``main`` writes it to stdout once the command has
finished.  Reports are ``key = value`` lines (model lines are plain
``name = value``), wall-clock timing goes to stderr so stdout stays
byte-stable for fixed inputs and seeds.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
import time

from . import idl, mdl, reductions
from .core import (
    Constraint,
    ConstraintSystem,
    MdlError,
    Modulus,
    Relation,
    SymbolTable,
    Term,
    parse_system,
    read_int,
    render_constraint,
    render_system,
    satisfies,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INTERNAL = 2
EXIT_SAT = 10
EXIT_UNSAT = 20


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# --- instance generators ----------------------------------------------------


def gen_intro1(n: int) -> str:
    """Two constraints with no integer solution but a wraparound one."""
    return f"mod {n}\nx >= 0\nx + 1 <= 0\n"


def gen_chain(n: int) -> str:
    """x0 < x1 < ... < xN: integer-satisfiable, impossible in N residues."""
    return f"mod {n}\n" + "".join(f"x{i} < x{i + 1}\n" for i in range(n))


def gen_idl_paper(n: int) -> str:
    """A four-constraint difference cycle, rendered in wraparound syntax.

    Its integer reading sums to -1 around the cycle and is unsatisfiable;
    over the residues it has models.
    """
    return f"mod {n}\nx1 + 3 <= x2\nx2 <= x3 + 1\nx3 + 2 <= x4\nx4 <= x1 + 3\n"


_RANDOM_SHAPES = (
    ("term", Relation.LE),
    ("term", Relation.LT),
    ("term", Relation.EQ),
    ("const", Relation.LE),
    ("const", Relation.LT),
    ("const", Relation.GE),
    ("const", Relation.GT),
    ("const", Relation.EQ),
)


def gen_random(num_vars: int, num_constraints: int, max_offset: int, n: int, seed: int) -> str:
    """Seeded random system: shapes uniform over the liberalized constraint
    forms, offsets and constants uniform in [-max_offset, max_offset].

    Constant comparisons keep a bare variable on the left.  Variables that
    end up unused simply do not occur in the file.
    """
    rng = random.Random(seed)
    symbols = SymbolTable()
    ids = [symbols.intern(f"x{i}") for i in range(num_vars)]
    constraints = []
    for _ in range(num_constraints):
        kind, rel = rng.choice(_RANDOM_SHAPES)
        if kind == "term":
            lhs = Term(rng.choice(ids), rng.randint(-max_offset, max_offset))
            rhs = Term(rng.choice(ids), rng.randint(-max_offset, max_offset))
            constraints.append(Constraint(lhs, rel, rhs))
        else:
            lhs = Term(rng.choice(ids))
            constraints.append(Constraint(lhs, rel, rng.randint(-max_offset, max_offset)))
    return render_system(ConstraintSystem(Modulus(n), symbols, tuple(constraints)))


# --- report plumbing --------------------------------------------------------


def _model_lines(system: ConstraintSystem, model) -> list:
    """The ``name = value`` lines of a model, sorted by name."""
    return [f"{name} = {_decimal(model[system.symbols.id_of(name)])}" for name in sorted(system.symbols.names)]


def _decimal(value: int) -> str:
    try:
        return str(value)
    except ValueError:  # beyond the interpreter's int-to-string limit, which the parser relies on
        raise MdlError(f"an integer-relaxation figure has more than {sys.get_int_max_str_digits()} digits") from None


# --- subcommands ------------------------------------------------------------


def cmd_solve(args) -> tuple[int, str]:
    with open(args.file, encoding="utf-8") as handle:
        system = parse_system(handle.read())
    started = time.monotonic()
    outcome = mdl.brute_force_sat(system) if args.oracle else mdl.solve(system)
    domain = mdl.small_model_bound(system)
    model = outcome.model
    # A model of either method lies in D: ``solve``'s by construction, and brute force's
    # because it is the lexicographically first, where outside D packing would give an earlier one.
    if outcome.sat and not all(v in domain for v in model.values()):
        raise mdl.SelfCheckError("internal error: model lies outside the bounded domain")
    report = [
        f"instance = {args.file}",
        f"modulus = {system.modulus.n}",
        f"variables = {system.num_vars}",
        f"constraints = {len(system.constraints)}",
        "semantics = modular",
        f"method = {outcome.stats.method}",
        f"verdict = {'SAT' if outcome.sat else 'UNSAT'}",
        f"nodes = {outcome.stats.nodes}",
    ]
    if not args.oracle:
        report.append(f"conflicts = {outcome.stats.conflicts}")
        report.append(f"domain-size = {domain.size}")
    if outcome.sat:
        if args.normalize:
            report.append("normalized = yes")
        report += _model_lines(system, model)
    if args.relax:
        report += _relaxation_report(system)
    print(f"time-ms = {int((time.monotonic() - started) * 1000)}", file=sys.stderr)
    return EXIT_SAT if outcome.sat else EXIT_UNSAT, "".join(f"{line}\n" for line in report)


def _relaxation_report(system: ConstraintSystem) -> list:
    """The re-checked lines of the integer-relaxation section."""
    relaxation = idl.relax_to_idl(system)
    outcome = idl.solve_idl(relaxation.constraints)
    lines = ["semantics = integer-relaxation", f"verdict = {'SAT' if outcome.sat else 'UNSAT'}"]
    if outcome.sat:
        model = outcome.model
        if relaxation.zero_var is not None:
            shift = model[relaxation.zero_var]
            model = {v: value - shift for v, value in model.items()}
        if not idl.check_idl_model(relaxation.constraints, model):
            raise mdl.SelfCheckError("internal error: relaxation model fails re-evaluation")
        lines += _model_lines(system, model)
    else:
        cycle = outcome.cycle
        if not idl.check_idl_cycle(cycle):
            raise mdl.SelfCheckError("internal error: relaxation certificate fails re-evaluation")
        lines += [f"cycle-length = {len(cycle)}", f"cycle-weight = {_decimal(sum(c.k for c in cycle))}"]
        lines += [f"core: {render_constraint(system.constraints[c.origin], system.symbols)}" for c in cycle]
    return lines


def cmd_reduce(args) -> tuple[int, str]:
    with open(args.graph, encoding="utf-8") as handle:
        graph = reductions.parse_dimacs_graph(handle.read())
    variant, modulus = reductions.Variant(args.variant), Modulus(args.mod)
    system, _ = reductions.encode_3col(graph, modulus, variant)
    mdl_path = args.out + ".mdl"
    meta_path = args.out + ".meta"
    with open(mdl_path, "w", encoding="utf-8") as handle:
        handle.write(render_system(system))
    with open(meta_path, "w", encoding="utf-8") as handle:
        handle.write(reductions.render_meta(graph, variant, modulus))
    report = f"wrote {mdl_path} ({system.num_vars} variables, {len(system.constraints)} constraints)\n"
    return EXIT_OK, report + f"wrote {meta_path}\n"


def cmd_decode(args) -> tuple[int, str]:
    with open(args.meta, encoding="utf-8") as handle:
        graph, variant, modulus = reductions.parse_meta(handle.read())
    system, meta = reductions.encode_3col(graph, modulus, variant)
    with open(args.model, encoding="utf-8") as handle:
        assignment = _read_model_lines(handle.read(), system)
    if not satisfies(system, assignment):
        print("model does not satisfy the encoded system", file=sys.stderr)
        return EXIT_INTERNAL, ""
    coloring = reductions.decode_coloring(meta, assignment)
    if not reductions.verify_coloring(graph, coloring):
        raise mdl.SelfCheckError("internal error: decoded coloring is not proper")
    return EXIT_OK, "".join(f"color {v} {coloring[v]}\n" for v in range(graph.n))


def _read_model_lines(text: str, system: ConstraintSystem):
    """Extract ``name = value`` lines for the system's variables.

    Solver reports can be fed back verbatim: report keys that are not
    variables of the system are ignored.  A value must be a residue in
    [0, N-1]; the decoder reads colors off the values themselves.
    """
    n = system.modulus.n
    assignment = {}
    for raw in text.splitlines():
        parts = raw.split()
        if len(parts) != 3 or parts[1] != "=":
            continue
        name, value = parts[0], parts[2]
        if name not in system.symbols:
            continue
        value = read_int(value)
        if value is None:
            continue
        if not 0 <= value < n:
            raise MdlError(f"model value {name} = {value} is outside [0, {n - 1}]")
        assignment[system.symbols.id_of(name)] = value
    missing = sorted(
        name for name in system.symbols.names if system.symbols.id_of(name) not in assignment
    )
    if missing:
        shown = ", ".join(missing[:5]) + (", ..." if len(missing) > 5 else "")
        raise MdlError(f"model file lacks values for: {shown}")
    return assignment


#: the modulus of each ``gen`` kind without --mod; chain has none
_GEN_MOD = {"intro1": 16, "idl-paper": 10, "random": 12}

#: The most lines or variables ``gen`` writes.  A chain's N lines and a random
#: system's variables are all built in memory before anything is written.
MAX_GEN_SIZE = 1_000_000


def cmd_gen(args) -> tuple[int, str]:
    mod = _GEN_MOD.get(args.kind) if args.mod is None else args.mod
    if mod is None:
        raise _UsageError("gen chain requires --mod")
    n = Modulus(mod).n
    size = {"chain": n, "random": max(args.vars, args.cons)}.get(args.kind, 0)
    if size > MAX_GEN_SIZE:
        raise _UsageError(f"gen {args.kind} would write {size} lines or variables, over the limit of {MAX_GEN_SIZE}")
    if args.kind == "intro1":
        text = gen_intro1(n)
    elif args.kind == "chain":
        text = gen_chain(n)
    elif args.kind == "idl-paper":
        text = gen_idl_paper(n)
    else:
        if args.vars < 1 or args.cons < 0 or args.m < 0:
            raise _UsageError("gen random needs --vars >= 1, --cons >= 0 and --m >= 0")
        text = gen_random(args.vars, args.cons, args.m, n, args.seed)
    if not args.out:
        return EXIT_OK, text
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(text)
    return EXIT_OK, f"wrote {args.out}\n"


# --- argument wiring --------------------------------------------------------


def _integer(text: str) -> int:
    """An integer option in the file grammar's spelling, less the blanks a split would drop."""
    value = read_int(text.strip())
    if value is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return value


@functools.cache  # built on the first ``main`` call, then kept: a parse leaves it unchanged
def _build_parser() -> _Parser:
    parser = _Parser(prog="mdlsat", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="decide a constraint file")
    solve.add_argument("file")
    solve.add_argument("--oracle", action="store_true", help="exhaustive enumeration instead of search")
    solve.add_argument("--relax", action="store_true", help="also report the integer-relaxation verdict")
    solve.add_argument("--normalize", action="store_true", help="print normalized = yes for a SAT model")
    solve.set_defaults(func=cmd_solve)

    reduce_ = sub.add_parser("reduce", help="encode a DIMACS graph's 3-colorability")
    reduce_.add_argument("graph")
    reduce_.add_argument("--variant", choices=["nonstrict", "strict"], default="nonstrict")
    reduce_.add_argument("--mod", type=_integer, required=True)
    reduce_.add_argument("--out", required=True, help="output prefix for .mdl and .meta")
    reduce_.set_defaults(func=cmd_reduce)

    decode = sub.add_parser("decode", help="read a coloring off a model of an encoding")
    decode.add_argument("meta")
    decode.add_argument("model")
    decode.set_defaults(func=cmd_decode)

    gen = sub.add_parser("gen", help="emit a named or random instance")
    gen.add_argument("kind", choices=["intro1", "idl-paper", "chain", "random"])
    gen.add_argument("--mod", type=_integer, default=None)
    gen.add_argument("--vars", type=_integer, default=3)
    gen.add_argument("--cons", type=_integer, default=5)
    gen.add_argument("--m", type=_integer, default=2)
    gen.add_argument("--seed", type=_integer, default=0)
    gen.add_argument("--out", default=None)
    gen.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        code, report = args.func(args)
        sys.stdout.write(report)
        return code
    except mdl.SelfCheckError as err:  # an MdlError, so it goes first
        print(err, file=sys.stderr)
        return EXIT_INTERNAL
    except (_UsageError, OSError, UnicodeDecodeError, MdlError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
