"""Difference-constraint solving over wraparound machine arithmetic.

Exact modular solving next to the classical integer reading, with
machine-checkable outcomes on both sides, plus 3-colorability reductions as
an instance source.
"""

from .core import (
    Assignment,
    Constraint,
    ConstraintSystem,
    MdlError,
    Modulus,
    ModulusError,
    ParseError,
    Relation,
    SymbolTable,
    Term,
    UndefinedVariableError,
    eval_system,
    parse_system,
    render_system,
    satisfies,
)
from .idl import IdlConstraint, IdlOutcome, Relaxation, relax_to_idl, solve_idl
from .mdl import (
    BudgetExceededError,
    DomainBound,
    SolveOutcome,
    brute_force_sat,
    small_model_bound,
    solve,
)
from .reductions import (
    Coloring,
    DecodeError,
    EncodingMeta,
    Graph,
    ImproperColoringError,
    ModulusTooSmallError,
    Variant,
    coloring_to_witness,
    decode_coloring,
    encode_3col,
    parse_dimacs_graph,
    render_dimacs_graph,
    verify_coloring,
)

__version__ = "0.1.0"
