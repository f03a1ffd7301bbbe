"""Syntax and semantics of difference constraints over wraparound arithmetic.

A system lives over the residues 0..N-1 for an explicit modulus N >= 2.
Every integer expression is reduced to its residue before comparison, and
comparisons use the plain order on residues -- the order that unsigned
machine comparisons implement.  This is what separates these constraints
from their familiar integer reading: ``x <= y - 1`` and ``x + 1 <= y`` say
different things once values wrap.

All types here are immutable after construction and all operations are
pure, so shared instances are safe to use concurrently.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Union


class MdlError(Exception):
    """Base class for all errors raised by this package."""


class ModulusError(MdlError):
    """Missing or invalid modulus; the modulus must be an integer >= 2."""


class UndefinedVariableError(MdlError):
    """An assignment lacks a value for a variable the expression mentions."""


class ParseError(MdlError):
    """Syntax error in a constraint file, with 1-based line/column."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            where += ": "
        super().__init__(where + message)


VarId = int


@dataclass(frozen=True)
class Modulus:
    """Wraparound modulus.  N = 1 collapses every residue to 0 and is rejected."""

    n: int

    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 2:
            raise ModulusError(f"modulus must be an integer >= 2, got {self.n!r}")

    def __int__(self) -> int:
        return self.n

    def __str__(self) -> str:
        return str(self.n)


class SymbolTable:
    """Bijection between variable names and dense ids 0, 1, 2, ... in intern order."""

    _IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

    def __init__(self, names: Iterable[str] = ()):
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        for name in names:
            self.intern(name)

    def intern(self, name: str) -> VarId:
        vid = self._ids.get(name)
        if vid is not None:
            return vid
        if not self._IDENT.match(name) or name == "mod":
            raise MdlError(f"invalid variable name {name!r}")
        vid = len(self._names)
        self._names.append(name)
        self._ids[name] = vid
        return vid

    def id_of(self, name: str) -> VarId:
        try:
            return self._ids[name]
        except KeyError:
            raise UndefinedVariableError(f"unknown variable {name!r}") from None

    def name_of(self, vid: VarId) -> str:
        if not 0 <= vid < len(self._names):
            raise UndefinedVariableError(f"unknown variable id {vid}")
        return self._names[vid]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._names)

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._ids

    def __eq__(self, other) -> bool:
        return isinstance(other, SymbolTable) and self._names == other._names

    def __repr__(self) -> str:
        return f"SymbolTable({self._names!r})"


@dataclass(frozen=True)
class Term:
    """A variable plus an integer offset, evaluated modulo N."""

    var: VarId
    offset: int = 0


class Relation(Enum):
    LE = "<="
    LT = "<"
    EQ = "="
    GE = ">="
    GT = ">"

    def holds(self, a: int, b: int) -> bool:
        """Does ``a REL b`` hold for residues a, b under the residue order?"""
        if self is Relation.LE:
            return a <= b
        if self is Relation.LT:
            return a < b
        if self is Relation.EQ:
            return a == b
        if self is Relation.GE:
            return a >= b
        return a > b


Rhs = Union[Term, int]


@dataclass(frozen=True)
class Constraint:
    """``lhs REL rhs`` where rhs is a term or an integer constant.

    GE/GT/EQ are primitive, kept as written in the source so certificates and
    diagnostics can cite constraints verbatim; solvers normalize internally.
    Constant right-hand sides are stored as written and reduced only at
    evaluation time.
    """

    lhs: Term
    rel: Relation
    rhs: Rhs

    def variables(self) -> tuple[VarId, ...]:
        if isinstance(self.rhs, Term):
            return (self.lhs.var, self.rhs.var)
        return (self.lhs.var,)


# Assignments map variable ids to residues in [0, N-1].  Solvers produce
# assignments that are total over a system's variables.
Assignment = dict  # dict[VarId, int]


@dataclass
class ConstraintSystem:
    """An ordered list of constraints over interned variables, with a modulus.

    ``num_vars`` and ``max_abs_constant`` (the largest absolute offset or
    constant appearing anywhere, 0 if none) are computed once at construction.
    Duplicate constraints are kept as written.
    """

    modulus: Modulus
    symbols: SymbolTable
    constraints: tuple[Constraint, ...]
    num_vars: int = field(init=False)
    max_abs_constant: int = field(init=False)

    def __post_init__(self):
        self.constraints = tuple(self.constraints)
        self.num_vars = len(self.symbols)
        m = 0
        for c in self.constraints:
            for v in c.variables():
                if not 0 <= v < self.num_vars:
                    raise MdlError(f"constraint references unknown variable id {v}")
            m = max(m, abs(c.lhs.offset))
            if isinstance(c.rhs, Term):
                m = max(m, abs(c.rhs.offset))
            else:
                m = max(m, abs(c.rhs))
        self.max_abs_constant = m


def eval_term(term: Term, assignment: Assignment, modulus: Modulus) -> int:
    try:
        value = assignment[term.var]
    except KeyError:
        raise UndefinedVariableError(f"no value for variable id {term.var}") from None
    return (value + term.offset) % modulus.n


def eval_constraint(constraint: Constraint, assignment: Assignment, modulus: Modulus) -> bool:
    lhs = eval_term(constraint.lhs, assignment, modulus)
    if isinstance(constraint.rhs, Term):
        rhs = eval_term(constraint.rhs, assignment, modulus)
    else:
        rhs = constraint.rhs % modulus.n
    return constraint.rel.holds(lhs, rhs)


def eval_system(system: ConstraintSystem, assignment: Assignment) -> int | None:
    """Index of the first violated constraint, or None when every one holds."""
    for idx, c in enumerate(system.constraints):
        if not eval_constraint(c, assignment, system.modulus):
            return idx
    return None


def satisfies(system: ConstraintSystem, assignment: Assignment) -> bool:
    return eval_system(system, assignment) is None


# --- text format -----------------------------------------------------------
#
#   mod <N>                      header, first significant line, N >= 2
#   <term> <rel> <term|const>    one constraint per line
#   term  := IDENT | IDENT + UINT | IDENT - UINT
#   rel   := <= | < | = | >= | >
#   const := optionally signed decimal integer
#
# '#' starts a comment; blank lines are ignored.  Identifiers are ASCII
# [A-Za-z_][A-Za-z0-9_]*, case-sensitive; 'mod' is reserved.

_TOKEN = re.compile(
    r"\s*(?:(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<num>\d+)"
    r"|(?P<rel><=|>=|<|>|=)|(?P<sign>[+-])|(?P<bad>\S))"
)

_REL_FROM_TEXT = {r.value: r for r in Relation}


def _tokenize(body: str, line_no: int) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN.finditer(body):
        kind = m.lastgroup
        col = m.start(kind) + 1
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group(kind)!r}", line_no, col)
        tokens.append((kind, m.group(kind), col))
    return tokens


def _number(token, line_no: int) -> int:
    """The value of a ``num`` token; too many digits is a syntax error."""
    try:
        return int(token[1])
    except ValueError:
        raise ParseError(f"number with {len(token[1])} digits is too long", line_no, token[2]) from None


def _parse_header(tokens, line_no: int) -> Modulus:
    if len(tokens) == 3 and tokens[1][:2] == ("sign", "-") and tokens[2][0] == "num":
        raise ModulusError(f"line {line_no}: modulus must be >= 2, got -{tokens[2][1]}")
    if len(tokens) != 2 or tokens[1][0] != "num":
        col = tokens[1][2] if len(tokens) > 1 else tokens[0][2]
        raise ParseError("malformed header, expected 'mod <N>'", line_no, col)
    value = _number(tokens[1], line_no)
    if value < 2:
        raise ModulusError(f"line {line_no}: modulus must be >= 2, got {value}")
    return Modulus(value)


def _parse_term(tokens, i, symbols: SymbolTable, line_no: int) -> tuple[Term, int]:
    kind, text, col = tokens[i]
    if kind != "ident":
        raise ParseError(f"expected a variable name, got {text!r}", line_no, col)
    if text == "mod":
        raise ParseError("'mod' is reserved and cannot name a variable", line_no, col)
    var = symbols.intern(text)
    i += 1
    offset = 0
    if i < len(tokens) and tokens[i][0] == "sign":
        if i + 1 >= len(tokens) or tokens[i + 1][0] != "num":
            raise ParseError("expected an unsigned offset after sign", line_no, tokens[i][2])
        magnitude = _number(tokens[i + 1], line_no)
        offset = -magnitude if tokens[i][1] == "-" else magnitude
        i += 2
    return Term(var, offset), i


def _parse_constraint(tokens, symbols: SymbolTable, line_no: int) -> Constraint:
    lhs, i = _parse_term(tokens, 0, symbols, line_no)
    if i >= len(tokens) or tokens[i][0] != "rel":
        col = tokens[i][2] if i < len(tokens) else tokens[-1][2]
        got = tokens[i][1] if i < len(tokens) else "end of line"
        raise ParseError(f"expected a relation, got {got!r}", line_no, col)
    rel = _REL_FROM_TEXT[tokens[i][1]]
    i += 1
    if i >= len(tokens):
        raise ParseError("expected a term or constant after the relation", line_no, tokens[-1][2])
    rhs: Rhs
    kind, text, col = tokens[i]
    if kind == "ident":
        rhs, i = _parse_term(tokens, i, symbols, line_no)
    else:
        sign = 1
        if kind == "sign":
            sign = -1 if text == "-" else 1
            i += 1
            if i >= len(tokens) or tokens[i][0] != "num":
                raise ParseError("expected digits after sign", line_no, col)
            kind, text, col = tokens[i]
        if kind != "num":
            raise ParseError(f"expected a term or constant, got {text!r}", line_no, col)
        rhs = sign * _number(tokens[i], line_no)
        i += 1
    if i != len(tokens):
        raise ParseError(f"trailing input {tokens[i][1]!r}", line_no, tokens[i][2])
    return Constraint(lhs, rel, rhs)


def parse_system(text: str) -> ConstraintSystem:
    """Parse the text format.  Variable ids follow first occurrence order."""
    modulus: Modulus | None = None
    symbols = SymbolTable()
    constraints: list[Constraint] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        if not body.strip():
            continue
        tokens = _tokenize(body, line_no)
        if modulus is None:
            if tokens[0][:2] != ("ident", "mod"):
                raise ModulusError(f"line {line_no}: expected 'mod <N>' header before constraints")
            modulus = _parse_header(tokens, line_no)
            continue
        constraints.append(_parse_constraint(tokens, symbols, line_no))
    if modulus is None:
        raise ModulusError("missing 'mod <N>' header")
    return ConstraintSystem(modulus, symbols, tuple(constraints))


def render_term(term: Term, symbols: SymbolTable) -> str:
    name = symbols.name_of(term.var)
    if term.offset > 0:
        return f"{name} + {term.offset}"
    if term.offset < 0:
        return f"{name} - {-term.offset}"
    return name


def render_constraint(constraint: Constraint, symbols: SymbolTable) -> str:
    if isinstance(constraint.rhs, Term):
        rhs = render_term(constraint.rhs, symbols)
    else:
        rhs = str(constraint.rhs)
    return f"{render_term(constraint.lhs, symbols)} {constraint.rel.value} {rhs}"


def render_system(system: ConstraintSystem) -> str:
    """Canonical text; parse_system(render_system(s)) is structurally equal to s."""
    lines = [f"mod {system.modulus.n}"]
    lines.extend(render_constraint(c, system.symbols) for c in system.constraints)
    return "\n".join(lines) + "\n"
