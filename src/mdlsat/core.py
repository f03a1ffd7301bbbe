"""Syntax and semantics of difference constraints over wraparound arithmetic.

A system lives over the residues 0..N-1 for an explicit modulus N >= 2.
Every integer expression is reduced to its residue before comparison, and
comparisons use the plain order on residues -- the order that unsigned
machine comparisons implement.  This is what separates these constraints
from their familiar integer reading: ``x <= y - 1`` and ``x + 1 <= y`` say
different things once values wrap.

All types here are immutable after construction, except ``SymbolTable``,
whose ``intern`` adds a name it has not seen; the operations are pure.  The
library interns names only while it builds a system, so shared systems are
safe to use concurrently.
"""

from __future__ import annotations

import operator
import re
from enum import Enum
from typing import Iterable, NamedTuple, Union


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


# a NamedTuple class may not define __new__, so the check goes in a subclass
class Modulus(NamedTuple("Modulus", [("n", int)])):
    """Wraparound modulus.  N = 1 collapses every residue to 0 and is rejected."""

    __slots__ = ()

    def __new__(cls, n: int):
        if not isinstance(n, int) or isinstance(n, bool) or n < 2:
            raise ModulusError(f"modulus must be an integer >= 2, got {n!r}")
        return tuple.__new__(cls, (n,))


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


class Term(NamedTuple):
    """A variable plus an integer offset, evaluated modulo N."""

    var: VarId
    offset: int = 0


class Relation(Enum):
    LE = "<="
    LT = "<"
    EQ = "="
    GE = ">="
    GT = ">"

    # members are singletons compared by identity, so hash them by identity
    # too: Enum's own hash runs Python code on every dict lookup
    __hash__ = object.__hash__


_RESIDUE_ORDER = {
    Relation.LE: operator.le,
    Relation.LT: operator.lt,
    Relation.EQ: operator.eq,
    Relation.GE: operator.ge,
    Relation.GT: operator.gt,
}


Rhs = Union[Term, int]


class Constraint(NamedTuple):
    """``lhs REL rhs`` where rhs is a term or an integer constant.

    GE/GT/EQ are primitive, kept as written in the source so certificates and
    diagnostics can cite constraints verbatim; solvers normalize internally.
    Constant right-hand sides are stored as written and reduced only at
    evaluation time.
    """

    lhs: Term
    rel: Relation
    rhs: Rhs


# Assignments map variable ids to residues in [0, N-1].  Solvers produce
# assignments that are total over a system's variables.
Assignment = dict  # dict[VarId, int]


class ConstraintSystem:
    """An ordered list of constraints over interned variables, with a modulus.

    ``num_vars`` is set at construction; ``max_abs_constant``, the largest
    absolute offset or constant anywhere (0 if none), is computed when read.
    Duplicate constraints are kept as written.  Systems compare by value.
    """

    __slots__ = ("modulus", "symbols", "constraints", "num_vars")

    def __init__(self, modulus: Modulus, symbols: SymbolTable, constraints: Iterable[Constraint]):
        self.modulus = modulus
        self.symbols = symbols
        self.constraints = tuple(constraints)
        n = self.num_vars = len(symbols)
        for (x, _), _, rhs in self.constraints:
            for v in (x, rhs.var) if isinstance(rhs, Term) else (x,):
                if not 0 <= v < n:
                    raise MdlError(f"constraint references unknown variable id {v}")

    @property
    def max_abs_constant(self) -> int:
        m = 0
        for (_, k), _, rhs in self.constraints:
            m = max(m, abs(k), abs(rhs.offset if isinstance(rhs, Term) else rhs))
        return m

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConstraintSystem):
            return NotImplemented
        return (self.modulus, self.symbols, self.constraints) == (other.modulus, other.symbols, other.constraints)


def _interned_system(modulus: Modulus, symbols: SymbolTable, constraints: tuple) -> ConstraintSystem:
    """The system of constraints whose ids ``symbols.intern`` handed out,
    built without ``ConstraintSystem``'s check of those ids."""
    system = object.__new__(ConstraintSystem)
    system.modulus, system.symbols, system.constraints, system.num_vars = modulus, symbols, constraints, len(symbols)
    return system


def eval_system(system: ConstraintSystem, assignment: Assignment) -> int | None:
    """Index of the first violated constraint, or None; any assignment indexable by VarId will do.

    Both sides are reduced mod N and compared in the residue order; a missing
    variable raises ``UndefinedVariableError`` naming its id.
    """
    n = system.modulus.n
    try:
        for idx, ((x, k), rel, rhs) in enumerate(system.constraints):
            if isinstance(rhs, Term):
                y, l = rhs
                rhs = assignment[y] + l
            if not _RESIDUE_ORDER[rel]((assignment[x] + k) % n, rhs % n):
                return idx
    except KeyError as missing:
        raise UndefinedVariableError(f"no value for variable id {missing.args[0]}") from None
    return None


def satisfies(system: ConstraintSystem, assignment: Assignment) -> bool:
    return eval_system(system, assignment) is None


# --- text format -----------------------------------------------------------
#
#   header     := 'mod' UINT                 first significant line, N >= 2
#   constraint := term rel (term | const)   each later significant line
#   term       := IDENT | IDENT '+' UINT | IDENT '-' UINT
#   rel        := '<=' | '<' | '=' | '>=' | '>'
#   const      := UINT | '+' UINT | '-' UINT
#   IDENT      := [A-Za-z_][A-Za-z0-9_]*, case-sensitive; 'mod' is reserved
#   UINT       := decimal digits, Unicode digits included
#
# '#' starts a comment; blank lines are ignored.  Blanks (any Unicode space)
# between tokens are optional: 'x+3<=y-2' reads as 'x + 3 <= y - 2'.  A
# missing header, or one below 2, is a ModulusError.
#
# A line with no '#' whose blank-separated tokens are exactly a term, a
# relation and a term or constant (each sign a token of its own, or the
# prefix of a constant) is read from its tokens by ``_read_tokens``, which
# costs less than a match; it is the form ``render_system`` writes.  Every
# other line, and so every error, is read by ``_LINE``, which stays the one
# description of the grammar.  The token reader reads a line only as
# ``_LINE`` would: ``\s`` matches exactly the characters ``str.isspace``
# accepts, and ``\d`` those ``str.isdecimal`` accepts.
#
# ``_LINE`` reads a constraint line in one match that spells out the grammar
# above as nested optional groups: a term, then a relation, then a term or
# constant, then the end of the line (blanks and a comment).  The match
# takes as much of the line as fits that order, so when the last group is
# set the line is well formed, and otherwise the first unset group names
# what was expected there.  The ParseError points at the first non-blank
# column after the match, in the text before the comment (one past its end
# when the line stops early).  The pieces the match took are checked first,
# in the order they are read: 'mod' as a name is reserved, and a number too
# long for int() is a ParseError at its first digit.
#
# Each optional part is written '(?:...|)', with an empty second branch,
# rather than '(?:...)?'.  Both match the same text, but ``re`` runs '?' on
# a group as a general repeat, which made the match about 1.5x as slow.

_NAME = r"([A-Za-z_][A-Za-z0-9_]*)"
_OFFSET = r"(?:\s*([+-])\s*(\d+)|)"
_LINE = re.compile(
    rf"\s*(?:{_NAME}{_OFFSET}(?:\s*(<=|>=|<|>|=)"
    rf"(?:\s*(?:{_NAME}{_OFFSET}|([+-]?)\s*(\d+))(?:(\s*(?:#.*)?\Z)|)|)|)|)"
).match
_BLANKS = re.compile(r"\s*")
_MOD = re.compile(r"\s*mod(?![A-Za-z0-9_])(?:\s*([+-]?)\s*(\d+))?")
_JUNK = re.compile(r"[^\s\dA-Za-z_<>=+-]")  # a character no token holds

_REL_FROM_TEXT = {r.value: r for r in Relation}


def _stuck(body: str, pos: int, line_no: int, expected: str) -> ParseError:
    col = _BLANKS.match(body, pos).end()
    got = repr(body[col]) if col < len(body) else "end of line"
    return ParseError(f"expected {expected}, got {got}", line_no, col + 1)


def _too_long(m: re.Match, group: int, line_no: int) -> ParseError:
    return ParseError(f"number with {len(m[group])} digits is too long", line_no, m.start(group) + 1)


def _read_header(body: str, line_no: int) -> Modulus:
    m = _MOD.match(body)
    if m is None:
        junk = _JUNK.search(body)
        if junk is not None:
            raise ParseError(f"unexpected character {junk[0]!r}", line_no, junk.start() + 1)
        raise ModulusError(f"line {line_no}: expected 'mod <N>' header before constraints")
    sign, digits = m.groups()
    if digits is None or sign == "+":
        raise _stuck(body, m.start(1) if digits else m.end(), line_no, "an unsigned modulus")
    if _BLANKS.match(body, m.end()).end() != len(body):
        raise _stuck(body, m.end(), line_no, "end of line")
    if sign == "-":
        raise ModulusError(f"line {line_no}: modulus must be >= 2, got -{digits}")
    try:
        value = int(digits)
    except ValueError:
        raise _too_long(m, 2, line_no) from None
    if value < 2:
        raise ModulusError(f"line {line_no}: modulus must be >= 2, got {value}")
    return Modulus(value)


def _rejected_piece(m: re.Match, line_no: int) -> ParseError | None:
    """The error for the first piece of a ``_LINE`` match that cannot be
    read: the reserved name, or digits too long for int()."""
    for group in (1, 3, 5, 7, 9):  # names at 1 and 5, digits at the others
        piece = m[group]
        if piece is None:
            continue
        if group in (1, 5):
            if piece == "mod":
                return ParseError("'mod' is reserved and cannot name a variable", line_no, m.start(group) + 1)
        else:
            try:
                int(piece)
            except ValueError:
                return _too_long(m, group, line_no)
    return None


def _rejected_line(m: re.Match, raw: str, line_no: int) -> ParseError:
    """The error for a line that ``_LINE`` did not read to its end."""
    error = _rejected_piece(m, line_no)
    if error is not None:
        return error
    if m[1] is None:
        expected = "a variable name"
    elif m[4] is None:
        expected = "a relation"
    elif m[5] is None and m[9] is None:
        expected = "a term or constant"
    else:
        expected = "end of line"
    return _stuck(raw.split("#", 1)[0], m.end(), line_no, expected)


_SIGN = {"+": 1, "-": -1}


def read_int(token: str) -> int | None:
    """``token`` as an integer if it is spelled as the grammar's const, an
    optional sign and ``str.isdecimal`` digits; None for any other spelling,
    such as the '1_0' that ``int`` reads as 10, and for too many digits."""
    try:
        return int(token) if token.isdecimal() or token[:1] in _SIGN and token[1:].isdecimal() else None
    except ValueError:
        return None


def _read_tokens(raw: str, intern) -> Constraint | None:
    """The constraint of a line read as blank-separated tokens, or None.

    The line must hold no '#', and its tokens must be exactly NAME [SIGN
    UINT] REL (NAME [SIGN UINT] | [SIGN]UINT): SIGN the whole token '+' or
    '-', UINT a token that ``str.isdecimal`` accepts and ``int`` reads, REL
    a relation, and each NAME one that ``intern`` takes, the left one
    first.  Every other line gives None, and ``_LINE`` reads it.
    """
    if "#" in raw:
        return None
    tokens = raw.split()
    count = len(tokens)
    if count == 7:
        a, sign, digits, rel, b, bsign, bdigits = tokens
    elif count == 5 and tokens[1] in _REL_FROM_TEXT:
        a, rel, b, bsign, bdigits = tokens
        sign, digits = "+", "0"
    elif count == 5:
        a, sign, digits, rel, b = tokens
        bsign = None
    elif count == 3:
        a, rel, b = tokens
        sign, digits, bsign = "+", "0", None
    else:
        return None
    rel = _REL_FROM_TEXT.get(rel)
    sign = _SIGN.get(sign)
    if rel is None or sign is None or not digits.isdecimal():
        return None
    if bsign is not None:
        bsign = _SIGN.get(bsign)
        if bsign is None or not bdigits.isdecimal():
            return None
    new = tuple.__new__  # as in parse_system
    try:
        lhs = new(Term, (intern(a), sign * int(digits)))
        if bsign is not None:
            rhs: Rhs = new(Term, (intern(b), bsign * int(bdigits)))
        else:
            rhs = read_int(b)
            if rhs is None:  # a name, or a number too long for int() that intern() refuses too
                rhs = new(Term, (intern(b), 0))
    except (ValueError, MdlError):
        return None  # a UINT too long for int(), or a name intern() refuses
    return new(Constraint, (lhs, rel, rhs))


def parse_system(text: str) -> ConstraintSystem:
    """Parse the text format.  Variable ids follow first occurrence order."""
    lines = enumerate(text.splitlines(), start=1)
    for line_no, raw in lines:
        body = raw.split("#", 1)[0]
        if body.strip():
            modulus = _read_header(body, line_no)
            break
    else:
        raise ModulusError("missing 'mod <N>' header")
    symbols = SymbolTable()
    intern = symbols.intern
    # builds a Term or Constraint without their Python-level __new__, which
    # made the parse about 1.15x as slow
    new = tuple.__new__
    constraints: list[Constraint] = []
    for line_no, raw in lines:
        constraint = _read_tokens(raw, intern)
        if constraint is None:
            m = _LINE(raw)
            a, sign, digits, rel, b, bsign, bdigits, csign, cdigits, end = m.groups()
            if end is None:
                stop = m.end()
                if a is None and (stop == len(raw) or raw[stop] == "#"):
                    continue  # blank, or only a comment
                raise _rejected_line(m, raw, line_no)
            try:
                lhs = new(Term, (intern(a), int(sign + digits) if digits else 0))
                if b is None:
                    rhs: Rhs = int(csign + cdigits)
                else:
                    rhs = new(Term, (intern(b), int(bsign + bdigits) if bdigits else 0))
            except (ValueError, MdlError):
                error = _rejected_piece(m, line_no)
                if error is None:
                    raise
                raise error from None
            constraint = new(Constraint, (lhs, _REL_FROM_TEXT[rel], rhs))
        constraints.append(constraint)
    return _interned_system(modulus, symbols, tuple(constraints))


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
