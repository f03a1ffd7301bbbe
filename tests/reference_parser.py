"""The tokenizer parser that ``mdlsat.core.parse_system`` replaced, kept
verbatim as a test oracle for the text format.

It splits each line into a list of (kind, text, column) tokens first and
parses the list after.  ``tests/test_core.py`` checks that the
single-pass parser returns an equal system on every line this one
accepts, and raises the same exception class on the same line otherwise.
"""

from __future__ import annotations

import re

from mdlsat.core import (
    Constraint,
    ConstraintSystem,
    Modulus,
    ModulusError,
    ParseError,
    Relation,
    Rhs,
    SymbolTable,
    Term,
)

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
