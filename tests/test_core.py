import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

import reference_parser
from conftest import petersen, time_limit

from mdlsat import core
from mdlsat.cli import gen_random
from mdlsat.core import (
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
)
from mdlsat.reductions import Variant, encode_3col


def test_modulus_rejects_degenerate_values():
    Modulus(2)
    for bad in (1, 0, -3, "10", 2.0, 4.0, True):
        with pytest.raises(ModulusError):
            Modulus(bad)


def test_modulus_is_immutable_and_compares_by_value():
    modulus = Modulus(10)
    with pytest.raises(AttributeError):
        modulus.n = 11
    assert modulus == Modulus(10) and hash(modulus) == hash(Modulus(10))
    assert modulus != Modulus(11)


def _holds(text, **values):
    """Does the single constraint of ``text`` hold under the named values?"""
    system = parse_system(text)
    assignment = {system.symbols.id_of(name): value for name, value in values.items()}
    return eval_system(system, assignment) is None


def _holds_one(constraint, assignment, n):
    """Does ``constraint``, over x = id 0 and y = id 1, hold mod n?"""
    system = ConstraintSystem(Modulus(n), SymbolTable(["x", "y"]), (constraint,))
    return eval_system(system, assignment) is None


def test_reduce_mod_examples():
    assert _holds_one(Constraint(Term(0, 3), Relation.EQ, 3), {0: 0}, 10)
    assert _holds_one(Constraint(Term(0, -1), Relation.EQ, 9), {0: 0}, 10)
    assert _holds_one(Constraint(Term(0, 10), Relation.EQ, 0), {0: 0}, 10)
    assert _holds("mod 10\nx = -1\n", x=9)


def test_cmp_mod_examples():
    # 9 - 5 reduces to 4, which is below 5
    assert _holds("mod 10\nx - 5 < 5\n", x=9)
    # ... but 9 is not below 5 + 5, which wraps to 0
    assert _holds("mod 10\nx > y + 5\n", x=9, y=5)
    assert _holds("mod 10\nx > 0\n", x=6)
    assert _holds("mod 10\nx + 10 = 3\n", x=3)


def test_subtraction_and_comparison_do_not_commute():
    # x - y <= k can hold while x <= y + k fails
    assert _holds("mod 10\nx - 5 <= 5\n", x=9)
    assert not _holds("mod 10\nx <= y + 5\n", x=9, y=5)


@given(st.integers(), st.integers(min_value=2, max_value=10**6))
def test_reduce_mod_is_the_canonical_residue(i, n):
    # x + i at x = 0 is the residue r of i: equal to r, and within [0, n-1]
    r = i % n
    assert _holds_one(Constraint(Term(0, i), Relation.EQ, Term(1)), {0: 0, 1: r}, n)
    assert _holds_one(Constraint(Term(0, i), Relation.LE, Term(1)), {0: 0, 1: n - 1}, n)
    assert _holds_one(Constraint(Term(0, i), Relation.GE, Term(1)), {0: 0, 1: 0}, n)
    assert _holds_one(Constraint(Term(0), Relation.EQ, i), {0: r}, n)


_RESIDUE_ORDER = {
    Relation.LE: operator.le,
    Relation.LT: operator.lt,
    Relation.EQ: operator.eq,
    Relation.GE: operator.ge,
    Relation.GT: operator.gt,
}


@given(st.integers(), st.integers(), st.integers(min_value=2, max_value=10**4))
def test_cmp_mod_matches_reduced_comparison(i, j, n):
    a, b = i % n, j % n
    for rel, compare in _RESIDUE_ORDER.items():
        expected = compare(a, b)
        assert _holds_one(Constraint(Term(0, i), rel, Term(1, j)), {0: 0, 1: 0}, n) == expected
        assert _holds_one(Constraint(Term(0, i), rel, j), {0: 0}, n) == expected


def test_eval_system_term_examples():
    assert _holds_one(Constraint(Term(0, 1), Relation.EQ, 0), {0: 9}, 10)
    assert _holds_one(Constraint(Term(0, 0), Relation.EQ, 5), {0: 5}, 10)
    assert _holds_one(Constraint(Term(0, -1), Relation.EQ, 9), {0: 0}, 10)
    with pytest.raises(UndefinedVariableError, match="variable id 1"):
        _holds_one(Constraint(Term(0), Relation.LE, Term(1, 0)), {0: 5}, 10)


def test_eval_system_constraint_examples():
    c = Constraint(Term(0), Relation.LE, Term(1, 5))
    assert not _holds_one(c, {0: 9, 1: 5}, 10)
    c = Constraint(Term(0), Relation.LE, Term(1, -1))
    assert _holds_one(c, {0: 5, 1: 0}, 10)
    c = Constraint(Term(0), Relation.EQ, Term(0, 0))
    assert _holds_one(c, {0: 7}, 12)


def test_eval_system_reads_ge_gt_by_comparison():
    ge = Constraint(Term(0), Relation.GE, Term(1))
    gt = Constraint(Term(0), Relation.GT, Term(1))
    assert _holds_one(ge, {0: 5, 1: 5}, 10)
    assert not _holds_one(gt, {0: 5, 1: 5}, 10)
    assert _holds_one(gt, {0: 6, 1: 5}, 10)


def _intro_system(n=16):
    return parse_system(f"mod {n}\nx >= 0\nx + 1 <= 0\n")


def test_eval_system_examples():
    empty = parse_system("mod 7\n")
    assert eval_system(empty, {}) is None
    system = _intro_system()
    assert eval_system(system, {0: 15}) is None
    assert eval_system(system, {0: 3}) == 1
    # brute_force_sat passes its candidates as tuples
    assert eval_system(system, (15,)) is None
    assert eval_system(system, (3,)) == 1


@given(st.integers(min_value=0, max_value=15), st.integers(), st.integers(min_value=2, max_value=60))
def test_eval_invariant_under_offset_shifts_by_modulus(x, t, n):
    base = Constraint(Term(0, 3), Relation.LE, Term(1, -2))
    shifted = Constraint(Term(0, 3 + t * n), Relation.LE, Term(1, -2 - t * n))
    a = {0: x % n, 1: (x * 7 + 1) % n}
    assert _holds_one(base, a, n) == _holds_one(shifted, a, n)


@given(st.integers(min_value=0, max_value=15), st.integers(), st.integers(min_value=2, max_value=60))
def test_eval_invariant_under_constant_shifts_by_modulus(x, t, n):
    base = Constraint(Term(0, 1), Relation.GT, -2)
    shifted = Constraint(Term(0, 1), Relation.GT, -2 + t * n)
    a = {0: x % n}
    assert _holds_one(base, a, n) == _holds_one(shifted, a, n)


# --- text format ------------------------------------------------------------


def test_parse_basic():
    system = parse_system("mod 10\nx + 1 <= y\n")
    assert system.modulus.n == 10
    assert system.symbols.names == ("x", "y")
    assert system.constraints == (Constraint(Term(0, 1), Relation.LE, Term(1)),)


def test_parse_header_required():
    with pytest.raises(ModulusError):
        parse_system("x <= y\n")
    with pytest.raises(ModulusError):
        parse_system("# only a comment\n")
    with pytest.raises(ModulusError):
        parse_system("mod 1\nx <= y\n")
    with pytest.raises(ModulusError):
        parse_system("mod -5\n")


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as excinfo:
        parse_system("mod 10\nx << y\n")
    assert excinfo.value.line == 2
    for line, column in (("x << y", 4), ("x <= y z", 8), ("x + y <= z", 3), ("x <= 5y", 7)):
        with pytest.raises(ParseError) as excinfo:
            parse_system(f"mod 10\n{line}\n")
        assert (excinfo.value.line, excinfo.value.column) == (2, column), line


_BIG = "9" * 4301  # one digit past int()'s default limit

# Each place a constraint line can stop, as (line, column, message); the
# line is the third of its file, after the header and a comment line.
_STOPS = [
    ("<= y", 1, "expected a variable name, got '<'"),
    ("  + 3 <= y", 3, "expected a variable name, got '+'"),
    ("$x", 1, "expected a variable name, got '$'"),
    ("x y", 3, "expected a relation, got 'y'"),
    ("x + <= y", 3, "expected a relation, got '+'"),
    ("x <=", 5, "expected a term or constant, got end of line"),
    ("x <= + y", 6, "expected a term or constant, got '+'"),
    ("x <= y z", 8, "expected end of line, got 'z'"),
    ("x <= 5y", 7, "expected end of line, got 'y'"),
    ("x <= y + ", 8, "expected end of line, got '+'"),
    ("x # c", 3, "expected a relation, got end of line"),
    ("x <= # c", 6, "expected a term or constant, got end of line"),
    ("mod <= x", 1, "'mod' is reserved and cannot name a variable"),
    ("x <= mod + 1", 6, "'mod' is reserved and cannot name a variable"),
    (f"mod + {_BIG} <= y", 1, "'mod' is reserved and cannot name a variable"),
    (f"x + {_BIG} <= y", 5, "number with 4301 digits is too long"),
    (f"x <= y - {_BIG}", 10, "number with 4301 digits is too long"),
    (f"x < {_BIG}", 5, "number with 4301 digits is too long"),
    (f"x <= -{_BIG}", 7, "number with 4301 digits is too long"),
    (f"x + {_BIG} <= mod", 5, "number with 4301 digits is too long"),
    (f"x + {_BIG} y", 5, "number with 4301 digits is too long"),
    ("x\u2003<=\u00a0", 6, "expected a term or constant, got end of line"),
    ("x\u2003<=\u00a0# c", 6, "expected a term or constant, got end of line"),
    ("x\u00a0+\u0663 <= y \u2003$", 12, "expected end of line, got '$'"),
]


@pytest.mark.parametrize("line, column, message", _STOPS, ids=[repr(s[0])[:24] for s in _STOPS])
def test_parse_error_names_line_column_and_message(line, column, message):
    with pytest.raises(ParseError) as excinfo:
        parse_system(f"mod 10\n# note\n{line}\n")
    assert (excinfo.value.line, excinfo.value.column) == (3, column)
    assert str(excinfo.value) == f"line 3, column {column}: {message}"


def test_parse_reads_unicode_blanks_and_digits():
    system = parse_system("mod 10\nx\u00a0+\u0663\u2003<=\u0664\u0665 # c\ny\t-\u0661 >y\n")
    assert system.constraints == (
        Constraint(Term(0, 3), Relation.LE, 45),
        Constraint(Term(1, -1), Relation.GT, Term(1)),
    )


_BLANK = st.sampled_from(["", "", " ", "  ", "\t", "\u00a0", "\u2003", "\x1f"])
_IDENT = st.one_of(
    st.sampled_from(["x", "y", "mod", "modx", "mod_", "Mod", "x1", "_"]),
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,3}", fullmatch=True),
)
_SIGN = st.sampled_from(["+", "-"])
_DIGITS = st.one_of(
    st.text(st.characters(categories=("Nd",)), min_size=1, max_size=3),
    st.sampled_from(["0", "00", "12", "9" * 4301]),
)
_REL = st.sampled_from(["<=", "<", "=", ">=", ">"])
_JUNK = st.one_of(st.sampled_from(["$", "\u00e9", "*", ".", "\u00b2", "#", "=<", "=>"]), st.characters())
_PIECE = st.one_of(_IDENT, _SIGN, _DIGITS, _REL, _JUNK)
_HEADER = st.one_of(
    st.sampled_from(["mod 10", "mod10", "modx 10", "mod 10 20", "mod -x", "mod -5", "mod 1", "mod", "mod \u0663"]),
    st.builds("mod{}{}{}{}".format, _BLANK, st.sampled_from(["", "+", "-"]), _BLANK, _DIGITS),
)


@st.composite
def _grammar_line(draw):
    """A line joined from pieces of the grammar: shaped like a constraint,
    with a stray piece now and then put inside or after it, or a header, or
    a run of arbitrary pieces; blanks between the pieces are absent, plain
    or Unicode."""
    if draw(st.booleans()):
        parts = [draw(_IDENT)]
        if draw(st.booleans()):
            parts += [draw(_SIGN), draw(_DIGITS)]
        parts.append(draw(_REL))
        if draw(st.booleans()):
            parts.append(draw(_IDENT))
            if draw(st.booleans()):
                parts += [draw(_SIGN), draw(_DIGITS)]
        else:
            parts += [draw(st.sampled_from(["", "+", "-"])), draw(_DIGITS)]
        if draw(st.booleans()):
            parts.insert(draw(st.integers(0, len(parts))), draw(_PIECE))
        if draw(st.booleans()):
            parts.append(draw(_PIECE))
    elif draw(st.booleans()):
        parts = [draw(_HEADER)]
    else:
        parts = draw(st.lists(_PIECE, max_size=6))
    return "".join(draw(_BLANK) + part for part in parts) + draw(_BLANK)


def _parsed(parse, text):
    """The system read from ``text``, or the error class and where it names."""
    try:
        return parse(text)
    except ParseError as exc:
        return ParseError, exc.line
    except ModulusError as exc:
        return ModulusError, str(exc)  # the message carries the line


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.just("mod 10"), _HEADER, _grammar_line()), st.lists(_grammar_line(), max_size=2))
def test_parse_agrees_with_the_tokenizer_parser(first, rest):
    text = "\n".join([first, *rest])
    assert _parsed(parse_system, text) == _parsed(reference_parser.parse_system, text)


def test_parse_comments_blanks_and_spacing():
    text = "# header comment\n\nmod 12  # modulus\n  x+3<=y-2 # tight\n\ny = -4\n"
    system = parse_system(text)
    assert system.modulus.n == 12
    assert system.constraints == (
        Constraint(Term(0, 3), Relation.LE, Term(1, -2)),
        Constraint(Term(1), Relation.EQ, -4),
    )


def test_parse_all_relations_and_constant_forms():
    text = "mod 9\na <= b\na < b\na = b\na >= b\na > b\na <= 5\na >= -3\na = +2\n"
    system = parse_system(text)
    rels = [c.rel for c in system.constraints]
    assert rels == [
        Relation.LE,
        Relation.LT,
        Relation.EQ,
        Relation.GE,
        Relation.GT,
        Relation.LE,
        Relation.GE,
        Relation.EQ,
    ]
    assert system.constraints[6].rhs == -3
    assert system.constraints[7].rhs == 2


def test_parse_rejects_junk():
    for bad in ("mod 10\nx <=\n", "mod 10\n<= y\n", "mod 10\nx <= y z\n", "mod 10\nx + y <= z\n"):
        with pytest.raises(ParseError):
            parse_system(bad)


def test_mod_is_reserved():
    with pytest.raises(ParseError):
        parse_system("mod 10\nmod <= x\n")
    with pytest.raises(MdlError):
        SymbolTable().intern("mod")


def test_names_case_sensitive_first_occurrence_order():
    system = parse_system("mod 5\nX <= x\nx <= y\n")
    assert system.symbols.names == ("X", "x", "y")


def test_large_offsets_and_constants_accepted_silently():
    system = parse_system("mod 10\nx + 1000000000000 <= y\nx <= 99\n")
    assert system.max_abs_constant == 1000000000000
    assert eval_system(system, {0: 0, 1: 0}) is None


def test_render_examples():
    system = parse_system("mod 10\nx + 2 < y - 1\n")
    assert render_system(system) == "mod 10\nx + 2 < y - 1\n"
    empty = parse_system("mod 7\n")
    assert render_system(empty) == "mod 7\n"


def test_render_parse_round_trip_is_idempotent():
    noisy = "# c\nmod 10\n  x+2<y-1\nx   <= 5\n# tail\n"
    once = render_system(parse_system(noisy))
    assert render_system(parse_system(once)) == once


@st.composite
def systems(draw):
    n = draw(st.integers(min_value=2, max_value=50))
    num_vars = draw(st.integers(min_value=1, max_value=4))
    symbols = SymbolTable(f"x{i}" for i in range(num_vars))
    offsets = st.integers(min_value=-6, max_value=6)
    var_ids = st.integers(min_value=0, max_value=num_vars - 1)
    terms = st.builds(Term, var_ids, offsets)
    constraints = st.lists(
        st.builds(Constraint, terms, st.sampled_from(list(Relation)), st.one_of(terms, offsets)),
        max_size=6,
    )
    body = tuple(draw(constraints))
    # re-intern in first occurrence order so rendering loses nothing
    table = SymbolTable()
    remap = {}
    for c in body:
        for v in (c.lhs.var, c.rhs.var) if isinstance(c.rhs, Term) else (c.lhs.var,):
            if v not in remap:
                remap[v] = table.intern(symbols.name_of(v))
    remapped = []
    for c in body:
        rhs = Term(remap[c.rhs.var], c.rhs.offset) if isinstance(c.rhs, Term) else c.rhs
        remapped.append(Constraint(Term(remap[c.lhs.var], c.lhs.offset), c.rel, rhs))
    return ConstraintSystem(Modulus(n), table, tuple(remapped))


@given(systems())
def test_parse_render_identity(system):
    again = parse_system(render_system(system))
    assert again == system


@given(systems())
def test_a_parsed_system_is_the_one_the_checking_constructor_builds(system):
    # parse_system builds its system without re-checking the ids it has
    # just interned, and reads max_abs_constant only when asked
    parsed = parse_system(render_system(system))
    checked = ConstraintSystem(system.modulus, system.symbols, system.constraints)
    assert parsed == checked
    assert (parsed.num_vars, parsed.max_abs_constant) == (checked.num_vars, checked.max_abs_constant)
    constants = [c.rhs.offset if isinstance(c.rhs, Term) else c.rhs for c in system.constraints]
    constants += [c.lhs.offset for c in system.constraints]
    assert parsed.max_abs_constant == max(map(abs, constants), default=0)


@pytest.mark.parametrize(
    "lhs, rhs, vid",
    [(Term(2, 0), Term(0, 0), 2), (Term(0, 0), Term(2, 1), 2), (Term(-1, 0), 5, -1), (Term(1, 0), Term(-3, 0), -3)],
    ids=["lhs", "rhs", "negative-lhs", "negative-rhs"],
)
def test_the_constructor_refuses_an_unknown_variable_id(lhs, rhs, vid):
    # over x = id 0 and y = id 1, after a constraint that names only known ids
    constraints = [Constraint(Term(0, 0), Relation.LE, 1), Constraint(lhs, Relation.LE, rhs)]
    with pytest.raises(MdlError, match=f"^constraint references unknown variable id {vid}$"):
        ConstraintSystem(Modulus(8), SymbolTable(["x", "y"]), constraints)


def _refuse_line(raw):
    raise AssertionError(f"_LINE read {raw!r}")


@given(systems())
def test_the_rendered_form_is_read_without_the_regex(system):
    # what render_system writes is the token reader's form, so a change that
    # sends it back to _LINE fails here and not only in the benchmark
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "_LINE", _refuse_line)
        assert parse_system(render_system(system)) == system


@pytest.mark.parametrize("variant", list(Variant))
def test_encodings_and_generated_files_are_read_without_the_regex(monkeypatch, variant):
    system, _ = encode_3col(petersen(), Modulus(2**32), variant)
    generated = gen_random(30, 120, 2**20, 2**32, 1)
    expected = [system, parse_system(generated)]
    monkeypatch.setattr(core, "_LINE", _refuse_line)
    assert [parse_system(render_system(system)), parse_system(generated)] == expected


# Near misses of each piece of the token reader's form: signs run together
# or set apart, signed or joined digits, the reserved name, names joined to
# other pieces, reversed relations, a number too long for int(), and
# Unicode digits and blanks.
_NEAR = {
    "name": ["mod", "5y", "x<=", "x+1", "\u00e9", "x\u00a0+"],
    "sign": ["+-", "--", "-+", "+ -", "\u2212"],
    "digits": ["-5", "+5", "--5", "5y", "1_0", _BIG, "\u0663\u0664", "\u00b2"],
    "rel": ["=<", "=>", "<<", "==", "<=>"],
    "const": ["--5", "+-5", "+ -5", "- 5", "-" + _BIG, "-\u0664", "+", "\u2003"],
}
_SPACE = st.sampled_from([" ", " ", "  ", "\t", "\u00a0", "\u2003", "\x1f"])


@st.composite
def _token_line(draw):
    """A line in the token reader's form, its pieces set apart by blanks,
    and most of the time one piece swapped for a near miss of its kind."""
    swap = draw(st.sampled_from(range(9)))  # the piece swapped, if there is one
    slots = [("name", _IDENT)]
    if draw(st.booleans()):
        slots += [("sign", _SIGN), ("digits", _DIGITS)]
    slots.append(("rel", _REL))
    if draw(st.booleans()):
        slots.append(("name", _IDENT))
        if draw(st.booleans()):
            slots += [("sign", _SIGN), ("digits", _DIGITS)]
    else:
        slots.append(("const", st.builds(operator.add, st.sampled_from(["", "+", "-"]), _DIGITS)))
    parts = [draw(st.sampled_from(_NEAR[kind]) if i == swap else piece) for i, (kind, piece) in enumerate(slots)]
    return draw(_BLANK) + "".join(part + draw(_SPACE) for part in parts)


def _outcome(text):
    """The system read from ``text``, or its error's class, message, line and column."""
    try:
        return parse_system(text)
    except MdlError as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.one_of(_token_line(), _grammar_line()), min_size=1, max_size=6))
def test_the_token_reader_changes_nothing(lines):
    # each line on its own, so that no line hides behind an error in another,
    # and then all of them, so that names are numbered across lines
    texts = [f"mod 10\n{line}" for line in lines] + ["\n".join(["mod 10", *lines])]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "_read_tokens", lambda raw, intern: None)
        by_regex = [_outcome(text) for text in texts]
    assert [_outcome(text) for text in texts] == by_regex


def test_parse_is_linear_at_ten_thousand_variables():
    rng = random.Random(7)
    lines = ["mod 4294967296"]
    for i in range(40_000):
        lhs = f"x{i % 10_000} + {rng.randrange(100)}"
        rhs = f"x{rng.randrange(10_000)} - {rng.randrange(100)}" if i % 2 else str(rng.randrange(-10**6, 10**6))
        lines.append(f"{lhs} {rng.choice(['<=', '<', '=', '>=', '>'])} {rhs}")
    text = "\n".join(lines) + "\n"
    with time_limit(5.0):
        system = parse_system(text)
        assert parse_system(render_system(system)) == system
    assert (system.num_vars, len(system.constraints)) == (10_000, 40_000)


def test_system_caches_p_and_m():
    system = parse_system("mod 10\nx + 2 <= y - 3\nz >= 1\n")
    assert system.num_vars == 3
    assert system.max_abs_constant == 3
    assert parse_system("mod 10\nx <= y\n").max_abs_constant == 0
