import itertools
import operator
import random

import pytest
from cluster_packing import V_MAX, V_MIN, NotASolutionError, compute_clusters, left_pack_steps, normalize_solution
from conftest import SEED_PHASES, is_three_colorable, petersen, time_limit
from hypothesis import given, settings, strategies as st

from mdlsat import mdl
from mdlsat.cli import gen_chain, gen_idl_paper, gen_random
from mdlsat.core import (
    Constraint,
    ConstraintSystem,
    Modulus,
    Relation,
    SymbolTable,
    Term,
    parse_system,
    satisfies,
)
from mdlsat.idl import DiffEngine
from mdlsat.mdl import BudgetExceededError, _wrap_theory, brute_force_sat, small_model_bound, solve
from mdlsat.reductions import Graph, Variant, encode_3col
from reference_encoding import _static_lemmas, _wrap_encoding, guarded_lists


def _intro(n=16):
    return parse_system(f"mod {n}\nx >= 0\nx + 1 <= 0\n")


# --- brute force oracle -----------------------------------------------------


def test_brute_force_intro_pair():
    out = brute_force_sat(_intro())
    assert out.sat and out.model == {0: 15}


def test_brute_force_chain_unsat():
    out = brute_force_sat(parse_system(gen_chain(5)))
    assert not out.sat
    assert out.stats.nodes == 5**6


def test_brute_force_empty_system():
    out = brute_force_sat(parse_system("mod 4\n"))
    assert out.sat and out.model == {}


def test_brute_force_budget(monkeypatch):
    system = parse_system("mod 10\n" + "\n".join(f"x{i} <= x{i+1}" for i in range(7)) + "\n")
    with pytest.raises(BudgetExceededError):
        brute_force_sat(system)  # 10^8 assignments, over the budget of 10^7
    monkeypatch.setattr(mdl, "BRUTE_FORCE_BUDGET", 10**8)
    brute_force_sat(system)


# --- bounded candidate domain -----------------------------------------------


def _system_with(p, m, n):
    symbols = SymbolTable(f"x{i}" for i in range(p))
    constraints = (Constraint(Term(0, m), Relation.LE, Term(p - 1)),)
    return ConstraintSystem(Modulus(n), symbols, constraints if m or p else ())


def test_small_model_bound_examples():
    db = small_model_bound(_system_with(3, 1, 100))
    assert db.bound == 9
    assert {v for v in range(100) if v in db} == set(range(0, 10)) | set(range(90, 100))

    db = small_model_bound(_system_with(2, 0, 10))
    assert db.bound == 2
    assert {v for v in range(10) if v in db} == {0, 1, 2, 7, 8, 9}

    db = small_model_bound(_system_with(3, 2, 8))
    assert db.bound == 15
    assert {v for v in range(8) if v in db} == set(range(8))


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=2, max_value=500),
)
def test_small_model_bound_size_invariant(p, m, n):
    db = small_model_bound(_system_with(p, m, n))
    members = {v for v in range(-2, n + 2) if v in db}
    assert db.size == len(members) <= min(n, 2 * db.bound + 2)
    # membership is arithmetic, and agrees with [0, B] u [N-1-B, N-1] in range
    assert members == (set(range(db.bound + 1)) | set(range(n - 1 - db.bound, n))) & set(range(n))


# --- wrap encoding ----------------------------------------------------------


def _all_edges(unguarded, guarded) -> list:
    """Every edge of ``_wrap_theory``'s output once: an edge with two guard codes is filed twice."""
    return unguarded + list({id(edge): edge for edges in guarded for edge in edges}.values())


@given(
    st.integers(min_value=0, max_value=10**9),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=2, max_value=6),
)
@settings(max_examples=200, deadline=None)
def test_wrap_encoding_edges_hold_exactly_at_models_with_their_wraps(seed, p, cons, m, n):
    # x ranges one past each end of the residues, so the range edges are tested too
    system = parse_system(gen_random(p, cons, m, n, seed))
    literals, unguarded, guarded, _ = _wrap_theory(system)
    edges = _all_edges(unguarded, guarded)
    for w in itertools.product((0, 1), repeat=len(literals)):
        true = {2 * i + wi for i, wi in enumerate(w)}
        on = [(a, b, k) for a, b, k, guard in edges if true.issuperset(guard)]
        for x in itertools.product(range(-1, n + 1), repeat=system.num_vars):
            values = x + (0,)  # the zero vertex is p
            holds = all(values[a] - values[b] <= k for a, b, k in on)
            expected = (
                all(0 <= v < n for v in x)
                and satisfies(system, dict(enumerate(x)))
                and w == tuple(int(x[v] >= n - k) for v, k in literals)
            )
            assert holds == expected


# --- static lemmas ----------------------------------------------------------


def test_static_lemmas_hold_at_every_model():
    # checked against models found by enumeration, not by the solver; offsets
    # up to 8 at N <= 8 make terms wrap, and make many systems unsatisfiable
    checked = units = 0
    for seed in range(1000):
        rng = random.Random(seed)
        n = rng.randint(2, 8)
        system = parse_system(gen_random(rng.randint(1, 3), rng.randint(1, 6), rng.randint(0, 8), n, seed))
        literals, _, _, lemmas = _wrap_theory(system)
        units += sum(len(clause) == 1 for clause in lemmas)
        for x in itertools.product(range(n), repeat=system.num_vars):
            if satisfies(system, dict(enumerate(x))):
                true = {2 * i + (x[v] >= n - k) for i, (v, k) in enumerate(literals)}
                assert all(true.intersection(clause) for clause in lemmas), (seed, x)
                checked += len(lemmas)
    assert checked > 1000 and units > 500  # lemma checks at models, and lemmas of one literal


def _planted_many_literals(seed: int, num_vars=30, lines=600, max_offset=2**20, n=2**32) -> str:
    """``x + k <= y + l`` lines that hold at a planted model; nearly every term is a literal of its own."""
    rng = random.Random(seed)
    value = [rng.randrange(n) for _ in range(num_vars)]
    out = [f"mod {n}"]
    for _ in range(lines):
        (x, k), (y, l) = [(rng.randrange(num_vars), rng.randint(0, max_offset)) for _ in range(2)]
        if (value[x] + k) % n > (value[y] + l) % n:
            (x, k), (y, l) = (y, l), (x, k)
        out.append(f"x{x} + {k} <= x{y} + {l}")
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("seed", range(3))
def test_static_lemmas_stay_small_on_many_literals(seed):
    # about 40 literals per variable, so a pass that tried every pair of
    # bounds of an edge would be quadratic in them
    system = parse_system(_planted_many_literals(seed))
    with time_limit(2.0):
        literals, unguarded, guarded, lemmas = _wrap_theory(system)
        out = solve(system)
    assert len(literals) > 1000
    assert out.stats.lemmas == len(lemmas) <= 3 * len(_all_edges(unguarded, guarded)) + len(literals)
    assert out.sat and satisfies(system, out.model)


def _two_pass(system):
    """The literals, unguarded edges, guarded lists and lemmas of the old two-pass encoding."""
    literals, edges = _wrap_encoding(system)
    lemmas = _static_lemmas(literals, edges, system.modulus.n, system.num_vars)
    return literals, [edge for edge in edges if not edge[3]], guarded_lists(literals, edges), lemmas


def _wheel(rim: int) -> Graph:
    return Graph.from_edges(rim + 1, [(v, (v + 1) % rim) for v in range(rim)] + [(v, rim) for v in range(rim)])


def test_wrap_theory_matches_the_two_pass_encoding():
    # same items in the same order, so the search reads the same clauses and
    # edges; gen_random with few variables writes x + k <= x + l and
    # x <= r lines, whose literals bound both ends or meet the zero vertex
    same_variable = constants = 0
    for seed in range(1500):
        rng = random.Random(seed)
        n = rng.choice([2, 3, 5, 8, 2**32])
        system = parse_system(gen_random(rng.randint(1, 4), rng.randint(1, 8), rng.randint(0, 9), n, seed))
        assert _wrap_theory(system) == _two_pass(system), seed
        for c in system.constraints:
            if isinstance(c.rhs, Term):
                same_variable += c.lhs.var == c.rhs.var and c.lhs.offset % n != c.rhs.offset % n
            else:
                constants += 1
    assert same_variable > 300 and constants > 1000
    graphs = [Graph.complete(4), _wheel(5), Graph.cycle(5), petersen()]
    for graph, variant, n in itertools.product(graphs, Variant, (16, 2**32)):
        system, _ = encode_3col(graph, Modulus(n), variant)
        assert _wrap_theory(system) == _two_pass(system), (graph, variant, n)
    for seed in range(3):
        system = parse_system(_planted_many_literals(seed))
        assert _wrap_theory(system) == _two_pass(system), seed


@pytest.mark.parametrize(
    "text", ["mod 8\nx + 1 <= 0\nx + 1 >= 1\n", "mod 8\nx + 1 >= 1\nx + 1 <= 0\n"], ids=["wrap-first", "no-wrap-first"]
)
def test_solve_meets_contradicting_unit_lemmas_as_a_level_zero_conflict(text):
    # the lemmas are the units "x + 1 wraps" and "x + 1 does not wrap", in
    # either order; propagating the first meets the second as a conflict,
    # after the engine took x's two range bounds and before it took more
    system = parse_system(text)
    assert sorted(_wrap_theory(system)[3]) == [(0,), (1,)]
    assert solve(system).stats == ("cdcl", 0, 1, 2, 2, 0, 0, 0, 0)


@pytest.mark.parametrize("text", ["mod 8\nx < 0\n", "mod 2\nx > 1\n"])
def test_solve_refuses_a_negative_cycle_of_unguarded_edges_before_the_lemmas(text):
    # the lemma pass gives the empty clause here, but ``solve`` adds the
    # unguarded edges first and stops at their cycle, with no lemma counted:
    # the third of its three adds closes the one cycle, in one race that
    # settles x and meets the zero vertex on the one edge it reads
    system = parse_system(text)
    assert () in _wrap_theory(system)[3]
    assert solve(system) == (False, None, ("cdcl", 0, 1, 0, 3, 1, 1, 1, 1))


@pytest.mark.parametrize(
    "graph, variant",
    [(Graph.complete(4), Variant.STRICT), (Graph.cycle(5), Variant.NONSTRICT)],
    ids=["unsat-at-level-zero", "sat"],
)
def test_search_stats_are_the_engines_own_counts(monkeypatch, graph, variant):
    # what each of solve's returns reports is what its engine counted, the
    # model's ``greatest`` included
    engines = []

    class Recorded(DiffEngine):
        def __init__(self):
            super().__init__()
            engines.append(self)

    monkeypatch.setattr("mdlsat.mdl.DiffEngine", Recorded)
    stats = solve(encode_3col(graph, Modulus(2**32), variant)[0]).stats
    (engine,) = engines
    assert engine.repairs > 0
    assert stats[4:] == (engine.adds, engine.cycles, engine.repairs, engine.steps, engine.scanned)


# --- complete solver --------------------------------------------------------


def test_solve_intro_pair():
    system = _intro()
    out = solve(system)
    assert out.sat and satisfies(system, out.model)


def test_solve_wraparound_cycle_sat_where_integers_fail():
    system = parse_system(gen_idl_paper(10))
    out = solve(system)
    assert out.sat and satisfies(system, out.model)
    assert brute_force_sat(system).sat


def test_solve_chain_unsat():
    assert not solve(parse_system(gen_chain(5))).sat


def test_solve_huge_modulus():
    system = _intro(2**32)
    out = solve(system)
    assert out.sat and out.model == {0: 2**32 - 1}


def test_outcomes_and_stats_are_immutable():
    out = solve(_intro())
    with pytest.raises(AttributeError):
        out.sat = False
    with pytest.raises(AttributeError):
        out.stats.nodes = 0


def test_solve_unconstrained_variables_get_values():
    symbols = SymbolTable(["a", "b"])
    system = ConstraintSystem(Modulus(9), symbols, ())
    out = solve(system)
    assert out.sat and out.model == {0: 8, 1: 8}


def test_solve_duplicate_and_same_variable_constraints():
    assert solve(parse_system("mod 6\nx <= y\nx <= y\nx < x + 1\n")).sat
    assert not solve(parse_system("mod 6\nx < x\n")).sat


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=150, deadline=None, phases=SEED_PHASES)
def test_solve_matches_oracle(seed):
    rng = random.Random(seed)
    p = rng.randint(1, 3)
    n = rng.randint(2, 12)
    m = rng.randint(0, 2)
    cons = rng.randint(1, 6)
    system = parse_system(gen_random(p, cons, m, n, seed))
    out = solve(system)
    assert out.sat == brute_force_sat(system).sat
    if out.sat:
        assert satisfies(system, out.model)
        bound = small_model_bound(system)
        assert all(v in bound for v in out.model.values())


def test_solve_k4_at_two_to_the_32_is_unsat_within_two_seconds():
    system, _ = encode_3col(Graph.complete(4), Modulus(2**32), Variant.NONSTRICT)
    with time_limit(2.0):
        out = solve(system)
    assert not out.sat


def test_solve_big_offset_at_two_to_the_32():
    system = parse_system(f"mod {2**32}\nx + 100000 <= y\n")
    with time_limit(2.0):
        out = solve(system)
    assert out.sat and satisfies(system, out.model)


def _k4_search_counts(variant, moduli) -> set:
    counts = set()
    for n in moduli:
        system, _ = encode_3col(Graph.complete(4), Modulus(n), variant)
        with time_limit(2.0):
            out = solve(system)
        counts.add((out.sat, out.stats.nodes, out.stats.conflicts))
    return counts


def test_decisions_do_not_depend_on_the_modulus():
    assert _k4_search_counts(Variant.NONSTRICT, (4, 16, 64, 2**32)) == {(False, 8, 9)}


def test_strict_decisions_do_not_depend_on_the_modulus():
    # the strict twin: literal levels are bookkeeping that must not read N either
    assert _k4_search_counts(Variant.STRICT, (9, 16, 64, 2**32)) == {(False, 8, 9)}


def _wheel5():
    """The rim cycle on 0..4 and the hub, vertex 5, last."""
    return Graph.from_edges(6, [(v, (v + 1) % 5) for v in range(5)] + [(v, 5) for v in range(5)])


@pytest.mark.parametrize(
    "graph, variant, sat, nodes, conflicts, engine",
    [
        (Graph.complete(4), Variant.STRICT, False, 8, 9, (253, 4, 24, 79, 257)),
        (_wheel5(), Variant.NONSTRICT, False, 12, 13, (350, 6, 20, 73, 436)),
        (Graph.cycle(5), Variant.NONSTRICT, True, 15, 5, (220, 5, 12, 77, 277)),
        (petersen(), Variant.NONSTRICT, True, 32, 10, (590, 10, 25, 186, 714)),
        (petersen(), Variant.STRICT, True, 32, 10, (635, 10, 65, 276, 984)),
    ],
    ids=["k4-strict", "w5-nonstrict", "c5-nonstrict", "petersen-nonstrict", "petersen-strict"],
)
def test_ladder_search_counts_at_two_to_the_32(graph, variant, sat, nodes, conflicts, engine):
    # the search is deterministic, so a refactor that keeps it keeps these
    # counts; ``engine`` is the engine's adds, the negative cycles they
    # returned, its races, and the vertices settled and edges read by its searches
    system, _ = encode_3col(graph, Modulus(2**32), variant)
    with time_limit(2.0):
        out = solve(system)
    assert (out.sat, out.stats.nodes, out.stats.conflicts) == (sat, nodes, conflicts)
    assert (out.stats.adds, out.stats.cycles, out.stats.repairs, out.stats.steps, out.stats.scanned) == engine


def _gnm(n: int, degree: float) -> Graph:
    """G(n, m) with m = round(n*degree/2): ``rng.sample(range(n), 2)`` from a
    fresh ``random.Random(0)`` until m distinct edges exist."""
    rng = random.Random(0)
    edges = set()
    while len(edges) < round(n * degree / 2):
        v, w = rng.sample(range(n), 2)
        edges.add((min(v, w), max(v, w)))
    return Graph(n, frozenset(edges))


@pytest.mark.parametrize(
    "n, degree, variant, sat, counts",
    [
        (40, 4.6, Variant.NONSTRICT, False, (119, 98, 1104, 10616, 39)),
        (40, 4.6, Variant.STRICT, False, (119, 98, 1932, 11830, 39)),
        (60, 4.0, Variant.NONSTRICT, True, (290, 66, 1440, 8990, 60)),
        (60, 4.0, Variant.STRICT, True, (290, 66, 2520, 9934, 60)),
        (60, 4.6, Variant.STRICT, False, (197, 132, 2898, 18795, 50)),
    ],
    ids=["n40-d4.6-nonstrict", "n40-d4.6-strict", "n60-d4.0-nonstrict", "n60-d4.0-strict", "n60-d4.6-strict"],
)
def test_random_rung_search_counts_at_two_to_the_32(n, degree, variant, sat, counts):
    # the random rungs of scripts/compare.py --random, whose trails run
    # deeper than the ladder's: decisions, conflicts, static lemmas, engine
    # adds and the negative cycles they returned
    system, _ = encode_3col(_gnm(n, degree), Modulus(2**32), variant)
    with time_limit(10.0):
        out = solve(system)
    assert out.sat == sat
    assert (out.stats.nodes, out.stats.conflicts, out.stats.lemmas, out.stats.adds, out.stats.cycles) == counts
    if out.sat:
        assert satisfies(system, out.model)


@pytest.mark.parametrize(
    "build, sat, nodes, conflicts",
    [
        (lambda: parse_system(gen_random(8, 8, 100, 64, 2198)), True, 6, 4),
        (lambda: parse_system(gen_random(3, 6, 100, 64, 66)), False, 5, 3),
        (lambda: parse_system(gen_random(8, 8, 20, 16, 186)), False, 5, 5),
        (lambda: _planted_relations(17852), True, 6, 2),
        (lambda: _planted_relations(30381), False, 5, 6),
    ],
    ids=["sat-p8-seed2198", "unsat-p3-seed66", "unsat-p8-seed186", "sat-planted-seed17852", "unsat-planted-seed30381"],
)
def test_kept_literals_keep_their_stamps(build, sat, nodes, conflicts):
    # a literal kept across a backtrack is re-appended to the trail with the
    # stamp of its assignment; ``theory`` adds an edge at the guard literal
    # with the highest stamp, so stamps must follow trail order.  Stamped
    # with its trail position instead (``len(trail)``), a kept literal
    # keeps its old position, which can exceed the one a later literal takes
    # on the shortened trail; ``theory`` then skips edges and the
    # search ends on a non-model that the re-check refuses.  The gen_random
    # seeds went wrong so while the engine ran ahead of unit propagation,
    # and the planted seeds are two of the 7 among 0-59,999 that still do
    # so with propagation first;
    # ``test_every_switched_on_edge_is_live_at_each_decision`` checks for
    # the skip directly
    out = solve(build())
    assert (out.sat, out.stats.nodes, out.stats.conflicts) == (sat, nodes, conflicts)


def _watched_solve(monkeypatch, system) -> tuple:
    """``solve(system)`` with ``DiffEngine`` watched.

    Returns the outcome, the guard codes of each negative cycle the engine
    returned, and each edge that was switched on but missing from the engine
    at a decision or when the model is read.  A code is true when its own
    bound edge, ``guarded[code][0]``, is live.  An edge is switched on when
    all its guard codes are true; the engine never stores a self-loop, so
    one that is switched on counts as missing when it is negative.
    """
    guarded = _wrap_theory(system)[2]
    cycles, missing = [], []
    add, mark, greatest = DiffEngine.add, DiffEngine.mark, DiffEngine.greatest

    def check(engine):
        live = set(engine._trail)
        true = {code for code, edges in enumerate(guarded) if edges[0] in live}
        for code in true:
            for edge in guarded[code]:
                a, b, k, guard = edge
                if true.issuperset(guard) and (edge not in live if a != b else k < 0):
                    missing.append(edge)

    def watched_add(engine, edge):
        cycle = add(engine, edge)
        if cycle is not None:
            cycles.append(frozenset(g for e in cycle for g in e[3]))
        return cycle

    def watched_mark(engine):
        check(engine)
        return mark(engine)

    def watched_greatest(engine, root=None):
        check(engine)
        return greatest(engine, root)

    with monkeypatch.context() as patch:
        patch.setattr(DiffEngine, "add", watched_add)
        patch.setattr(DiffEngine, "mark", watched_mark)
        patch.setattr(DiffEngine, "greatest", watched_greatest)
        out = solve(system)
    return out, cycles, missing


_LADDER = [
    (Graph.complete(4), Variant.NONSTRICT),
    (Graph.complete(4), Variant.STRICT),
    (_wheel5(), Variant.NONSTRICT),
    (Graph.cycle(5), Variant.NONSTRICT),
    (petersen(), Variant.NONSTRICT),
    (petersen(), Variant.STRICT),
]


def _coloring_corpus():
    """The ladder at N = 2^32, then ``_random_graph`` seeds 0-19 in both variants."""
    for graph, variant in _LADDER + [(_random_graph(seed), v) for seed in range(20) for v in Variant]:
        yield (graph, variant), encode_3col(graph, Modulus(2**32), variant)[0]


def test_no_negative_cycle_reaches_the_engine_twice(monkeypatch):
    # each cycle is kept as a clause, which unit propagation scans when its
    # last literal turns false, before the engine sees that literal's edges;
    # K4 met vertex 3's chain v3_c0 < v3_c1 < v3_c2 < v3_c0 five times when
    # the engine ran ahead of propagation and cycles were not kept
    cycles_seen = 0
    for name, system in _coloring_corpus():
        _, cycles, _ = _watched_solve(monkeypatch, system)
        assert len(set(cycles)) == len(cycles), name
        cycles_seen += len(cycles)
    assert cycles_seen >= 300  # 355 when this test was written


def _skip_prone():
    """Inputs on which ``theory`` skips an edge if literals are stamped with
    their trail position, so that one kept across a backtrack keeps a
    position that no longer follows trail order: the ``gen_random`` seeds of
    ``test_kept_literals_keep_their_stamps``, found while the
    engine ran ahead of unit propagation, and three planted seeds on which
    the skip still happens with propagation first."""
    for args in [(8, 8, 100, 64, 2198), (3, 6, 100, 64, 66), (8, 8, 20, 16, 186)]:
        yield args, parse_system(gen_random(*args))
    for seed in (675, 2011, 2279):
        yield seed, _planted_relations(seed)


def test_every_switched_on_edge_is_live_at_each_decision(monkeypatch):
    # what ``theory`` must never do: leave out an edge whose guards are all true
    for name, system in itertools.chain(_coloring_corpus(), _skip_prone()):
        _, _, missing = _watched_solve(monkeypatch, system)
        assert missing == [], name


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    pairs = [(v, w) for v in range(n) for w in range(v + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return Graph(n, frozenset(edges))


@given(small_graphs(), st.sampled_from(list(Variant)), st.sampled_from(["min", 16, 2**32]))
@settings(max_examples=60, deadline=None)
def test_solve_matches_three_coloring_at_wide_moduli(graph, variant, n):
    if n == "min":
        n = 4 if variant is Variant.NONSTRICT else 9
    system, _ = encode_3col(graph, Modulus(n), variant)
    out = solve(system)
    assert out.sat == is_three_colorable(graph)
    if out.sat:
        assert satisfies(system, out.model)


def _random_graph(seed: int) -> Graph:
    """G(n, m) on 8-10 vertices, from 1.2n to 2.2n edges: about half of them 3-colourable."""
    rng = random.Random(seed)
    n = rng.randint(8, 10)
    m = round(n * rng.uniform(1.2, 2.2))
    edges = set()
    while len(edges) < m:
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    return Graph(n, frozenset(edges))


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("seed", range(20))
def test_solve_matches_three_coloring_on_deeper_trails(seed, variant):
    # on these a solve averages 14 conflicts below the current level and 240
    # literals kept across backtracks, against 2 and 27 on random graphs of
    # at most 6 vertices
    graph = _random_graph(seed)
    system, _ = encode_3col(graph, Modulus(2**32), variant)
    with time_limit(10.0):
        out = solve(system)
    assert out.sat == is_three_colorable(graph)
    if out.sat:
        assert satisfies(system, out.model)


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=150, deadline=None, phases=SEED_PHASES)
def test_solve_matches_oracle_when_terms_wrap(seed):
    # offsets near 0, near +N and near -N, so that reduced terms wrap
    rng = random.Random(seed)
    n = rng.randint(2, 12)
    p = rng.randint(1, 3)

    def offset():
        return rng.choice((0, n, -n)) + rng.randint(-2, 2)

    constraints = []
    for _ in range(rng.randint(1, 6)):
        lhs = Term(rng.randrange(p), offset())
        rhs = Term(rng.randrange(p), offset()) if rng.random() < 0.6 else offset()
        constraints.append(Constraint(lhs, rng.choice(list(Relation)), rhs))
    system = ConstraintSystem(Modulus(n), SymbolTable(f"x{i}" for i in range(p)), constraints)
    out = solve(system)
    assert out.sat == brute_force_sat(system).sat
    if out.sat:
        assert satisfies(system, out.model)


_COMPARE = {Relation.LE: operator.le, Relation.LT: operator.lt, Relation.GE: operator.ge, Relation.GT: operator.gt}


def _planted_relations(seed: int) -> ConstraintSystem:
    """2-4 variables mod 5-16 and 3-6 relations x + k REL y + l per variable.

    Each relation holds at a planted model, except that one in ten draws its
    relation at random, so some systems are UNSAT.
    """
    rng = random.Random(seed)
    p, n = rng.randint(2, 4), rng.randint(5, 16)
    value = [rng.randrange(n) for _ in range(p)]
    relations = [r for r in Relation if r is not Relation.EQ]
    constraints = []
    for _ in range(rng.randint(3 * p, 6 * p)):
        x, y = rng.sample(range(p), 2)
        lhs, rhs = Term(x, rng.randrange(n)), Term(y, rng.randrange(n))
        held = [r for r in relations if _COMPARE[r]((value[x] + lhs.offset) % n, (value[y] + rhs.offset) % n)]
        constraints.append(Constraint(lhs, rng.choice(relations if rng.random() < 0.1 else held), rhs))
    return ConstraintSystem(Modulus(n), SymbolTable(f"x{i}" for i in range(p)), constraints)


def test_solve_matches_oracle_where_the_search_meets_conflicts():
    # the static lemmas decide most gen_random systems before any conflict;
    # these denser ones still reach conflict analysis, 424 conflicts in all
    # when this test was written, and the floor notices when they stop;
    # 726 and 2120 are the seeds whose search went wrong when a literal kept
    # across a backtrack kept a stale trail position as its stamp and the
    # engine still ran ahead of unit propagation
    conflicts = unsat = 0
    for seed in (*range(200), 726, 2120):
        system = _planted_relations(seed)
        out = solve(system)
        assert out.sat == brute_force_sat(system).sat, seed
        if out.sat:
            assert satisfies(system, out.model)
        conflicts += out.stats.conflicts
        unsat += not out.sat
    assert 20 <= unsat <= 180
    assert conflicts >= 200


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_solve_models_lie_in_the_small_model_bound(data):
    # at these moduli D is a small part of the range, unless an offset near
    # +N or -N makes m, and with it B, as large as N
    n = data.draw(st.sampled_from([1000, 2**32, 10**12]))
    p = data.draw(st.integers(1, 12))
    centers = [0, n, -n] if data.draw(st.booleans()) else [0]
    offsets = st.builds(int.__add__, st.sampled_from(centers), st.integers(-3, 3))
    terms = st.builds(Term, st.integers(0, p - 1), offsets)
    constraints = data.draw(st.lists(
        st.builds(Constraint, terms, st.sampled_from(list(Relation)), st.one_of(terms, offsets)),
        min_size=1,
        max_size=2 * p,
    ))
    system = ConstraintSystem(Modulus(n), SymbolTable(f"x{i}" for i in range(p)), constraints)
    out = solve(system)
    if out.sat:
        assert satisfies(system, out.model)
        bound = small_model_bound(system)
        assert all(v in bound for v in out.model.values())


# --- clusters ---------------------------------------------------------------


def _one_var_system(n=100):
    # p = 1, m = 1
    return parse_system(f"mod {n}\nx >= 1\n")


def test_clusters_single_variable():
    clusters = compute_clusters(_one_var_system(), {0: 50})
    assert [(set(c.members), c.lo, c.hi) for c in clusters] == [
        ({V_MIN}, 0, 1),
        ({0}, 49, 51),
        ({V_MAX}, 98, 99),
    ]


def test_clusters_equal_values_group_together():
    system = parse_system("mod 100\nx = y\ny = z\n")  # m = 0
    clusters = compute_clusters(system, {0: 50, 1: 50, 2: 50})
    inner = [c for c in clusters if c.is_inner()]
    assert len(inner) == 1
    assert inner[0].members == frozenset({0, 1, 2})
    assert (inner[0].lo, inner[0].hi) == (50, 50)


def test_clusters_edge_condition_joins_at_exactly_2m():
    clusters = compute_clusters(_one_var_system(), {0: 2})
    assert clusters[0].members == {V_MIN, 0}
    assert (clusters[0].lo, clusters[0].hi) == (0, 3)
    # one further out, the variable stands alone
    clusters = compute_clusters(_one_var_system(), {0: 3})
    assert clusters[0].members == {V_MIN}


def test_cluster_domains_are_disjoint_and_ordered():
    rng = random.Random(11)
    for seed in range(80):
        system = parse_system(gen_random(3, 4, 2, rng.randint(8, 30), seed))
        assignment = {v: rng.randrange(system.modulus.n) for v in range(system.num_vars)}
        clusters = compute_clusters(system, assignment)
        for left, right in zip(clusters, clusters[1:]):
            assert left.hi < right.lo


# --- normalization ----------------------------------------------------------


def test_normalize_rejects_non_solutions():
    with pytest.raises(NotASolutionError):
        normalize_solution(_intro(), {0: 3})


def test_normalize_packed_solution_is_fixpoint():
    system = _one_var_system()
    assert normalize_solution(system, {0: 3}) == {0: 3}
    assert list(left_pack_steps(system, {0: 3})) == []


def test_normalize_single_inner_cluster():
    # left neighbor is v_min's cluster with domain [0, 1]; the inner cluster's
    # domain shifts to start at 2, placing the variable at 3
    system = _one_var_system()
    result = normalize_solution(system, {0: 50})
    assert result == {0: 3}
    clusters = compute_clusters(system, result)
    assert (clusters[1].lo, clusters[1].hi) == (2, 4)


def test_normalize_leaves_top_cluster_alone():
    system = _intro()
    assert normalize_solution(system, {0: 15}) == {0: 15}


def test_normalize_intermediate_steps_stay_solutions():
    rng = random.Random(3)
    checked = 0
    for seed in range(300):
        n = rng.randint(6, 40)
        system = parse_system(gen_random(3, 3, 1, n, seed))
        out = brute_force_sat(system)
        if not out.sat:
            continue
        # start from a random model so packing has work to do
        values = None
        for trial in range(200):
            candidate = {v: rng.randrange(n) for v in range(system.num_vars)}
            if satisfies(system, candidate):
                values = candidate
                break
        if values is None:
            values = out.model
        previous = dict(values)
        for step in left_pack_steps(system, values):
            assert satisfies(system, step)
            assert sum(step.values()) < sum(previous.values())
            previous = step
        checked += 1
    assert checked > 50


def test_normalize_lands_in_bounded_domain_with_small_gaps():
    rng = random.Random(5)
    for seed in range(200):
        n = rng.randint(4, 60)
        system = parse_system(gen_random(3, 4, 2, n, seed))
        out = solve(system)
        if not out.sat:
            continue
        result = normalize_solution(system, out.model)
        assert satisfies(system, result)
        bound = small_model_bound(system)
        assert all(v in bound for v in result.values())
        # on the low side, consecutive distinct values step by at most 2m+1
        m = system.max_abs_constant
        clusters = compute_clusters(system, result)
        low_values = {0}
        for cluster in clusters:
            if V_MAX not in cluster.members:
                low_values.update(result[v] for v in cluster.members if v >= 0)
        ordered = sorted(low_values)
        for a, b in zip(ordered, ordered[1:]):
            assert b - a <= 2 * m + 1
