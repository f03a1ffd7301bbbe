import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import reference_engine
from conftest import SEED_PHASES, time_limit
from mdlsat.core import parse_system
from mdlsat.idl import (
    DiffEngine,
    IdlConstraint,
    check_idl_cycle,
    check_idl_model,
    relax_to_idl,
    solve_idl,
)


c = IdlConstraint


# The four-constraint cycle whose inequalities add up to -1.
PAPER_CYCLE = (c(0, 1, -3), c(1, 2, 1), c(2, 3, -2), c(3, 0, 3))


# --- relaxation -------------------------------------------------------------


def test_relax_intro_pair():
    system = parse_system("mod 16\nx >= 0\nx + 1 <= 0\n")
    rel = relax_to_idl(system)
    z = rel.zero_var
    assert z == 1
    assert rel.constraints == (c(z, 0, 0, 0), c(0, z, -1, 1))


def test_relax_strict_tightens_by_one():
    system = parse_system("mod 10\nx + 2 < y - 1\n")
    rel = relax_to_idl(system)
    assert rel.constraints == (c(0, 1, -4, 0),)
    assert rel.zero_var is None


def test_relax_equality_splits():
    system = parse_system("mod 10\nx = y\n")
    assert relax_to_idl(system).constraints == (c(0, 1, 0, 0), c(1, 0, 0, 0))


def test_relax_constant_forms_and_zero_freshness():
    system = parse_system("mod 10\nzero + 1 <= 3\nzero > -2\nzero = 5\n")
    rel = relax_to_idl(system)
    z = rel.zero_var
    assert z == 1
    assert rel.constraints == (
        c(0, z, 2, 0),
        c(z, 0, 1, 1),
        c(0, z, 5, 2),
        c(z, 0, -5, 2),
    )


def test_relax_ge_gt_between_terms():
    system = parse_system("mod 10\nx + 1 >= y - 2\nx > y\n")
    rel = relax_to_idl(system)
    assert rel.constraints == (c(1, 0, 3, 0), c(1, 0, -1, 1))


def test_relax_records_origins():
    system = parse_system("mod 16\nx >= 0\nx + 1 <= 0\n")
    rel = relax_to_idl(system)
    assert [r.origin for r in rel.constraints] == [0, 1]


def test_relaxations_and_outcomes_are_immutable():
    rel = relax_to_idl(parse_system("mod 16\nx >= 0\n"))
    out = solve_idl(rel.constraints)
    with pytest.raises(AttributeError):
        rel.zero_var = None
    with pytest.raises(AttributeError):
        out.sat = False


# --- decision procedure -----------------------------------------------------


def test_solve_idl_paper_system_unsat_with_exact_certificate():
    out = solve_idl(PAPER_CYCLE)
    assert not out.sat
    assert check_idl_cycle(out.cycle)
    assert sum(e.k for e in out.cycle) == -1
    assert out.cycle == PAPER_CYCLE  # rotated to start at the smallest vertex


def test_solve_idl_single_edge_model():
    out = solve_idl([c(0, 1, -3)])
    assert out.sat
    assert out.model == {0: -3, 1: 0}


def test_solve_idl_empty():
    out = solve_idl([])
    assert out.sat and out.model == {}


def test_solve_idl_vacuous_self_loop_keeps_its_variable():
    assert solve_idl([c(0, 0, 3)]).model == {0: 0}
    out = solve_idl([c(0, 0, 3), c(0, 1, 1), c(2, 2, 0)])
    assert out.sat and out.model == {0: 0, 1: 0, 2: 0}


def test_solve_idl_parallel_edges_give_the_lightest_edge_model():
    lightest = solve_idl([c(0, 1, -1)]).model
    assert lightest == {0: -1, 1: 0}
    assert solve_idl([c(0, 1, 2), c(0, 1, -1)]).model == lightest
    assert solve_idl([c(0, 1, -1), c(0, 1, 2), c(0, 1, -1)]).model == lightest


def test_solve_idl_trivial_self_loop_certificate():
    out = solve_idl([c(0, 1, 5), c(2, 2, -4)])
    assert not out.sat
    assert out.cycle == (c(2, 2, -4),)
    assert check_idl_cycle(out.cycle)


def test_cycle_checker_rejects_broken_chains():
    assert not check_idl_cycle([])
    assert not check_idl_cycle([c(0, 1, -5)])  # not closed
    assert not check_idl_cycle([c(0, 1, 1), c(1, 0, 1)])  # nonnegative total
    assert check_idl_cycle([c(0, 1, -2), c(1, 0, 1)])


# --- incremental engine ------------------------------------------------------


# Each example of a property test runs under this wall-clock limit, so that a
# repair that never returns fails the test instead of hanging the suite.
EXAMPLE_SECONDS = 10.0


def _greatest_at_most_zero(vertices, edges):
    """Bellman-Ford from a virtual source with a 0 edge to every vertex."""
    dist = dict.fromkeys(vertices, 0)
    for _ in range(len(dist)):
        for e in edges:
            dist[e.x] = min(dist[e.x], dist[e.y] + e.k)
    return dist


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=200, deadline=None, phases=SEED_PHASES)
def test_engine_add_and_backtrack_keep_a_feasible_potential(seed):
    with time_limit(EXAMPLE_SECONDS):
        rng = random.Random(seed)
        engine = DiffEngine()
        live = []  # (engine mark before the add, step)
        marks = [engine.mark()]
        added = {}  # step -> the edge added then, its origin the step
        adds = cycles = 0  # what engine.adds and engine.cycles must read; a backtrack keeps them
        for step in range(rng.randint(1, 60)):
            if live and rng.random() < 0.2:
                mark = rng.choice([m for m in marks if m <= engine.mark()])
                engine.backtrack(mark)
                live = [(m, r) for m, r in live if m < mark]
            else:
                new = c(rng.randrange(5), rng.randrange(5), rng.randint(-6, 6), step)
                added[step] = new
                before = engine.mark()
                cycle = engine.add(new)
                adds, cycles = adds + 1, cycles + (cycle is not None)
                if cycle is None:
                    live.append((before, step))
                else:
                    # the edges passed in, in chain order, starting with the new one
                    assert cycle[0] is new
                    assert all(e is added[e.origin] for e in cycle)
                    assert {e.origin for e in cycle} - {step} <= {r for _, r in live}
                    assert check_idl_cycle(cycle)
                    starts = [e.x for e in cycle]
                    assert len(set(starts)) == len(starts)
                    assert engine.mark() == before
                marks.append(engine.mark())
            assert (engine.adds, engine.cycles) == (adds, cycles)
            edges = [added[r] for _, r in live]
            pi = engine.pi
            assert all(pi.get(e.x, 0) - pi.get(e.y, 0) <= e.k for e in edges)
            # greatest() is the greatest solution <= 0 of the live edges, before
            # and after retractions
            assert engine.greatest() == _greatest_at_most_zero(pi, edges)
            # greatest(root) is the shortest-path distance from root along the
            # live edges, here by Bellman-Ford: x - y <= k takes y's distance
            # plus k on to x
            root = rng.randrange(5)
            dist = {root: 0}
            for _ in range(5):
                for e in edges:
                    if e.y in dist and (e.x not in dist or dist[e.y] + e.k < dist[e.x]):
                        dist[e.x] = dist[e.y] + e.k
            greatest = engine.greatest(root)
            assert greatest == dist
            assert all(greatest[e.x] - greatest[e.y] <= e.k for e in edges if e.y in greatest)


def test_engine_raises_y_instead_of_lowering_a_hub():
    # x = 0 has 100 edges v - x <= 0 into it and y = 101 one out-edge, so
    # raising y is charged far less than lowering x and its neighbours
    engine = DiffEngine()
    for v in range(1, 101):
        assert engine.add(c(v, 0, 0)) is None
    assert engine.add(c(101, 102, 5)) is None
    before = dict(engine.pi)
    assert engine.add(c(0, 101, -1)) is None
    assert engine.pi == {**before, 101: before[101] + 1}


def test_a_cycle_closed_from_the_raising_side_comes_back_in_chain_order():
    engine = DiffEngine()
    chain = [c(101, 102, 0), c(102, 103, -2), c(103, 0, 0)]
    for e in [c(v, 0, 0) for v in range(1, 101)] + chain:
        assert engine.add(e) is None
    before = dict(engine.pi)
    new = c(0, 101, 1)
    cycle = engine.add(new)
    # found from y = 101 forward to x = 0, and handed back from the new edge
    assert cycle == (new, *chain)
    assert all(e is f for e, f in zip(cycle, (new, *chain)))
    assert check_idl_cycle(cycle)
    assert engine.pi == before


def test_a_hub_closes_a_cycle_through_the_earlier_of_two_parallel_edges():
    # lowering x = 300 pushes the hub 0 down, and the hub has 102 edges into
    # it against y = 200's three out-edges; both parallel edges 200 - 0 <= 1
    # and 200 - 0 <= 0 then close a negative cycle, and the first one added
    # is the one handed back, as the hub's own scan would meet it first
    engine = DiffEngine()
    edges = [c(v, 0, 0) for v in range(1, 101)] + [c(200, 0, 1), c(200, 0, 0), c(0, 300, 0)]
    edges += [c(200, 201, 0)] + [c(201, w, 9) for w in range(1000, 1150)]  # y's side is dear
    for e in edges:
        assert engine.add(e) is None
    new = c(300, 200, -2)
    cycle = engine.add(new)
    assert cycle == (new, c(200, 0, 1), c(0, 300, 0))
    assert cycle[1] is edges[100]  # not the lighter edges[101]
    reference = reference_engine.DiffEngine()
    for e in edges:
        reference.add(e.x, e.y, e.k, e)
    assert reference.add(new.x, new.y, new.k, new) == cycle


def test_a_one_step_repair_moves_only_the_root():
    # x = 0 has three in-edges with slack 5 and 7, y = 10 four out-edges:
    # lowering x by 5 breaks none of them, so only pi[x] moves
    engine = DiffEngine()
    _name_at_zero(engine, [0, 1, 2, 3, *range(10, 15)])
    for e in [c(1, 0, 5), c(2, 0, 7), c(3, 0, 5)] + [c(10, w, 0) for w in range(11, 15)]:
        assert engine.add(e) is None
    before = dict(engine.pi)
    new = c(0, 10, -5)
    assert engine.add(new) is None
    assert engine.pi == {**before, 0: -5}
    _assert_stored_last(engine, new)  # not the last of x's edges that the move was checked against


def test_a_one_step_repair_moves_only_the_root_from_the_raising_side():
    # the mirror case: x = 0 has four in-edges and y = 10 three out-edges
    # with slack 5 and 7, so raising y by 5 is tried first and breaks none
    engine = DiffEngine()
    _name_at_zero(engine, [0, 1, 2, 3, *range(10, 15)])
    for e in [c(w, 0, 0) for w in range(11, 15)] + [c(10, 1, 5), c(10, 2, 7), c(10, 3, 5)]:
        assert engine.add(e) is None
    before = dict(engine.pi)
    new = c(0, 10, -5)
    assert engine.add(new) is None
    assert engine.pi == {**before, 10: 5}
    _assert_stored_last(engine, new)


def _name_at_zero(engine, vertices):
    """Let ``engine`` see each vertex at 0 through a vacuous self-loop, which
    it never stores, so that later edges start from a potential of all 0."""
    for v in vertices:
        assert engine.add(c(v, v, 0)) is None
    assert engine.mark() == 0 and engine.pi == dict.fromkeys(vertices, 0)


def _assert_stored_last(engine, edge):
    """The last edge ``engine`` stored is ``edge`` itself, in all three lists."""
    assert engine._trail[-1] is edge
    assert engine._into[edge.y][-1] is edge
    assert engine._out[edge.x][-1] is edge


def test_the_stored_edge_is_the_argument_with_and_without_a_repair():
    engine = DiffEngine()
    for e in [c(1, 0, 0), c(2, 1, 0), c(3, 2, 0), c(0, 4, 3), c(4, 5, 0)]:
        assert engine.add(e) is None
        _assert_stored_last(engine, e)
    # 0 - 4 <= -2 is violated by 2; lowering 0 alone breaks 1 - 0 <= 0 and
    # raising 4 alone breaks 4 - 5 <= 0, so the race runs, and raising wins
    new = c(0, 4, -2)
    before = engine.mark()
    assert engine.add(new) is None
    assert engine.mark() == before + 1
    _assert_stored_last(engine, new)
    assert engine.pi == {0: 0, 1: 0, 2: 0, 3: 0, 4: 2, 5: 2}


def test_a_repair_may_need_to_move_both_sides_of_the_zero_vertex():
    # z stands for 0, with v >= z, w <= z, x <= z and y >= z; then x - y <= -10.
    # Lowering x alone pushes v below z through v - x <= 5, and raising y
    # alone pushes w above z through y - w <= 5, yet x = -5, y = 5 with v, w
    # and z at 0 satisfies every edge: an engine that pins z must be able
    # to move x and y at once, since neither one-sided push is a cycle
    engine = DiffEngine()
    _name_at_zero(engine, ["z", "v", "w", "x", "y"])
    edges = [c("z", "v", 0), c("w", "z", 0), c("x", "z", 0), c("z", "y", 0), c("v", "x", 5), c("y", "w", 5)]
    for e in edges:
        assert engine.add(e) is None
    new = c("x", "y", -10)
    assert engine.add(new) is None
    model = engine.greatest("z")
    assert model == {"z": 0, "w": 0, "x": -5, "y": 5, "v": 0}
    assert check_idl_model(edges + [new], model)
    for one_side in ({"x": -10}, {"y": 10}):
        assert not check_idl_model(edges + [new], dict.fromkeys("zvwxy", 0) | one_side)


def test_a_cycle_closed_from_the_lowering_side_comes_back_in_chain_order():
    # x = 0 has one edge into it and y = 1 a hundred out-edges, so lowering x
    # steps first and reaches y through 2
    engine = DiffEngine()
    chain = [c(1, 2, 0), c(2, 0, 0)]
    for e in chain + [c(1, w, 9) for w in range(1000, 1100)]:
        assert engine.add(e) is None
    before, pi = engine.mark(), dict(engine.pi)
    new = c(0, 1, -1)
    cycle = engine.add(new)
    assert cycle == (new, *chain)
    assert all(e is f for e, f in zip(cycle, (new, *chain)))
    assert check_idl_cycle(cycle)
    # the edge that closes a cycle is not stored, and pi is left as it was
    assert engine.mark() == before and engine.pi == pi
    assert all(e is not new for e in engine._trail + engine._into[1] + engine._out[0])


def test_a_negative_self_loop_is_a_cycle_of_itself_and_never_stored():
    engine = DiffEngine()
    loop, vacuous = c(7, 7, -1), c(8, 8, 0)
    cycle = engine.add(loop)
    assert cycle == (loop,) and cycle[0] is loop
    assert engine.add(vacuous) is None
    assert engine.mark() == 0 and engine.pi == {7: 0, 8: 0}
    assert (engine.adds, engine.cycles) == (2, 1)  # both calls count, and the one cycle


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=200, deadline=None, phases=SEED_PHASES)
def test_engine_matches_the_reference_engine_around_a_busy_vertex(seed):
    # vertex 0 first gets 30-100 edges to and from vertices 1-5, so many of
    # them are parallel and any stop vertex is adjacent to it; random adds,
    # some parallel to an earlier edge, and backtracks follow.  The reference
    # engine starts every vertex at 0, so a new end is placed for it where
    # its edge is tight, as DiffEngine.add places it
    with time_limit(EXAMPLE_SECONDS):
        rng = random.Random(seed)
        engine, reference = DiffEngine(), reference_engine.DiffEngine()
        hub = rng.randint(30, 100)
        marks = [engine.mark()]
        pairs = []
        for step in range(hub + rng.randint(20, 60)):
            if step >= hub and rng.random() < 0.15:
                mark = rng.choice([m for m in marks if m <= engine.mark()])
                engine.backtrack(mark)
                reference.backtrack(mark)
            else:
                if step < hub:
                    w = rng.randint(1, 5)
                    x, y = rng.choice([(0, w), (w, 0)])
                elif rng.random() < 0.3:
                    x, y = rng.choice(pairs)
                else:
                    x, y = rng.randrange(6), rng.randrange(6)
                pairs.append((x, y))
                k = rng.randint(-2, 6) if step < hub else rng.randint(-6, 6)
                cycle = engine.add((x, y, k, step))
                pi = reference.pi
                if x not in pi:
                    if y in pi:
                        pi[x] = pi[y] + k
                elif y not in pi:
                    pi[y] = pi[x] - k
                expected = reference.add(x, y, k, step)  # the tags of the cycle's edges
                assert (None if cycle is None else tuple(e[3] for e in cycle)) == expected
            assert engine.mark() == reference.mark()
            marks.append(engine.mark())
            assert engine.pi == reference.pi
            assert engine.greatest() == reference.greatest()
            root = rng.randrange(6)
            assert engine.greatest(root) == reference.greatest(root)


def _planted_idl(rng, size, bound_slack, relation_slack):
    """Bounds and relations that a planted model satisfies, as two lists.

    Vertex ``size`` stands for 0.  Each vertex gets one bound v - zero <= k
    or zero - v <= k, and there are 3 * size relations x - y <= k; each
    constraint's slack at the model is drawn from its range.  Vertex 0 is
    planted at 0 too, so its bound, which names two new vertices, holds
    where both start.
    """
    zero = size
    value = [0] + [rng.randint(0, 10**6) for _ in range(size - 1)] + [0]
    bounds = []
    for v in range(size):
        s = rng.randint(*bound_slack)
        bounds.append(c(v, zero, value[v] + s) if rng.random() < 0.5 else c(zero, v, s - value[v]))
    relations = []
    for _ in range(3 * size):
        x, y = rng.sample(range(size), 2)
        relations.append(c(x, y, value[x] - value[y] + rng.randint(*relation_slack)))
    return bounds, relations


def _dijkstra_calls(monkeypatch) -> list:
    """The arguments after ``dist`` and ``parent`` of each later
    ``DiffEngine._dijkstra`` call: a repair passes the side, the cap and the
    stop vertex, ``greatest`` nothing."""
    calls = []
    dijkstra = DiffEngine._dijkstra

    def counted(self, *args, **kwargs):
        calls.append(args[2:])
        return dijkstra(self, *args, **kwargs)

    monkeypatch.setattr(DiffEngine, "_dijkstra", counted)
    return calls


def test_add_places_a_new_end_where_its_edge_is_tight(monkeypatch):
    calls = _dijkstra_calls(monkeypatch)
    engine = DiffEngine()
    assert engine.add(c(1, 2, 4)) is None  # both ends new: both at 0
    assert engine.pi == {1: 0, 2: 0}
    assert engine.add(c(3, 1, 5)) is None  # x new, y placed: pi[x] = pi[y] + k
    assert engine.pi == {1: 0, 2: 0, 3: 5}
    assert engine.add(c(3, 4, -6)) is None  # y new, x placed: pi[y] = pi[x] - k
    assert engine.pi == {1: 0, 2: 0, 3: 5, 4: 11}
    loop = c(5, 5, -1)
    assert engine.add(loop) == (loop,)  # a new negative self-loop is seen, at 0
    assert engine.pi == {1: 0, 2: 0, 3: 5, 4: 11, 5: 0}
    assert engine.mark() == 3
    assert calls == []


def test_vertices_placed_by_their_bounds_need_no_repair(monkeypatch):
    # each vertex is first named by its bound, so it is placed within 3 of
    # the model, and no relation with slack 6 or more is then violated
    bounds, relations = _planted_idl(random.Random(5), 40, (0, 3), (6, 20))
    calls = _dijkstra_calls(monkeypatch)
    out = solve_idl(bounds + relations)
    assert calls == [()]  # greatest's one search, and no repair
    assert out.sat
    assert out.model == _greatest_at_most_zero(range(len(bounds) + 1), bounds + relations)


@pytest.mark.parametrize("order", ["bounds-first", "shuffled", "relations-only"])
def test_placement_keeps_the_verdict_model_and_closing_constraint(order):
    # DiffEngine.add places new vertices; the reference engine, fed the
    # same constraints in order with every vertex at 0, must agree with
    # solve_idl on all that does not depend on pi: the verdict, the model
    # and the closing constraint, though not always which cycle it closes
    for seed in range(150):
        rng = random.Random(seed)
        bounds, relations = _planted_idl(rng, rng.randint(2, 12), (0, 4), (-2, 8))
        constraints = {
            "bounds-first": bounds + relations,
            "shuffled": rng.sample(bounds + relations, len(bounds) + len(relations)),
            "relations-only": relations,
        }[order]
        index = {id(e): i for i, e in enumerate(constraints)}
        reference = reference_engine.DiffEngine()
        closing = None
        for i, e in enumerate(constraints):
            if reference.add(e.x, e.y, e.k, e) is not None:
                closing = i
                break
        with time_limit(10.0):  # a repair on an infeasible potential may never return
            out = solve_idl(constraints)
        assert out.sat == (closing is None), seed
        if out.sat:
            assert out.model == dict(sorted(reference.greatest().items()))
        else:
            assert check_idl_cycle(out.cycle)
            assert max(index[id(e)] for e in out.cycle) == closing


# --- properties -------------------------------------------------------------


def _random_constraints(rng, max_vars=6, max_cons=10, span=5):
    num_vars = rng.randint(1, max_vars)
    return [
        c(rng.randrange(num_vars), rng.randrange(num_vars), rng.randint(-span, span))
        for _ in range(rng.randint(1, max_cons))
    ]


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=200, deadline=None, phases=SEED_PHASES)
def test_outcomes_are_self_certifying(seed):
    with time_limit(EXAMPLE_SECONDS):
        constraints = _random_constraints(random.Random(seed))
        out = solve_idl(constraints)
        if out.sat:
            assert check_idl_model(constraints, out.model)
            # the model is the greatest solution <= 0: never positive, and 0 or
            # pinned by a tight constraint x - y <= k
            for x, value in out.model.items():
                assert value <= 0
                assert value == 0 or any(
                    e.x == x and value == out.model[e.y] + e.k for e in constraints
                )
        else:
            assert check_idl_cycle(out.cycle)
            # certificate constraints all come from the input
            assert set(out.cycle) <= set(constraints)
            # a simple cycle, rotated to start at its smallest vertex id
            starts = [e.x for e in out.cycle]
            assert len(set(starts)) == len(starts)
            assert starts[0] == min(starts)
            # the cycle is closed by the first constraint at which the input
            # prefix turns unsatisfiable
            j = max(i for i, e in enumerate(constraints) if any(e is f for f in out.cycle))
            assert solve_idl(constraints[:j]).sat


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=200, deadline=None, phases=SEED_PHASES)
def test_model_is_the_greatest_solution_at_most_zero(seed):
    # the model solve --relax prints
    with time_limit(EXAMPLE_SECONDS):
        constraints = _random_constraints(random.Random(seed))
        out = solve_idl(constraints)
        if out.sat:
            variables = sorted({e.x for e in constraints} | {e.y for e in constraints})
            assert out.model == _greatest_at_most_zero(variables, constraints)


def test_determinism():
    rng = random.Random(7)
    for _ in range(50):
        constraints = _random_constraints(rng)
        assert solve_idl(constraints) == solve_idl(list(constraints))


def _window_oracle(constraints) -> bool:
    """Exhaustive satisfiability check over a finite window.

    Solutions of difference constraints are closed under translation, so one
    variable can be pinned to 0.  Any satisfiable system has a model whose
    values span at most the total absolute weight (the shortest-path model
    does), so a window of that radius around 0 is exhaustive.
    """
    variables = sorted({e.x for e in constraints} | {e.y for e in constraints})
    span = sum(abs(e.k) for e in constraints)
    first, rest = variables[0], variables[1:]
    window = range(-span, span + 1)
    for combo in itertools.product(window, repeat=len(rest)):
        values = {first: 0}
        values.update(zip(rest, combo))
        if all(values[e.x] - values[e.y] <= e.k for e in constraints):
            return True
    return False


def test_verdicts_match_window_enumeration():
    rng = random.Random(2024)
    for _ in range(120):
        constraints = _random_constraints(rng, max_vars=4, max_cons=3, span=3)
        assert solve_idl(constraints).sat == _window_oracle(constraints)
