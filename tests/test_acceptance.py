"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete.  Every tolerance and time bound is pinned here.
"""

import random
import time
from contextlib import contextmanager

from cluster_packing import normalize_solution
from conftest import four_vertex_graphs, is_three_colorable, petersen, proper_three_colorings
from mdlsat.cli import gen_chain, gen_intro1, gen_random
from mdlsat.core import Modulus, parse_system, satisfies
from mdlsat.idl import IdlConstraint, check_idl_cycle, check_idl_model, relax_to_idl, solve_idl
from mdlsat.mdl import brute_force_sat, small_model_bound, solve
from mdlsat.reductions import Graph, Variant, coloring_to_witness, encode_3col


@contextmanager
def criterion(num, label):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({label}): FAIL")
        raise
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE {num} ({label}): PASS [{elapsed:.2f}s]")


def test_criterion_1_difference_cycle_certificate():
    with criterion(1, "integer cycle refutation sums to -1"):
        started = time.monotonic()
        constraints = [
            IdlConstraint(0, 1, -3),
            IdlConstraint(1, 2, 1),
            IdlConstraint(2, 3, -2),
            IdlConstraint(3, 0, 3),
        ]
        out = solve_idl(constraints)
        assert not out.sat
        assert check_idl_cycle(out.cycle)
        assert sum(c.k for c in out.cycle) == -1
        assert time.monotonic() - started < 1.0


def test_criterion_2_gap_pair_a_modular_sat_integer_unsat():
    with criterion(2, "wraparound-only satisfiability at N=4, 16, 2^32"):
        for n in (4, 16, 2**32):
            system = parse_system(gen_intro1(n))
            modular = solve(system)
            assert modular.sat
            assert satisfies(system, modular.model)
            relaxed = solve_idl(relax_to_idl(system).constraints)
            assert not relaxed.sat
            assert check_idl_cycle(relaxed.cycle)


def test_criterion_3_gap_pair_b_integer_sat_modular_unsat():
    with criterion(3, "ascending chain impossible in N residues"):
        started = time.monotonic()
        for n in (5, 8):
            system = parse_system(gen_chain(n))
            assert not solve(system).sat
            relaxed = solve_idl(relax_to_idl(system).constraints)
            assert relaxed.sat
            assert check_idl_model(relax_to_idl(system).constraints, relaxed.model)
        assert time.monotonic() - started < 5.0


def _reduction_corpus():
    graphs = list(four_vertex_graphs())
    graphs.append(Graph.complete(4))  # listed explicitly; same verdict twice is fine
    graphs.append(Graph.cycle(5))
    return graphs


def _check_reduction_agreement(variant, moduli, limit):
    started = time.monotonic()
    for graph in _reduction_corpus():
        expected = is_three_colorable(graph)
        for n in moduli:
            system, _ = encode_3col(graph, Modulus(n), variant)
            outcome = solve(system)
            assert outcome.sat == expected, (sorted(graph.edges), n, variant)
            if outcome.sat:
                assert satisfies(system, outcome.model)
    assert time.monotonic() - started < limit


def test_criterion_4_nonstrict_reduction_matches_exhaustive_coloring():
    with criterion(4, "non-strict encoding verdicts equal 3^n search"):
        _check_reduction_agreement(Variant.NONSTRICT, (4, 16), 60.0)


def test_criterion_5_strict_reduction_matches_exhaustive_coloring():
    with criterion(5, "strict encoding verdicts equal 3^n search"):
        _check_reduction_agreement(Variant.STRICT, (9, 16), 60.0)


def test_criterion_6_every_witness_satisfies_its_encoding():
    with criterion(6, "witnesses from proper colorings always satisfy"):
        corpus = list(four_vertex_graphs()) + [Graph.complete(3), Graph.cycle(5), petersen()]
        failures = 0
        for graph in corpus:
            colorings = list(proper_three_colorings(graph))
            for variant, moduli in (
                (Variant.NONSTRICT, (4, 16, 256)),
                (Variant.STRICT, (9, 16, 256)),
            ):
                for n in moduli:
                    system, _ = encode_3col(graph, Modulus(n), variant)
                    for coloring in colorings:
                        witness = coloring_to_witness(graph, coloring, Modulus(n), variant)
                        if not satisfies(system, witness):
                            failures += 1
        assert failures == 0


def _random_corpus_seeds():
    return range(500)


def _random_instance(seed):
    rng = random.Random(seed)
    p = rng.randint(1, 3)
    n = rng.randint(2, 12)
    m = rng.randint(0, 2)
    cons = rng.randint(1, 6)
    return parse_system(gen_random(p, cons, m, n, seed))


def test_criterion_7_bounded_search_equals_enumeration():
    with criterion(7, "500 random systems: search verdict equals brute force"):
        started = time.monotonic()
        disagreements = 0
        for seed in _random_corpus_seeds():
            system = _random_instance(seed)
            if solve(system).sat != brute_force_sat(system).sat:
                disagreements += 1
        assert disagreements == 0
        assert time.monotonic() - started < 120.0


def test_criterion_8_normalized_models_live_in_bounded_domain():
    with criterion(8, "packed models stay solutions inside the bound"):
        failures = 0
        for seed in _random_corpus_seeds():
            system = _random_instance(seed)
            outcome = solve(system)
            if not outcome.sat:
                continue
            packed = normalize_solution(system, outcome.model)
            bound = small_model_bound(system)
            if not satisfies(system, packed) or not all(v in bound for v in packed.values()):
                failures += 1
        assert failures == 0


def test_criterion_9_integer_outcomes_are_self_certifying():
    with criterion(9, "500 random integer systems: models and cycles check"):
        failures = 0
        for seed in range(500):
            rng = random.Random(seed)
            num_vars = rng.randint(1, 6)
            constraints = [
                IdlConstraint(rng.randrange(num_vars), rng.randrange(num_vars), rng.randint(-5, 5))
                for _ in range(rng.randint(1, 10))
            ]
            out = solve_idl(constraints)
            if out.sat:
                if not check_idl_model(constraints, out.model):
                    failures += 1
            elif not check_idl_cycle(out.cycle):
                failures += 1
        assert failures == 0
