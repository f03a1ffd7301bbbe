import pytest
from hypothesis import given, settings, strategies as st

from conftest import four_vertex_graphs, is_three_colorable, petersen, proper_three_colorings
from mdlsat.core import Modulus, ParseError, Relation, Term, satisfies
from mdlsat.mdl import solve
from mdlsat.reductions import (
    DecodeError,
    Graph,
    ImproperColoringError,
    MdlError,
    ModulusTooSmallError,
    Variant,
    coloring_to_witness,
    decode_coloring,
    encode_3col,
    parse_dimacs_graph,
    parse_meta,
    render_dimacs_graph,
    render_meta,
    verify_coloring,
)

K3 = Graph.complete(3)
K4 = Graph.complete(4)
C5 = Graph.cycle(5)


# --- graphs -----------------------------------------------------------------


def test_graph_validation():
    with pytest.raises(MdlError):
        Graph(3, frozenset({(0, 3)}))
    with pytest.raises(MdlError):
        Graph(3, frozenset({(2, 1)}))
    with pytest.raises(MdlError):
        Graph.from_edges(3, [(1, 1)])
    assert Graph.from_edges(3, [(2, 0)]).edges == {(0, 2)}


def test_graph_is_immutable_and_compares_by_value():
    with pytest.raises(AttributeError):
        K3.n = 4
    assert K3 == Graph(3, frozenset({(0, 1), (0, 2), (1, 2)})) and hash(K3) == hash(Graph.complete(3))
    assert K3 != K4


def test_verify_coloring():
    assert verify_coloring(K3, {0: 0, 1: 1, 2: 2})
    assert not verify_coloring(K3, {0: 0, 1: 0, 2: 2})
    assert not verify_coloring(K3, {0: 0, 1: 1})  # not total
    assert verify_coloring(Graph.from_edges(3, [(0, 1), (1, 2)]), {0: 0, 1: 1, 2: 0})
    assert not is_three_colorable(K4)


# --- encodings --------------------------------------------------------------


def test_encoding_counts_triangle():
    for variant in Variant:
        system, meta = encode_3col(K3, Modulus(16), variant)
        assert system.num_vars == 27
        assert len(system.constraints) == 36
        assert len(meta.edge_vars) == 9


def test_encoding_counts_formulas():
    for graph in four_vertex_graphs() + (K3, C5, petersen()):
        system, meta = encode_3col(graph, Modulus(16), Variant.NONSTRICT)
        e = len(graph.edges)
        assert system.num_vars == 3 * graph.n + 6 * e
        assert len(system.constraints) == 3 * graph.n + 9 * e
        ids = {i for triple in meta.vertex_vars for i in triple}
        ids.update(i for pair in meta.edge_vars.values() for i in pair)
        assert ids == set(range(system.num_vars))


def test_encoding_edge_free_graph():
    system, _ = encode_3col(Graph(1, frozenset()), Modulus(4), Variant.NONSTRICT)
    assert system.num_vars == 3
    assert len(system.constraints) == 3


def test_encoding_single_edge_strict():
    system, _ = encode_3col(Graph.from_edges(2, [(0, 1)]), Modulus(9), Variant.STRICT)
    assert system.num_vars == 12
    assert len(system.constraints) == 15


def test_encoding_modulus_thresholds():
    with pytest.raises(ModulusTooSmallError):
        encode_3col(K3, Modulus(3), Variant.NONSTRICT)
    with pytest.raises(ModulusTooSmallError):
        encode_3col(K3, Modulus(8), Variant.STRICT)
    with pytest.raises(ModulusTooSmallError):  # before the improper coloring
        coloring_to_witness(K3, {0: 0, 1: 0, 2: 0}, Modulus(8), Variant.STRICT)
    encode_3col(K3, Modulus(4), Variant.NONSTRICT)
    encode_3col(K3, Modulus(9), Variant.STRICT)


def test_strict_encoding_uses_only_small_offsets():
    system, _ = encode_3col(K4, Modulus(16), Variant.STRICT)
    for c in system.constraints:
        assert c.rel is Relation.LT
        assert c.lhs.offset in (0, 1, 2)
        assert isinstance(c.rhs, Term) and c.rhs.offset in (-1, 0, 1)


def test_nonstrict_encoding_shape():
    system, _ = encode_3col(K4, Modulus(16), Variant.NONSTRICT)
    for c in system.constraints:
        assert c.rel is Relation.LE
        assert c.lhs.offset in (0, 1)
        assert isinstance(c.rhs, Term) and c.rhs.offset in (-1, 0)


def test_encoding_is_deterministic():
    from mdlsat.core import render_system

    a, _ = encode_3col(C5, Modulus(16), Variant.STRICT)
    b, _ = encode_3col(C5, Modulus(16), Variant.STRICT)
    assert render_system(a) == render_system(b)


# --- decoding ---------------------------------------------------------------


def _single_vertex_meta(variant, n=16):
    _, meta = encode_3col(Graph(1, frozenset()), Modulus(n), variant)
    return meta


def test_decode_nonstrict_picks_first_max():
    meta = _single_vertex_meta(Variant.NONSTRICT)
    assert decode_coloring(meta, {0: 15, 1: 0, 2: 1}) == {0: 0}
    assert decode_coloring(meta, {0: 0, 1: 15, 2: 15}) == {0: 1}


def test_decode_strict_uses_near_max_threshold():
    meta = _single_vertex_meta(Variant.STRICT)
    assert decode_coloring(meta, {0: 1, 1: 14, 2: 4}) == {0: 1}
    assert decode_coloring(meta, {0: 1, 1: 15, 2: 4}) == {0: 1}


def test_decode_error_when_no_threshold():
    meta = _single_vertex_meta(Variant.NONSTRICT)
    with pytest.raises(DecodeError):
        decode_coloring(meta, {0: 3, 1: 0, 2: 1})
    with pytest.raises(DecodeError):
        decode_coloring(meta, {0: 3})  # missing variables surface too
    # the first-threshold rule never inspects later variables
    assert decode_coloring(meta, {0: 15}) == {0: 0}


# --- witnesses --------------------------------------------------------------


def test_witness_values_single_edge():
    graph = Graph.from_edges(2, [(0, 1)])
    coloring = {0: 0, 1: 1}
    witness = coloring_to_witness(graph, coloring, Modulus(16), Variant.NONSTRICT)
    system, meta = encode_3col(graph, Modulus(16), Variant.NONSTRICT)
    e0, f0 = meta.edge_vars[((0, 1), 0)]
    assert witness[e0] == 0 and witness[f0] == 15  # color owned by the lower endpoint
    e1, f1 = meta.edge_vars[((0, 1), 1)]
    assert witness[e1] == 2 and witness[f1] == 0  # owned by the upper endpoint
    e2, f2 = meta.edge_vars[((0, 1), 2)]
    assert witness[e2] == 3 and witness[f2] == 2  # owned by neither
    assert satisfies(system, witness)

    witness = coloring_to_witness(graph, coloring, Modulus(16), Variant.STRICT)
    system, meta = encode_3col(graph, Modulus(16), Variant.STRICT)
    e2, f2 = meta.edge_vars[((0, 1), 2)]
    assert witness[e2] == 7 and witness[f2] == 6
    assert satisfies(system, witness)


def test_witness_rejects_improper_colorings():
    with pytest.raises(ImproperColoringError):
        coloring_to_witness(K3, {0: 0, 1: 0, 2: 1}, Modulus(16), Variant.NONSTRICT)
    with pytest.raises(ImproperColoringError):
        coloring_to_witness(K3, {0: 0, 1: 1}, Modulus(16), Variant.STRICT)


def test_witness_satisfies_encoding_across_corpus():
    corpus = list(four_vertex_graphs()) + [K3, C5, petersen()]
    cases = [(Variant.NONSTRICT, 4), (Variant.NONSTRICT, 16), (Variant.STRICT, 9), (Variant.STRICT, 16)]
    for graph in corpus:
        colorings = list(proper_three_colorings(graph))
        for variant, n in cases:
            system, _ = encode_3col(graph, Modulus(n), variant)
            for coloring in colorings:
                witness = coloring_to_witness(graph, coloring, Modulus(n), variant)
                assert satisfies(system, witness)


def test_models_decode_to_proper_colorings():
    for graph in (K3, C5, Graph.from_edges(3, [(0, 1), (1, 2)])):
        for variant, n in ((Variant.NONSTRICT, 4), (Variant.NONSTRICT, 16), (Variant.STRICT, 9)):
            system, meta = encode_3col(graph, Modulus(n), variant)
            out = solve(system)
            assert out.sat
            coloring = decode_coloring(meta, out.model)
            assert verify_coloring(graph, coloring)
            if variant is Variant.NONSTRICT:
                # the cyclic chain forces a top-residue variable per vertex
                for triple in meta.vertex_vars:
                    assert any(out.model[i] == n - 1 for i in triple)


def test_reduction_matches_exhaustive_colorability_small():
    for graph in (K3, K4, Graph.from_edges(3, [(0, 1)])):
        expected = is_three_colorable(graph)
        assert solve(encode_3col(graph, Modulus(4), Variant.NONSTRICT)[0]).sat == expected
        assert solve(encode_3col(graph, Modulus(9), Variant.STRICT)[0]).sat == expected


# --- DIMACS -----------------------------------------------------------------


def test_parse_dimacs_triangle():
    text = "c a triangle\np edge 3 3\ne 1 2\ne 2 3\ne 1 3\n"
    assert parse_dimacs_graph(text) == K3


def test_parse_dimacs_errors():
    with pytest.raises(ParseError):
        parse_dimacs_graph("p edge 2 1\ne 1 1\n")  # self-loop
    with pytest.raises(ParseError):
        parse_dimacs_graph("p edge 2 2\ne 1 2\ne 2 1\n")  # duplicate
    with pytest.raises(ParseError):
        parse_dimacs_graph("e 1 2\n")  # edge before header
    with pytest.raises(ParseError):
        parse_dimacs_graph("p edge 2 2\ne 1 2\n")  # count mismatch
    with pytest.raises(ParseError):
        parse_dimacs_graph("p edge 2 1\ne 1 3\n")  # out of range
    # int() reads digit-group underscores; the format, like the constraint
    # grammar, takes only an optional sign and decimal digits
    with pytest.raises(ParseError):
        parse_dimacs_graph("p edge 1_0 1\ne 1 1_0\n")
    with pytest.raises(ParseError):
        parse_dimacs_graph("p edge 2 1\ne 1 0_2\n")
    assert parse_dimacs_graph("p edge +2 1\ne +1 2\n") == Graph(2, frozenset({(0, 1)}))


def test_dimacs_round_trip():
    for graph in (K3, K4, C5, petersen(), Graph(4, frozenset())):
        assert parse_dimacs_graph(render_dimacs_graph(graph)) == graph
    canonical = render_dimacs_graph(C5)
    assert render_dimacs_graph(parse_dimacs_graph(canonical)) == canonical


# --- meta sidecar -----------------------------------------------------------


@st.composite
def small_graphs(draw):
    n = draw(st.integers(0, 7))
    pairs = [(v, w) for v in range(n) for w in range(v + 1, n)]
    return Graph(n, frozenset(draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else ()))


@given(small_graphs(), st.sampled_from(Variant), st.integers(2, 2**40))
@settings(max_examples=200, deadline=None)
def test_meta_round_trip(graph, variant, n):
    assert parse_meta(render_meta(graph, variant, Modulus(n))) == (graph, variant, Modulus(n))


def test_meta_is_the_dimacs_graph_under_a_header_comment():
    text = render_meta(C5, Variant.STRICT, Modulus(16))
    assert text == "c variant strict mod 16\n" + render_dimacs_graph(C5)
    assert parse_dimacs_graph(text) == C5
