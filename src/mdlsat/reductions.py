"""Graph 3-colorability as modular difference systems, and back.

Two encodings are provided.  The non-strict one (modulus >= 4) spends three
variables per vertex, cyclically chained so at least one of them must reach
the top residue N-1; which one does determines the vertex's color.  Six
variables and nine constraints per edge then forbid both endpoints from
claiming the same color.  The strict variant (modulus >= 9) plays the same
game with strict comparisons and threshold N-2.

``decode_coloring`` reads a coloring off any satisfying assignment, and
``coloring_to_witness`` builds a satisfying assignment from any proper
coloring, so satisfiability of the encoded system and 3-colorability of the
graph coincide.

File formats: DIMACS edge lists (``p edge n m`` / ``e u v``, 1-indexed) for
graphs, and a sidecar that is the graph with a header comment naming the
variant and modulus, so models can be decoded in a separate process.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .core import (
    Assignment,
    Constraint,
    ConstraintSystem,
    MdlError,
    Modulus,
    ParseError,
    Relation,
    SymbolTable,
    Term,
    _interned_system,
    read_int,
)


class ModulusTooSmallError(MdlError):
    """The modulus is below the minimum the chosen encoding needs."""


class DecodeError(MdlError):
    """No color variable reaches the decoding threshold; not a model."""


class ImproperColoringError(MdlError):
    """The coloring is missing a vertex or colors two adjacent vertices alike."""


class Graph(NamedTuple("Graph", [("n", int), ("edges", frozenset)])):
    """Undirected graph on vertices 0..n-1; edges stored as pairs (v, w), v < w."""

    __slots__ = ()

    def __new__(cls, n: int, edges: frozenset):
        for v, w in edges:
            if not (0 <= v < w < n):
                raise MdlError(f"bad edge ({v}, {w}) for {n} vertices")
        return tuple.__new__(cls, (n, edges))

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        normalized = set()
        for v, w in edges:
            if v == w:
                raise MdlError(f"self-loop at vertex {v}")
            normalized.add((min(v, w), max(v, w)))
        return cls(n, frozenset(normalized))

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls(n, frozenset((v, w) for v in range(n) for w in range(v + 1, n)))

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        return cls.from_edges(n, ((v, (v + 1) % n) for v in range(n)))

    def sorted_edges(self) -> list:
        return sorted(self.edges)


# vertex -> color in {0, 1, 2}
Coloring = dict


class Variant(Enum):
    NONSTRICT = "nonstrict"
    STRICT = "strict"


_MIN_MODULUS = {Variant.NONSTRICT: 4, Variant.STRICT: 9}


class EncodingMeta(NamedTuple):
    """Layout of an encoded system: which ids play which role.

    ``vertex_vars[v]`` holds the three per-vertex variable ids; ``edge_vars``
    maps (edge, color) to the pair of per-edge ids.  Ids are distinct and
    cover the system: 3n + 6|E| variables in total.
    """

    variant: Variant
    modulus: Modulus
    vertex_vars: tuple
    edge_vars: dict


def encode_3col(graph: Graph, modulus: Modulus, variant: Variant) -> tuple[ConstraintSystem, EncodingMeta]:
    """Emit the constraint system whose models are exactly the 3-colorings.

    3n + 6|E| variables and 3n + 9|E| constraints, in a deterministic order
    with deterministic names (v{i}_c{c}, e{u}_{w}_c{c}, f{u}_{w}_c{c}), so
    encodings are byte-reproducible.
    """
    minimum = _MIN_MODULUS[variant]
    if modulus.n < minimum:
        raise ModulusTooSmallError(
            f"{variant.value} encoding needs modulus >= {minimum}, got {modulus.n}"
        )
    strict = variant is Variant.STRICT
    rel = Relation.LT if strict else Relation.LE
    step = 2 if strict else 1
    symbols = SymbolTable()
    new = tuple.__new__  # skips the NamedTuples' Python-level __new__, as ``parse_system`` does
    constraints: list[Constraint] = []
    vertex_vars = []
    for v in range(graph.n):
        ids = tuple(symbols.intern(f"v{v}_c{c}") for c in range(3))
        vertex_vars.append(ids)
        for c in range(3):
            constraints.append(new(Constraint, (new(Term, (ids[c], step)), rel, new(Term, (ids[(c + 1) % 3], 0)))))
    edge_vars = {}
    for u, w in graph.sorted_edges():
        for c in range(3):
            e = symbols.intern(f"e{u}_{w}_c{c}")
            f = symbols.intern(f"f{u}_{w}_c{c}")
            edge_vars[((u, w), c)] = (e, f)
            constraints.append(new(Constraint, (new(Term, (vertex_vars[u][c], 0)), rel, new(Term, (e, -1)))))
            constraints.append(new(Constraint, (new(Term, (vertex_vars[w][c], 0)), rel, new(Term, (f, -1)))))
            constraints.append(new(Constraint, (new(Term, (f, 1)), rel, new(Term, (e, 1 if strict else 0)))))
    system = _interned_system(modulus, symbols, tuple(constraints))
    meta = EncodingMeta(variant, modulus, tuple(vertex_vars), edge_vars)
    return system, meta


def decode_coloring(meta: EncodingMeta, assignment: Assignment) -> Coloring:
    """Color each vertex by the first of its variables at the threshold.

    Non-strict: the first c with value exactly N-1; strict: the first c with
    value >= N-2.  Every model has such a c for every vertex; if some vertex
    has none, the assignment was not a model and DecodeError is raised.
    """
    n = meta.modulus.n
    exact = meta.variant is Variant.NONSTRICT
    coloring: Coloring = {}
    for v, ids in enumerate(meta.vertex_vars):
        for c in range(3):
            value = assignment.get(ids[c])
            if value is None:
                raise DecodeError(f"assignment is missing variable id {ids[c]}")
            if (value == n - 1) if exact else (value >= n - 2):
                coloring[v] = c
                break
        else:
            raise DecodeError(f"vertex {v}: no color variable reaches the threshold")
    return coloring


def verify_coloring(graph: Graph, coloring: Coloring) -> bool:
    """Total over the vertices, colors in {0,1,2}, endpoints always differ."""
    for v in range(graph.n):
        if coloring.get(v) not in (0, 1, 2):
            return False
    return all(coloring[v] != coloring[w] for v, w in graph.edges)


# Per-edge witness values by case: the color belongs to the lower endpoint,
# to the upper endpoint, or to neither.
_EDGE_WITNESS = {
    Variant.NONSTRICT: {"lower": (0, None), "upper": (2, 0), "neither": (3, 2)},
    Variant.STRICT: {"lower": (0, None), "upper": (6, 0), "neither": (7, 6)},
}


def coloring_to_witness(graph: Graph, coloring: Coloring, modulus: Modulus, variant: Variant) -> Assignment:
    """Build a satisfying assignment of the encoded system from a proper coloring.

    A vertex of color c gets (N-1, 0, 1) at positions (c, c+1, c+2 mod 3) in
    the non-strict variant, (N-2, 1, 4) in the strict one; per-edge variables
    are set by which endpoint, if either, owns the color.
    """
    _, meta = encode_3col(graph, modulus, variant)  # checks the modulus first
    if not verify_coloring(graph, coloring):
        raise ImproperColoringError("not a proper 3-coloring of the graph")
    n = modulus.n
    spread = (n - 1, 0, 1) if variant is Variant.NONSTRICT else (n - 2, 1, 4)
    witness: Assignment = {}
    for v, ids in enumerate(meta.vertex_vars):
        color = coloring[v]
        for offset in range(3):
            witness[ids[(color + offset) % 3]] = spread[offset]
    cases = _EDGE_WITNESS[variant]
    for ((u, w), c), (e, f) in meta.edge_vars.items():
        if c == coloring[u]:
            e_val, f_val = cases["lower"]
        elif c == coloring[w]:
            e_val, f_val = cases["upper"]
        else:
            e_val, f_val = cases["neither"]
        witness[e] = e_val
        witness[f] = n - 1 if f_val is None else f_val
    return witness


# --- DIMACS edge lists ------------------------------------------------------


#: The most vertices ``parse_dimacs_graph`` accepts.  Encoding costs three
#: variables per vertex, so without a cap a one-line file that declares
#: millions of vertices would take minutes and gigabytes to encode.
MAX_VERTICES = 100_000


def parse_dimacs_graph(text: str) -> Graph:
    """``p edge n m`` header plus ``e u v`` lines, 1-indexed in the file."""
    n = None
    declared = None
    edges: set = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0] == "c":
            continue
        if parts[0] == "p":
            if n is not None:
                raise ParseError("duplicate problem line", line_no)
            if len(parts) != 4 or parts[1] != "edge":
                raise ParseError("expected 'p edge <n> <m>'", line_no)
            n, declared = read_int(parts[2]), read_int(parts[3])
            if n is None or declared is None:
                raise ParseError("expected 'p edge <n> <m>'", line_no)
            if n < 0 or declared < 0:
                raise ParseError("negative counts in problem line", line_no)
            if n > MAX_VERTICES:
                raise ParseError(f"{n} vertices exceed the limit of {MAX_VERTICES}", line_no)
        elif parts[0] == "e":
            if n is None:
                raise ParseError("edge before problem line", line_no)
            if len(parts) != 3:
                raise ParseError("expected 'e <u> <v>'", line_no)
            u, v = read_int(parts[1]), read_int(parts[2])
            if u is None or v is None:
                raise ParseError("expected 'e <u> <v>'", line_no)
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"vertex out of range in edge ({u}, {v})", line_no)
            if u == v:
                raise ParseError(f"self-loop at vertex {u}", line_no)
            edge = (min(u, v) - 1, max(u, v) - 1)
            if edge in edges:
                raise ParseError(f"duplicate edge ({u}, {v})", line_no)
            edges.add(edge)
        else:
            raise ParseError(f"unrecognized line kind {parts[0]!r}", line_no)
    if n is None:
        raise ParseError("missing 'p edge <n> <m>' line")
    if declared != len(edges):
        raise ParseError(f"problem line declares {declared} edges, found {len(edges)}")
    return Graph(n, frozenset(edges))


def render_dimacs_graph(graph: Graph) -> str:
    lines = [f"p edge {graph.n} {len(graph.edges)}"]
    lines.extend(f"e {v + 1} {w + 1}" for v, w in graph.sorted_edges())
    return "\n".join(lines) + "\n"


# --- meta sidecar -----------------------------------------------------------
#
# The graph in DIMACS form, under one header line:
#
#   c variant <nonstrict|strict> mod <N>
#
# The encoding is a fixed function of these three, so ``decode`` re-runs
# ``encode_3col`` on them; the header is a DIMACS comment, so the sidecar is
# also a graph file ``reduce`` reads.


def render_meta(graph: Graph, variant: Variant, modulus: Modulus) -> str:
    return f"c variant {variant.value} mod {modulus.n}\n" + render_dimacs_graph(graph)


def parse_meta(text: str) -> tuple[Graph, Variant, Modulus]:
    lines = text.splitlines()
    parts = lines[0].split() if lines else []
    if len(parts) != 5 or parts[:2] != ["c", "variant"] or parts[3] != "mod":
        raise ParseError("expected 'c variant <nonstrict|strict> mod <N>'", 1)
    try:
        variant = Variant(parts[2])
    except ValueError:
        raise ParseError(f"unknown variant {parts[2]!r}", 1) from None
    n = read_int(parts[4])
    if n is None:
        raise ParseError(f"expected an integer modulus, got {parts[4]!r}", 1)
    return parse_dimacs_graph(text), variant, Modulus(n)
