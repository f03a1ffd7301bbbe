"""Difference constraints over the integers: a polynomial-time decision
procedure with checkable outcomes.

Constraints have the form x - y <= k.  The solver builds a weighted digraph
(one edge per constraint, plus a zero-weight edge from every variable to a
distinguished Sink) and runs single-source Bellman-Ford towards Sink.  It
either finds a negative cycle -- an unsatisfiability certificate whose
inequalities sum to 0 <= (negative) -- or reads a model off the shortest-path
weights to Sink.

``relax_to_idl`` translates a modular system into this integer form by
ignoring wraparound.  That reading is deliberately neither sound nor
complete for the modular semantics; the point of keeping it around is to
exhibit exactly where the two disagree.

All weights are Python integers, so path arithmetic is exact at any size.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .core import ConstraintSystem, MdlError, Relation, Term, VarId


class _SinkType:
    __slots__ = ()

    def __repr__(self):
        return "Sink"


#: Auxiliary graph vertex reachable from every variable by a weight-0 edge.
SINK = _SinkType()


class TrivialUnsatError(MdlError):
    """A constraint x - x <= k with k < 0 is unsatisfiable by itself."""

    def __init__(self, constraint: "IdlConstraint"):
        self.constraint = constraint
        super().__init__(f"self-difference with negative bound: {constraint}")


@dataclass(frozen=True)
class IdlConstraint:
    """x - y <= k over the integers."""

    x: VarId
    y: VarId
    k: int
    #: index of the source constraint this was translated from, if any
    origin: int | None = field(default=None, compare=False, repr=False)

    def __str__(self):
        return f"x{self.x} - x{self.y} <= {self.k}"


@dataclass(frozen=True)
class Relaxation:
    """Integer reading of a modular system.

    Constant comparisons are anchored with a fresh variable standing for 0
    (``zero_var``); a model then reads constants relative to that variable.
    """

    constraints: tuple[IdlConstraint, ...]
    zero_var: VarId | None
    zero_name: str | None


# x+k REL y+l bounds x - y <= l-k-t (forward) and/or y - x <= k-l-t
# (backward), where t is 1 for a strict relation and 0 otherwise.
_FORWARD = {Relation.LE: 0, Relation.LT: 1, Relation.EQ: 0}
_BACKWARD = {Relation.GE: 0, Relation.GT: 1, Relation.EQ: 0}


def relax_to_idl(system: ConstraintSystem) -> Relaxation:
    """Read each modular constraint as a plain integer difference constraint.

    x+k <= y+l becomes x-y <= l-k, strict forms tighten the bound by one,
    equalities split into both directions, and a constant right-hand side is
    a term on the fresh zero variable.  No range constraints are added: this
    is the naive integer reading, unsound and incomplete with respect to the
    wraparound semantics.
    """
    zero: VarId | None = None
    zero_name: str | None = None
    if any(not isinstance(c.rhs, Term) for c in system.constraints):
        zero = system.num_vars
        zero_name = "zero"
        while zero_name in system.symbols:
            zero_name += "_"
    out: list[IdlConstraint] = []
    for idx, c in enumerate(system.constraints):
        x, k = c.lhs.var, c.lhs.offset
        y, l = (c.rhs.var, c.rhs.offset) if isinstance(c.rhs, Term) else (zero, c.rhs)
        if c.rel in _FORWARD:
            out.append(IdlConstraint(x, y, l - k - _FORWARD[c.rel], idx))
        if c.rel in _BACKWARD:
            out.append(IdlConstraint(y, x, k - l - _BACKWARD[c.rel], idx))
    return Relaxation(tuple(out), zero, zero_name)


@dataclass
class DiffGraph:
    """Weighted digraph over variables plus SINK.

    ``edges`` maps (from, to) to (weight, source constraint or None); at most
    one edge per ordered pair, keeping the minimum weight (first seen wins
    ties).  Every variable has a weight-0 edge to SINK.
    """

    nodes: tuple
    edges: dict


def build_graph(constraints) -> DiffGraph:
    variables = sorted({c.x for c in constraints} | {c.y for c in constraints})
    edges: dict = {}
    for c in constraints:
        if c.x == c.y:
            if c.k < 0:
                raise TrivialUnsatError(c)
            continue  # x - x <= k with k >= 0 holds vacuously
        key = (c.x, c.y)
        current = edges.get(key)
        if current is None or c.k < current[0]:
            edges[key] = (c.k, c)
    for x in variables:
        edges[(x, SINK)] = (0, None)
    return DiffGraph(tuple(variables) + (SINK,), edges)


@dataclass(frozen=True)
class IdlOutcome:
    """SAT with an integer model, or UNSAT with a negative-cycle certificate."""

    sat: bool
    model: dict | None
    cycle: tuple[IdlConstraint, ...] | None


def solve_idl(constraints) -> IdlOutcome:
    """Decide a list of integer difference constraints.

    The model sets each variable to its minimal path weight to SINK (with
    Sink at 0); values may be negative.  A variable absent from every
    constraint does not appear in the model.  A certificate is a simple
    cycle rotated to start at its smallest vertex id.
    """
    constraints = list(constraints)
    try:
        graph = build_graph(constraints)
    except TrivialUnsatError as err:
        return IdlOutcome(False, None, (err.constraint,))
    # FIFO Bellman-Ford from SINK over reversed edges.  parent[u] is the
    # constraint u - v <= k that gave dist[u] (None for the edge to SINK).
    into: dict = {}
    for (u, v), (w, c) in graph.edges.items():
        into.setdefault(v, []).append((u, w, c))
    dist = {SINK: 0}
    parent: dict = {}
    queue = deque([SINK])
    queued = {SINK}
    while queue:
        v = queue.popleft()
        queued.discard(v)
        for u, w, c in into.get(v, ()):
            d = dist[v] + w
            if u in dist and d >= dist[u]:
                continue
            dist[u] = d
            parent[u] = c
            cycle = _parent_cycle(parent, u)
            if cycle is not None:
                return IdlOutcome(False, None, cycle)
            if u not in queued:
                queued.add(u)
                queue.append(u)
    return IdlOutcome(True, {v: dist[v] for v in graph.nodes[:-1]}, None)


def _parent_cycle(parent: dict, u) -> tuple | None:
    """The cycle through u in the parent graph, if u's new parent closed one.

    The parent graph was acyclic before u's parent changed, so the walk from
    u either reaches SINK or comes back to u; a cycle in the parent graph
    always has negative weight.
    """
    walk = []
    c = parent[u]
    while c is not None:
        walk.append(c)
        if c.y == u:
            first = min(range(len(walk)), key=lambda i: walk[i].x)
            return tuple(walk[first:] + walk[:first])
        c = parent.get(c.y)
    return None


def check_idl_model(constraints, model: dict) -> bool:
    """Does the model satisfy every constraint over the integers?"""
    return all(model[c.x] - model[c.y] <= c.k for c in constraints)


def check_idl_cycle(cycle) -> bool:
    """Is this a closed chain whose weights sum to a strictly negative value?

    Summing the inequalities along such a chain telescopes the variables
    away, leaving 0 <= (negative): a solver-independent refutation.
    """
    cycle = list(cycle)
    if not cycle:
        return False
    for a, b in zip(cycle, cycle[1:]):
        if a.y != b.x:
            return False
    if cycle[-1].y != cycle[0].x:
        return False
    return sum(c.k for c in cycle) < 0
