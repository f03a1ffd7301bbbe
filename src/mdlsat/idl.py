"""Difference constraints over the integers: a polynomial-time decision
procedure with checkable outcomes, on an incremental engine that the modular
solver shares.

Constraints have the form x - y <= k.  ``DiffEngine`` holds a stack of them
as edges (x, y, k, reason), together with a feasible potential pi
(pi[x] - pi[y] <= k on every edge).  Adding an edge that pi violates runs a
Dijkstra repair over reduced costs (Cotton & Maler, "Fast and Flexible
Difference Constraint Propagation for DPLL(T)", SAT 2006): it either lowers
pi until every edge holds again, or returns the reasons of the simple
negative cycle the new edge closed -- an unsatisfiability certificate whose
inequalities sum to 0 <= (negative).  Retracting edges back to a mark keeps
pi feasible.  ``greatest`` reads the greatest solution relative to one vertex
off the live edges, with the same Dijkstra as the repair.

``solve_idl`` adds the constraints to one engine in input order, each
constraint its own reason.  Its model is pi, the greatest solution <= 0,
which is unique; its certificate is the cycle closed by the first constraint
at which the input prefix turns unsatisfiable.

``relax_to_idl`` translates a modular system into this integer form by
ignoring wraparound.  That reading is deliberately neither sound nor
complete for the modular semantics; the point of keeping it around is to
exhibit exactly where the two disagree.

All weights are Python integers, so path arithmetic is exact at any size.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass, field

from .core import ConstraintSystem, Relation, Term, VarId


@dataclass(frozen=True)
class IdlConstraint:
    """x - y <= k over the integers."""

    x: VarId
    y: VarId
    k: int
    #: index of the source constraint this was translated from, if any
    origin: int | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Relaxation:
    """Integer reading of a modular system.

    Constant comparisons are anchored with a fresh variable standing for 0
    (``zero_var``); a model then reads constants relative to that variable.
    """

    constraints: tuple[IdlConstraint, ...]
    zero_var: VarId | None


# x+k REL y+l bounds x - y <= l-k-t (forward) and/or y - x <= k-l-t
# (backward), where t is 1 for a strict relation and 0 otherwise.
_FORWARD = {Relation.LE: 0, Relation.LT: 1, Relation.EQ: 0}
_BACKWARD = {Relation.GE: 0, Relation.GT: 1, Relation.EQ: 0}


def oriented(rel: Relation, lhs, rhs):
    """The difference bounds of ``lhs REL rhs`` as (a, b, t) triples.

    Each triple says term a minus term b is at most -t, with t = 1 for a
    strict relation: LE/LT/EQ give (lhs, rhs, t), GE/GT/EQ give (rhs, lhs, t).
    The terms are passed through untouched, so callers pick their form.
    """
    if rel in _FORWARD:
        yield lhs, rhs, _FORWARD[rel]
    if rel in _BACKWARD:
        yield rhs, lhs, _BACKWARD[rel]


def relax_to_idl(system: ConstraintSystem) -> Relaxation:
    """Read each modular constraint as a plain integer difference constraint.

    x+k <= y+l becomes x-y <= l-k, strict forms tighten the bound by one,
    equalities split into both directions, and a constant right-hand side is
    a term on the fresh zero variable.  No range constraints are added: this
    is the naive integer reading, unsound and incomplete with respect to the
    wraparound semantics.
    """
    zero: VarId | None = None
    if any(not isinstance(c.rhs, Term) for c in system.constraints):
        zero = system.num_vars
    out: list[IdlConstraint] = []
    for idx, c in enumerate(system.constraints):
        lhs = (c.lhs.var, c.lhs.offset)
        rhs = (c.rhs.var, c.rhs.offset) if isinstance(c.rhs, Term) else (zero, c.rhs)
        for (a, k), (b, l), t in oriented(c.rel, lhs, rhs):
            out.append(IdlConstraint(a, b, l - k - t, idx))
    return Relaxation(tuple(out), zero)


@dataclass(frozen=True)
class IdlOutcome:
    """SAT with an integer model, or UNSAT with a negative-cycle certificate."""

    sat: bool
    model: dict | None
    cycle: tuple[IdlConstraint, ...] | None


class DiffEngine:
    """A stack of difference edges with a feasible potential.

    An edge is x - y <= k with an opaque reason, which is all that a cycle
    through it hands back.  ``pi`` maps every vertex seen so far to an
    integer such that pi[x] - pi[y] <= k holds for every live edge.
    Vertices start at 0 and only ever move down, and ``backtrack`` leaves pi
    where it is.  So pi is the greatest solution <= 0 of the live edges only
    while nothing has been retracted, as in ``solve_idl``; after a
    retraction it is merely feasible.  Vertices are hashable, and the ones a
    search meets must also order against each other, as ints do.
    """

    def __init__(self):
        self.pi: dict = {}
        # y -> live edges x - y <= k, as (x, k, reason): the edges that a
        # drop of pi[y] can violate
        self._into: dict = {}
        self._trail: list = []

    def mark(self) -> int:
        """A point on the edge stack to ``backtrack`` to later."""
        return len(self._trail)

    def backtrack(self, mark: int) -> None:
        """Retract every edge added since ``mark``; pi stays feasible."""
        trail, into = self._trail, self._into
        while len(trail) > mark:
            into[trail.pop()].pop()

    def add(self, x, y, k: int, reason=None) -> tuple | None:
        """Add x - y <= k, or return the negative cycle it would close.

        The cycle is simple, and comes back as the tuple of its edges'
        reasons in chain order (each edge's y is the next one's x), starting
        with the new edge, which is then not added; pi is left as it was.  A
        self-loop x - x <= k is never stored: it is a cycle of its own when
        k < 0.

        An edge that pi violates is repaired from x with a cap of 0:
        lower[v] is how far pi[v] must drop, x must drop by
        pi[y] + k - pi[x], and reaching y with a drop means the path back to
        x plus the new edge weighs less than 0.
        """
        if x == y:
            return (reason,) if k < 0 else None
        pi = self.pi
        drop = pi.setdefault(y, 0) + k - pi.setdefault(x, 0)
        if drop < 0:
            lower, parent = self._dijkstra(x, drop, 0, y)
            if y in parent:
                cycle = [reason]
                while y != x:
                    why, y = parent[y]
                    cycle.append(why)
                return tuple(cycle)
            for v, d in lower.items():
                pi[v] += d
        into = self._into.get(y)
        if into is None:
            into = self._into[y] = []
        into.append((x, k, reason))
        self._trail.append(y)
        return None

    def greatest(self, root) -> dict:
        """The greatest solution with root at 0, on the vertices root reaches.

        Each value is the vertex's shortest-path distance from root along
        the live edges, where x - y <= k is an edge from y to x.  A path's
        reduced length differs from its length by pi[root] - pi[v], which is
        added back at the end.
        """
        pi = self.pi
        shift = pi.setdefault(root, 0)
        reduced, _ = self._dijkstra(root, 0)
        return {v: r + pi[v] - shift for v, r in reduced.items()}

    def _dijkstra(self, root, start: int, cap=math.inf, stop=None):
        """Dijkstra from root over the reduced costs k + pi[y] - pi[x] >= 0.

        root starts at distance ``start``, and an edge v - u <= k offers v
        the distance of u plus its reduced cost.  Only distances below
        ``cap`` are kept, an unreached vertex counting as ``cap``, and the
        search ends as soon as ``stop`` is offered one.  Returns the
        distances and the parents: parent[v] = (reason, u) for the edge that
        last lowered v.
        """
        pi, into = self.pi, self._into
        dist = {root: start}
        parent: dict = {}
        # kept sorted, so pop() gives the nearest; frontiers stay small, and
        # bisect, unlike heapq, is already loaded by the CLI's imports
        frontier = [(-start, root)]
        while frontier:
            d, u = frontier.pop()
            d = -d
            if d > dist[u]:
                continue  # a stale entry; u was settled nearer
            base = d + pi[u]
            for v, k, reason in into.get(u, ()):
                r = base + k - pi[v]
                if r < dist.get(v, cap):
                    parent[v] = (reason, u)
                    if v == stop:
                        return dist, parent
                    dist[v] = r
                    insort(frontier, (-r, v))
        return dist, parent


def solve_idl(constraints) -> IdlOutcome:
    """Decide a list of integer difference constraints.

    The model is the greatest solution <= 0: each variable's value is 0 or
    pinned by a tight chain of constraints, and may be negative.  A variable
    absent from every constraint does not appear in the model.  The
    certificate is the simple cycle closed by the first constraint at which
    the input prefix turns unsatisfiable, rotated to start at its smallest
    vertex id.
    """
    engine = DiffEngine()
    variables = set()
    for c in constraints:
        variables.update((c.x, c.y))
        cycle = engine.add(c.x, c.y, c.k, c)  # each constraint is its own reason
        if cycle is not None:
            first = min(range(len(cycle)), key=lambda i: cycle[i].x)
            return IdlOutcome(False, None, cycle[first:] + cycle[:first])
    return IdlOutcome(True, {v: engine.pi.get(v, 0) for v in sorted(variables)}, None)


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
