"""Difference constraints over the integers: a polynomial-time decision
procedure with checkable outcomes, on an incremental engine that the modular
solver shares.

Constraints have the form x - y <= k.  ``DiffEngine`` holds a stack of them
as the callers' own edges (x, y, k, tag), together with a feasible potential
pi (pi[x] - pi[y] <= k on every edge).  A vertex an edge names for the
first time is placed where that edge is tight, or at 0 with the other end
when both are new.  Adding an edge that pi violates runs a Dijkstra repair
over reduced costs (Cotton & Maler, "Fast and Flexible Difference
Constraint Propagation for DPLL(T)", SAT 2006) from both ends at once:
lowering x and what it pushes down races raising y and what it pushes up
in one loop, and the side that finishes first is applied.  A side whose
root alone can move settles without the race.  Either side can instead
return the edges of the simple negative cycle the new edge closed -- an
unsatisfiability certificate whose inequalities sum to 0 <= (negative).
Retracting edges back to a mark keeps pi feasible.  ``greatest`` reads the
greatest solution relative to one vertex, or the greatest solution <= 0,
off the live edges, with the same loop on its lowering side alone.

``solve_idl`` adds the constraints to one engine in input order, each
constraint its own edge.  Its model is the greatest solution <= 0, which is
unique; its certificate is a cycle closed by the first constraint at which
the input prefix turns unsatisfiable.

``relax_to_idl`` translates a modular system into this integer form by
ignoring wraparound.  That reading is deliberately neither sound nor
complete for the modular semantics; the point of keeping it around is to
exhibit exactly where the two disagree.

All weights are Python integers, so path arithmetic is exact at any size.
"""

from __future__ import annotations

import math
from collections import defaultdict
from heapq import heapify, heappop, heappush
from typing import NamedTuple

from .core import ConstraintSystem, Relation, Term, VarId


class IdlConstraint(NamedTuple):
    """x - y <= k over the integers; ``origin`` is the index of the source
    constraint this was translated from, if any."""

    x: VarId
    y: VarId
    k: int
    origin: int | None = None


class Relaxation(NamedTuple):
    """Integer reading of a modular system.

    Constant comparisons are anchored with a fresh variable standing for 0
    (``zero_var``); a model then reads constants relative to that variable.
    """

    constraints: tuple[IdlConstraint, ...]
    zero_var: VarId | None


#: The difference bounds of ``lhs REL rhs`` as (swap, t) pairs: each says
#: term a minus term b is at most -t, where (a, b) is (lhs, rhs), or (rhs,
#: lhs) when swap is set, and t is 1 for a strict relation.  So x+k REL y+l
#: bounds x - y <= l-k-t (LE/LT/EQ) and/or y - x <= k-l-t (GE/GT/EQ).
ORIENTED = {
    Relation.LE: ((False, 0),),
    Relation.LT: ((False, 1),),
    Relation.EQ: ((False, 0), (True, 0)),
    Relation.GE: ((True, 0),),
    Relation.GT: ((True, 1),),
}


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
    new = tuple.__new__  # skips the NamedTuple's Python-level __new__, as ``parse_system`` does
    out: list[IdlConstraint] = []
    for idx, ((x, k), rel, rhs) in enumerate(system.constraints):
        y, l = rhs if isinstance(rhs, Term) else (zero, rhs)
        for swap, t in ORIENTED[rel]:
            if swap:
                out.append(new(IdlConstraint, (y, x, k - l - t, idx)))
            else:
                out.append(new(IdlConstraint, (x, y, l - k - t, idx)))
    return Relaxation(tuple(out), zero)


class IdlOutcome(NamedTuple):
    """SAT with an integer model, or UNSAT with a negative-cycle certificate."""

    sat: bool
    model: dict | None
    cycle: tuple[IdlConstraint, ...] | None


class DiffEngine:
    """A stack of difference edges with a feasible potential.

    An edge is the caller's tuple (x, y, k, tag) for x - y <= k; the engine
    reads x, y and k, stores the tuple itself and hands it back in a cycle.
    ``pi`` maps every vertex seen so far to an integer such that
    pi[x] - pi[y] <= k holds for every live edge; only the engine writes
    it.  ``add`` places each vertex it sees for the first time, a repair
    moves vertices down or up, and ``backtrack`` leaves pi where it is: pi
    is feasible, and nothing more.  The greatest solutions are read off with
    ``greatest``.  Vertices are hashable, and the ones a search meets must
    also order against each other, as ints do.  ``adds`` counts the calls of
    ``add``, ``cycles`` the ones that returned a negative cycle, ``repairs``
    the races they ran, and ``steps`` and ``scanned`` the vertices settled
    and edges read by the searches of those races and of ``greatest``.
    """

    def __init__(self):
        self.pi: dict = {}
        # each live edge (x, y, k, tag) is listed in _into[y], the edges a
        # drop of pi[y] can violate, and in _out[x], the ones a rise of pi[x]
        # can violate
        self._into: defaultdict = defaultdict(list)
        self._out: defaultdict = defaultdict(list)
        self._trail: list = []
        self.adds = self.cycles = self.repairs = self.steps = self.scanned = 0

    def mark(self) -> int:
        """A point on the edge stack to ``backtrack`` to later."""
        return len(self._trail)

    def backtrack(self, mark: int) -> None:
        """Retract every edge added since ``mark``; pi stays feasible."""
        trail, into, out = self._trail, self._into, self._out
        while len(trail) > mark:
            edge = trail.pop()
            into[edge[1]].pop()
            out[edge[0]].pop()

    def add(self, edge) -> tuple | None:
        """Add the edge (x, y, k, tag), or return the negative cycle it would close.

        The cycle is simple: its stored edges in chain order (each edge's y is
        the next one's x), starting with ``edge``, which is then not added,
        and pi is left as it was.  A self-loop is never stored; it is the
        cycle ``(edge,)`` when k < 0.  Either way, x and y count as seen.

        An end seen for the first time is placed where the edge is tight,
        pi[x] = pi[y] + k or pi[y] = pi[x] - k, so the edge needs no repair;
        when both ends are new, both start at 0.

        An edge that pi violates by -drop is repaired from both ends, each
        search capped at 0: lowering x by -drop and whatever that pushes
        down, or raising y by -drop and whatever that pushes up.  The side
        charged less work so far takes the next step, a queued vertex
        costing the length of the edge list it will scan and a root being
        charged up front.  So a hub, such as the zero vertex of
        ``mdl.solve``, moves only when the other side is no cheaper.  The
        first side to finish is applied.  The side that steps first, lowering
        x when its root is charged no more, finishes in one step exactly
        when moving its root by -drop breaks none of the root's edges, an
        empty list included; that move is then made without the race.  A
        side that reaches the other end of the new edge has found a path
        back to its root that weighs less than -k, so a negative cycle; both
        sides find one if either does.
        """
        x, y, k, _ = edge
        pi = self.pi
        self.adds += 1
        if y not in pi:
            pi[y] = pi[x] - k if x in pi else 0
        elif x not in pi:
            pi[x] = pi[y] + k
        drop = pi[y] + k - pi.setdefault(x, 0)
        if x == y:
            self.cycles += k < 0
            return (edge,) if k < 0 else None
        if drop < 0:
            # the side the race steps first: each is charged its root's edges
            a, b = len(self._into.get(x, ())), len(self._out.get(y, ()))
            root, sign, far, edges = (x, 1, 0, self._into) if a <= b else (y, -1, 1, self._out)
            base = drop + sign * pi[root]
            for e in edges.get(root, ()):
                if base + e[2] < sign * pi[e[far]]:
                    break  # moving the root alone breaks this edge
            else:  # the race would end in that side's first step
                pi[root] += sign * drop
                drop = 0
        if drop < 0:
            self.repairs += 1
            lower = {x: drop}
            dist, parent = self._search(lower, [(drop, x)], {y: drop}, [(drop, y)], a, b, 0, x, y)
            root, v, sign, near = (x, y, 1, 1) if dist is lower else (y, x, -1, 0)
            if v in parent:
                path = []
                while v != root:
                    path.append(parent[v])
                    v = path[-1][near]  # the end the edge was followed from
                if sign < 0:
                    path.reverse()  # it was found from y back to x
                self.cycles += 1
                return (edge, *path)
            for v, d in dist.items():
                pi[v] += sign * d
        self._into[y].append(edge)
        self._out[x].append(edge)
        self._trail.append(edge)
        return None

    def greatest(self, root=None) -> dict:
        """The greatest solution with root at 0, on the vertices root reaches.

        Each value is the vertex's shortest-path distance from root along
        the live edges, where x - y <= k is an edge from y to x.  Without a
        root, every vertex seen so far starts at 0, which gives the greatest
        solution <= 0.  A path's reduced length differs from its length by
        pi[start] - pi[v], which is added back at the end.
        """
        pi = self.pi
        if root is None:
            shift, reduced = 0, {v: -p for v, p in pi.items()}
        else:
            shift, reduced = pi.setdefault(root, 0), {root: 0}
        frontier = [(d, v) for v, d in reduced.items()]
        heapify(frontier)
        self._search(reduced, frontier, None, None, 0, math.inf, math.inf, None, None)
        return {v: r + pi[v] - shift for v, r in reduced.items()}

    def _search(self, lower, low, rise, high, a, b, cap, x, y):
        """Dijkstra over the reduced costs k + pi[y] - pi[x] >= 0 from both
        sides at once; returns the side that finished, as its distances and
        the edge that last offered each vertex one.

        ``lower`` and ``rise`` map each side's starts to their distances,
        ``low`` and ``high`` hold them as (distance, vertex) heaps, and all
        four take the rest.  Lowering follows each edge x - y <= k from y to
        x, raising from x to y; a repair adds lowering distances to pi and
        subtracts raising ones.  Only distances below ``cap`` are kept.  The
        side charged less so far, ``a`` or ``b`` (lowering on a tie, and
        never raising with ``b`` infinite), settles its next vertex, and
        queueing a vertex charges it the length of that vertex's edge list.
        A side finishes when its heap runs out, or when it offers the other
        end of the new edge, y or x, a distance.  Then ``steps`` and
        ``scanned`` take the vertices settled and the edges read.
        """
        pi, into, out = self.pi, self._into, self._out
        low_parent, high_parent, steps, scanned = {}, {}, 0, 0
        try:
            while True:
                if a <= b:
                    if not low:
                        return lower, low_parent
                    d, u = heappop(low)
                    if d > lower[u]:
                        continue  # a stale entry; u was settled nearer
                    steps += 1
                    base = d + pi[u]
                    edges = into.get(u, ())
                    scanned += len(edges)
                    for edge in edges:
                        v = edge[0]
                        r = base + edge[2] - pi[v]
                        if r < lower.get(v, cap):
                            low_parent[v] = edge
                            if v == y:
                                scanned -= len(edges) - 1 - edges.index(edge)
                                return lower, low_parent
                            lower[v] = r
                            heappush(low, (r, v))
                            a += len(into.get(v, ()))
                else:
                    if not high:
                        return rise, high_parent
                    d, u = heappop(high)
                    if d > rise[u]:
                        continue
                    steps += 1
                    base = d - pi[u]
                    edges = out.get(u, ())
                    scanned += len(edges)
                    for edge in edges:
                        v = edge[1]
                        r = base + edge[2] + pi[v]
                        if r < rise.get(v, cap):
                            high_parent[v] = edge
                            if v == x:
                                scanned -= len(edges) - 1 - edges.index(edge)
                                return rise, high_parent
                            rise[v] = r
                            heappush(high, (r, v))
                            b += len(out.get(v, ()))
        finally:
            self.steps += steps
            self.scanned += scanned


def solve_idl(constraints) -> IdlOutcome:
    """Decide a list of integer difference constraints.

    The model is the greatest solution <= 0: each variable's value is 0 or
    pinned by a tight chain of constraints, and may be negative.  A variable
    absent from every constraint does not appear in the model.  The
    certificate is a simple cycle closed by the first constraint at which
    the input prefix turns unsatisfiable, rotated to start at its smallest
    vertex id.

    Each constraint is its own edge, so a vertex is placed where the first
    constraint naming it is tight when that constraint's other end is
    already placed (see ``DiffEngine.add``).  An input that states each
    variable's bound before its relations then makes far fewer repairs.
    """
    engine = DiffEngine()
    for c in constraints:
        cycle = engine.add(c)
        if cycle is not None:
            first = min(range(len(cycle)), key=lambda i: cycle[i].x)
            return IdlOutcome(False, None, cycle[first:] + cycle[:first])
    return IdlOutcome(True, dict(sorted(engine.greatest().items())), None)


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
