"""The ``DiffEngine`` that ``mdlsat.idl`` had before its repairs learned
the one-step repair, kept verbatim as a test oracle for the engine.

It builds the two-sided race for every violated add except when a root has
no edge at all, and runs it as two ``_dijkstra`` generators, one per side,
stepped in turn with ``next()``.  The engine in ``mdlsat.idl`` runs the
same race, and ``greatest``'s search, in one plain loop, ``_search``, so
this generator race is the independent oracle for that loop.  That engine
also differs from this one by the one-step repair: it also moves the root
of the side the race steps first without the race when that move breaks
none of the root's edges, and by its API: ``add(x, y, k, reason)`` here
builds its own edge tuple and returns a cycle as its edges' reasons, where
``mdlsat.idl`` stores the caller's (x, y, k, tag) tuple and returns the
stored edges.  Both engines' searches find the stop vertex by scanning
each settled vertex's own edge list.  ``tests/test_idl.py`` drives it and
the current engine through the same adds and backtracks and checks that
they return the same cycles (the reasons here against the tags of the
edges there), keep the same potential and read off the same greatest
solutions.
"""

from __future__ import annotations

import math
from collections import defaultdict
from heapq import heapify, heappop, heappush


class DiffEngine:
    """A stack of difference edges with a feasible potential.

    An edge is x - y <= k with an opaque reason, which is all that a cycle
    through it hands back.  ``pi`` maps every vertex seen so far to an
    integer such that pi[x] - pi[y] <= k holds for every live edge.
    Vertices start at 0, a repair moves them down or up, and ``backtrack``
    leaves pi where it is: pi is feasible, and nothing more.  The greatest
    solutions are read off with ``greatest``.  Vertices are hashable, and
    the ones a search meets must also order against each other, as ints do.
    """

    def __init__(self):
        self.pi: dict = {}
        # each live edge (x, y, k, reason) is listed in _into[y], the edges a
        # drop of pi[y] can violate, and in _out[x], the ones a rise of pi[x]
        # can violate
        self._into: defaultdict = defaultdict(list)
        self._out: defaultdict = defaultdict(list)
        self._trail: list = []

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

    def add(self, x, y, k: int, reason=None) -> tuple | None:
        """Add x - y <= k, or return the negative cycle it would close.

        The cycle is simple, and comes back as the tuple of its edges'
        reasons in chain order (each edge's y is the next one's x), starting
        with the new edge, which is then not added; pi is left as it was.  A
        self-loop x - x <= k is never stored: it is a cycle of its own when
        k < 0.  Either way, x and y count as seen.

        An edge that pi violates by -drop is repaired from both ends, each
        search capped at 0: lowering x by -drop and whatever that pushes
        down, or raising y by -drop and whatever that pushes up.  The side
        charged less work so far takes the next step, a queued vertex
        costing the length of the edge list it will scan and a root being
        charged up front.  So a hub, such as the zero vertex of
        ``mdl.solve``, moves only when the other side is no cheaper.  The
        first side to finish is applied.  When lowering x can violate no live
        edge, that side is x alone, and otherwise, when raising y can violate
        none, it is y alone; no search is then started.  A side that reaches
        the other end of the new edge has found a path back to its root that
        weighs less than -k, so a negative cycle; both sides find one if
        either does.
        """
        pi = self.pi
        drop = pi.setdefault(y, 0) + k - pi.setdefault(x, 0)
        if x == y:
            return (reason,) if k < 0 else None
        if drop < 0:
            # each side is charged its root's edges up front
            a, b = len(self._into.get(x, ())), len(self._out.get(y, ()))
            if not a:  # lowering x alone breaks no edge
                pi[x] += drop
            elif not b:  # raising y alone breaks no edge
                pi[y] -= drop
            else:
                lower, low_parent, rise, high_parent = {x: drop}, {}, {y: drop}, {}
                low = self._dijkstra(lower, low_parent, False, 0, y)
                high = self._dijkstra(rise, high_parent, True, 0, x)
                while True:
                    if a <= b:
                        work = next(low, None)
                        if work is None:
                            break
                        a += work
                    else:
                        work = next(high, None)
                        if work is None:
                            break
                        b += work
                if a <= b:
                    dist, parent, root, v, sign = lower, low_parent, x, y, 1
                else:
                    dist, parent, root, v, sign = rise, high_parent, y, x, -1
                if v in parent:
                    path = []
                    while v != root:
                        why, v = parent[v]
                        path.append(why)
                    if sign < 0:
                        path.reverse()  # it was found from y back to x
                    return (reason, *path)
                for v, d in dist.items():
                    pi[v] += sign * d
        edge = (x, y, k, reason)
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
        for _ in self._dijkstra(reduced, {}):
            pass
        return {v: r + pi[v] - shift for v, r in reduced.items()}

    def _dijkstra(self, dist, parent, raising=False, cap=math.inf, stop=None):
        """Dijkstra over the reduced costs k + pi[y] - pi[x] >= 0, a vertex a step.

        ``dist`` holds the start distances and receives the rest.  A lowering
        search follows each edge x - y <= k from y to x, a raising one from x
        to y, and offers the far end the near end's distance plus the edge's
        reduced cost.  In a repair, a lowering distance is what pi must add,
        and a raising one what it must subtract.  Only distances below
        ``cap`` are kept, an unreached vertex counting as ``cap``, and the
        search ends as soon as ``stop`` is offered one.  parent[v] =
        (reason, u) records the edge that last offered v a distance.

        This is a generator: after settling each vertex it yields the work
        that step charged, the length of the edge list of each vertex it
        queued.
        """
        pi = self.pi
        edges, far, sign = (self._out, 1, -1) if raising else (self._into, 0, 1)
        frontier = [(d, v) for v, d in dist.items()]
        heapify(frontier)
        while frontier:
            d, u = heappop(frontier)
            if d > dist[u]:
                continue  # a stale entry; u was settled nearer
            base = d + sign * pi[u]
            work = 0
            for edge in edges.get(u, ()):
                v = edge[far]
                r = base + edge[2] - sign * pi[v]
                if r < dist.get(v, cap):
                    parent[v] = (edge[3], u)
                    if v == stop:
                        return
                    dist[v] = r
                    heappush(frontier, (r, v))
                    work += len(edges.get(v, ()))
            yield work
