"""The wrap encoding and static lemmas that ``mdlsat.mdl`` had as two
passes, kept verbatim as a test oracle for its one pass.

``_wrap_encoding`` numbered the literals and listed every guarded edge,
``solve`` then walked that list to file each edge under its guard literals
(``guarded_lists`` here), and ``_static_lemmas`` walked it once more.
``tests/test_mdl.py`` checks that ``mdl._wrap_theory`` returns the same
literals, the same unguarded edges, the same per-literal guarded lists and
the same lemmas, each in the same order.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from mdlsat.core import ConstraintSystem, Term
from mdlsat.idl import ORIENTED


def _wrap_encoding(system: ConstraintSystem):
    """Wrap literals and guarded difference edges of a system, for ``solve``.

    With 0 <= x < N and k reduced into [0, N), the term x + k evaluates to
    x + k - N*w for the literal w = [x >= N-k]; a term with k = 0 never
    wraps and has no literal.  A constant right-hand side r is the term
    ``zero + (r mod N)`` on the extra vertex ``zero`` = p, which also never
    wraps.  Literals are numbered in decision order: grouped by variable in
    id order, and by first occurrence within a variable.  Literal i with
    value w has the code 2*i + w: 2*i + 1 says its term wraps, 2*i that it
    does not.

    Returns the literals as (variable, k) pairs, and the edges as
    (a, b, k, guard): a - b <= k holds once every literal code in the tuple
    ``guard`` is true.  In order, the edges are:

    * the range bounds zero - v <= 0 and v - zero <= N-1 of each variable,
      unguarded;
    * each literal's bounds, x >= N-k when it is true and x <= N-k-1 when
      it is false;
    * each constraint's edges, one copy per value of the literals la, lb of
      its terms: a - b <= kb - ka - t + N*(wa - wb), guarded by the codes of
      la and lb in that order.  A term without a literal contributes 0, and
      an edge without literals is unguarded.
    """
    n = system.modulus.n
    zero = system.num_vars
    first_seen: dict = {}  # (variable, k) -> first occurrence
    rows = []
    for c in system.constraints:
        lhs = (c.lhs.var, c.lhs.offset % n)
        rhs = (c.rhs.var, c.rhs.offset % n) if isinstance(c.rhs, Term) else (zero, c.rhs % n)
        for term in (lhs, rhs):
            if term[1] and term[0] != zero:
                first_seen.setdefault(term, len(first_seen))
        rows.append((c.rel, lhs, rhs))
    literals = sorted(first_seen, key=lambda term: (term[0], first_seen[term]))
    index = {term: i for i, term in enumerate(literals)}
    edges = []
    for v in range(zero):
        edges += [(zero, v, 0, ()), (v, zero, n - 1, ())]
    values = {None: ((0, ()),)}  # literal index -> its values and their guards
    for i, (x, k) in enumerate(literals):
        edges += [(zero, x, k - n, (2 * i + 1,)), (x, zero, n - k - 1, (2 * i,))]
        values[i] = ((0, (2 * i,)), (1, (2 * i + 1,)))
    for rel, lhs, rhs in rows:
        for swap, t in ORIENTED[rel]:
            (a, ka), (b, kb) = (rhs, lhs) if swap else (lhs, rhs)
            la, lb = index.get((a, ka)), index.get((b, kb))
            if la == lb:  # the same term twice: the wraps cancel
                la = lb = None
            for wa, ga in values[la]:
                for wb, gb in values[lb]:
                    edges.append((a, b, kb - ka - t + n * (wa - wb), ga + gb))
    return literals, edges


def _static_lemmas(literals, edges, n: int, zero: int) -> list:
    """Clauses over wrap literals that every model satisfies, for ``solve``.

    A model gives each literal the value of its term's wrap, and then
    satisfies every edge whose guard is true (see ``_wrap_encoding``).  So
    edges that sum to a negative cycle cannot all have true guards: "not all
    of their guards" is a clause no model falsifies.  This pass derives the
    short cycles through the zero vertex once, before the search would meet
    each of them by conflict (static learning; Bozzano et al., TACAS 2005).
    Literal i of the term x + k has the threshold t = N-k: it is true when
    x >= t and false when x <= t-1.  Two kinds of clause come out:

    * the chain: [x >= t2] -> [x >= t1] for neighbouring thresholds t1 < t2
      of each variable x;
    * for each constraint edge a - b <= k with guard G, the cycle
      zero -> a -> b -> zero, negative when a lower bound L of a and an
      upper bound U of b give L - U > k.  L and U are the range bounds 0
      and N-1 (0 for the zero vertex), tightened by G's own literals; if
      they close the cycle, the clause is "not all of G".  Otherwise one
      more literal bound may, a >= t on a or b <= t-1 on b.  Of each kind
      only the weakest one that does is taken, found by bisection on the
      variable's sorted thresholds, and the clause is "not all of G, or not
      that bound"; the chain implies the weakest bound from any stronger
      one.  A closing bound that is G's own literal with the other value
      would make a clause with a literal and its negation, and is skipped.

    A literal's own bound edges and the range bounds close no cycle the
    chain does not, so they are not visited.  The pass takes O(E log L) for
    E edges and L literals and gives at most 3E + L clauses, each kept once.
    None is empty: that would be a negative cycle of unguarded edges, which
    ``solve`` refuses before it calls this pass.
    """
    thresholds: dict = {}  # variable -> its literals' thresholds, ascending
    codes: dict = {}  # variable -> its literal indices in the same order
    for i in sorted(range(len(literals)), key=lambda i: -literals[i][1]):
        x, k = literals[i]
        thresholds.setdefault(x, []).append(n - k)
        codes.setdefault(x, []).append(i)
    lemmas: dict = {}
    for order in codes.values():
        for i1, i2 in zip(order, order[1:]):
            lemmas[(2 * i1 + 1, 2 * i2)] = None
    for a, b, k, guard in edges[2 * zero + 2 * len(literals) :]:
        low, high = 0, 0 if b == zero else n - 1
        for g in guard:
            x, kg = literals[g >> 1]
            if g & 1 and x == a:
                low = max(low, n - kg)
            elif not g & 1 and x == b:
                high = min(high, n - kg - 1)
        clause = tuple(g ^ 1 for g in guard)
        if low - high > k:
            lemmas[clause] = None
            continue
        if a in thresholds:  # the weakest a >= t with t - high > k
            j = bisect_left(thresholds[a], k + high + 1)
            if j < len(thresholds[a]) and 2 * codes[a][j] not in guard:
                lemmas[(*clause, 2 * codes[a][j])] = None
        if b in thresholds:  # the weakest b <= t-1 with low - (t-1) > k
            j = bisect_right(thresholds[b], low - k) - 1
            if j >= 0 and 2 * codes[b][j] + 1 not in guard:
                lemmas[(*clause, 2 * codes[b][j] + 1)] = None
    return list(lemmas)


def guarded_lists(literals, edges) -> list:
    """Literal code -> the edges it guards, in edge order, as ``solve`` filed them."""
    guarded: list = [[] for _ in range(2 * len(literals))]
    for edge in edges:
        for lit in edge[3]:
            guarded[lit].append(edge)
    return guarded
