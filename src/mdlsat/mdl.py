"""Complete satisfiability for modular difference systems.

Over the integers these constraints are a shortest-path problem; over the
residues mod N they are NP-complete.  The NP part is which terms wrap:
with every offset reduced into [0, N), the term x + k is either x + k or
x + k - N, and one Boolean wrap literal decides which.  ``solve`` searches
over those literals by conflict-driven clause learning and checks each
partial assignment on the incremental difference-graph engine of ``idl``,
so its work depends on the number of literals, not on N.

The paper's bound stays here as the result it is: a satisfiable system with
p variables and largest absolute constant m has a solution whose values all
lie within B = (2m+1)*p of an end of the residue range.

Entry points:

* ``brute_force_sat`` -- plain enumeration of all N^p assignments, used as an
  independent oracle at desk scale.
* ``solve`` -- CDCL over wrap literals on ``idl.DiffEngine``, seeded with
  the static lemmas of ``_static_lemmas``.
* ``small_model_bound`` -- the candidate set D = [0,B] u [N-1-B, N-1], in
  which every model ``solve`` returns lies.

Search state is local to each call; everything here is safe to invoke
concurrently on shared inputs.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from typing import NamedTuple

from .core import Assignment, ConstraintSystem, MdlError, Term, eval_system
from .idl import ORIENTED, DiffEngine


class BudgetExceededError(MdlError):
    """The requested enumeration is larger than the allowed budget."""


class SelfCheckError(MdlError):
    """An answer failed the solver's own re-check: a bug, not a bad input."""


class SearchStats(NamedTuple):
    """``nodes`` counts assignments tried by enumeration and decisions by CDCL;
    ``lemmas`` counts the clauses CDCL derives before its search."""

    method: str
    nodes: int
    conflicts: int = 0
    lemmas: int = 0


class SolveOutcome(NamedTuple):
    """SAT with a model, or UNSAT with the search statistics that exhausted it."""

    sat: bool
    model: Assignment | None
    stats: SearchStats


class DomainBound(NamedTuple):
    """Candidate values near the ends of the residue range.

    Membership and size are arithmetic on ``bound`` and ``n``; the
    candidates, whose count can reach min(N, 2B+2), are never listed.
    """

    bound: int
    n: int

    def __contains__(self, value) -> bool:
        return 0 <= value < self.n and (value <= self.bound or value >= self.n - 1 - self.bound)

    @property
    def size(self) -> int:
        """The number of candidates; ``len`` counts the two fields, and caps at sys.maxsize."""
        return min(self.n, 2 * self.bound + 2)


def small_model_bound(system: ConstraintSystem) -> DomainBound:
    """B = (2m+1)*p and the candidate set D = ([0,B] u [N-1-B, N-1]) n [0,N-1]."""
    b = (2 * system.max_abs_constant + 1) * system.num_vars
    return DomainBound(b, system.modulus.n)


def brute_force_sat(system: ConstraintSystem, budget: int = 10_000_000) -> SolveOutcome:
    """Enumerate all N^p assignments in lexicographic order.

    Returns the first satisfying assignment, or UNSAT after seeing them all.
    Refuses to start when N^p exceeds the budget.
    """
    n = system.modulus.n
    p = system.num_vars
    total = n**p
    if total > budget:
        raise BudgetExceededError(f"{n}^{p} = {total} assignments exceed the budget of {budget}")
    count = 0
    for values in itertools.product(range(n), repeat=p):
        count += 1
        if eval_system(system, values) is None:
            model = dict(enumerate(values))
            return SolveOutcome(True, model, SearchStats("enumeration", count))
    return SolveOutcome(False, None, SearchStats("enumeration", count))


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


def solve(system: ConstraintSystem) -> SolveOutcome:
    """Decide satisfiability over [0, N-1]^p by CDCL over wrap literals.

    Each wrap literal (see ``_wrap_encoding``) fixes whether one term wraps.
    Under a partial assignment the system is a set of integer difference
    constraints on ``DiffEngine``: the bounds 0 <= x <= N-1 against the
    zero vertex, x >= N-k for a true literal and x <= N-k-1 for a false one,
    and each constraint's edges once all of its literals are set.  A
    negative cycle names the literals behind its edges; their negation is a
    conflict clause.

    Before the search, the clauses of ``_static_lemmas`` (the short cycles
    through the zero vertex, and the chain of each variable's thresholds)
    are stored like learned ones, and those of one literal are assigned at
    level 0; ``stats.lemmas`` counts them.  On the ladder these are nearly
    all the clauses the search would otherwise learn by conflict, again
    after every backjump.

    The search backtracks chronologically (Nadel & Ryvchin, "Chronological
    backtracking", SAT 2018, at threshold 0), so the trail need not be
    sorted by level.  A decision opens a new level; an implied literal takes
    the highest level among the other literals of its reason clause, which
    may be below the current one.  A conflict whose highest level c is 0
    means UNSAT.  Otherwise the clause learned from it resolves away all but
    one literal of level c (first unique implication point), the search
    backtracks to level c-1 only, and the remaining literal is asserted at
    the highest level b among the clause's others.  Backtracking to a level
    keeps the trail's literals of that level or below and propagates them
    again, so their edges re-enter the engine.  A conflict thus undoes the
    levels from c up, not every level above b, and the decisions between b
    and c are not made again.

    Every clause comes from a negative cycle and is short, two or three
    literals on the ladder, so watched literals would save nothing: each is
    stored once under each of its literals, and is scanned whole when one
    of them turns false.

    Decisions follow the literal numbering and try "no wrap" first; there
    are no restarts, so runs are deterministic.  Worst-case time is
    exponential in the number of literals, and independent of N.

    The model is the greatest solution of the final edges with the zero
    vertex at 0: each variable's shortest-path distance from ``zero``.  It
    depends only on the final wrap assignment, not on the search history,
    and it lies in the paper's bounded domain D (``small_model_bound``) by
    construction:

    * Every edge weight is congruent mod N to some s with |s| <= 2m+1.  A
      constraint edge's weight kb - ka - t + N*(wa - wb) is congruent to
      l - k - t for the written offsets k, l (a constant right-hand side
      counts as l); a literal bound k - N or N-k-1 to k or -k-1; a range
      bound 0 or N-1 to 0 or -1.
    * Without negative cycles some shortest path is simple, and a simple
      path from ``zero`` has at most p edges.  So each value is S + jN with
      |S| <= (2m+1)*p = B.
    * The edges zero - x <= 0 and x - zero <= N-1 pin each value into
      [0, N-1].  So when |S| < N the value is S, in [0, B], for S >= 0, or
      N+S, in [N-B, N-1], for S < 0; and when |S| >= N, B >= N and D is the
      whole range.

    The model is re-checked against the system before it is returned.
    """
    p = system.num_vars
    literals, edges = _wrap_encoding(system)
    engine = DiffEngine()
    guarded: list = [[] for _ in range(2 * len(literals))]  # literal code -> edges it guards
    for edge in edges:
        if not edge[3]:
            if engine.add(*edge) is not None:
                return SolveOutcome(False, None, SearchStats("cdcl", 0, 1))
        for lit in edge[3]:
            guarded[lit].append(edge)

    # indexed by literal i; the trail and clauses hold codes 2*i + value
    value: list = [None] * len(literals)
    level = [0] * len(literals)
    reason: list = [None] * len(literals)  # the implying clause; None for decisions
    position = [0] * len(literals)
    trail: list = []
    trail_lim: list = []  # trail length at each decision
    edge_lim: list = []  # engine mark at each decision
    occurs: list = [[] for _ in range(2 * len(literals))]  # literal code -> clauses holding it
    nodes = conflicts = 0
    qhead = 0
    next_free = 0

    def assign(lit: int, at: int, why) -> None:
        i = lit >> 1
        value[i] = lit & 1
        level[i] = at
        reason[i] = why
        position[i] = len(trail)
        trail.append(lit)

    def theory(lit: int) -> list | None:
        """Add the edges ``lit`` completes; a conflict comes back as a false clause."""
        here = position[lit >> 1]
        for a, b, k, guard in guarded[lit]:
            for g in guard:
                i = g >> 1
                if value[i] != g & 1 or position[i] > here:
                    break  # not switched on yet, or the later literal adds it
            else:
                cycle = engine.add(a, b, k, guard)
                if cycle is not None:
                    # the learned clause: not all of the guards of the cycle's edges
                    return [g ^ 1 for g in dict.fromkeys(g for guard in cycle for g in guard)]
        return None

    def unit_propagate(lit: int) -> tuple | None:
        """Scan the clauses holding ``lit ^ 1``: imply a unit's free literal, or return a false clause."""
        for clause in occurs[lit ^ 1]:
            free = None
            height = 0
            for c in clause:
                v = value[c >> 1]
                if v is None:
                    if free is not None:
                        break  # two unassigned literals
                    free = c
                elif v == c & 1:
                    break  # satisfied
                elif level[c >> 1] > height:
                    height = level[c >> 1]
            else:
                if free is None:
                    return clause
                assign(free, height, clause)
        return None

    def analyze(conflict, top: int) -> tuple:
        """First-UIP clause: resolve away all but one literal of level ``top``.

        ``top`` is the highest level in the conflict.  Literals of other
        levels can sit anywhere on the trail, so the walk steps over them.
        """
        seen = set()
        rest = []
        open_count = 0
        at = len(trail)
        lits = conflict
        while True:
            for lit in lits:
                i = lit >> 1
                if i not in seen and level[i] > 0:
                    seen.add(i)
                    if level[i] == top:
                        open_count += 1
                    else:
                        rest.append(lit)
            at -= 1
            while level[trail[at] >> 1] != top or trail[at] >> 1 not in seen:
                at -= 1
            uip = trail[at]
            open_count -= 1
            if open_count == 0:
                return (uip ^ 1, *rest)
            lits = [lit for lit in reason[uip >> 1] if lit != uip]

    lemmas = _static_lemmas(literals, edges, system.modulus.n, p)
    for clause in lemmas:
        if len(clause) > 1:
            for lit in clause:
                occurs[lit].append(clause)
        elif value[clause[0] >> 1] is None:
            assign(clause[0], 0, clause)
        elif value[clause[0] >> 1] != clause[0] & 1:  # two units that contradict
            return SolveOutcome(False, None, SearchStats("cdcl", 0, 1, len(lemmas)))

    while True:
        conflict = None
        while conflict is None and qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            conflict = theory(lit) or unit_propagate(lit)
        if conflict is not None:
            conflicts += 1
            top = max(level[lit >> 1] for lit in conflict)
            if top == 0:
                return SolveOutcome(False, None, SearchStats("cdcl", nodes, conflicts, len(lemmas)))
            learnt = analyze(conflict, top)
            back = max((level[lit >> 1] for lit in learnt[1:]), default=0)
            # back to level top - 1: the literals of lower levels above the
            # cut stay, on a fresh stretch of trail that propagates again
            cut = trail_lim[top - 1]
            stay = []
            for lit in trail[cut:]:
                if level[lit >> 1] < top:
                    stay.append(lit)
                else:
                    value[lit >> 1] = None
                    next_free = min(next_free, lit >> 1)
            del trail[cut:], trail_lim[top - 1 :]
            engine.backtrack(edge_lim[top - 1])
            del edge_lim[top - 1 :]
            for lit in stay:
                position[lit >> 1] = len(trail)
                trail.append(lit)
            qhead = cut
            for lit in learnt:
                occurs[lit].append(learnt)
            assign(learnt[0], back, learnt)
            continue
        while next_free < len(literals) and value[next_free] is not None:
            next_free += 1
        if next_free == len(literals):
            break
        nodes += 1
        trail_lim.append(len(trail))
        edge_lim.append(engine.mark())
        assign(2 * next_free, len(trail_lim), None)

    greatest = engine.greatest(p)  # p is the zero vertex
    model = {v: greatest[v] for v in range(p)}
    if eval_system(system, model) is not None:
        raise SelfCheckError("internal error: search produced a non-model")
    return SolveOutcome(True, model, SearchStats("cdcl", nodes, conflicts, len(lemmas)))
