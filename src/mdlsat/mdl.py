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
  the static lemmas that ``_wrap_theory`` derives as it encodes; the engine
  runs at each fixpoint of unit propagation, and each negative cycle it
  returns is kept as a clause.
* ``small_model_bound`` -- the candidate set D = [0,B] u [N-1-B, N-1], in
  which every model ``solve`` returns lies.

Search state is local to each call; everything here is safe to invoke
concurrently on shared inputs.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import NamedTuple

from .core import Assignment, ConstraintSystem, MdlError, Term, eval_system
from .idl import ORIENTED, DiffEngine


#: The most assignments ``brute_force_sat`` enumerates unless told otherwise.
BRUTE_FORCE_BUDGET = 10_000_000


class BudgetExceededError(MdlError):
    """The requested enumeration is larger than the allowed budget."""


class SelfCheckError(MdlError):
    """An answer failed the solver's own re-check: a bug, not a bad input."""


class SearchStats(NamedTuple):
    """``nodes`` counts assignments tried by enumeration and decisions by CDCL;
    ``lemmas`` counts the clauses CDCL derives before its search, and the
    rest are the counts of its ``DiffEngine``, named as there.  Enumeration
    leaves every count but ``nodes`` at 0."""

    method: str
    nodes: int
    conflicts: int = 0
    lemmas: int = 0
    adds: int = 0
    cycles: int = 0
    repairs: int = 0
    steps: int = 0
    scanned: int = 0


def _cdcl_stats(nodes: int, conflicts: int, lemmas: int, e: DiffEngine) -> SearchStats:
    return SearchStats("cdcl", nodes, conflicts, lemmas, e.adds, e.cycles, e.repairs, e.steps, e.scanned)


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


def brute_force_sat(system: ConstraintSystem, budget: int = BRUTE_FORCE_BUDGET) -> SolveOutcome:
    """Enumerate all N^p assignments in lexicographic order.

    Returns the first satisfying assignment, or UNSAT after seeing them all.
    Refuses to start when N^p exceeds the budget.
    """
    n = system.modulus.n
    p = system.num_vars
    # n >= 2, so n^p exceeds the budget once p exceeds the budget's bit length
    if n ** min(p, budget.bit_length()) > budget:
        raise BudgetExceededError(f"N^p = {n}^{p} assignments exceed the budget of {budget}")
    count = 0
    for values in itertools.product(range(n), repeat=p):
        count += 1
        if eval_system(system, values) is None:
            model = dict(enumerate(values))
            return SolveOutcome(True, model, SearchStats("enumeration", count))
    return SolveOutcome(False, None, SearchStats("enumeration", count))


def _wrap_theory(system: ConstraintSystem):
    """Wrap literals, guarded difference edges and static lemmas, for ``solve``.

    With 0 <= x < N and k reduced into [0, N), the term x + k evaluates to
    x + k - N*w for the literal w = [x >= N-k]: true when x >= N-k, false
    when x <= N-k-1.  A term with k = 0 never wraps and has no literal.  A
    constant right-hand side r is the term ``zero + (r mod N)`` on the extra
    vertex ``zero`` = p, which also never wraps.  Literals are numbered in
    decision order: grouped by variable in id order, and by first occurrence
    within a variable.  Literal i with value w has the code 2*i + w.

    An edge (a, b, k, guard) says a - b <= k once every literal code in the
    tuple ``guard`` is true.  The edges are the range bounds zero - v <= 0
    and v - zero <= N-1 of each variable, each literal's bounds, and each
    constraint's edges, one copy per value of the literals la, lb of its
    terms: a - b <= kb - ka - t + N*(wa - wb), guarded by the codes of la
    and lb in that order.  A term without a literal contributes 0.

    A model gives each literal the value of its term's wrap and satisfies
    every edge whose guard is true, so edges that sum to a negative cycle
    cannot all have true guards: "not all of their guards" is a clause no
    model falsifies.  The lemmas are the short cycles through the zero
    vertex, derived once before the search would meet each of them by
    conflict (static learning; Bozzano et al., TACAS 2005):

    * the chain [x >= t2] -> [x >= t1] for neighbouring thresholds t1 < t2
      (t = N-k) of each variable x;
    * for each constraint edge a - b <= k with guard G, the cycle
      zero -> a -> b -> zero, negative when a lower bound L of a and an
      upper bound U of b give L - U > k.  L and U are the range bounds 0
      and N-1 (0 for the zero vertex), tightened by G's own literals, each
      of which bounds both ends when a and b are one variable; if they close
      the cycle, the clause is "not all of G".  Otherwise one more literal
      bound may, a >= t on a or b <= t-1 on b.  Of each kind only the
      weakest one that does is taken, found by bisection on the variable's
      sorted thresholds, and the clause is "not all of G, or not that
      bound"; the chain implies the weakest bound from any stronger one.  A
      closing bound that is G's own literal with the other value would make
      a clause with a literal and its negation, and is skipped.

    A literal's own bound edges and the range bounds close no cycle the
    chain does not, so they give no lemma.  The empty clause comes out only
    for a negative cycle of unguarded edges, which ``solve`` refuses at
    level 0 before it reads the lemmas.

    One walk over the constraints numbers the literals; a second creates
    each edge, files it under each code of its guard, and derives its
    lemmas, in O(E log L) for E edges and L literals, with at most 3E + L
    lemmas, each kept once.  Returns the literals as (variable, k) pairs,
    the unguarded edges in order, the list of edges each literal code
    guards, and the lemmas as tuples of codes.
    """
    n = system.modulus.n
    zero = system.num_vars
    terms: dict = {}  # the (variable, k) of each literal, in order of first occurrence
    rows = []
    for c in system.constraints:
        lhs = (c.lhs.var, c.lhs.offset % n)
        rhs = (c.rhs.var, c.rhs.offset % n) if isinstance(c.rhs, Term) else (zero, c.rhs % n)
        if lhs[1]:
            terms[lhs] = None
        if rhs[1] and rhs[0] != zero:
            terms[rhs] = None
        rows.append((c.rel, lhs, rhs))
    literals = sorted(terms, key=itemgetter(0))  # stable: first occurrence within a variable
    thresholds: dict = {}  # variable -> its literals' thresholds, ascending
    codes: dict = {}  # variable -> their false codes 2*i in the same order
    # by k descending, then by index, which also orders the chain lemmas
    for neg_k, i, x in sorted([(-k, i, x) for i, (x, k) in enumerate(literals)]):
        thresholds.setdefault(x, []).append(n + neg_k)
        codes.setdefault(x, []).append(2 * i)
    lemmas = dict.fromkeys((c1 + 1, c2) for order in codes.values() for c1, c2 in itertools.pairwise(order))
    unguarded = []
    for v in range(zero):
        unguarded += [(zero, v, 0, ()), (v, zero, n - 1, ())]
    guarded: list = []  # literal code -> the edges it guards, in edge order
    values: dict = {}  # term -> per value w: N*w, guard, negated guard, bounds low <= x <= high
    for i, (x, k) in enumerate(literals):
        false, true = (2 * i,), (2 * i + 1,)
        guarded += [[(x, zero, n - k - 1, false)], [(zero, x, k - n, true)]]
        values[x, k] = ((0, false, true, 0, n - k - 1), (n, true, false, n - k, n - 1))
    plain = ((0, (), (), 0, n - 1),)  # a term without a literal
    at_zero = ((0, (), (), 0, 0),)  # the zero vertex is pinned at 0
    for rel, lhs, rhs in rows:
        for swap, t in ORIENTED[rel]:
            (a, ka), (b, kb) = (rhs, lhs) if swap else (lhs, rhs)
            if lhs == rhs:  # the same term twice: the wraps cancel
                va = vb = plain
            else:
                va, vb = values.get((a, ka), plain), values.get((b, kb), plain if b != zero else at_zero)
            base = kb - ka - t
            ta, tb = thresholds.get(a), thresholds.get(b)
            ca, cb = codes.get(a), codes.get(b)
            same = a == b
            for wa, ga, na, low_a, high_a in va:
                for wb, gb, nb, low_b, high_b in vb:
                    k = base + wa - wb
                    guard = ga + gb
                    edge = (a, b, k, guard)
                    if not guard:
                        unguarded.append(edge)
                    for g in guard:
                        guarded[g].append(edge)
                    if same:
                        low, high = max(low_a, low_b), min(high_a, high_b)
                    else:
                        low, high = low_a, high_b
                    clause = na + nb
                    if low - high > k:
                        lemmas[clause] = None
                        continue
                    if ta is not None:  # the weakest a >= t with t - high > k
                        j = bisect_left(ta, k + high + 1)
                        if j < len(ta) and ca[j] not in guard:
                            lemmas[(*clause, ca[j])] = None
                    if tb is not None:  # the weakest b <= t-1 with low - (t-1) > k
                        j = bisect_right(tb, low - k) - 1
                        if j >= 0 and cb[j] + 1 not in guard:
                            lemmas[(*clause, cb[j] + 1)] = None
    return literals, unguarded, guarded, list(lemmas)


def solve(system: ConstraintSystem) -> SolveOutcome:
    """Decide satisfiability over [0, N-1]^p by CDCL over wrap literals.

    Each wrap literal (see ``_wrap_theory``) fixes whether one term wraps.
    Under a partial assignment the system is a set of integer difference
    constraints on ``DiffEngine``: the bounds 0 <= x <= N-1 against the
    zero vertex, x >= N-k for a true literal and x <= N-k-1 for a false one,
    and each constraint's edges once all of its literals are set.  A
    negative cycle names the literals behind its edges; their negation is a
    conflict clause, and it is kept like a learned clause (T-Learn in
    Nieuwenhuis, Oliveras & Tinelli, "Solving SAT and SAT Modulo Theories",
    J. ACM 2006), so the engine never meets the same cycle twice.

    Propagation runs Boolean first, from two heads on the trail: unit
    propagation takes each new literal until it reaches a fixpoint, and only
    then does the engine take the edges of the literals its own head has
    not seen yet.  Adding edges assigns nothing, so the engine drains its
    head in one stretch before the next decision.  Unit propagation thus
    meets a stored cycle clause as a conflict before the engine could close
    the cycle again, and the literals that a Boolean conflict undoes before
    the fixpoint never have their edges added.

    The unguarded edges go in first, and a negative cycle among them is
    UNSAT with 0 decisions, 1 conflict and 0 lemmas.  Then the static
    lemmas that ``_wrap_theory`` derives in the same pass as the edges (the
    short cycles through the zero vertex, and the chain of each variable's
    thresholds) are stored like learned ones, and one of a single literal
    assigns it at level 0 if it is free, so two that contradict meet as a
    conflict there; ``stats.lemmas`` counts them.  On the ladder these are
    nearly all the clauses the search would otherwise learn by conflict,
    again after every backjump.

    The search backtracks chronologically (Nadel & Ryvchin, "Chronological
    backtracking", SAT 2018, at threshold 0), so the trail need not be
    sorted by level.  A decision opens a new level; an implied literal takes
    the highest level among the other literals of its reason clause, which
    may be below the current one.  A conflict whose highest level c is 0
    means UNSAT.  Otherwise the clause learned from it resolves away all but
    one literal of level c (first unique implication point), the search
    backtracks to level c-1 only, and the remaining literal is asserted at
    the highest level b among the clause's others; when that clause is the
    conflict clause itself, it is not stored again.  Backtracking to a level
    keeps the trail's literals of that level or below, in their order, and
    propagates them again from the cut, so their edges re-enter the engine.
    An edge goes in when the last of its literals on the trail does, judged
    by stamps from a counter that never goes back: trail order is stamp
    order, so a kept literal keeps its stamp.  A conflict thus undoes the
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
    literals, unguarded, guarded, lemmas = _wrap_theory(system)
    engine = DiffEngine()
    for edge in unguarded:
        if engine.add(edge) is not None:
            return SolveOutcome(False, None, _cdcl_stats(0, 1, 0, engine))

    # indexed by literal i; the trail and clauses hold codes 2*i + value
    value: list = [None] * len(literals)
    level = [0] * len(literals)
    reason: list = [None] * len(literals)  # the implying clause; None for decisions
    stamp = [0] * len(literals)  # assignment order, never reused: trail order is stamp order
    clock = itertools.count()
    trail: list = []
    levels: list = []  # (trail length, engine mark) at each decision
    occurs: list = [[] for _ in range(2 * len(literals))]  # literal code -> clauses holding it
    nodes = conflicts = 0
    bhead = thead = 0  # the next trail entries for unit_propagate and for theory
    next_free = 0

    def assign(lit: int, at: int, why) -> None:
        i = lit >> 1
        value[i] = lit & 1
        level[i] = at
        reason[i] = why
        stamp[i] = next(clock)
        trail.append(lit)

    def theory(lit: int) -> tuple | None:
        """Add the edges ``lit`` completes; a negative cycle comes back as a false clause, already stored."""
        here = stamp[lit >> 1]
        for edge in guarded[lit]:
            for g in edge[3]:
                i = g >> 1
                if value[i] != g & 1 or stamp[i] > here:
                    break  # not switched on yet, or the later literal adds it
            else:
                cycle = engine.add(edge)
                if cycle is not None:
                    # not all of the guards of the cycle's edges, kept like a learned clause
                    clause = tuple(g ^ 1 for g in dict.fromkeys(g for e in cycle for g in e[3]))
                    for c in clause:
                        occurs[c].append(clause)
                    return clause
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

    for clause in lemmas:
        for lit in clause:
            occurs[lit].append(clause)
        if len(clause) == 1 and value[clause[0] >> 1] is None:
            assign(clause[0], 0, clause)

    while True:
        conflict = None
        while conflict is None and bhead < len(trail):
            lit = trail[bhead]
            bhead += 1
            conflict = unit_propagate(lit)
        # at the Boolean fixpoint; ``theory`` assigns nothing, so it drains its head
        while conflict is None and thead < len(trail):
            lit = trail[thead]
            thead += 1
            conflict = theory(lit)
        if conflict is not None:
            conflicts += 1
            top = max(level[lit >> 1] for lit in conflict)
            if top == 0:
                return SolveOutcome(False, None, _cdcl_stats(nodes, conflicts, len(lemmas), engine))
            learnt = analyze(conflict, top)
            back = max((level[lit >> 1] for lit in learnt[1:]), default=0)
            # back to level top - 1: the literals of lower levels above the
            # cut stay, in their order and with their stamps, and propagate again
            cut, mark = levels[top - 1]
            undone = trail[cut:]
            del trail[cut:], levels[top - 1 :]
            engine.backtrack(mark)
            for lit in undone:
                if level[lit >> 1] < top:
                    trail.append(lit)
                else:
                    value[lit >> 1] = None
                    next_free = min(next_free, lit >> 1)
            bhead = thead = cut
            if set(learnt) != set(conflict):  # else the conflict is the clause, stored already
                for lit in learnt:
                    occurs[lit].append(learnt)
            assign(learnt[0], back, learnt)
            continue
        while next_free < len(literals) and value[next_free] is not None:
            next_free += 1
        if next_free == len(literals):
            break
        nodes += 1
        levels.append((len(trail), engine.mark()))
        assign(2 * next_free, len(levels), None)

    greatest = engine.greatest(p)  # p is the zero vertex
    model = {v: greatest[v] for v in range(p)}
    if eval_system(system, model) is not None:
        raise SelfCheckError("internal error: search produced a non-model")
    return SolveOutcome(True, model, _cdcl_stats(nodes, conflicts, len(lemmas), engine))
