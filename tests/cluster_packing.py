"""The cluster normalizer that ``mdlsat.mdl`` carried until ``solve``
returned models inside the bounded domain by construction, kept verbatim
as the constructive check of the paper's small-model bound.

It rewrites any solution, such as a hand-made one or brute force's, into
one inside ``small_model_bound`` by repeatedly shifting "clusters" (blocks
of variables whose values sit within 2m of each other) leftward until they
pack against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from mdlsat.core import Assignment, ConstraintSystem, MdlError, satisfies

#: Synthetic endpoint markers used by cluster analysis; never returned in models.
V_MIN = -1
V_MAX = -2


class NotASolutionError(MdlError):
    """normalize_solution was handed an assignment that violates the system."""


@dataclass(frozen=True)
class Cluster:
    """A block of variables whose assigned values sit within 2m of each other.

    The domain [lo, hi] pads the occupied value range by m on both sides,
    clipped to [0, N-1]; distinct clusters have disjoint domains.  Members
    may include the synthetic endpoints V_MIN (pinned to 0) and V_MAX
    (pinned to N-1).
    """

    members: frozenset
    lo: int
    hi: int

    def is_inner(self) -> bool:
        return V_MIN not in self.members and V_MAX not in self.members


def compute_clusters(system: ConstraintSystem, assignment: Assignment) -> list[Cluster]:
    """Partition the variables (plus both synthetic endpoints) into clusters.

    Two variables are linked when their values differ by at most 2m; clusters
    are the connected components, returned left to right.
    """
    n = system.modulus.n
    m = system.max_abs_constant
    points = {V_MIN: 0, V_MAX: n - 1}
    for v in range(system.num_vars):
        if v not in assignment:
            raise MdlError(f"assignment is missing variable id {v}")
        points[v] = assignment[v]
    order = sorted(points, key=lambda v: (points[v], v))
    clusters: list[Cluster] = []
    group = [order[0]]
    for v in order[1:]:
        if points[v] - points[group[-1]] <= 2 * m:
            group.append(v)
        else:
            clusters.append(_make_cluster(group, points, m, n))
            group = [v]
    clusters.append(_make_cluster(group, points, m, n))
    return clusters


def _make_cluster(group: list, points: dict, m: int, n: int) -> Cluster:
    lo = max(0, points[group[0]] - m)
    hi = min(n - 1, points[group[-1]] + m)
    return Cluster(frozenset(group), lo, hi)


def left_pack_steps(system: ConstraintSystem, assignment: Assignment) -> Iterator[Assignment]:
    """Yield the assignment after each single cluster shift, until packed.

    Each step takes the leftmost inner cluster whose domain is separated from
    its left neighbor's and shifts it so its domain starts one past that
    neighbor's right end.  Clusters are recomputed from scratch after every
    shift.  Each intermediate assignment is still a solution.
    """
    current = dict(assignment)
    while True:
        clusters = compute_clusters(system, current)
        for i, cluster in enumerate(clusters):
            if not cluster.is_inner():
                continue
            # i >= 1: the V_MIN cluster owns value 0 and sorts first
            gap = cluster.lo - (clusters[i - 1].hi + 1)
            if gap > 0:
                for v in cluster.members:
                    current[v] -= gap
                yield dict(current)
                break
        else:
            return


def normalize_solution(system: ConstraintSystem, assignment: Assignment) -> Assignment:
    """Shift a solution's clusters leftward until every value is in the
    bounded candidate domain of ``small_model_bound``.

    Raises NotASolutionError when the input does not satisfy the system.
    """
    if not satisfies(system, assignment):
        raise NotASolutionError("input assignment does not satisfy the system")
    result = dict(assignment)
    for step in left_pack_steps(system, assignment):
        result = step
    if not satisfies(system, result):
        raise MdlError("internal error: packing broke the solution")
    return result
