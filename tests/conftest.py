"""Shared helpers: small graph corpus, exhaustive coloring oracles, and a
wall-clock limit for tests that must fail rather than hang."""

import itertools
import signal
from contextlib import contextmanager
from functools import lru_cache

import pytest
from hypothesis import Phase

from mdlsat.reductions import Graph

#: Hypothesis phases for a test whose only input is an opaque seed: a failing
#: seed is reported as drawn, since no smaller seed means anything.
SEED_PHASES = (Phase.explicit, Phase.reuse, Phase.generate)


@lru_cache(maxsize=None)
def four_vertex_graphs() -> tuple:
    """All isomorphism-distinct graphs on 4 vertices (there are 11)."""
    all_edges = [(v, w) for v in range(4) for w in range(v + 1, 4)]
    perms = list(itertools.permutations(range(4)))
    seen, out = set(), []
    for bits in range(1 << len(all_edges)):
        edges = frozenset(e for i, e in enumerate(all_edges) if bits >> i & 1)
        canon = min(
            tuple(sorted((min(p[v], p[w]), max(p[v], p[w])) for v, w in edges))
            for p in perms
        )
        if canon not in seen:
            seen.add(canon)
            out.append(Graph(4, edges))
    return tuple(out)


def petersen() -> Graph:
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))
        edges.append((i, i + 5))
        edges.append((5 + i, 5 + (i + 2) % 5))
    return Graph.from_edges(10, edges)


def proper_three_colorings(graph: Graph):
    """Every proper 3-coloring, by exhausting all 3^n assignments."""
    for values in itertools.product(range(3), repeat=graph.n):
        if all(values[v] != values[w] for v, w in graph.edges):
            yield dict(enumerate(values))


def is_three_colorable(graph: Graph) -> bool:
    return next(proper_three_colorings(graph), None) is not None


class _Expired(Exception):
    pass


@contextmanager
def time_limit(seconds: float):
    """Fail the test once the block has run for ``seconds`` of wall time."""

    def expire(signum, frame):
        raise _Expired()

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    except _Expired:
        # no traceback: the interrupted frame can be anywhere, even in C
        pytest.fail(f"still running after {seconds}s", pytrace=False)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
