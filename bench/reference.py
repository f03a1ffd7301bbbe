"""A fixed pure-Python kernel that reads how fast the host runs right now.

On a shared host the same Python code runs up to about twice as slow in
spells of seconds to minutes, while the process's CPU time rises with it,
so neither clock can tell a slower program from a slower host.  The
benchmark therefore times this kernel around and during each timed attempt
(``HostClock``) and scales the attempt's time by ``REFERENCE_S`` over the
kernel's median time: every time it reports reads as on a host where the
kernel takes ``REFERENCE_S``.  The kernel uses nothing of mdlsat, so a
change to the program moves scaled times exactly as much as raw ones.

The kernel mixes what the solver does most: nested list indexing in a
shortest-path relaxation, small-object attribute reads, calls, dict and set
updates, and a sweep over a table as large as the relaxation workload's.
"""

from __future__ import annotations

import signal
import statistics
import time

#: The kernel's median time on this benchmark's reference host (a 2-vCPU
#: shared VM, Python 3.11.7).  It only sets the scale of reported times.
REFERENCE_S = 0.002

#: CPU seconds between two kernel samples taken inside an attempt.
SAMPLE_EVERY_S = 0.05

#: Kernel samples taken just before and just after an attempt.
EDGE_SAMPLES = 3

_N = 20
_WIDE = 300


class _Cell:
    __slots__ = ("value", "odd")

    def __init__(self, value, odd):
        self.value = value
        self.odd = odd


def _step(cell, k):
    return cell.value + k if cell.odd else cell.value - k


_CELLS = [_Cell(i, i & 1) for i in range(1000)]

#: Entries all exceed the largest gap between two of them, so the sweep
#: below reads the whole table and never writes it.
_TABLE = [[(i * 7919 + j * 104729) % 1000003 + 1000003 for j in range(_WIDE)] for i in range(_WIDE)]


def _kernel() -> int:
    dist = [[(i * 31 + j * 17) % 97 for j in range(_N)] for i in range(_N)]
    for k in range(_N):
        via = dist[k]
        for i in range(_N):
            row = dist[i]
            ik = row[k]
            for j in range(_N):
                if ik + via[j] < row[j]:
                    row[j] = ik + via[j]
    via = _TABLE[_WIDE // 2]
    for i in range(0, _WIDE, 3):
        row = _TABLE[i]
        ik = row[_WIDE // 2]
        for j in range(_WIDE):
            if ik + via[j] < row[j]:
                row[j] = ik + via[j]
    total, seen, last = 0, set(), {}
    for rnd in range(3):
        for cell in _CELLS:
            total += _step(cell, rnd)
            seen.add(total & 1023)
            last[total & 255] = rnd
    return total + len(seen) + len(last) + sum(map(sum, dist))


_EXPECTED = _kernel()


def kernel_seconds() -> float:
    """Time one run of the kernel."""
    start = time.perf_counter()
    result = _kernel()
    elapsed = time.perf_counter() - start
    if result != _EXPECTED:
        raise AssertionError("reference kernel gave a different result")
    return elapsed


class HostClock:
    """Samples the kernel around a block and, every ``SAMPLE_EVERY_S`` of CPU time, inside it.

    Inside the block ``SIGVTALRM`` runs the kernel between two bytecodes of
    whatever is running; ``sampled(start, end)`` then gives the kernel time
    that fell inside that interval, to be taken off a time measured over it.
    """

    def __enter__(self):
        self.samples = []  # (start, seconds)
        self._edge()
        self._previous = signal.signal(signal.SIGVTALRM, self._tick)
        signal.setitimer(signal.ITIMER_VIRTUAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, self._previous)
        self._edge()

    def _edge(self) -> None:
        for _ in range(EDGE_SAMPLES):
            self.samples.append((time.perf_counter(), kernel_seconds()))

    def _tick(self, signum, frame) -> None:
        self.samples.append((time.perf_counter(), kernel_seconds()))

    def sampled(self, start: float, end: float) -> float:
        return sum(s for at, s in self.samples if start <= at and at + s <= end)

    def scale(self) -> float:
        """Factor that turns a time measured in the block into reference time."""
        return REFERENCE_S / statistics.median(s for _, s in self.samples)


def import_probe() -> None:
    """Print the time to import ``mdlsat.cli`` in reference time (run in a fresh interpreter)."""
    kernel_seconds()
    before = [kernel_seconds() for _ in range(EDGE_SAMPLES)]
    start = time.perf_counter()
    import mdlsat.cli  # noqa: F401

    seconds = time.perf_counter() - start
    after = [kernel_seconds() for _ in range(EDGE_SAMPLES)]
    print(seconds * REFERENCE_S / statistics.median(before + after))


if __name__ == "__main__":
    times = [kernel_seconds() for _ in range(500)]
    print(f"median {statistics.median(times):.6f}s, quartiles {statistics.quantiles(times, n=4)}")
