"""Checks of the benchmark itself: its inputs, its oracles, its time limit,
and that every deterministic counter repeats exactly across two runs.

    python3 -m pytest -q bench/test_counters.py

A counter that differs between two runs of the same input is a bug in the
program or in the benchmark, not noise.
"""

from __future__ import annotations

import signal
import time

import pytest

import workloads
from reference import HostClock
from run import WORK, ROOT, timed_attempt
from spans import Tracer, instance_counters
from workloads import WORKLOADS, attempt, install_alarm, load_program, write_inputs

REPEATED = ("mdl.nodes", "mdl.conflicts", "mdl.domain_size", "mdl.table_cells", "mdl.normalize_shifts", "idl.cycle_len")


@pytest.fixture(scope="module")
def prog():
    install_alarm()
    return load_program(ROOT)


def _traced_run(prog, instances, workdir):
    with Tracer(prog) as tracer:
        verdicts = {}
        for inst in instances:
            tracer.begin(inst.name)
            result = attempt(prog, inst, workdir)
            assert result.status == "decided", (inst.name, result.status, result.problems)
            verdicts[inst.name] = result.verdict
    counters = instance_counters(tracer.spans)
    return verdicts, {name: {k: v for k, v in c.items() if k in REPEATED} for name, c in counters.items()}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counters_repeat_exactly(prog, workload):
    instances = [inst for inst in WORKLOADS[workload](seed=2) if inst.quick]
    workdir = WORK / f"test-{workload}"
    write_inputs(instances, workdir)
    first = _traced_run(prog, instances, workdir)
    second = _traced_run(prog, instances, workdir)
    assert first == second
    counted = {key for c in first[1].values() for key in c}
    assert counted >= ({"idl.cycle_len"} if workload == "relaxation" else {"mdl.nodes", "mdl.table_cells"})


def test_same_seed_gives_byte_identical_inputs():
    for workload, make in WORKLOADS.items():
        texts = []
        for run in ("a", "b"):
            workdir = WORK / f"test-inputs-{run}" / workload
            write_inputs(make(7), workdir)
            texts.append({path.name: path.read_bytes() for path in sorted(workdir.iterdir())})
        assert texts[0] == texts[1]
        assert len(texts[0]) == len(make(7))
    assert WORKLOADS["relaxation"](7)[0].text != WORKLOADS["relaxation"](8)[0].text


def test_oracles_give_the_known_verdicts():
    assert {inst.expected for inst in WORKLOADS["coloring-unsat"](3)} == {"UNSAT"}
    assert {inst.expected for inst in WORKLOADS["coloring-sat-wide"](3)} == {"SAT"}
    assert [inst.expected for inst in WORKLOADS["relaxation"](3)] == ["SAT", "UNSAT"] * 3


def test_limit_interrupts_the_search(prog, monkeypatch):
    monkeypatch.setattr(workloads, "LIMIT_S", 0.5)
    stretch = [inst for inst in WORKLOADS["coloring-unsat"](0) if inst.stretch]
    workdir = WORK / "test-limit"
    write_inputs(stretch, workdir)
    start = time.perf_counter()
    result = attempt(prog, stretch[0], workdir)
    assert result.status == "timeout" and result.seconds == 0.5
    assert time.perf_counter() - start < 5


def test_host_clock_samples_inside_the_attempt_and_takes_them_off(prog):
    inst = next(inst for inst in WORKLOADS["relaxation"](1) if inst.name == "sat-v200")
    workdir = WORK / "test-clock"
    write_inputs([inst], workdir)
    previous = signal.getsignal(signal.SIGVTALRM)
    with HostClock() as clock:
        raw = attempt(prog, inst, workdir)
    inside = clock.sampled(raw.start, raw.start + raw.seconds)
    assert 0 < inside < raw.seconds / 4
    assert signal.getsignal(signal.SIGVTALRM) is previous
    assert signal.getitimer(signal.ITIMER_VIRTUAL) == (0.0, 0.0)
    scaled = timed_attempt(prog, inst, workdir)
    assert scaled.status == "decided" and scaled.scale > 0
