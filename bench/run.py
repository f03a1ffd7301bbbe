"""The mdlsat benchmark: one workload per run, a closed loop with one client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are named in BENCHMARK.json (``all`` runs each of them, untraced
and then traced).  The seed draws the relaxation files; the same seed gives
byte-identical inputs.  A run solves the instances of the workload one at a
time in this process.  Every instance is solved twice, so that its outputs
can be compared, except one that reaches the time limit: it is stopped,
counts as a timeout at the limit, and is not tried again.  Quick
instances (each workload marks them) are repeated, spread over the run,
while the run still fits in ``--seconds``; each instance's time to verdict
is the median of its attempts.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it alternates traced and untraced passes over every instance
and reports the per-layer metrics of the traced ones, plus
``trace.overhead_s``: the traced minus the untraced pass time.  Spans are
written to ``.bench_work/<workload>-seed<N>/spans.json`` when the run ends.

Every time an end-to-end metric reports is scaled to reference time: the
``reference`` kernel is timed just before and just after each attempt (and
each import of ``mdlsat.cli``) and every 50ms of CPU time during it; the
attempt's time, less the kernel's own, is multiplied by ``REFERENCE_S``
over the kernel's median, so that the drifting speed of a shared host
cancels out.  A timeout counts at the limit, unscaled.  Per-layer span
times are raw seconds and include the kernel samples that fall in them.

In ``all`` mode each workload's ``peak_rss_mb`` is the process's peak so far.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exits 2, printing no result, when the checkout
holds no ``src/mdlsat``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
from spans import Tracer, instance_counters, layer_metrics, span_records
from workloads import LIMIT_S, WORKLOADS, ProgramMissing, attempt, install_alarm, load_program, report_field, write_inputs

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 15

_IMPORT = "import reference; reference.import_probe()"


def _import_seconds() -> float:
    """Time a fresh interpreter takes to import ``mdlsat.cli``, timed inside it
    and scaled to reference time.

    Interpreter start-up itself is left out: no change to the program moves it.
    """
    env = dict(os.environ)
    path = [str(ROOT / "src"), str(ROOT / "bench")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(path)
    child = subprocess.run([sys.executable, "-c", _IMPORT], env=env, cwd=ROOT, check=True, timeout=60, capture_output=True, text=True)
    return float(child.stdout)


def timed_attempt(prog, inst, workdir):
    """``attempt`` under a ``HostClock``: its time less the kernel's, and the scale to reference time."""
    with reference.HostClock() as clock:
        result = attempt(prog, inst, workdir)
    result.seconds -= clock.sampled(result.start, result.start + result.seconds)
    result.scale = clock.scale()
    return result


def run_pass(prog, instances, workdir, tracer=None) -> list:
    attempts = []
    for inst in instances:
        if tracer is not None:
            tracer.begin(inst.name)
        attempts.append(timed_attempt(prog, inst, workdir))
    return attempts


def _seconds(a) -> float:
    """Time to verdict in reference time; the limit for a timeout or failure."""
    return a.seconds * a.scale if a.status == "decided" else LIMIT_S


def measure(prog, instances, workdir, seconds):
    """Untraced attempts by instance, and the median set-up time.

    Every instance is tried twice, except that a timed-out instance is not
    tried again and counts at the limit.  The quick instances are tried in
    rounds: a round follows every attempt of a slow instance, and further
    rounds run while the last one would still fit in ``seconds``.  The quick
    instances are so sampled across the whole run, not in one stretch of
    it, which matters on a host whose speed drifts.  Which instances are
    quick is fixed, not measured, so that every run samples alike.  Set-up
    is timed at the start, between the two passes over the slow instances
    and at the end, for the same reason.
    """
    attempts = {inst.name: [] for inst in instances}

    def live(inst) -> bool:
        return all(a.status != "timeout" for a in attempts[inst.name])

    def quick_round() -> float:
        began = time.perf_counter()
        for inst in instances:
            if inst.quick and live(inst):
                attempts[inst.name].append(timed_attempt(prog, inst, workdir))
        return time.perf_counter() - began

    _import_seconds()  # fills the bytecode cache
    setup = [_import_seconds() for _ in range(SETUP_REPEATS // 3)]
    start = time.perf_counter()
    quick_round()
    for slow_pass in range(2):
        for inst in instances:
            if not inst.quick and live(inst):
                attempts[inst.name].append(timed_attempt(prog, inst, workdir))
                quick_round()
        if slow_pass == 0:
            setup += [_import_seconds() for _ in range(SETUP_REPEATS // 3)]
    last = quick_round()
    while any(inst.quick and live(inst) for inst in instances) and time.perf_counter() - start + last <= seconds:
        last = quick_round()
    setup += [_import_seconds() for _ in range(SETUP_REPEATS - len(setup))]
    return attempts, statistics.median(setup)


def check_repeats(attempts) -> dict:
    """Instance -> problem, for instances whose decided reports differ between attempts."""
    problems = {}
    for name, mine in attempts.items():
        if len({a.report for a in mine if a.status == "decided"}) > 1:
            problems[name] = "stdout differs between two runs"
    return problems


def end_to_end(attempts, setup_s) -> dict:
    """Metrics over untraced attempts.  Timeouts and failures count at the limit."""
    per_instance = [statistics.median(map(_seconds, mine)) for mine in attempts.values()]
    return {
        "setup_s": setup_s,
        "wall_s": sum(per_instance),
        "verdict_geomean_ms": 1000 * math.exp(statistics.fmean(math.log(t) for t in per_instance)),
        "verdict_p50_ms": 1000 * statistics.median(per_instance),
        "decided_frac": statistics.fmean(all(a.status == "decided" for a in mine) for mine in attempts.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def print_rows(instances, attempts, repeat_problems) -> None:
    for inst in instances:
        mine = attempts[inst.name]
        decided = [a for a in mine if a.status == "decided"]
        fields = [
            f"instance {inst.name}",
            f"expected={inst.expected}",
            f"verdict={decided[0].verdict if decided else '-'}",
            f"decided={len(decided)}/{len(mine)}",
            f"timeouts={sum(a.status == 'timeout' for a in mine)}",
            f"failed={sum(a.status == 'failed' for a in mine)}",
            f"time_ms={1000 * statistics.median(map(_seconds, mine)):.1f}",
            f"raw_ms={1000 * statistics.median(a.seconds for a in mine):.1f}",
        ]
        for key in ("nodes", "conflicts", "domain-size", "cycle-length"):
            value = report_field(decided[0].report, key) if decided else None
            if value is not None:
                fields.append(f"{key}={value}")
        print(" ".join(fields))
        for a in mine:
            for problem in a.problems:
                print(f"  FAILED {inst.name}: {problem}")
        if inst.name in repeat_problems:
            print(f"  FAILED {inst.name}: {repeat_problems[inst.name]}")


def traced_measure(prog, instances, workdir, seconds):
    """Pairs of passes, traced then untraced, while the next pair fits.

    Returns every attempt by instance, the spans of each traced pass, the
    tracing overhead, and the tracer.
    """
    tracer = Tracer(prog)
    pairs = []
    start = time.perf_counter()
    while not pairs or (time.perf_counter() - start) * (len(pairs) + 1) / len(pairs) <= seconds:
        first = len(tracer.spans)
        with tracer:
            traced = run_pass(prog, instances, workdir, tracer)
        plain = run_pass(prog, instances, workdir)
        pairs.append((traced, plain, tracer.spans[first:]))
    attempts = {inst.name: [a for traced, plain, _ in pairs for a in (traced[i], plain[i])] for i, inst in enumerate(instances)}
    overhead = statistics.median(sum(map(_seconds, t)) - sum(map(_seconds, p)) for t, p, _ in pairs)
    return attempts, [spans for _, _, spans in pairs], overhead, tracer


def run_workload(prog, spec, workload, seed, seconds, trace) -> dict:
    """One run; returns the result object that ends the output."""
    instances = WORKLOADS[workload](seed)
    workdir = WORK / f"{workload}-seed{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    write_inputs(instances, workdir)
    print(f"workload {workload} seed {seed}: {len(instances)} instances, limit {LIMIT_S:.0f}s each, trace {int(trace)}")
    if not trace:
        attempts, setup_s = measure(prog, instances, workdir, seconds)
        repeat_problems = check_repeats(attempts)
        values = end_to_end(attempts, setup_s)
        names = spec["end_to_end"]
    else:
        attempts, traced, overhead, tracer = traced_measure(prog, instances, workdir, seconds)
        repeat_problems = check_repeats(attempts)
        counters = [instance_counters(spans) for spans in traced]
        for name, mine in counters[0].items():
            if any(c.get(name) != mine for c in counters[1:]):
                repeat_problems[name] = "a deterministic counter differs between traced passes"
        (workdir / "spans.json").write_text(json.dumps(span_records(tracer.spans)))
        per_pass = [layer_metrics(spans) for spans in traced]
        values = {key: statistics.median_low(m[key] for m in per_pass) for key in per_pass[0]}
        values["trace.overhead_s"] = overhead
        names = spec["per_layer"]
        if tracer.missing:
            print(f"not traced, absent from the program: {', '.join(tracer.missing)}")
    print_rows(instances, attempts, repeat_problems)
    tried = sum(len(mine) for mine in attempts.values())
    failed = sum(a.status == "failed" for mine in attempts.values() for a in mine) + len(repeat_problems)
    print(f"failed_frac = {failed / tried} (failed {failed} of {tried} attempts)")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    for name, metric in metrics.items():
        print(f"metric {name} = {metric['value']} {metric['unit']}")
    return {"correct": failed == 0, "attempted": tried, "failed": failed, "metrics": metrics}


def src_lines() -> int:
    return sum(len(path.read_text().splitlines()) for path in sorted((ROOT / "src").rglob("*.py")))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=names + ["all"], help="all: every workload, untraced then traced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        prog = load_program(ROOT)
    except ProgramMissing as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    install_alarm()
    print(f"python {platform.python_version()}, nproc {os.cpu_count()}, src lines {src_lines()}")
    if args.workload != "all":
        result = run_workload(prog, spec, args.workload, args.seed, args.seconds, bool(args.trace))
    else:
        results = {(w, t): run_workload(prog, spec, w, args.seed, args.seconds, t) for w in names for t in (False, True)}
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for (w, _), r in results.items() for name, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
