"""Run the benchmark on consecutive seeds and report each metric's spread.

    python3 bench/spread.py --workload coloring-unsat [--runs 10] [--first-seed 1] [--out FILE]

For every metric it prints the median over the runs, the quartiles, and the
spread: the distance between the quartiles as ``statistics.quantiles(values,
n=4)`` gives them, as a share of the median.  Next to it stands the bound
that BENCHMARK.json fixes.  Runs are made one after another, each for
``run_seconds``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", help="also write the summary here as JSON")
    args = parser.parse_args(argv)

    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        command = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        child = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True, timeout=900)
        results.append(json.loads(child.stdout.strip().splitlines()[-1]))
        shown = {name: round(m["value"], 4) for name, m in results[-1]["metrics"].items()}
        print(f"seed {seed}: correct={results[-1]['correct']} {shown}", flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"unit": first["unit"], "median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}
        print(f"{name:26s} median {median:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:.3f}  bound {bounds[name]}")
    correct = all(r["correct"] for r in results)
    print(f"all correct: {correct}")
    if args.out:
        Path(args.out).write_text(json.dumps({"workload": args.workload, "first_seed": args.first_seed,
                                              "correct": correct, "metrics": summary}, indent=1) + "\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
