#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and summarise the runs.

Usage:
    python scripts/bench_pairs.py PARENT CHANGE --workload W --pairs N --seed S

Pair k (0 <= k < N) runs seed S + k in both checkouts, one run at a time,
each as ``python3 bench/run.py --workload W --seed S+k --seconds SEC --trace 0``
(the command ``BENCHMARK.json`` declares, SEC its ``run_seconds``) with the
checkout as the working directory.  The parent runs first in even pairs and the change in odd ones.
N must be even, so that each side runs first equally often: the side that
runs first has been seen to read faster.  An odd N exits 2 and runs nothing.

Prints one JSON object:

- ``runs``: every run in the order made, with its side, seed, order (1 or 2
  in its pair), exit status, ``correct``, ``failed`` and end-to-end
  metrics.  A run that exits non-zero, or whose last line is no result
  object, is kept with ``error`` set and its metrics null;
- ``metrics``: for each end-to-end metric of ``BENCHMARK.json``, its
  direction, each side's median, the parent's IQR (q3 - q1 of
  ``statistics.quantiles(n=4, method="inclusive")``), and the seeds of the
  pairs the change won, out of the pairs where both runs gave the metric;
- ``first_side_won``: of the pairs where both runs gave ``work_per_s``, how
  many the side that ran first won.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SIDES = ("parent", "change")


def parse_run(returncode: int, stdout: str, stderr: str) -> dict:
    """``correct``, ``failed``, the metric values and ``error`` (None when the run
    exited 0 and its last line is a result object) of one run's output."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        values = {name: entry["value"] for name, entry in result["metrics"].items()}
        correct, failed = result["correct"], result["failed"]
    except (IndexError, ValueError, TypeError, KeyError):
        result = None
    if returncode != 0 or result is None:
        last = (stderr.strip().splitlines() or lines or [""])[-1]
        error = f"exit {returncode}: {last}" if returncode else f"no result line: {last}"
        return {"correct": None, "failed": None, "metrics": None, "error": error}
    return {"correct": correct, "failed": failed, "metrics": values, "error": None}


def _wins(better: str, value: float, other: float) -> bool:
    return value > other if better == "higher" else value < other


def _gave(run: dict | None, name: str) -> bool:
    return bool(run and run["metrics"] and name in run["metrics"])


def summarise(runs: list[dict], better: dict[str, str]) -> dict:
    """The summary of ``runs`` (each with side, seed, order and ``parse_run``'s
    fields) for the metrics and directions of ``better``."""
    pairs = {}
    for run in runs:
        pairs.setdefault(run["seed"], {})[run["side"]] = run
    metrics, compared = {}, {}
    for name, direction in better.items():
        sides = {side: [run["metrics"][name] for run in runs
                        if run["side"] == side and _gave(run, name)] for side in SIDES}
        both = compared[name] = [seed for seed, pair in pairs.items()
                                 if all(_gave(pair.get(side), name) for side in SIDES)]
        parent = sides["parent"]
        q1, _, q3 = (statistics.quantiles(parent, n=4, method="inclusive")
                     if len(parent) > 1 else (None, None, None))
        metrics[name] = {
            "better": direction,
            "median": {side: statistics.median(v) if v else None for side, v in sides.items()},
            "parent_iqr": None if q1 is None else q3 - q1,
            "pairs": len(both),
            "change_won": [seed for seed in both if _wins(
                direction, pairs[seed]["change"]["metrics"][name],
                pairs[seed]["parent"]["metrics"][name])],
        }
    first_won = 0
    for seed in compared.get("work_per_s", []):
        first, second = sorted(pairs[seed].values(), key=lambda run: run["order"])
        first_won += _wins(better["work_per_s"], first["metrics"]["work_per_s"],
                           second["metrics"]["work_per_s"])
    return {"runs": runs, "metrics": metrics,
            "first_side_won": {"work_per_s": first_won,
                               "pairs": len(compared.get("work_per_s", []))}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True, help="an even number of pairs")
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    args = parser.parse_args()
    if args.pairs < 2 or args.pairs % 2:
        parser.error("--pairs must be even and at least 2, so each side runs first "
                     "equally often")
    benchmark = json.loads(BENCHMARK.read_text())
    better = {metric["name"]: metric["better"] for metric in benchmark["end_to_end"]}
    checkouts = {"parent": args.parent, "change": args.change}
    runs = []
    for k in range(args.pairs):
        seed = args.seed + k
        for order, side in enumerate(SIDES if k % 2 == 0 else SIDES[::-1], 1):
            done = subprocess.run(
                [*benchmark["command"], "--workload", args.workload, "--seed", str(seed),
                 "--seconds", str(benchmark["run_seconds"]), "--trace", "0"],
                cwd=checkouts[side], capture_output=True, text=True)
            runs.append({"side": side, "seed": seed, "order": order, "exit": done.returncode,
                         **parse_run(done.returncode, done.stdout, done.stderr)})
            print(f"# pair {k}: {side} {runs[-1]['error'] or 'done'}", file=sys.stderr,
                  flush=True)
    print(json.dumps({"workload": args.workload, "run_seconds": benchmark["run_seconds"],
                      **summarise(runs, better)}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
