#!/usr/bin/env python3
"""Time each layer of shadowosc alone and print one JSON object.

Usage:
    python scripts/layer_costs.py [--number N]

Each layer is one call timed with ``timeit``: the best of 7 repeats of N
calls, in microseconds per call; the slow layers, a 1,000-sample flow pass,
``build_parser`` and the two verify oracles, and the whole commands,
"flow_file", "flow_call", "sweep_window" and "verify_suite", take N/100
calls per repeat: 20 whole commands at the default N, so that a repeat
spans about a second of them.  The map is ``vp`` at tau = 0.66 (an i-a
map) with branches m = -1, 0, 1, the branches a ``sweep`` grid point
counts: "real_count" is ``shadow.real_count``, the count itself,
"sweep_point" is
``cli._sweep_row``, the code ``sweep`` runs per grid point, and
"sweep_window" one whole
``sweep --integrator vp --grid=0.001:0.500:0.001`` through ``cli.main``
with its stdout captured, in microseconds per window: the 500-point window
of the sweep-fine benchmark workload, and the one layer that sees a grid
written as several ranges.  "flow_sample" is one row of that
streamed flow and "csv_row" formats one such row with the flow CSV's %.17g
pattern.  "flow_file" is one ``flow.write_trajectory_csv`` of the branch-0
Euler flow at tau = 0.66 on [0, 150] at step 0.01 (15,001 rows, the Euler file
of the flow-dense benchmark workload) into a temporary directory, in
microseconds per file: the one layer that sees a file written as several
row ranges.  "flow_call" is one whole ``flow`` through ``cli.main``, the
JSON call of flow-dense (position-verlet at tau = 0.66, m = -1..1 on [0, 30]
at step 0.01: three branch files of 3,001 rows after the discrete orbit)
into a temporary directory, in microseconds per call: the one layer that
sees a call's branch files written as one job.  "coincidence" is one
``verify.check_coincidence`` of the three generators against 20 trial orbits
of the map, and "conservation" one
``verify.check_conservation`` of the m = 0 branch's Hamiltonian with 5
trials, the two oracles ``verify`` runs per map and per conservation case.
"verify_suite" is one whole ``verify`` (seed 1729, 20 trials) through
``cli.main`` with its stdout captured, in microseconds per suite: the one
layer that sees a suite whose subjects two processes claim.
"cli_import" is what every shell call pays before its command runs:
``import shadowosc.cli`` and ``build_parser()``, timed inside each of
CLI_IMPORT_RUNS fresh ``python -I -S`` interpreters (interpreter start
excluded), in microseconds, the median of the runs.
Times are raw, not scaled to a reference speed, so compare numbers taken on
one machine in one session.
"""

import argparse
import io
import json
import platform
import statistics
import subprocess
import sys
import tempfile
import timeit
from collections import deque
from contextlib import redirect_stdout
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from shadowosc import cli, flow, verify
from shadowosc.algebra import Mat2C, closed_exp
from shadowosc.classifier import classify
from shadowosc.integrators import make
from shadowosc.shadow import generators_for, hamiltonian_from_generator, real_count

TAU = 0.66
BRANCHES = range(-1, 2)
REPEAT = 7
FLOW_SAMPLES = 1000
SWEEP_WINDOW = ["sweep", "--integrator", "vp", "--grid=0.001:0.500:0.001"]
FLOW_CALL = ["flow", "--integrator", "position-verlet", "--tau", "0.66", "--m-min=-1",
             "--m-max=1", "--t-end", "30", "--dt", "0.01", "--format", "json"]
VERIFY_SUITE = ["verify", "--seed", "1729"]
SLOW = {"flow_sample": 100, "build_parser": 100, "flow_file": 100, "flow_call": 100,
        "sweep_window": 100, "verify_suite": 100, "coincidence": 100,
        "conservation": 100}  # N / divisor calls
CLI_IMPORT_RUNS = 21
CLI_IMPORT = ("import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
              "import shadowosc.cli; shadowosc.cli.build_parser(); "
              "print(time.perf_counter() - start)")


def layers(directory: Path) -> dict:
    """Layer name -> (zero-argument callable, calls it stands for)."""
    r = make("vp", TAU)
    family = generators_for(r, BRANCHES).generators
    g = family[1]
    h = hamiltonian_from_generator(g)
    z = g.matrix
    trajectory = flow.sample_trajectory(g, 1.0, 0.0, FLOW_SAMPLES * 0.01, 0.01)
    q, p, t = next(trajectory.rows())
    energy = h.evaluate(q, p)
    row = (t, q.real, q.imag, p.real, p.imag, energy.real, energy.imag)
    (euler_g,) = generators_for(make("euler", TAU), [0]).generators
    euler_file = flow.sample_trajectory(euler_g, 1.0, 0.0, 150.0, 0.01)
    euler_h = hamiltonian_from_generator(euler_g)

    def whole(argv):
        def call():
            with redirect_stdout(io.StringIO()):
                if cli.main(argv) != 0:
                    raise RuntimeError(f"{' '.join(argv)} failed")
        return call

    return {
        "Mat2C": (lambda: Mat2C(z.e11, z.e12, z.e21, z.e22), 1),
        "closed_exp": (lambda: closed_exp(z), 1),
        "make_vp": (lambda: make("vp", TAU), 1),
        "classify": (lambda: classify(r), 1),
        "generators_for_3": (lambda: generators_for(r, BRANCHES), 1),
        "hamiltonian_from_generator": (lambda: hamiltonian_from_generator(g), 1),
        "real_count": (lambda: real_count(r, BRANCHES), 1),
        "sweep_point": (lambda: cli._sweep_row("vp", TAU, BRANCHES, None), 1),
        "sweep_window": (whole(SWEEP_WINDOW), 1),
        "flow_sample": (lambda: deque(trajectory.rows(), 0), len(trajectory)),
        "csv_row": (lambda: flow._CSV_ROW % row, 1),
        "flow_file": (lambda: flow.write_trajectory_csv(directory / "flow.csv", euler_file,
                                                        euler_h), 1),
        "flow_call": (whole(FLOW_CALL + ["--out", str(directory / "flow_call")]), 1),
        "build_parser": (cli.build_parser, 1),
        "coincidence": (lambda: verify.check_coincidence(family, r, 20), 1),
        "conservation": (lambda: verify.check_conservation(h, g, 5), 1),
        "verify_suite": (whole(VERIFY_SUITE), 1),
    }


def cli_import_us() -> float:
    """Median over CLI_IMPORT_RUNS fresh ``-I -S`` interpreters of the time to
    import the CLI and build its parser, in microseconds."""
    runs = [float(subprocess.run([sys.executable, "-I", "-S", "-c", CLI_IMPORT, str(SRC)],
                                 capture_output=True, text=True, check=True).stdout)
            for _ in range(CLI_IMPORT_RUNS)]
    return round(statistics.median(runs) * 1e6, 3)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--number", type=int, default=2000,
                        help="calls per repeat (N/100 for the flow pass, build_parser, "
                             "the verify oracles, flow_file, flow_call, sweep_window and "
                             "verify_suite)")
    args = parser.parse_args()
    if args.number < 1:
        parser.error("--number must be at least 1")

    costs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (call, per) in layers(Path(tmp)).items():
            number = max(1, args.number // SLOW.get(name, 1))
            best = min(timeit.repeat(call, number=number, repeat=REPEAT))
            costs[name] = round(best / number / per * 1e6, 3)
    costs["cli_import"] = cli_import_us()
    print(json.dumps({"python": platform.python_version(), "integrator": "vp",
                      "tau": TAU, "branches": list(BRANCHES), "number": args.number,
                      "repeat": REPEAT, "unit": "us per call", "layers": costs},
                     indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
