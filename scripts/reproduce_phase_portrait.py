#!/usr/bin/env python3
"""Emit the phase-portrait data set: three interpolating trajectories
(branches m = -1, 0, 1) of the explicit Euler map at tau = 0.66 from
(q, p) = (1, 0), plus the seven discrete points they all pass through.

Writes CSV files into --out (default ./portrait_data) and prints a short
summary with the rotation sense of each branch.  Only a bounded orbit
(case i-a, tau < 2) has one; for any other branch the summary says so.

Usage:
    python scripts/reproduce_phase_portrait.py [--out DIR] [--tau TAU]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from shadowosc.classifier import CaseTag
from shadowosc.cli import main as cli_main
from shadowosc.integrators import euler
from shadowosc.shadow import generators_for, hamiltonian_from_generator


def rotation_sense(h) -> str | None:
    """Turning sense of the bounded orbit at (q, p) = (1, 0).

    The momentum derivative there is -2*c_qq; a negative value turns the
    phase point clockwise.  Defined only for the bounded real case: None
    for any other.
    """
    if h.case is not CaseTag.IA:
        return None
    pdot = -2.0 * h.c_qq.real
    return "clockwise" if pdot < 0 else "counter-clockwise"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="portrait_data")
    parser.add_argument("--tau", type=float, default=0.66)
    args = parser.parse_args()

    t_end = 6 * args.tau
    code = cli_main([
        "flow", "--integrator", "euler", "--tau", str(args.tau),
        "--m-min", "-1", "--m-max", "1",
        "--q0", "1", "--p0", "0",
        "--t-end", str(t_end), "--dt", str(args.tau / 100.0),
        "--out", args.out,
    ])
    if code != 0:
        return code
    # the flow rate of a bounded branch is the imaginary part of its L
    for g in generators_for(euler(args.tau), (-1, 0, 1)).generators:
        sense = rotation_sense(hamiltonian_from_generator(g))
        if sense is None:
            print(f"m={g.branch:+d}: no rotation sense (case {g.case})")
        else:
            print(f"m={g.branch:+d}: rate={g.log.imag:.6f}, {sense}")
    print(f"data in {args.out}/ (flow_m*.csv + discrete.csv)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
