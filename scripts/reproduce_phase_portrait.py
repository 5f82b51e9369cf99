#!/usr/bin/env python3
"""Emit the phase-portrait data set: three interpolating trajectories
(branches m = -1, 0, 1) of the explicit Euler map at tau = 0.66 from
(q, p) = (1, 0), plus the seven discrete points they all pass through.

Writes CSV files into --out (default ./portrait_data) and prints a short
summary with the rotation sense of each branch.

Usage:
    python scripts/reproduce_phase_portrait.py [--out DIR] [--tau TAU]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from shadowosc.classifier import CaseTag
from shadowosc.cli import main as cli_main
from shadowosc.errors import NotApplicable
from shadowosc.shadow import euler_hamiltonian


def rotation_sense(h) -> str:
    """Turning sense of the bounded orbit at (q, p) = (1, 0).

    The momentum derivative there is -2*c_qq; a negative value turns the
    phase point clockwise.  Defined only for the bounded real case.
    """
    if h.case is not CaseTag.IA:
        raise NotApplicable(f"rotation sense undefined for case {h.case}")
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
    for m in (-1, 0, 1):
        h = euler_hamiltonian(args.tau, m)
        print(f"m={m:+d}: rate={h.rate.real:.6f}, {rotation_sense(h)}")
    print(f"data in {args.out}/ (flow_m*.csv + discrete.csv)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
