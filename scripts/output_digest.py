#!/usr/bin/env python3
"""Digest the CLI's output over a fixed, seeded call set, one JSON line per call.

Usage:
    python scripts/output_digest.py CHECKOUT [--count N] [--grid START:STOP:STEP]
                                    [--verify-seeds K] [--flow-dt DT]

Imports ``shadowosc`` from CHECKOUT/src and calls ``cli.main`` in process.
Each line holds the call's argv, its exit code and the sha256 of its stdout
and of its stderr.  A call with ``<out>`` in its argv writes into a new
temporary directory of that name (a ``flow`` call's stdout names it too); its
line also holds the sha256 of each file the directory holds afterwards, by
name, so a leftover partial file shows.  A ``verify`` call writes its
``--out`` JSON there, whose %.17g-exact residuals the table's %.3e would
round.  The draws below come from one fixed seed (``SEED``).  The calls, in
order:

- ``sweep --grid GRID`` for each built-in, in CSV and JSON (default grid
  0.001:10:0.001), to stdout, then the same calls with ``--out``;
- ``sweep --m-min -3 --m-max 3`` for each built-in on the one-point grids
  ``ERROR_GRIDS``, each of which but Euler at 1e154 exits with an error;
- ``sweep`` on ``LATER_RANGE_GRID`` for Euler and velocity-verlet, in CSV and
  JSON: 501 points; velocity-verlet's first failure, at k = 319, lies in a
  later chunk of a split grid, and Euler answers every point;
- ``sweep`` on each of ``COUNT_GRIDS`` for each built-in, in CSV and JSON:
  grids whose point count rests on the exact quotient of their decimal fields;
- ``sweep`` on the one-point grid of each ``SCALAR_POINTS`` built-in, where
  R = +-I, under each ``--params`` preset, in CSV and JSON; then ``sweep``
  on each of ``EMPTY_GRIDS``, each a usage error;
- ``hamiltonian``, ``flow`` (with ``--out``) and ``sweep`` of a scalar map
  with the direction given both as ``--c1 --c2 --c3`` and as ``--params``
  (``BOTH_DIRECTIONS``), each a usage error that writes no file;
- ``classify`` and ``hamiltonian --m-min -3 --m-max 3`` for N draws of a
  built-in and tau log-uniform in [1e-12, 1e6], the format alternating;
- ``hamiltonian --m-min -3 --m-max 3`` for each built-in at tau = ridge +-
  10**-k, k = 2..10, the ridge being where its trace is -2 (euler and the
  Verlets 2, vp ``verify.locate_vp_critical_tau()``) or +2 (double-euler 4);
- ``classify`` and ``hamiltonian`` for N ``custom`` maps: conjugated rotations
  and boosts with entries up to about 1e6, the scalar, Jordan and near-ridge
  maps, and rejected input (det far from 1, non-finite entries);
- ``flow`` (``FLOW_CALLS``, at step DT, default 0.01): each built-in at an
  i-a tau and at an i-b or i-c tau, in CSV and JSON, with 3,001 to 150,001
  rows per branch; the scalar maps +-I and the Jordan shear; Euler at its
  iii-b tau, which writes the discrete file alone; and Euler and
  velocity-verlet at tau = 3 to t = 1500 and 1200, which leave double range
  at t = 1113, past the first chunks of a split file;
- ``verify --seed k`` for k = 1..K (default 12), then ``verify`` at the
  default seed with each of ``VERIFY_OPTIONS`` (fewer and more trials, and
  perturbations that fail every check, down to one whose flows leave
  double range), each with ``--out``;
- argparse's own text (``PARSER_CALLS``): ``-h``, an unknown flag, missing
  required arguments, a bad choice and an unknown subcommand, at the top
  level and for each subcommand, each with ``COLUMNS`` set to each of
  ``PARSER_COLUMNS``; their lines also hold ``columns``.

The same arguments give the same call set, so comparing two trees is a
``diff`` of their outputs:

    python scripts/output_digest.py PARENT > parent.jsonl
    python scripts/output_digest.py .      > change.jsonl
    diff parent.jsonl change.jsonl
"""

import argparse
import hashlib
import io
import json
import math
import os
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest.mock import patch

BUILT_INS = ("double-euler", "euler", "position-verlet", "velocity-verlet", "vp")
BRANCHES = ("--m-min", "-3", "--m-max", "3")
SEED = 16
# one point each: a tau so small that the coefficients overflow, and taus so
# large that the map's entries overflow (at 1e154, all but Euler's, which
# gets its family there)
ERROR_GRIDS = ("1e-310:1e-310:1", "1e300:1e300:1", "1e154:1e154:1")
LATER_RANGE_GRID = "1e77:2e77:2e74"
# grids whose float quotient (stop - start) / step lies a few parts in 1e10
# off its exact value: 9.999999999 (0:0.9999999999:0.1 shifted by 1, as
# tau = 0 is refused), 10 points; and exactly 10, 11 points, stop the last
COUNT_GRIDS = ("1:1.9999999999:0.1", "9.881:9.881006:6e-7")
# built-ins at a tau where R = +-I (double-euler -I, vp I): the scalar branch of
# the real count, which no 0.001 grid lands on
SCALAR_POINTS = (("double-euler", "2.8284271247461903"), ("vp", "5.656854249492381"))
PRESETS = ("default", "real-rotation", "hyperbolic")
# stop below start, and steps that are zero and negative
EMPTY_GRIDS = ("3:1:0.1", "0:1:0", "0:1:-1")
OUT = "<out>"  # a call's output directory
BOTH_DIRECTIONS = ("--c1", "0", "--c2", "1", "--c3", "1", "--params", "hyperbolic")
VERIFY_OUT = f"{OUT}/verify.json"
VERIFY_OPTIONS = (["--trials", "1"], ["--trials", "3"], ["--perturb", "1e-3"],
                  ["--perturb=-1e-9"], ["--perturb", "1e300"])
# (flags, t_end, format) of each flow call; rows per branch are t_end / dt + 1
FLOW_CALLS = (
    *((["--integrator", name, "--tau", tau], t_end, fmt)
      for name, i_a, i_bc in (("double-euler", "0.66", "4.8"), ("euler", "0.66", "3"),
                              ("position-verlet", "0.66", "3"),
                              ("velocity-verlet", "0.66", "3"), ("vp", "0.66", "5"))
      for tau, t_end_csv, t_end_json in ((i_a, "1500", "300"), (i_bc, "300", "30"))
      for t_end, fmt in ((t_end_csv, "csv"), (t_end_json, "json"))),
    (["--integrator", "custom", "--r", "1,0,0,1", "--tau", "1", "--params", "real-rotation"],
     "100", "csv"),
    (["--integrator", "custom", "--r=-1,0,0,-1", "--tau", "1", "--params", "hyperbolic"],
     "100", "json"),
    (["--integrator", "custom", "--r", "1,1,0,1", "--tau", "1", "--q0", "-0.5", "--p0", "1"],
     "100", "csv"),
    (["--integrator", "euler", "--tau", "2"], "100", "csv"),
    (["--integrator", "euler", "--tau", "3"], "1500", "csv"),
    (["--integrator", "velocity-verlet", "--tau", "3"], "1200", "json"),
)

# the required flags of each subcommand, for its unknown-flag and bad-choice calls
PARSER_REQUIRED = {"classify": ["--integrator", "euler", "--tau", "1"],
                   "hamiltonian": ["--integrator", "euler", "--tau", "1"],
                   "flow": ["--integrator", "euler", "--tau", "1"],
                   "sweep": ["--integrator", "euler", "--grid", "1:2:1"],
                   "verify": []}
PARSER_CALLS = (["-h"], ["--bogus"], [], ["frobnicate"], *(
    argv for command, required in PARSER_REQUIRED.items() for argv in (
        [command, "-h"],
        [command, *required, "--bogus"],
        *([[command]] if required else []),
        [command, "--integrator", "nope", *required[2:]] if required
        else [command, "--format", "xml"])))
# the terminal width help and usage text are wrapped to
PARSER_COLUMNS = ("30", "200")


def _conjugated(rng: random.Random, hyperbolic: bool) -> tuple[float, ...]:
    """S M S^-1 with S = [[1, s], [0, 1]], M a rotation or a boost, s up to 1e3."""
    x = rng.uniform(0.1, 3.0)
    s = 10.0 ** rng.uniform(0.0, 3.0)
    if hyperbolic:
        c, si, sign = math.cosh(x), math.sinh(x), 1.0
    else:
        c, si, sign = math.cos(x), math.sin(x), -1.0
    m21 = sign * si  # M = [[c, si], [m21, c]]
    return (c + s * m21, si - s * s * m21, m21, c - s * m21)


def _custom_entries(rng: random.Random, k: int) -> tuple[float, ...] | str:
    kind = k % 7
    if kind == 0:
        return _conjugated(rng, hyperbolic=False)
    if kind == 1:
        return _conjugated(rng, hyperbolic=True)
    if kind == 2:
        return rng.choice([(1.0, 0.0, 0.0, 1.0), (-1.0, 0.0, 0.0, -1.0)])
    if kind == 3:
        sign = rng.choice([1.0, -1.0])
        return (sign, rng.uniform(-5.0, 5.0), 0.0, sign)
    if kind == 4:  # within 10**-e of a ridge
        sign = rng.choice([1.0, -1.0])
        return (sign, 1.0, 10.0 ** -rng.uniform(1.0, 12.0) * rng.choice([1, -1]), sign)
    if kind == 5:  # det far from 1
        return tuple(rng.uniform(-3.0, 3.0) for _ in range(4))
    return "nan,0,0,1"


def call_set(count: int, grid: str, verify_seeds: int, flow_dt: float,
             vp_ridge: float) -> list[list[str]]:
    rng = random.Random(SEED)
    calls = []
    for out in ([], ["--out", f"{OUT}/sweep"]):
        for name in BUILT_INS:
            for fmt in ("csv", "json"):
                calls.append(["sweep", "--integrator", name, "--grid", grid, "--format", fmt,
                              *out])
    for error_grid in ERROR_GRIDS:
        for name in BUILT_INS:
            calls.append(["sweep", "--integrator", name, f"--grid={error_grid}", *BRANCHES])
    for name in ("euler", "velocity-verlet"):
        for fmt in ("csv", "json"):
            calls.append(["sweep", "--integrator", name, f"--grid={LATER_RANGE_GRID}",
                          "--format", fmt])
    for count_grid in COUNT_GRIDS:
        for name in BUILT_INS:
            for fmt in ("csv", "json"):
                calls.append(["sweep", "--integrator", name, f"--grid={count_grid}",
                              "--format", fmt])
    for name, tau in SCALAR_POINTS:
        for preset in PRESETS:
            for fmt in ("csv", "json"):
                calls.append(["sweep", "--integrator", name, f"--grid={tau}:{tau}:1",
                              "--params", preset, "--format", fmt])
    for empty_grid in EMPTY_GRIDS:
        calls.append(["sweep", "--integrator", "euler", f"--grid={empty_grid}"])
    identity = ["--integrator", "custom", "--r", "1,0,0,1", "--tau", "1"]
    name, tau = SCALAR_POINTS[1]  # vp where R = I
    calls.append(["hamiltonian", *identity, *BOTH_DIRECTIONS])
    calls.append(["flow", *identity, *BOTH_DIRECTIONS, "--out", OUT])
    calls.append(["sweep", "--integrator", name, f"--grid={tau}:{tau}:1", *BOTH_DIRECTIONS])
    ridges = {"double-euler": 4.0, "euler": 2.0, "position-verlet": 2.0,
              "velocity-verlet": 2.0, "vp": vp_ridge}
    for name, ridge in ridges.items():
        for k in range(2, 11):
            for sign in (1, -1):
                calls.append(["hamiltonian", "--integrator", name,
                              "--tau", repr(ridge + sign * 10.0 ** -k), *BRANCHES])
    for k in range(count):
        name = rng.choice(BUILT_INS)
        tau = repr(10.0 ** rng.uniform(-12.0, 6.0))
        fmt = ("csv", "json")[k % 2]
        calls.append(["classify", "--integrator", name, "--tau", tau, "--format", fmt])
        calls.append(["hamiltonian", "--integrator", name, "--tau", tau, *BRANCHES,
                      "--format", fmt])
    for k in range(count):
        entries = _custom_entries(rng, k)
        text = entries if isinstance(entries, str) else ",".join(map(repr, entries))
        matrix = ["--integrator", "custom", f"--r={text}",
                  "--tau", repr(10.0 ** rng.uniform(-3.0, 3.0))]
        fmt = ("csv", "json")[k % 2]
        params = ["--params", rng.choice(PRESETS)]
        calls.append(["classify", *matrix, "--format", fmt])
        calls.append(["hamiltonian", *matrix, *BRANCHES, *params, "--format", fmt])
    for flags, t_end, fmt in FLOW_CALLS:
        calls.append(["flow", *flags, "--t-end", t_end, f"--dt={flow_dt!r}", "--format", fmt,
                      "--out", OUT])
    for s in range(1, verify_seeds + 1):
        calls.append(["verify", "--seed", str(s), "--out", VERIFY_OUT])
    for options in VERIFY_OPTIONS:
        calls.append(["verify", *options, "--out", VERIFY_OUT])
    return calls


def digest(main, argv: list[str], columns: str | None = None) -> dict:
    """The line of one call; with ``columns``, run with COLUMNS set to it."""
    out, err = io.StringIO(), io.StringIO()
    environ = {} if columns is None else {"COLUMNS": columns}
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(out), redirect_stderr(err), \
            patch.dict(os.environ, environ):
        try:
            code = main([a.replace(OUT, tmp) for a in argv])
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        files = {}
        for path in sorted(Path(tmp).iterdir()):
            with open(path, "rb") as f:
                files[path.name] = hashlib.file_digest(f, "sha256").hexdigest()
        stdout = out.getvalue().replace(tmp, OUT)
    line = {"argv": argv, "exit": code,
            "stdout": hashlib.sha256(stdout.encode()).hexdigest(),
            "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest()}
    if columns is not None:
        line["columns"] = columns
    if any(OUT in a for a in argv):
        line["files"] = files
    return line


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path, help="tree whose src/ is imported")
    parser.add_argument("--count", type=int, default=400,
                        help="draws of built-in and of custom maps")
    parser.add_argument("--grid", default="0.001:10:0.001")
    parser.add_argument("--verify-seeds", type=int, default=12)
    parser.add_argument("--flow-dt", type=float, default=0.01,
                        help="sample step of every flow call")
    args = parser.parse_args()
    sys.path.insert(0, str(args.checkout.resolve() / "src"))
    from shadowosc import cli, verify

    for argv in call_set(args.count, args.grid, args.verify_seeds, args.flow_dt,
                         verify.locate_vp_critical_tau()):
        print(json.dumps(digest(cli.main, argv)), flush=True)
    for columns in PARSER_COLUMNS:
        for argv in PARSER_CALLS:
            print(json.dumps(digest(cli.main, argv, columns)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
