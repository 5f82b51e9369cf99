"""Seeded operation streams for the four workloads.

Each workload is an endless, deterministic stream of operations made from
``random.Random(f"{workload}:{seed}")``.  An operation is one argv for
``shadowosc.cli.main`` plus what the oracle needs to judge its output.
A run executes a fixed number of whole groups from the start of the
stream (``COUNTED_GROUPS``), so the operations it attempts, and the ones that
fail, depend on the seed alone and not on the speed of the machine:

- flow-dense: a group is one round of four long ``flow`` calls;
- sweep-fine: a group is one pass over all 100 half-unit windows;
- query-mix: a group is a block of 20 requests with equal shares of each
  input kind, command and format;
- verify-suite: every operation is its own group.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Iterator, NamedTuple

from oracles import REFERENCE_MAPS, regime_of

INTEGRATORS = ("euler", "velocity-verlet", "position-verlet", "double-euler", "vp")
PRESETS = ("default", "real-rotation", "hyperbolic")


class Op(NamedTuple):
    kind: str          # oracle that judges it: flow, sweep, verify, classify, hamiltonian
    argv: tuple
    args: dict
    group: int
    label: str         # failure category when the operation fails


# --------------------------------------------------------------------- flow-dense

# (integrator, tau, t_end, format): vv i-a through closed_exp per sample, vv
# i-c (complex, diverging), Euler through the closed-form CLI path, and a
# JSON call with fewer rows.  The horizons give each call about the same
# time, so the latency median does not fall in a gap between call kinds.
FLOW_CALLS = (
    ("velocity-verlet", 0.66, 50.0, "csv"),
    ("velocity-verlet", 3.0, 50.0, "csv"),
    ("euler", 0.66, 150.0, "csv"),
    ("position-verlet", 0.66, 30.0, "json"),
)
FLOW_DT = 0.01


def flow_op(integrator, tau, t_end, fmt, q0, p0, outdir, group=0):
    argv = ("flow", "--integrator", integrator, f"--tau={tau!r}",
            "--m-min=-1", "--m-max=1", f"--q0={q0!r}", f"--p0={p0!r}",
            f"--t-end={t_end!r}", f"--dt={FLOW_DT!r}", "--out", outdir,
            "--format", fmt)
    args = {"integrator": integrator, "tau": tau, "m_min": -1, "m_max": 1,
            "q0": q0, "p0": p0, "t_end": t_end, "dt": FLOW_DT, "format": fmt}
    return Op("flow", argv, args, group, f"flow {integrator} tau={tau:g} {fmt}")


def flow_dense(rng, outdir) -> Iterator[Op]:
    for group in itertools.count():
        for integrator, tau, t_end, fmt in FLOW_CALLS:
            q0, p0 = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
            yield flow_op(integrator, tau, t_end, fmt, q0, p0, outdir, group)


# ------------------------------------------------------------------- verify-suite

def verify_op(seed, group=0):
    return Op("verify", ("verify", "--seed", str(seed)), {"seed": seed}, group, "verify")


def verify_suite(rng, outdir) -> Iterator[Op]:
    for group in itertools.count():
        yield verify_op(rng.randrange(1, 1 << 30), group)


# --------------------------------------------------------------------- sweep-fine

SWEEP_STEP = 0.001
SWEEP_WINDOW = 0.5
SWEEP_WINDOWS = 20          # tau in (0, 10]


def sweep_op(integrator, start, stop, group=0):
    grid = f"--grid={start}:{stop}:{SWEEP_STEP}"
    args = {"integrator": integrator, "start": float(start), "stop": float(stop),
            "step": SWEEP_STEP}
    return Op("sweep", ("sweep", "--integrator", integrator, grid), args,
              group, f"sweep {integrator} [{start}, {stop}]")


def sweep_fine(rng, outdir) -> Iterator[Op]:
    windows = [(name, k) for name in INTEGRATORS for k in range(SWEEP_WINDOWS)]
    for group in itertools.count():
        order = list(windows)
        rng.shuffle(order)
        for name, k in order:
            start = f"{k * SWEEP_WINDOW + SWEEP_STEP:.3f}"
            stop = f"{(k + 1) * SWEEP_WINDOW:.3f}"
            yield sweep_op(name, start, stop, group)


# ---------------------------------------------------------------------- query-mix

def _random_basis(rng):
    while True:
        p = [rng.uniform(-2.0, 2.0) for _ in range(4)]
        det = p[0] * p[3] - p[1] * p[2]
        if abs(det) >= 0.5:
            return p, det


def _similar(rng, m):
    """P m P^-1 for a random well-conditioned real P."""
    p, det = _random_basis(rng)
    inv = (p[3] / det, -p[1] / det, -p[2] / det, p[0] / det)
    pm = (p[0] * m[0] + p[1] * m[2], p[0] * m[1] + p[1] * m[3],
          p[2] * m[0] + p[3] * m[2], p[2] * m[1] + p[3] * m[3])
    return (pm[0] * inv[0] + pm[1] * inv[2], pm[0] * inv[1] + pm[1] * inv[3],
            pm[2] * inv[0] + pm[3] * inv[2], pm[2] * inv[1] + pm[3] * inv[3])


def _custom_matrix(rng, case):
    if case == "i-a":
        theta = rng.uniform(0.05, math.pi - 0.05)
        return _similar(rng, (math.cos(theta), -math.sin(theta),
                              math.sin(theta), math.cos(theta)))
    if case in ("i-b", "i-c"):
        y = rng.uniform(1.1, 20.0) * (1.0 if case == "i-b" else -1.0)
        return _similar(rng, (y, 0.0, 0.0, 1.0 / y))
    sign = 1.0 if case == "iii-a" else -1.0
    shear = rng.uniform(0.5, 2.0) * rng.choice((1.0, -1.0))
    return _similar(rng, (sign, shear, 0.0, sign))


NON_FINITE = (
    ("euler", "inf", None), ("vp", "nan", None), ("velocity-verlet", "-inf", None),
    ("custom", "1.0", "nan,0,0,nan"), ("custom", "1.0", "inf,1,-1,0"),
    ("custom", "inf", "1,0,0,1"), ("custom", "1.0", "1,nan,0,1"),
)


# The mix is a choice, not measured traffic.  Its rule: every input kind
# (built-in integrator, custom map with distinct eigenvalues, scalar +-I,
# Jordan block, non-finite input), both commands and both formats get equal
# shares.  Each block of QUERY_BLOCK requests holds exactly those shares, so
# every run sees the same mix and only the parameters are drawn.
QUERY_KINDS = ("builtin", "custom-distinct", "scalar", "jordan", "non-finite")
QUERY_COMMANDS = ("classify", "hamiltonian")
QUERY_FORMATS = ("json", "csv")
QUERY_BLOCK = 20


def query(rng, kind, command, fmt, group=0) -> Op:
    """One classify or hamiltonian request on an input of the given kind."""
    args = {"format": fmt, "expect_exit": 0}
    if kind == "non-finite":
        name, tau, r = rng.choice(NON_FINITE)
        flags = ["--integrator", name, f"--tau={tau}"] + ([f"--r={r}"] if r else [])
        args.update(expect_exit=2, case=None)
        label = f"non-finite {name} tau={tau}" + (f" r={r}" if r else "")
    elif kind == "builtin":
        name = rng.choice(INTEGRATORS)
        tau = 10.0 ** rng.uniform(-2.0, 2.0)
        r = REFERENCE_MAPS[name](tau)
        (case,) = regime_of(r)
        flags = ["--integrator", name, f"--tau={tau!r}"]
        args.update(r=r, case=case, tau=tau)
        label = f"{name} {case}"
    else:
        if kind == "custom-distinct":
            case = rng.choice(("i-a", "i-b", "i-c"))
            r = _custom_matrix(rng, case)
        elif kind == "scalar":
            case = rng.choice(("ii(+)", "ii(-)"))
            sign = 1.0 if case == "ii(+)" else -1.0
            r = (sign, 0.0, 0.0, sign)
        else:
            case = rng.choice(("iii-a", "iii-b"))
            r = _custom_matrix(rng, case)
        tau = 10.0 ** rng.uniform(-1.0, 1.0)
        flags = ["--integrator", "custom", f"--tau={tau!r}",
                 "--r=" + ",".join(repr(x) for x in r)]
        args.update(r=r, case=case, tau=tau)
        label = f"custom {case}"
    if command == "hamiltonian":
        m_min, m_max = -rng.randint(0, 2), rng.randint(0, 2)
        flags += [f"--m-min={m_min}", f"--m-max={m_max}"]
        args.update(m_min=m_min, m_max=m_max)
        if args.get("case") in ("ii(+)", "ii(-)"):
            flags += ["--params", rng.choice(PRESETS)]
    argv = (command, *flags, "--format", fmt)
    return Op(command, argv, args, group, f"{command} {label}")


def query_mix(rng, outdir) -> Iterator[Op]:
    for group in itertools.count():
        kinds, commands, formats = (list(choices) * (QUERY_BLOCK // len(choices))
                                    for choices in (QUERY_KINDS, QUERY_COMMANDS, QUERY_FORMATS))
        for order in (kinds, commands, formats):
            rng.shuffle(order)
        for kind, command, fmt in zip(kinds, commands, formats):
            yield query(rng, kind, command, fmt, group)


WORKLOADS = {
    "flow-dense": flow_dense,
    "verify-suite": verify_suite,
    "sweep-fine": sweep_fine,
    "query-mix": query_mix,
}

# Work unit behind work_per_s, named as the per-workload throughput metric.
WORK_UNITS = {
    "flow-dense": "rows_per_s",
    "verify-suite": "checks_per_s",
    "sweep-fine": "points_per_s",
    "query-mix": "requests_per_s",
}

# Oracle kinds each workload uses; their negative controls run in every run.
ORACLE_KINDS = {
    "flow-dense": ("flow",),
    "verify-suite": ("verify",),
    "sweep-fine": ("sweep",),
    "query-mix": ("classify", "hamiltonian"),
}


def control_op(kind, outdir) -> Op:
    """Small fixed operation whose real output must pass its oracle."""
    if kind == "flow":
        return flow_op("velocity-verlet", 0.66, 2.0, "csv", 0.5, -0.25, outdir)
    if kind == "sweep":
        return sweep_op("euler", "1.001", "1.500")
    if kind == "verify":
        return verify_op(7)
    rng = random.Random(f"control:{kind}")
    while True:
        op = query(rng, "custom-distinct", kind, "csv")
        if op.args["case"] == "i-a":
            return op


# Groups of the stream one run attempts: 7 to 14 seconds of operation time for
# the program at the commit that introduced this benchmark, on a 2-core Xeon
# virtual machine, so a 20-second run executes every operation at least once.
COUNTED_GROUPS = {
    "flow-dense": 8,        # 32 flow calls
    "verify-suite": 20,     # 20 suites
    "sweep-fine": 1,        # 100 windows, the whole grid
    "query-mix": 250,       # 5000 requests
}


def stream(workload, seed, outdir) -> Iterator[Op]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), outdir)


def counted_ops(workload, seed, outdir) -> list[Op]:
    """The operations one run attempts: the first ``COUNTED_GROUPS`` groups."""
    return list(itertools.takewhile(lambda op: op.group < COUNTED_GROUPS[workload],
                                    stream(workload, seed, outdir)))
