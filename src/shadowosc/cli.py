"""Command-line surface: classify, hamiltonian, flow, sweep, verify.

All numeric file output uses %.17g so emitted values round-trip exactly;
JSON never uses complex literals, only {re, im} pairs.  Outputs are
byte-identical for identical configurations and seeds.  Every table goes
through ``tables.sink``: an ``--out`` file appears only whole (``flow --out``
names a directory it creates), and stdout receives nothing from a command
that fails.  A sweep row depends only on its own grid point
tau_k = start + k*step, so ``sweep`` writes its grid through
``tables.write_table``, split into chunks that two processes claim where
the grid has at least 2 * _MIN_SWEEP_POINTS points and two CPUs are usable;
``verify`` runs its suite's subjects the same way (``verify.full_suite``).
``flow`` writes the discrete orbit first, in one pass, then its branch files
as one such job (``flow.trajectory_files``), with at most one fork per call;
``_write_trajectory`` returns once its file is whole.
A grid whose start, stop or step is not finite, or that has more than
2**52 points, is a usage error.

Every call is a fresh interpreter, so a module a command alone needs is
imported where that command runs: ``json`` for JSON output, ``pathlib`` for
``flow``'s directory and an ``--out`` file, and ``verify``'s oracles by
``verify`` alone.  The names ``bench/tracer.py`` wraps on this module stay
bound at import.
"""

from __future__ import annotations

import argparse
import math
import re
import sys

from .algebra import re_im
from .classifier import CaseTag, classify, criticality_gap
from .errors import ShadowOscError
from .flow import (
    MAX_SAMPLES,
    discrete_orbit,
    euler_trajectory,
    sample_times,
    sample_trajectory,
    trajectory_files,
    whole_steps,
    write_trajectory_csv,
    write_trajectory_json,
)
# The Euler rows are sampled through euler_trajectory and JSON is written by
# write_trajectory_json; bench/tracer.py still looks these names up on the CLI
# module.
from .flow import euler_closed_form, trajectory_to_json  # noqa: F401
from .integrators import BUILDERS, TransitionMatrix, custom, make
from .shadow import (
    CaseIIParams,
    PARAM_PRESETS,
    GeneratorFamily,
    ShadowHamiltonian,
    euler_hamiltonian,
    generators_for,
    hamiltonian_from_generator,
    real_valued,
)
from .tables import Table, listed_json, listed_table, sink, write_table

USAGE_ERROR = 2

HAMILTONIAN_CSV_HEADER = ("m,case,tau,cA_re,cA_im,cB_re,cB_im,cC_re,cC_im,"
                          "real_valued,lambda_re,lambda_im")
# Fewest grid points per process: below 2 * _MIN_SWEEP_POINTS a grid is one
# pass.  On a 2-core host, a claimed split read even with one pass at about
# 400 points and won at 500 (see README, "Split tables").
_MIN_SWEEP_POINTS = 200

_FLAG = re.compile(r"--[\w-]+")
_NEGATIVE_VALUE = re.compile(r"-(\d|\.|inf|nan)", re.IGNORECASE)


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Write `--flag -2e5` as `--flag=-2e5`: argparse takes a value that starts
    with '-' for an option unless it is a plain number such as -2 or -0.5."""
    joined: list[str] = []
    for token in argv:
        if joined and _FLAG.fullmatch(joined[-1]) and _NEGATIVE_VALUE.match(token):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def _parse_complex(text: str) -> complex:
    """Accept either "re:im" or a bare real number."""
    if ":" in text:
        re_part, im_part = text.split(":", 1)
        return complex(float(re_part), float(im_part))
    return complex(float(text), 0.0)


def _parse_quad(text: str) -> tuple[float, float, float, float]:
    parts = [float(v) for v in text.split(",")]
    if len(parts) != 4:
        raise ValueError("expected four comma-separated entries r1,r2,r3,r4")
    return parts[0], parts[1], parts[2], parts[3]


def _parse_grid(text: str) -> tuple[float, float, int]:
    """start:stop:step as (start, step, count), the grid being start + k*step
    for 0 <= k < count, inclusive of stop up to rounding; count 0 is empty."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("grid must be start:stop:step")
    start, stop, step = (float(v) for v in parts)
    if not (math.isfinite(start) and math.isfinite(stop) and math.isfinite(step)):
        raise ValueError(f"grid {text}: start, stop and step must be finite")
    if step <= 0 or stop < start:
        return start, step, 0
    steps = (stop - start) / step + 1e-9  # inf where the quotient overflows
    if not steps < MAX_SAMPLES:
        raise ValueError(f"grid {text}: (stop - start) / step = {steps:g}; "
                         f"at most 2**52 steps are supported")
    return start, step, math.floor(steps) + 1


def _resolve_matrix(args) -> TransitionMatrix:
    if args.integrator == "custom":
        if args.r is None:
            raise ValueError("--integrator custom requires --r r1,r2,r3,r4")
        r1, r2, r3, r4 = _parse_quad(args.r)
        return custom(r1, r2, r3, r4, args.tau)
    return make(args.integrator, args.tau)


def _resolve_params(args) -> CaseIIParams | None:
    given = [v for v in (args.c1, args.c2, args.c3) if v is not None]
    if not given:
        return PARAM_PRESETS[args.params]() if args.params else None
    if len(given) != 3:
        raise ValueError("--c1, --c2 and --c3 must be given together")
    return CaseIIParams(*(_parse_complex(c) for c in given))


def _branches(args) -> range:
    if args.m_min > args.m_max:
        raise ValueError("m-min must not exceed m-max")
    return range(args.m_min, args.m_max + 1)


def _emit(text: str, out: str | None) -> None:
    with sink(out) as f:
        f.write(text + "\n")


def _emit_json(payload: dict, out: str | None) -> None:
    import json  # here: a call with no JSON output does not load it

    _emit(json.dumps(payload, indent=2), out)


def cmd_classify(args) -> int:
    r = _resolve_matrix(args)
    tag, eigen = classify(r)
    gap = criticality_gap(r)
    payload = {
        "integrator": r.label,
        "tau": r.tau,
        "case": tag.value,
        "trace": r.trace(),
        "criticality_gap": gap,
        "eigenvalue": re_im(eigen.eigenvalue),
        "modulus": eigen.modulus,
        "angle": eigen.angle,
        "degenerate": eigen.degenerate,
    }
    if eigen.jordan_basis is not None:
        b = eigen.jordan_basis
        payload["jordan"] = {
            "diagonal": eigen.eigenvalue.real,
            "basis": {"e11": re_im(b.e11), "e12": re_im(b.e12),
                      "e21": re_im(b.e21), "e22": re_im(b.e22)},
        }
    if args.format == "json":
        _emit_json(payload, args.out)
        return 0
    lines = [
        f"integrator      {r.label}",
        f"tau             {r.tau:.17g}",
        f"case            {tag.value}",
        f"trace           {r.trace():.17g}",
        f"|T^2 - 4|       {gap:.17g}",
        f"eigenvalue      {eigen.eigenvalue.real:.17g} {eigen.eigenvalue.imag:+.17g}i",
        f"modulus, angle  {eigen.modulus:.17g}, {eigen.angle:.17g}",
    ]
    if tag is CaseTag.IIIB:
        lines.append("note            defective with eigenvalue -1: no Hamiltonian exists")
    if eigen.jordan_basis is not None:
        b = eigen.jordan_basis
        lines.append(f"jordan basis    [[{b.e11.real:.12g}, {b.e12.real:.12g}], "
                     f"[{b.e21.real:.12g}, {b.e22.real:.12g}]]")
    _emit("\n".join(lines), args.out)
    return 0


def _hamiltonian_rows(r: TransitionMatrix, family: GeneratorFamily,
                      branches: range) -> tuple[ShadowHamiltonian, ...]:
    """Per-branch Hamiltonians of an unobstructed family; the Euler map uses
    its closed form so the reported rate column matches the coefficients
    row by row."""
    if r.label == "euler":
        return tuple(euler_hamiltonian(r.tau, m) for m in branches)
    return tuple(hamiltonian_from_generator(g) for g in family.generators)


def cmd_hamiltonian(args) -> int:
    params = _resolve_params(args)
    branches = _branches(args)
    r = _resolve_matrix(args)
    family = generators_for(r, branches, params)
    if family.obstruction is not None:
        message = f"case {family.case.value}: {family.obstruction}"
        if args.format == "json":
            _emit_json({"case": family.case.value, "tau": r.tau,
                        "hamiltonians": [], "obstruction": message}, args.out)
        else:
            _emit(HAMILTONIAN_CSV_HEADER + "\n# " + message, args.out)
        return 0
    rows = _hamiltonian_rows(r, family, branches)
    if args.format == "json":
        _emit_json({"case": family.case.value, "tau": r.tau,
                    "hamiltonians": [h.to_json_dict() for h in rows]}, args.out)
        return 0
    lines = [HAMILTONIAN_CSV_HEADER]
    for h in rows:
        values = [h.branch, h.case.value, h.tau,
                  h.c_pp.real, h.c_pp.imag, h.c_qq.real, h.c_qq.imag,
                  h.c_pq.real, h.c_pq.imag, int(h.real_valued)]
        text = ",".join(format(v, ".17g") if isinstance(v, float) else str(v)
                        for v in values)
        if h.rate is not None:
            text += f",{h.rate.real:.17g},{h.rate.imag:.17g}"
        else:
            text += ",,"
        lines.append(text)
    _emit("\n".join(lines), args.out)
    return 0


def cmd_flow(args) -> int:
    from pathlib import Path

    params = _resolve_params(args)
    branches = _branches(args)
    sample_times(args.t_end, args.dt)  # rejects dt and t_end before any file is written
    if not (math.isfinite(args.q0) and math.isfinite(args.p0)):
        raise ValueError(f"q0 and p0 must be finite, got {args.q0!r}, {args.p0!r}")
    r = _resolve_matrix(args)
    family = generators_for(r, branches, params)
    rows = () if family.obstruction is not None else _hamiltonian_rows(r, family, branches)
    steps = whole_steps(args.t_end, r.tau, math.floor, "t_end / tau = %g discrete steps")
    outdir = Path(args.out) if args.out else Path(".")
    outdir.mkdir(parents=True, exist_ok=True)
    suffix = "json" if args.format == "json" else "csv"

    discrete = discrete_orbit(r, args.q0, args.p0, steps)
    discrete_path = outdir / f"discrete.{suffix}"
    _write_trajectory(discrete_path, discrete, None, args.format)
    written = [discrete_path]

    if family.obstruction is not None:
        print(f"case {family.case.value}: no interpolating flow exists; "
              f"wrote discrete points to {discrete_path}")
        return 0

    if r.label == "euler":
        trajectories = [euler_trajectory(r.tau, h.branch, args.q0, args.p0,
                                         args.t_end, args.dt) for h in rows]
    else:
        trajectories = [sample_trajectory(g, args.q0, args.p0, args.t_end, args.dt)
                        for g in family.generators]

    with trajectory_files(trajectories, rows, args.format, outdir) as commit:
        for trajectory, h in zip(trajectories, rows):
            path = outdir / f"flow_m{h.branch}.{suffix}"
            _write_trajectory(path, trajectory, h, args.format, commit)
            written.append(path)
    print("\n".join(str(p) for p in written))
    return 0


def _write_trajectory(path, trajectory, hamiltonian, fmt: str, commit=None) -> None:
    """Write one trajectory's file, whole once this returns: by ``commit``,
    where given, which writes the next file of the ``flow.trajectory_files``
    job holding this trajectory's rows, else alone."""
    if commit is not None:
        commit(path)
        return
    write = write_trajectory_json if fmt == "json" else write_trajectory_csv
    write(path, trajectory, hamiltonian)


def _sweep_row(integrator: str, tau: float, branches: range,
              params: CaseIIParams | None) -> tuple[float, str, float, float, int]:
    """One ``sweep`` grid point: tau, case, trace, |T^2 - 4| and the number of
    real branch Hamiltonians, read off the generators without building them."""
    r = make(integrator, tau)
    family = generators_for(r, branches, params)
    return (tau, family.case.value, r.trace(), criticality_gap(r),
            sum(map(real_valued, family.generators)))


def cmd_sweep(args) -> int:
    start, step, count = _parse_grid(args.grid)
    if not count:
        print("empty sweep grid", file=sys.stderr)
        return USAGE_ERROR
    params = _resolve_params(args)
    branches = _branches(args)

    def rows(first: int, stop: int):
        """The rows of grid points first <= k < stop; each depends on its k alone."""
        return (_sweep_row(args.integrator, start + k * step, branches, params)
                for k in range(first, stop))

    if args.format == "json":
        keys = ("tau", "case", "trace", "criticality_gap", "n_real")
        table = listed_table(count, {"integrator": args.integrator, "rows": []},
                             lambda first, stop: (listed_json(dict(zip(keys, row)))
                                                  for row in rows(first, stop)))
    else:
        table = Table(count, lambda first, stop: map("%.17g,%s,%.17g,%.17g,%d\n".__mod__,
                                                     rows(first, stop)),
                      "tau,case,trace,criticality_gap,n_real_hamiltonians\n", "")
    write_table(args.out, table, _MIN_SWEEP_POINTS)
    return 0


def cmd_verify(args) -> int:
    from .verify import DEFAULT_SEED, full_suite, report_table

    seed = DEFAULT_SEED if args.seed is None else args.seed
    reports = full_suite(seed=seed, trials=args.trials, perturb=args.perturb)
    failed = [r for r in reports if not r.passed]
    text = report_table(reports)
    print(text)
    print(f"\n{len(reports) - len(failed)}/{len(reports)} subjects passed")
    if args.out:
        payload = {"seed": seed, "trials": args.trials,
                   "perturb": args.perturb,
                   "passed": not failed,
                   "reports": [r.to_json_dict() for r in reports]}
        _emit_json(payload, args.out)
    return 1 if failed else 0


def _add_matrix_flags(sub):
    sub.add_argument("--integrator", required=True, choices=sorted(BUILDERS) + ["custom"])
    sub.add_argument("--tau", type=float, required=True)
    sub.add_argument("--r", default=None, metavar="R1,R2,R3,R4",
                     help="matrix entries for --integrator custom")


def _add_branch_flags(sub):
    sub.add_argument("--m-min", type=int, default=-1)
    sub.add_argument("--m-max", type=int, default=1)
    sub.add_argument("--c1", default=None, metavar="RE:IM")
    sub.add_argument("--c2", default=None, metavar="RE:IM")
    sub.add_argument("--c3", default=None, metavar="RE:IM")
    sub.add_argument("--params", default=None, choices=sorted(PARAM_PRESETS),
                     help="preset for the scalar-case direction")


def _add_output_flags(sub):
    sub.add_argument("--out", default=None)
    sub.add_argument("--format", default="csv", choices=("csv", "json"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shadowosc",
        description=("Interpolating Hamiltonians, classification and flows for "
                     "discrete symplectic maps of the unit harmonic oscillator"))
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("classify", help="taxonomy tag and eigenstructure")
    _add_matrix_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_classify)

    p = subs.add_parser("hamiltonian", help="per-branch coefficient table")
    _add_matrix_flags(p)
    _add_branch_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_hamiltonian)

    p = subs.add_parser("flow", help="trajectory files plus discrete companion")
    _add_matrix_flags(p)
    _add_branch_flags(p)
    p.add_argument("--q0", type=float, default=1.0)
    p.add_argument("--p0", type=float, default=0.0)
    p.add_argument("--t-end", type=float, default=1.0)
    p.add_argument("--dt", type=float, default=0.01)
    _add_output_flags(p)
    p.set_defaults(func=cmd_flow)

    p = subs.add_parser("sweep", help="regime table over a tau grid")
    p.add_argument("--integrator", required=True, choices=sorted(BUILDERS))
    p.add_argument("--grid", required=True, metavar="START:STOP:STEP")
    _add_branch_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = subs.add_parser("verify", help="run the full residual check suite")
    # None reads as verify.DEFAULT_SEED in cmd_verify, the one command that
    # imports verify
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--perturb", type=float, default=0.0,
                   help="negative-control shift applied to every generator")
    _add_output_flags(p)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ShadowOscError, OSError) as exc:  # OSError: an --out that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
