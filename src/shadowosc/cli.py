"""Command-line surface: classify, hamiltonian, flow, sweep, verify.

All numeric file output uses %.17g so emitted values round-trip exactly;
JSON never uses complex literals, only {re, im} pairs.  Outputs are
byte-identical for identical configurations and seeds.  Every table goes
through ``tables.sink``: an ``--out`` file appears only whole (``flow --out``
names a directory it creates), and stdout receives nothing from a command
that fails.  A sweep row depends only on its own grid point
tau_k = start + k*step: its map's tag and real-branch count come from
``shadow.real_count``, which builds no generator record, and a JSON row
is filled into one template (``tables.listed_texts``).  So ``sweep``
writes its grid through ``tables.write_table``, split into chunks that
this process and one forked child claim where the grid has at least
2 * _MIN_SWEEP_POINTS points and two CPUs are usable (``tables.splits``),
its part files beside the --out file;
``verify`` runs its suite's subjects the same way (``verify.full_suite``).
``flow`` writes the discrete orbit first, in one pass, then its branch files
as one such job (``flow.trajectory_files``), with at most one fork per call;
``_write_trajectory`` returns once its file is whole.  ``verify --out``
writes its JSON before it prints the report, so that no command prints to
stdout and then fails.
A grid that is empty, whose start, stop or step is not finite, or that has
more than 2**52 points, is a usage error.

Every map, Euler's included, takes one route: rows from
``shadow.hamiltonian_from_generator``, flows from ``flow.sample_trajectory``.
Only Euler's rows fill the ``lambda`` column (``_rate``).

Every call is a fresh interpreter, so a module a command alone needs is
imported where that command runs: ``json`` for JSON output, ``pathlib`` for
``flow``'s directory and an ``--out`` file, and ``verify``'s oracles by
``verify`` alone.  The names ``bench/tracer.py`` wraps on this module stay
bound at import.  The parser's help formatters are set up only when help or
usage text is printed (``_DeferredHelpFormatter``), so ``shutil``, which
argparse loads to read the terminal width, loads only then.
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
    discrete_orbit,
    sample_times,
    sample_trajectory,
    trajectory_files,
    whole_steps,
    write_trajectory_csv,
    write_trajectory_json,
)
# No call here reaches these two; bench/tracer.py looks them up on this module.
from .flow import euler_closed_form, trajectory_to_json  # noqa: F401
from .integrators import BUILDERS, TransitionMatrix, custom, make
from .shadow import (
    CaseIIParams,
    PARAM_PRESETS,
    Generator,
    generators_for,
    hamiltonian_from_generator,
    real_count,
)
from .tables import Table, listed_table, listed_texts, sink, write_table

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
    for 0 <= k < count, inclusive of stop up to rounding (``_grid_rounding``);
    an empty grid is refused."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("grid must be start:stop:step")
    start, stop, step = (float(v) for v in parts)
    if not (math.isfinite(start) and math.isfinite(stop) and math.isfinite(step)):
        raise ValueError(f"grid {text}: start, stop and step must be finite")
    if step <= 0:
        raise ValueError(f"grid {text}: step must be positive")
    if stop < start:
        raise ValueError(f"grid {text}: stop must not be below start")
    return start, step, whole_steps(
        stop - start, step, math.floor,
        f"grid {text}: (stop - start) / step = %g; at most 2**52 steps are supported",
        _grid_rounding(start, stop, step)) + 1


def _grid_rounding(start: float, stop: float, step: float) -> float:
    """A bound on how far (stop - start) / step, in floats, lies from the quotient
    of the decimal fields it was parsed from: half an ulp of each parsed field
    and of the difference, carried through the division, and half an ulp of
    the quotient; to first order, as each term is far below the quotient."""
    diff = stop - start
    quotient = diff / step
    return ((math.ulp(start) + math.ulp(stop) + math.ulp(diff)) / (2.0 * step)
            + quotient * math.ulp(step) / (2.0 * step) + math.ulp(quotient) / 2.0)


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


def _rate(r: TransitionMatrix, g: Generator) -> complex | None:
    """The ``lambda`` column, Euler's flow rate read off the generator's L:
    -iL (real) for tau < 2, -L for tau > 2; None for every other map."""
    if r.label != "euler":
        return None
    return complex(g.log.imag) if g.case is CaseTag.IA else -g.log


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
    rows = [hamiltonian_from_generator(g, _rate(r, g)) for g in family.generators]
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
    rows = [hamiltonian_from_generator(g, _rate(r, g)) for g in family.generators]
    steps = whole_steps(args.t_end, r.tau, math.floor,
                        "t_end / tau = %g discrete steps; at most 2**52 are supported")
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

    trajectories = [sample_trajectory(g, args.q0, args.p0, args.t_end, args.dt)
                    for g in family.generators]

    with trajectory_files(trajectories, rows, args.format) as commit:
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
    real branch Hamiltonians, counted by ``shadow.real_count`` without
    building a generator or a Hamiltonian.  ``branches`` is a range, so it
    is in the order real_count reads, with no sort per point."""
    r = make(integrator, tau)
    tag, n_real = real_count(r, branches, params)
    return tau, tag.value, r.trace(), criticality_gap(r), n_real


def cmd_sweep(args) -> int:
    start, step, count = _parse_grid(args.grid)
    params = _resolve_params(args)
    branches = _branches(args)

    def rows(first: int, stop: int):
        """The rows of grid points first <= k < stop; each depends on its k alone."""
        return (_sweep_row(args.integrator, start + k * step, branches, params)
                for k in range(first, stop))

    if args.format == "json":
        keys = ("tau", "case", "trace", "criticality_gap", "n_real")
        row_text = listed_texts(lambda *row: dict(zip(keys, row)), ("%r", "%s", "%r", "%r", "%d"))
        table = listed_table(count, {"integrator": args.integrator, "rows": []},
                             lambda first, stop: map(row_text, rows(first, stop)))
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
    if args.out:  # written before the report is printed: a failed write prints nothing
        payload = {"seed": seed, "trials": args.trials,
                   "perturb": args.perturb,
                   "passed": not failed,
                   "reports": [r.to_json_dict() for r in reports]}
        _emit_json(payload, args.out)
    print(report_table(reports))
    print(f"\n{len(reports) - len(failed)}/{len(reports)} subjects passed")
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


class _DeferredHelpFormatter(argparse.HelpFormatter):
    """``argparse.HelpFormatter`` that runs its ``__init__``, with the
    arguments it was given, at the first read of an attribute not yet set.

    ``add_argument`` builds a formatter per argument only to call
    ``_format_args``, which reads no formatter state, and each
    ``HelpFormatter.__init__`` reads the terminal size through ``shutil``.
    So a call that prints no help or usage sets up no formatter and never
    imports ``shutil``; one that does formats exactly as the stock class.
    """

    def __init__(self, *args, **kwargs):
        self._deferred = (args, kwargs)

    def __getattr__(self, name: str):
        deferred = self.__dict__.pop("_deferred", None)
        if deferred is None:
            raise AttributeError(name)
        args, kwargs = deferred
        super().__init__(*args, **kwargs)
        return getattr(self, name)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shadowosc", formatter_class=_DeferredHelpFormatter,
        description=("Interpolating Hamiltonians, classification and flows for "
                     "discrete symplectic maps of the unit harmonic oscillator"))
    # prog is the usage text add_subparsers would format for this parser
    subs = parser.add_subparsers(dest="command", required=True, prog="shadowosc")

    def add_parser(name: str, help: str) -> argparse.ArgumentParser:
        return subs.add_parser(name, help=help, formatter_class=_DeferredHelpFormatter)

    p = add_parser("classify", help="taxonomy tag and eigenstructure")
    _add_matrix_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_classify)

    p = add_parser("hamiltonian", help="per-branch coefficient table")
    _add_matrix_flags(p)
    _add_branch_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_hamiltonian)

    p = add_parser("flow", help="trajectory files plus discrete companion")
    _add_matrix_flags(p)
    _add_branch_flags(p)
    p.add_argument("--q0", type=float, default=1.0)
    p.add_argument("--p0", type=float, default=0.0)
    p.add_argument("--t-end", type=float, default=1.0)
    p.add_argument("--dt", type=float, default=0.01)
    _add_output_flags(p)
    p.set_defaults(func=cmd_flow)

    p = add_parser("sweep", help="regime table over a tau grid")
    p.add_argument("--integrator", required=True, choices=sorted(BUILDERS))
    p.add_argument("--grid", required=True, metavar="START:STOP:STEP")
    _add_branch_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = add_parser("verify", help="run the full residual check suite")
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
