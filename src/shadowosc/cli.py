"""Command-line surface: classify, hamiltonian, flow, sweep, verify.

All numeric file output uses %.17g so emitted values round-trip exactly;
JSON never uses complex literals, only {re, im} pairs.  Outputs are
byte-identical for identical configurations and seeds.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from .algebra import re_im
from .classifier import CaseTag, classify, criticality_gap
from .errors import (
    BadParams,
    CriticalTau,
    InvalidTau,
    NonFinite,
    NotSymplectic,
    ShadowOscError,
    UnknownIntegrator,
)
from .flow import (
    discrete_orbit,
    euler_trajectory,
    sample_trajectory,
    trajectory_to_json,
    write_trajectory_csv,
)
# The Euler rows are sampled through euler_trajectory; bench/tracer.py still
# looks this name up on the CLI module.
from .flow import euler_closed_form  # noqa: F401
from .integrators import BUILDERS, TransitionMatrix, custom, make
from .shadow import (
    CaseIIParams,
    PARAM_PRESETS,
    GeneratorFamily,
    ShadowHamiltonian,
    enumerate_branches,
    euler_hamiltonian,
    generators_for,
    hamiltonian_from_generator,
)
from .verify import DEFAULT_SEED, full_suite, report_table

USAGE_ERROR = 2

HAMILTONIAN_CSV_HEADER = ("m,case,tau,cA_re,cA_im,cB_re,cB_im,cC_re,cC_im,"
                          "real_valued,lambda_re,lambda_im")


@dataclass(frozen=True)
class RunConfig:
    integrator: str
    tau: float
    m_min: int = -1
    m_max: int = 1
    q0: float = 1.0
    p0: float = 0.0
    t_end: float = 1.0
    dt: float = 0.01
    case2_params: CaseIIParams | None = None
    seed: int = DEFAULT_SEED
    output_path: str | None = None
    format: str = "csv"

    def __post_init__(self):
        if self.m_min > self.m_max:
            raise ValueError("m-min must not exceed m-max")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not self.tau > 0:
            raise ValueError("tau must be positive")

    @property
    def branches(self) -> range:
        return range(self.m_min, self.m_max + 1)


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


def _parse_grid(text: str) -> list[float]:
    """start:stop:step inclusive of stop up to rounding."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("grid must be start:stop:step")
    start, stop, step = (float(v) for v in parts)
    if step <= 0 or stop < start:
        return []
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [start + k * step for k in range(count)]


def _config_from(args) -> RunConfig:
    return RunConfig(
        integrator=args.integrator,
        tau=getattr(args, "tau", 1.0),
        m_min=getattr(args, "m_min", -1),
        m_max=getattr(args, "m_max", 1),
        q0=getattr(args, "q0", 1.0),
        p0=getattr(args, "p0", 0.0),
        t_end=getattr(args, "t_end", 1.0),
        dt=getattr(args, "dt", 0.01),
        case2_params=_resolve_params(args),
        seed=getattr(args, "seed", DEFAULT_SEED),
        output_path=args.out,
        format=args.format,
    )


def _resolve_matrix(args) -> TransitionMatrix:
    if args.integrator == "custom":
        if args.r is None:
            raise ValueError("--integrator custom requires --r r1,r2,r3,r4")
        r1, r2, r3, r4 = _parse_quad(args.r)
        return custom(r1, r2, r3, r4, args.tau)
    return make(args.integrator, args.tau)


def _resolve_params(args) -> CaseIIParams | None:
    c1 = getattr(args, "c1", None)
    c2 = getattr(args, "c2", None)
    c3 = getattr(args, "c3", None)
    given = [v for v in (c1, c2, c3) if v is not None]
    if not given:
        preset = getattr(args, "params", None)
        return PARAM_PRESETS[preset]() if preset else None
    if len(given) != 3:
        raise ValueError("--c1, --c2 and --c3 must be given together")
    return CaseIIParams(_parse_complex(c1), _parse_complex(c2), _parse_complex(c3))


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


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
        _emit(json.dumps(payload, indent=2), args.out)
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
                      config_branches: range) -> tuple[ShadowHamiltonian, ...]:
    """Per-branch Hamiltonians of an unobstructed family; the Euler map uses
    its closed form so the reported rate column matches the coefficients
    row by row."""
    if r.label == "euler":
        return tuple(euler_hamiltonian(r.tau, m) for m in config_branches)
    return tuple(hamiltonian_from_generator(g) for g in family.generators)


def cmd_hamiltonian(args) -> int:
    config = _config_from(args)
    r = _resolve_matrix(args)
    family = generators_for(r, config.branches, config.case2_params)
    if family.obstruction is not None:
        message = (f"case {family.case.value}: {family.obstruction.reason}")
        if config.format == "json":
            _emit(json.dumps({"case": family.case.value, "tau": r.tau,
                              "hamiltonians": [], "obstruction": message}, indent=2),
                  config.output_path)
        else:
            _emit(HAMILTONIAN_CSV_HEADER + "\n# " + message, config.output_path)
        return 0
    rows = _hamiltonian_rows(r, family, config.branches)
    if config.format == "json":
        _emit(json.dumps({"case": family.case.value, "tau": r.tau,
                          "hamiltonians": [h.to_json_dict() for h in rows]}, indent=2),
              config.output_path)
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
    _emit("\n".join(lines), config.output_path)
    return 0


def cmd_flow(args) -> int:
    config = _config_from(args)
    r = _resolve_matrix(args)
    outdir = Path(config.output_path) if config.output_path else Path(".")
    outdir.mkdir(parents=True, exist_ok=True)
    suffix = "json" if config.format == "json" else "csv"

    steps = max(0, int(math.floor(config.t_end / r.tau + 1e-9)))
    discrete = discrete_orbit(r, config.q0, config.p0, steps)
    discrete_path = outdir / f"discrete.{suffix}"
    _write_trajectory(discrete_path, discrete, None, config.format)
    written = [discrete_path]

    family = generators_for(r, config.branches, config.case2_params)
    if family.obstruction is not None:
        print(f"case {family.case.value}: no interpolating flow exists; "
              f"wrote discrete points to {discrete_path}")
        return 0

    rows = _hamiltonian_rows(r, family, config.branches)
    if r.label == "euler":
        trajectories = [euler_trajectory(r.tau, h.branch, config.q0, config.p0,
                                         config.t_end, config.dt) for h in rows]
    else:
        trajectories = [sample_trajectory(g, config.q0, config.p0, config.t_end, config.dt)
                        for g in family.generators]

    for trajectory, h in zip(trajectories, rows):
        path = outdir / f"flow_m{h.branch}.{suffix}"
        _write_trajectory(path, trajectory, h, config.format)
        written.append(path)
    print("\n".join(str(p) for p in written))
    return 0


def _write_trajectory(path: Path, trajectory, hamiltonian, fmt: str) -> None:
    if fmt == "json":
        path.write_text(json.dumps(trajectory_to_json(trajectory, hamiltonian),
                                   indent=2) + "\n")
    else:
        write_trajectory_csv(path, trajectory, hamiltonian)


def cmd_sweep(args) -> int:
    taus = _parse_grid(args.grid)
    if not taus:
        print("empty sweep grid", file=sys.stderr)
        return USAGE_ERROR
    if args.integrator == "custom":
        print("sweep requires a named integrator", file=sys.stderr)
        return USAGE_ERROR
    config = _config_from(args)
    header = "tau,case,trace,criticality_gap,n_real_hamiltonians"
    lines = [header]
    records = []
    for tau in taus:
        r = make(config.integrator, tau)
        tag, _ = classify(r)
        family = enumerate_branches(r, config.branches, config.case2_params)
        n_real = sum(1 for h in family.hamiltonians if h.real_valued)
        records.append({"tau": tau, "case": tag.value, "trace": r.trace(),
                        "criticality_gap": criticality_gap(r), "n_real": n_real})
        lines.append(f"{tau:.17g},{tag.value},{r.trace():.17g},"
                     f"{criticality_gap(r):.17g},{n_real}")
    if config.format == "json":
        _emit(json.dumps({"integrator": config.integrator, "rows": records},
                         indent=2), config.output_path)
    else:
        _emit("\n".join(lines), config.output_path)
    return 0


def cmd_verify(args) -> int:
    reports = full_suite(seed=args.seed, trials=args.trials, perturb=args.perturb)
    failed = [r for r in reports if not r.passed]
    text = report_table(reports)
    print(text)
    print(f"\n{len(reports) - len(failed)}/{len(reports)} subjects passed")
    if args.out:
        payload = {"seed": args.seed, "trials": args.trials,
                   "perturb": args.perturb,
                   "passed": not failed,
                   "reports": [r.to_json_dict() for r in reports]}
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    return 1 if failed else 0


def _add_matrix_flags(sub, with_tau_default=None):
    choices = sorted(BUILDERS) + ["custom"]
    sub.add_argument("--integrator", required=True, choices=choices)
    if with_tau_default is None:
        sub.add_argument("--tau", type=float, required=True)
    else:
        sub.add_argument("--tau", type=float, default=with_tau_default)
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
    choices = sorted(BUILDERS) + ["custom"]
    p.add_argument("--integrator", required=True, choices=choices)
    p.add_argument("--grid", required=True, metavar="START:STOP:STEP")
    _add_branch_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = subs.add_parser("verify", help="run the full residual check suite")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--perturb", type=float, default=0.0,
                   help="negative-control shift applied to every generator")
    _add_output_flags(p)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NotSymplectic, NonFinite, UnknownIntegrator, InvalidTau, BadParams,
            CriticalTau, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ShadowOscError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
