"""Discrete orbits, interpolating continuous flows, and trajectory output.

The continuous state is exp((t/tau) Z) applied to the initial phase
vector, evaluated in closed form at every sample; no ODE stepping is
involved, so samples carry no accumulated integration error.  At
t = n*tau the continuous state coincides with the n-th discrete state
for every branch.

A trajectory reads its per-trajectory constants once: the entries of Z
and tau for a generic branch, and the rate, the root and the sin/cos or
sinh/cosh pair for the Euler closed form.  Each sample then costs a few
scalar ``cmath`` calls and no Mat2C.  The generic sample runs the
arithmetic of ``closed_exp`` on the scaled entries of Z
(``closed_exp_entries``), so every state is bit-for-bit equal to
``closed_exp(Z.scaled(t/tau)).apply(q0, p0)``.

Deviations between states are reported relative to max(1, |reference|):
bounded orbits are then compared absolutely, while diverging orbits
(real eigenvalue pairs, tau > 2) are compared to the precision double
arithmetic can represent at their scale.

CSV schema (one row per sample, %.17g formatting):

    t,q_re,q_im,p_re,p_im,H_re,H_im
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

# closed_exp is the matrix form of the per-sample arithmetic; bench/tracer.py
# looks it up on this module.
from .algebra import closed_exp, closed_exp_entries, re_im  # noqa: F401
from .classifier import CaseTag
from .errors import NotApplicable
from .integrators import TransitionMatrix
from .shadow import Generator, ShadowHamiltonian, euler_rate

CSV_HEADER = "t,q_re,q_im,p_re,p_im,H_re,H_im"
_CSV_ROW = ",".join(["%.17g"] * 7)


@dataclass(frozen=True)
class PhaseState:
    q: complex
    p: complex
    t: float

    def distance(self, other: "PhaseState") -> float:
        return math.hypot(abs(self.q - other.q), abs(self.p - other.p))


@dataclass(frozen=True)
class TrajectorySource:
    label: str
    tau: float
    case: CaseTag | None = None
    branch: int | None = None


@dataclass(frozen=True)
class Trajectory:
    states: tuple[PhaseState, ...]
    source: TrajectorySource

    def __post_init__(self):
        times = [s.t for s in self.states]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("sample times must be strictly increasing")


def state_deviation(a: PhaseState, b: PhaseState) -> float:
    """Distance between states relative to max(1, |b|)."""
    scale = max(1.0, math.hypot(abs(b.q), abs(b.p)))
    return a.distance(b) / scale


def discrete_orbit(r: TransitionMatrix, q0: float, p0: float, n: int) -> Trajectory:
    """States at t = 0, tau, ..., n*tau under repeated application of r."""
    if n < 0:
        raise ValueError("n must be >= 0")
    q, p = float(q0), float(p0)
    states = [PhaseState(complex(q), complex(p), 0.0)]
    for k in range(1, n + 1):
        q, p = r.apply(q, p)
        states.append(PhaseState(complex(q), complex(p), k * r.tau))
    return Trajectory(tuple(states), TrajectorySource(r.label, r.tau))


def _flow_states(g: Generator, q0: complex, p0: complex,
                 times: Iterable[float]) -> Iterator[PhaseState]:
    """exp((t/tau) Z) (q0, p0) for each t, reading Z and tau once."""
    z11, z12, z21, z22 = g.matrix.entries()
    tau = g.tau
    for t in times:
        s = t / tau
        e11, e12, e21, e22 = closed_exp_entries(s * z11, s * z12, s * z21, s * z22)
        yield PhaseState(e11 * q0 + e12 * p0, e21 * q0 + e22 * p0, t)


def continuous_state(g: Generator, q0: complex, p0: complex, t: float) -> PhaseState:
    """State of the branch flow at time t: exp((t/tau) Z) (q0, p0)."""
    return next(_flow_states(g, q0, p0, (t,)))


def _euler_states(tau: float, branch: int, q0: float, p0: float,
                  times: Iterable[float]) -> Iterator[PhaseState]:
    """Closed-form Euler branch flow at each t; rate and root computed once."""
    rate = euler_rate(tau, branch)
    if tau < 2.0:
        root = math.sqrt((2.0 - tau) * (2.0 + tau))
        osc_of, base_of = cmath.sin, cmath.cos
    else:
        root = math.sqrt((tau - 2.0) * (tau + 2.0))
        osc_of, base_of = cmath.sinh, cmath.cosh
    q_osc = 2.0 * p0 - tau * q0
    p_osc = tau * p0 - 2.0 * q0
    for t in times:
        s = rate * t / tau
        osc, base = osc_of(s), base_of(s)
        yield PhaseState(q_osc * osc / root + q0 * base, p_osc * osc / root + p0 * base, t)


def euler_closed_form(tau: float, branch: int, q0: float, p0: float, t: float) -> PhaseState:
    """Closed-form branch flow of the explicit Euler map.

    With s = rate * t / tau,

        q(t) = (2 p0 - tau q0) sin(s)/sqrt(4 - tau**2) + q0 cos(s)
        p(t) = (tau p0 - 2 q0) sin(s)/sqrt(4 - tau**2) + p0 cos(s)

    for 0 < tau < 2, and the same shape with sinh, cosh and
    sqrt(tau**2 - 4) for tau > 2, where s is then complex.
    """
    return next(_euler_states(tau, branch, q0, p0, (t,)))


def sample_times(t_end: float, dt: float) -> list[float]:
    """0, dt, 2*dt, ... with the final sample exactly at t_end."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    if t_end < 0:
        raise ValueError("t_end must be >= 0")
    n_full = max(0, math.ceil(t_end / dt - 1e-9))
    return [k * dt for k in range(n_full)] + [t_end]


def sample_trajectory(g: Generator, q0: complex, p0: complex,
                      t_end: float, dt: float) -> Trajectory:
    """Dense samples of the branch flow on [0, t_end]."""
    states = tuple(_flow_states(g, q0, p0, sample_times(t_end, dt)))
    source = TrajectorySource(f"flow<{g.case}>", g.tau, g.case, g.branch)
    return Trajectory(states, source)


def euler_trajectory(tau: float, branch: int, q0: float, p0: float,
                     t_end: float, dt: float) -> Trajectory:
    """Dense samples of the closed-form Euler branch flow on [0, t_end]."""
    states = tuple(_euler_states(tau, branch, q0, p0, sample_times(t_end, dt)))
    return Trajectory(states, TrajectorySource("euler", tau, None, branch))


def rotation_sense(h: ShadowHamiltonian) -> str:
    """Turning sense of the bounded orbit at (q, p) = (1, 0).

    The momentum derivative there is -2*c_qq; a negative value turns the
    phase point clockwise.  Defined only for the bounded real case.
    """
    if h.case is not CaseTag.IA:
        raise NotApplicable(f"rotation sense undefined for case {h.case}")
    pdot = -2.0 * h.c_qq.real
    return "clockwise" if pdot < 0 else "counter-clockwise"


def measure_period(g: Generator, q0: float, p0: float, dt: float) -> float:
    """First return time to the initial state, located without assuming it.

    Marches the flow at step dt until the distance to the start has risen
    above half the initial radius and come back below it, then refines
    the local minimum of the squared distance by ternary search.  The
    orbit must be bounded (case i-a) and the start nonzero.
    """
    if g.case is not CaseTag.IA:
        raise NotApplicable("period is defined for bounded orbits only")
    radius = math.hypot(q0, p0)
    if radius == 0.0:
        raise NotApplicable("the origin is a fixed point")
    start = PhaseState(complex(q0), complex(p0), 0.0)

    def dist(t: float) -> float:
        return continuous_state(g, q0, p0, t).distance(start)

    armed = False
    previous = 0.0
    k = 0
    limit = int(math.ceil(40.0 * (2.0 * math.pi + g.tau) / dt))
    while k < limit:
        k += 1
        d = dist(k * dt)
        if not armed:
            armed = d > 0.5 * radius
        elif d < 0.45 * radius and d > previous:
            break
        previous = d
    else:
        raise NotApplicable("no return detected; decrease dt or check the orbit")

    lo, hi = (k - 2) * dt, k * dt
    for _ in range(200):
        third = (hi - lo) / 3.0
        if third < 1e-14:
            break
        if dist(lo + third) < dist(hi - third):
            hi = hi - third
        else:
            lo = lo + third
    return (lo + hi) / 2.0


def _energy(state: PhaseState, h: ShadowHamiltonian | None) -> complex:
    if h is None:
        return (state.q * state.q + state.p * state.p) / 2.0
    return h.evaluate(state.q, state.p)


def write_trajectory_csv(path: str | Path, trajectory: Trajectory,
                         hamiltonian: ShadowHamiltonian | None = None) -> None:
    """Emit the CSV schema; without a Hamiltonian the H column reports the
    unperturbed oscillator energy (q**2 + p**2)/2."""
    lines = [CSV_HEADER]
    for s in trajectory.states:
        energy = _energy(s, hamiltonian)
        lines.append(_CSV_ROW % (s.t, s.q.real, s.q.imag, s.p.real, s.p.imag,
                                 energy.real, energy.imag))
    Path(path).write_text("\n".join(lines) + "\n")


def trajectory_to_json(trajectory: Trajectory,
                       hamiltonian: ShadowHamiltonian | None = None) -> dict:
    """JSON mirror of the CSV schema with the source descriptor embedded."""
    source: dict = {
        "label": trajectory.source.label,
        "tau": trajectory.source.tau,
        "case": trajectory.source.case.value if trajectory.source.case else None,
        "m": trajectory.source.branch,
    }
    if hamiltonian is not None:
        source["hamiltonian"] = hamiltonian.to_json_dict()
    states = []
    for s in trajectory.states:
        energy = _energy(s, hamiltonian)
        states.append({"t": s.t, "q": re_im(s.q), "p": re_im(s.p), "H": re_im(energy)})
    return {"source": source, "states": states}
