"""Discrete orbits, interpolating continuous flows, and trajectory output.

The continuous state is exp((t/tau) Z) applied to the initial phase
vector, evaluated in closed form at every sample; no ODE stepping is
involved, so samples carry no accumulated integration error.  At
t = n*tau the continuous state coincides with the n-th discrete state
for every branch.

A ``Trajectory`` holds no states.  It keeps its source, its sample times
(a ``SampleTimes`` progression, itself computed on demand) and a sampler
that reads the per-trajectory constants once per pass: the entries of Z
and tau for a generic branch, the rate, the root and the sin/cos or
sinh/cosh pair for the Euler closed form, and R for the discrete orbit.
Each pass over ``Trajectory.rows()`` then yields (q, p, t) sample by
sample, and the writers format and write each row as it is produced, so
writing a file takes memory independent of its number of samples.  The
generic sample runs the arithmetic of ``closed_exp`` on the scaled entries
of Z (``closed_exp_entries``), so every state is bit-for-bit equal to
``closed_exp(Z.scaled(t/tau)).apply(q0, p0)``.  A flow whose state leaves
double range raises ``OutOfRange`` naming the first such t; a writer that
fails removes its partial file.

Deviations between states are reported relative to max(1, |reference|):
bounded orbits are then compared absolutely, while diverging orbits
(real eigenvalue pairs, tau > 2) are compared to the precision double
arithmetic can represent at their scale.

CSV schema (one row per sample, %.17g formatting):

    t,q_re,q_im,p_re,p_im,H_re,H_im

The JSON file is ``json.dumps(trajectory_to_json(...), indent=2)`` plus a
newline, non-finite values included (NaN, Infinity, -Infinity).
"""

from __future__ import annotations

import cmath
import json
import math
import os
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from itertools import chain, islice, starmap
from pathlib import Path
from typing import Callable, Iterable, Iterator

# closed_exp is the matrix form of the per-sample arithmetic; bench/tracer.py
# looks it up on this module.
from .algebra import closed_exp, closed_exp_entries, re_im  # noqa: F401
from .classifier import CaseTag
from .errors import NotApplicable, OutOfRange
from .integrators import TransitionMatrix
from .shadow import Generator, ShadowHamiltonian, euler_rate

CSV_HEADER = "t,q_re,q_im,p_re,p_im,H_re,H_im"
_CSV_ROW = ",".join(["%.17g"] * 7) + "\n"
_CHUNK = 1024  # rows per write
# Above 2**52 samples, k*step no longer rounds to distinct values for every k.
MAX_SAMPLES = 2 ** 52

Row = tuple[complex, complex, float]  # (q, p, t), the order of PhaseState


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


class SampleTimes(Sequence):
    """The times 0, step, 2*step, ..., (count - 1)*step, last, computed on demand.

    Strictly increasing by construction: for step > 0 the products k*step
    round to increasing values while count <= MAX_SAMPLES, and last must
    exceed the last of them.
    """

    __slots__ = ("step", "count", "last")

    def __init__(self, step: float, count: int, last: float):
        if not (step > 0 and 0 <= count <= MAX_SAMPLES
                and (count == 0 or (count - 1) * step < last)):
            raise ValueError("sample times must be strictly increasing")
        self.step, self.count, self.last = step, count, last

    def __len__(self) -> int:
        return self.count + 1

    def __getitem__(self, k: int) -> float:
        k = range(self.count + 1)[k]
        return k * self.step if k < self.count else self.last

    def __iter__(self) -> Iterator[float]:
        return chain(map(self.step.__rmul__, range(self.count)), (self.last,))


class Trajectory(Sequence):
    """Phase states of one source at strictly increasing times, sampled on demand.

    ``rows()`` runs ``sampler(times)``, one pass that yields (q, p, t) per
    sample.  Read as a sequence of PhaseState (``states`` is the trajectory
    itself) it holds none of them: its length is that of ``times``, an
    iteration is one pass, and an item is sampled by a pass up to its index.
    """

    __slots__ = ("source", "times", "_sampler")

    def __init__(self, source: TrajectorySource, times: SampleTimes,
                 sampler: Callable[[SampleTimes], Iterator[Row]]):
        self.source, self.times, self._sampler = source, times, sampler

    def rows(self) -> Iterator[Row]:
        return self._sampler(self.times)

    @property
    def states(self) -> "Trajectory":
        return self

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> Iterator[PhaseState]:
        return starmap(PhaseState, self.rows())

    def __getitem__(self, k: int) -> PhaseState:
        return PhaseState(*next(islice(self.rows(), range(len(self))[k], None)))


def state_deviation(a: PhaseState, b: PhaseState) -> float:
    """Distance between states relative to max(1, |b|)."""
    scale = max(1.0, math.hypot(abs(b.q), abs(b.p)))
    return a.distance(b) / scale


def _orbit_rows(r: TransitionMatrix, q0: float, p0: float,
                times: Iterable[float]) -> Iterator[Row]:
    """The start, then one application of r per further time."""
    times = iter(times)
    q, p = float(q0), float(p0)
    yield complex(q), complex(p), next(times)
    for t in times:
        q, p = r.apply(q, p)
        yield complex(q), complex(p), t


def discrete_orbit(r: TransitionMatrix, q0: float, p0: float, n: int) -> Trajectory:
    """States at t = 0, tau, ..., n*tau under repeated application of r."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return Trajectory(TrajectorySource(r.label, r.tau), SampleTimes(r.tau, n, n * r.tau),
                      partial(_orbit_rows, r, q0, p0))


def _flow_rows(g: Generator, q0: complex, p0: complex,
               times: Iterable[float]) -> Iterator[Row]:
    """exp((t/tau) Z) (q0, p0) for each t, reading Z and tau once."""
    z11, z12, z21, z22 = g.matrix.entries()
    tau = g.tau
    isfinite = cmath.isfinite
    try:
        for t in times:
            s = t / tau
            e11, e12, e21, e22 = closed_exp_entries(s * z11, s * z12, s * z21, s * z22)
            q, p = e11 * q0 + e12 * p0, e21 * q0 + e22 * p0
            if not (isfinite(q) and isfinite(p)):
                break
            yield q, p, t
        else:
            return
    except OverflowError:
        pass
    raise OutOfRange(f"flow<{g.case}> m={g.branch} leaves double range at t = {t:.17g}")


def continuous_state(g: Generator, q0: complex, p0: complex, t: float) -> PhaseState:
    """State of the branch flow at time t: exp((t/tau) Z) (q0, p0).

    The arithmetic of one ``_flow_rows`` sample without its range check,
    spelled out because the oracles in ``verify`` call this per state.
    """
    s = t / g.tau
    z11, z12, z21, z22 = g.matrix.entries()
    e11, e12, e21, e22 = closed_exp_entries(s * z11, s * z12, s * z21, s * z22)
    return PhaseState(e11 * q0 + e12 * p0, e21 * q0 + e22 * p0, t)


def _euler_rows(tau: float, branch: int, q0: float, p0: float,
                times: Iterable[float]) -> Iterator[Row]:
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
    isfinite = cmath.isfinite
    try:
        for t in times:
            s = rate * t / tau
            osc, base = osc_of(s), base_of(s)
            q, p = q_osc * osc / root + q0 * base, p_osc * osc / root + p0 * base
            if not (isfinite(q) and isfinite(p)):
                break
            yield q, p, t
        else:
            return
    except OverflowError:
        pass
    raise OutOfRange(f"euler m={branch} leaves double range at t = {t:.17g}")


def euler_closed_form(tau: float, branch: int, q0: float, p0: float, t: float) -> PhaseState:
    """Closed-form branch flow of the explicit Euler map.

    With s = rate * t / tau,

        q(t) = (2 p0 - tau q0) sin(s)/sqrt(4 - tau**2) + q0 cos(s)
        p(t) = (tau p0 - 2 q0) sin(s)/sqrt(4 - tau**2) + p0 cos(s)

    for 0 < tau < 2, and the same shape with sinh, cosh and
    sqrt(tau**2 - 4) for tau > 2, where s is then complex.
    """
    return PhaseState(*next(_euler_rows(tau, branch, q0, p0, (t,))))


def sample_times(t_end: float, dt: float) -> SampleTimes:
    """0, dt, 2*dt, ... with the final sample exactly at t_end."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    if t_end < 0:
        raise ValueError("t_end must be >= 0")
    ratio = t_end / dt
    if not ratio < MAX_SAMPLES:
        raise ValueError(f"t_end / dt = {ratio:g} samples; at most 2**52 are supported")
    return SampleTimes(dt, max(0, math.ceil(ratio - 1e-9)), t_end)


def sample_trajectory(g: Generator, q0: complex, p0: complex,
                      t_end: float, dt: float) -> Trajectory:
    """Dense samples of the branch flow on [0, t_end]."""
    source = TrajectorySource(f"flow<{g.case}>", g.tau, g.case, g.branch)
    return Trajectory(source, sample_times(t_end, dt), partial(_flow_rows, g, q0, p0))


def euler_trajectory(tau: float, branch: int, q0: float, p0: float,
                     t_end: float, dt: float) -> Trajectory:
    """Dense samples of the closed-form Euler branch flow on [0, t_end]."""
    return Trajectory(TrajectorySource("euler", tau, None, branch), sample_times(t_end, dt),
                      partial(_euler_rows, tau, branch, q0, p0))


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


def _values(trajectory: Trajectory,
            hamiltonian: ShadowHamiltonian | None) -> Iterator[tuple[float, ...]]:
    """(t, q_re, q_im, p_re, p_im, H_re, H_im) for each sample, in one pass.

    H is ``hamiltonian.evaluate`` or, without one, the oscillator energy
    (q**2 + p**2)/2, written out here with the same operations in the same
    order so that the hot loop makes no call per sample.
    """
    if hamiltonian is None:
        for q, p, t in trajectory.rows():
            e = (q * q + p * p) / 2.0
            yield t, q.real, q.imag, p.real, p.imag, e.real, e.imag
        return
    c_pp, c_qq, c_pq = hamiltonian.c_pp, hamiltonian.c_qq, hamiltonian.c_pq
    for q, p, t in trajectory.rows():
        e = c_pp * p * p + c_qq * q * q + c_pq * p * q
        yield t, q.real, q.imag, p.real, p.imag, e.real, e.imag


@contextmanager
def _replacing(path: str | Path):
    """Text file on a temporary name beside ``path``, renamed to ``path`` when
    the block completes and removed if it raises, so ``path`` is never partial."""
    path = Path(path)
    part = path.with_name(path.name + ".part")
    try:
        with open(part, "w") as f:
            yield f
        os.replace(part, path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise


def _write_rows(f, texts: Iterator[str]) -> None:
    """Write the texts in joined chunks: fewer, larger writes than one per row."""
    while chunk := "".join(islice(texts, _CHUNK)):
        f.write(chunk)


def write_trajectory_csv(path: str | Path, trajectory: Trajectory,
                         hamiltonian: ShadowHamiltonian | None = None) -> None:
    """Emit the CSV schema; without a Hamiltonian the H column reports the
    unperturbed oscillator energy (q**2 + p**2)/2."""
    with _replacing(path) as f:
        f.write(CSV_HEADER + "\n")
        _write_rows(f, map(_CSV_ROW.__mod__, _values(trajectory, hamiltonian)))


def _state_json(t, q_re, q_im, p_re, p_im, h_re, h_im) -> dict:
    return {"t": t, "q": {"re": q_re, "im": q_im}, "p": {"re": p_re, "im": p_im},
            "H": {"re": h_re, "im": h_im}}


def _listed(state: dict) -> str:
    """A state as json.dumps(..., indent=2) lays it out in the "states" list,
    with the separator before it."""
    return ",\n    " + json.dumps(state, indent=2).replace("\n", "\n    ")


# %r is float.__repr__, the form json gives every finite float.
_JSON_STATE = _listed(_state_json(*["%r"] * 7)).replace('"%r"', "%r")


def _json_state(values: tuple[float, ...]) -> str:
    text = _JSON_STATE % values
    if "n" in text:  # nan or inf, which json writes as NaN, Infinity, -Infinity
        text = _listed(_state_json(*values))
    return text


def write_trajectory_json(path: str | Path, trajectory: Trajectory,
                          hamiltonian: ShadowHamiltonian | None = None) -> None:
    """Emit ``json.dumps(trajectory_to_json(trajectory, hamiltonian), indent=2)``
    and a newline, one state at a time."""
    head = json.dumps({"source": _source_json(trajectory, hamiltonian), "states": []},
                      indent=2)
    states = map(_json_state, _values(trajectory, hamiltonian))
    with _replacing(path) as f:
        f.write(head[:-len("]\n}")])
        f.write(next(states)[1:])
        _write_rows(f, states)
        f.write("\n  ]\n}\n")


def _source_json(trajectory: Trajectory, hamiltonian: ShadowHamiltonian | None) -> dict:
    source: dict = {
        "label": trajectory.source.label,
        "tau": trajectory.source.tau,
        "case": trajectory.source.case.value if trajectory.source.case else None,
        "m": trajectory.source.branch,
    }
    if hamiltonian is not None:
        source["hamiltonian"] = hamiltonian.to_json_dict()
    return source


def trajectory_to_json(trajectory: Trajectory,
                       hamiltonian: ShadowHamiltonian | None = None) -> dict:
    """JSON mirror of the CSV schema with the source descriptor embedded."""
    states = []
    for s in trajectory.states:
        energy = _energy(s, hamiltonian)
        states.append({"t": s.t, "q": re_im(s.q), "p": re_im(s.p), "H": re_im(energy)})
    return {"source": _source_json(trajectory, hamiltonian), "states": states}
