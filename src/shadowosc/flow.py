"""Discrete orbits, interpolating continuous flows, and trajectory output.

The continuous state is exp((t/tau) Z) applied to the initial phase
vector, evaluated in closed form at every sample; no ODE stepping is
involved, so samples carry no accumulated integration error.  At
t = n*tau the continuous state coincides with the n-th discrete state
for every branch.

A ``Trajectory`` holds no states.  It keeps its source, its sample times
(a ``SampleTimes`` progression, itself computed on demand) and a sampler
that reads the per-trajectory constants once per pass: for a flow, one
``algebra.closed_exps`` pass over the times, which reads Z's constants once,
and for the discrete orbit, R.  A flow's delta is the generator's own
``Generator.log``, the eigenvalue it was built from and validated with;
only a generator built without one (verify's perturbed generators, a
user's) has delta recomputed from Z's entries, which near a ridge lose
digits to cancellation.  Each pass over ``Trajectory.rows()`` then yields
(q, p, t) sample by sample, and the writers format and write each row as it
is produced, so writing a file takes memory independent of its number of
samples.  One evaluator serves every flow: a sample is the propagator
closed_exps yields for s = t/tau, one cosh and one sinh of s delta, applied
to (q0, p0), so its state is bit-for-bit equal to
``flow_matrix(g, t).apply(q0, p0)``, where ``flow_matrix`` is
``algebra.closed_exp(Z, t/tau, g.log)``, closed_exps at one s; verify's
oracles check the same propagators, from the same iterator.  Every map's
flows, Euler's included, are sampled this way.  A flow whose state leaves
double range raises ``OutOfRange`` naming the first such t; a writer that
fails removes its partial file.

A flow row depends only on its own t, so closed-form files are tables of
``tables.writing``, which ``sweep`` uses for its grids too: where two CPUs
are usable and the rows number at least 2 * _MIN_RANGE_ROWS, they are cut
into chunks that this process and one forked child claim in turn, giving the
bytes of a single pass.  A ``flow`` call's branch files are one such job
(``trajectory_files``), with one fork, whose files are committed one at a
time, in order; a file written alone is a job of its own.  The discrete
orbit, a recurrence, is always written in one pass.

CSV schema (one row per sample, %.17g formatting):

    t,q_re,q_im,p_re,p_im,H_re,H_im

The JSON file is ``json.dumps(trajectory_to_json(...), indent=2)`` plus a
newline, non-finite values included (NaN, Infinity, -Infinity).
"""

from __future__ import annotations

import cmath
import math
import os
from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import partial
from itertools import chain, islice, repeat, starmap, tee
from operator import truediv

from .algebra import Mat2C, Value, closed_exp, closed_exps, re_im
from .classifier import CaseTag
from .errors import OutOfRange
from .integrators import TransitionMatrix
from .shadow import Generator, ShadowHamiltonian
from .tables import Table, listed_table, listed_texts, write_table, writing

CSV_HEADER = "t,q_re,q_im,p_re,p_im,H_re,H_im"
_CSV_ROW = ",".join(["%.17g"] * 7) + "\n"
# Fewest rows per process: a job of fewer than 2 * _MIN_RANGE_ROWS rows (a
# file alone, or all the branch files of a flow call) is written in one pass,
# since a fork, its exit and the copy of the parts cost more than they save
# (on a 2-core host, 3,000-row CSV files read even; see README, "Split
# tables").
_MIN_RANGE_ROWS = 2000
# Above 2**52 samples, k*step no longer rounds to distinct values for every k.
MAX_SAMPLES = 2 ** 52

Row = tuple[complex, complex, float]  # (q, p, t), the order of PhaseState


class PhaseState(Value):
    __slots__ = ("q", "p", "t")

    def __init__(self, q: complex, p: complex, t: float):
        self._store(q, p, t)

    def distance(self, other: "PhaseState") -> float:
        return math.hypot(abs(self.q - other.q), abs(self.p - other.p))


class TrajectorySource(Value):
    __slots__ = ("label", "tau", "case", "branch")

    def __init__(self, label: str, tau: float, case: CaseTag | None = None,
                 branch: int | None = None):
        self._store(label, tau, case, branch)


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
        return self.span(0, self.count + 1)

    def span(self, start: int, stop: int) -> Iterator[float]:
        """The times at indices start <= k < stop, for 0 <= start <= stop <= len."""
        inner = map(self.step.__rmul__, range(start, min(stop, self.count)))
        return chain(inner, (self.last,)) if stop > self.count else inner


class Trajectory(Sequence):
    """Phase states of one source at strictly increasing times, sampled on demand.

    ``rows()`` runs ``sampler(times)``, one pass that yields (q, p, t) per
    sample.  Read as a sequence of PhaseState (``states`` is the trajectory
    itself) it holds none of them: its length is that of ``times``, an
    iteration is one pass, and an item is sampled by a pass up to its index.
    A ``closed_form`` sampler computes each row from its own t alone, so
    ``rows(start, stop)`` may sample any contiguous range of the times; any
    other sampler (the discrete orbit's recurrence) is only run from the start.
    """

    __slots__ = ("source", "times", "_sampler", "closed_form")

    def __init__(self, source: TrajectorySource, times: SampleTimes,
                 sampler: Callable[[Iterable[float]], Iterator[Row]],
                 closed_form: bool = False):
        self.source, self.times, self._sampler = source, times, sampler
        self.closed_form = closed_form

    def rows(self, start: int = 0, stop: int | None = None) -> Iterator[Row]:
        """The rows at indices start <= k < stop (all of them by default)."""
        stop = len(self) if stop is None else stop
        if (start, stop) == (0, len(self)):
            return self._sampler(self.times)
        if not self.closed_form:
            raise ValueError("only a closed-form trajectory is sampled by ranges")
        return self._sampler(self.times.span(start, stop))

    @property
    def states(self) -> "Trajectory":
        return self

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> Iterator[PhaseState]:
        return starmap(PhaseState, self.rows())

    def __getitem__(self, k: int) -> PhaseState:
        return PhaseState(*next(islice(self.rows(), range(len(self))[k], None)))


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


def _flow_rows(z: Mat2C, delta: complex | None, tau: float, name: str, q0: complex,
               p0: complex, times: Iterable[float]) -> Iterator[Row]:
    """exp((t/tau) Z) (q0, p0) for each t: each propagator that
    ``algebra.closed_exps`` yields, applied to the start as ``Mat2C.apply``
    does; Z's eigenvalue delta is recomputed from its entries when None.

    The times are read twice in step (``tee``): closed_exps reads t/tau, and
    this loop reads t only after closed_exps has yielded for it, so where
    cmath raises on a t the loop has not read it yet and names it next.
    """
    times, divided = tee(times)
    propagators = closed_exps(z, map(truediv, divided, repeat(tau)), delta)
    isfinite = cmath.isfinite
    try:
        for (e11, e12, e21, e22), t in zip(propagators, times):
            q = e11 * q0 + e12 * p0
            p = e21 * q0 + e22 * p0
            if not (isfinite(q) and isfinite(p)):
                break
            yield q, p, t
        else:
            return
    except OverflowError:
        t = next(times)
    raise OutOfRange(f"{name} leaves double range at t = {t:.17g}")


def flow_matrix(g: Generator, t: float) -> Mat2C:
    """exp((t/tau) Z), the branch flow's propagator from time 0 to time t."""
    return closed_exp(g.matrix, t / g.tau, g.log)


def continuous_state(g: Generator, q0: complex, p0: complex, t: float) -> PhaseState:
    """State of the branch flow at time t: exp((t/tau) Z) (q0, p0).

    The arithmetic of one ``_flow_rows`` sample without its range check.
    """
    q, p = flow_matrix(g, t).apply(q0, p0)
    return PhaseState(q, p, t)


def euler_closed_form(tau: float, branch: int, q0: float, p0: float, t: float) -> PhaseState:
    """``verify.euler_closed_form``, bound here for ``bench/tracer.py``."""
    from .verify import euler_closed_form

    return euler_closed_form(tau, branch, q0, p0, t)


def whole_steps(t_end: float, h: float, off_grid: Callable[[float], int], counted: str,
                rounding: float = 0.0) -> int:
    """Whole steps of size h to t_end >= 0: round(t_end / h) within 4 ulps of it
    (n*h rounded, divided by h, is within 2 ulps of n) plus ``rounding``, the
    error a caller's own arithmetic brought into t_end and h, else
    ``off_grid(t_end / h)``; ``counted`` is the error past 2**52 steps, %g
    standing for the ratio: "t_end / dt = %g samples; at most 2**52 are supported"."""
    ratio = t_end / h
    if not ratio < MAX_SAMPLES:
        raise ValueError(counted % ratio)
    steps = round(ratio)
    return (steps if abs(ratio - steps) <= 4.0 * math.ulp(ratio) + rounding
            else off_grid(ratio))


def sample_times(t_end: float, dt: float) -> SampleTimes:
    """0, dt, 2*dt, ... with the final sample exactly at t_end."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    if t_end < 0:
        raise ValueError("t_end must be >= 0")
    count = whole_steps(t_end, dt, math.ceil,
                        "t_end / dt = %g samples; at most 2**52 are supported")
    return SampleTimes(dt, count, t_end)


def sample_trajectory(g: Generator, q0: complex, p0: complex,
                      t_end: float, dt: float) -> Trajectory:
    """Dense samples of the branch flow on [0, t_end]."""
    source = TrajectorySource(f"flow<{g.case}>", g.tau, g.case, g.branch)
    return Trajectory(source, sample_times(t_end, dt),
                      partial(_flow_rows, g.matrix, g.log, g.tau,
                              f"flow<{g.case}> m={g.branch}", q0, p0), closed_form=True)


def _energy(state: PhaseState, h: ShadowHamiltonian | None) -> complex:
    if h is None:
        return (state.q * state.q + state.p * state.p) / 2.0
    return h.evaluate(state.q, state.p)


def _values(rows: Iterator[Row],
            hamiltonian: ShadowHamiltonian | None) -> Iterator[tuple[float, ...]]:
    """(t, q_re, q_im, p_re, p_im, H_re, H_im) for each row, in one pass.

    H is ``hamiltonian.evaluate`` or, without one, the oscillator energy
    (q**2 + p**2)/2, written out here with the same operations in the same
    order so that the hot loop makes no call per sample.
    """
    if hamiltonian is None:
        for q, p, t in rows:
            e = (q * q + p * p) / 2.0
            yield t, q.real, q.imag, p.real, p.imag, e.real, e.imag
        return
    c_pp, c_qq, c_pq = hamiltonian.c_pp, hamiltonian.c_qq, hamiltonian.c_pq
    for q, p, t in rows:
        e = c_pp * p * p + c_qq * q * q + c_pq * p * q
        yield t, q.real, q.imag, p.real, p.imag, e.real, e.imag


def _fewest_rows(trajectory: Trajectory) -> int:
    """Fewest rows per process: more than the file holds for the discrete
    orbit, a recurrence, so that one process writes it in one pass."""
    return _MIN_RANGE_ROWS if trajectory.closed_form else len(trajectory) + 1


def _csv_table(trajectory: Trajectory, hamiltonian: ShadowHamiltonian | None) -> Table:
    return Table(len(trajectory),
                 lambda start, stop: map(_CSV_ROW.__mod__,
                                         _values(trajectory.rows(start, stop), hamiltonian)),
                 CSV_HEADER + "\n", "")


def write_trajectory_csv(path: str | os.PathLike, trajectory: Trajectory,
                         hamiltonian: ShadowHamiltonian | None = None) -> None:
    """Emit the CSV schema; without a Hamiltonian the H column reports the
    unperturbed oscillator energy (q**2 + p**2)/2."""
    write_table(path, _csv_table(trajectory, hamiltonian), _fewest_rows(trajectory))


def _state_json(t, q_re, q_im, p_re, p_im, h_re, h_im) -> dict:
    return {"t": t, "q": {"re": q_re, "im": q_im}, "p": {"re": p_re, "im": p_im},
            "H": {"re": h_re, "im": h_im}}


def _json_table(trajectory: Trajectory, hamiltonian: ShadowHamiltonian | None) -> Table:
    state = listed_texts(_state_json, ["%r"] * 7)
    return listed_table(len(trajectory),
                        {"source": _source_json(trajectory, hamiltonian), "states": []},
                        lambda start, stop: map(state, _values(trajectory.rows(start, stop),
                                                               hamiltonian)))


def write_trajectory_json(path: str | os.PathLike, trajectory: Trajectory,
                          hamiltonian: ShadowHamiltonian | None = None) -> None:
    """Emit ``json.dumps(trajectory_to_json(trajectory, hamiltonian), indent=2)``
    and a newline, one state at a time."""
    write_table(path, _json_table(trajectory, hamiltonian), _fewest_rows(trajectory))


def trajectory_files(trajectories: Sequence[Trajectory],
                     hamiltonians: Sequence[ShadowHamiltonian | None], fmt: str):
    """The files of closed-form trajectories, in ``fmt`` ("csv" or "json"), as
    one ``tables.writing`` job: the context yields ``commit(path)``, which
    writes the next trajectory's file, whole, to path.  A process runs at
    least _MIN_RANGE_ROWS of all the files' rows, so the files split as one
    job, with one child, whose first commit samples every file's rows beside
    its path, or are written in one pass."""
    table = _json_table if fmt == "json" else _csv_table
    return writing([table(t, h) for t, h in zip(trajectories, hamiltonians)], _MIN_RANGE_ROWS)


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
