"""Independent residual checks for generators, flows, and regime maps.

The exponential and flow oracles are built from two primitives only, the raw
exponential series and repeated matrix or matrix-vector multiplication,
never from the closed-form exponential or the flow evaluator they validate.

``taylor_exp`` is the bare partial sum of the series.  ``series_exp`` sums
it on an exactly halved argument and squares back up.  The raw 40-term sum
is a valid oracle only while its truncation tail is negligible (eigenvalue
magnitude below roughly 8); large-branch generators carry eigenvalues past
7*pi where the raw sum misses the true exponential by orders of magnitude
and double precision could not carry the cancellation anyway.  Halving is
exact in binary floating point and squaring is plain multiplication, so
independence from the closed form is preserved at every scale.

The flow oracles compare each branch's propagators E(t) = exp((t/tau) Z),
a generator's taken from one pass of ``algebra.closed_exps``, the evaluator
every flow sample reads, with what the flow must reproduce: the discrete
orbits, and H at the start.
The orbits are stored by time, so each propagator runs one inner loop
over every trial.  Where a generator's propagators are real at every time
(31 of the default suite's 42 generators) and, for conservation, H's
coefficients and H(x_0) are real too, that loop runs in float arithmetic.
It gives the real part of the complex arithmetic bit for bit and drops
only the sign of a zero imaginary part, or a NaN one beside an infinite
real part, neither of which abs() reads (``_propagators``).  Elsewhere the
loop stays complex and keeps abs(): math.hypot of the two parts differs
from it in the last bit for some inputs.

``measure_period`` reads a bounded branch flow's first return time off
``flow.continuous_state`` without assuming it: the oracle for the period
that the branch's rate predicts, which the suite does not run.

The tests alone read three more: Euler's family in closed form
(``euler_rate``, ``euler_hamiltonian``, ``euler_closed_form``, whose branch m
is the generic -m-1 for tau > 2), the branch log read off the polar form
(``log_branch``) and ``exact_log``, the series of log R in ``fractions``.
The three errors that only verify's oracles raise are defined here, not in
``errors``: ``CriticalTau`` (Euler's closed forms at tau = 2),
``ZeroEigenvalue`` (the polar form of 0) and ``NotApplicable``
(``measure_period`` off a bounded orbit).

``full_suite`` runs its 20 subjects (regime maps, generator maps and
conservation cases) as the chunks of ``tables.results``, which this process
and one forked child claim where two CPUs are usable.  A subject's reports
depend only on its own arguments, so the reports, their order and any error
are those of one pass.
"""

from __future__ import annotations

import cmath
import math
import random
import sys
from collections.abc import Sequence
from fractions import Fraction
from functools import partial

from .algebra import Mat2C, Value, closed_exps, max_diff
from .classifier import CaseTag, classify
from .errors import InvalidTau, NonFinite, ShadowOscError, UnknownIntegrator
# The suite's oracles apply each generator's propagators, from closed_exps, to
# every trial at once; only measure_period samples continuous_state.
from .flow import PhaseState, continuous_state, sample_times
from .integrators import TransitionMatrix, custom, make, vp
from .shadow import (
    CaseIIParams,
    Generator,
    ShadowHamiltonian,
    generators_for,
    hamiltonian_from_generator,
)
from .tables import results

DEFAULT_SEED = 1729
DEFAULT_EXP_TERMS = 40
ORBIT_STEPS = 20  # check_coincidence compares the flow at t = 0, tau, ..., 20*tau


class CriticalTau(ShadowOscError, ValueError):
    """Closed forms for the explicit Euler family are undefined at tau = 2."""


class ZeroEigenvalue(ShadowOscError):
    """A zero eigenvalue has no logarithm; the map would be singular."""


class NotApplicable(ShadowOscError):
    """Operation defined only for bounded real orbits."""


# Every check reads its residual over the forward-error scale of that
# check's arithmetic (Higham, Accuracy and Stability of Numerical
# Algorithms, 2nd ed., ch. 1-3) and holds the quotient to this one bound.
BOUND = 1024.0 * sys.float_info.epsilon
# What evaluating a flow raises once it leaves double range: OverflowError
# from cmath or abs, or cmath's ValueError once an overflowed intermediate
# meets another (inf - inf).  The oracles score such a flow inf, as they
# score a state whose residual is NaN (a flow gone inf or NaN).
_OUT_OF_RANGE = (OverflowError, ValueError)


class CheckResult(Value):
    __slots__ = ("name", "residual", "tolerance", "passed")

    def __init__(self, name: str, residual: float, tolerance: float, passed: bool):
        self._store(name, residual, tolerance, passed)

    @classmethod
    def of(cls, name: str, residual: float, tolerance: float) -> "CheckResult":
        return cls(name, residual, tolerance, residual <= tolerance)


class VerificationReport(Value):
    __slots__ = ("subject", "checks")

    def __init__(self, subject: str, checks: tuple[CheckResult, ...]):
        self._store(subject, checks)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "subject": self.subject,
            "passed": self.passed,
            "checks": [
                {"name": c.name, "residual": c.residual,
                 "tolerance": c.tolerance, "passed": c.passed}
                for c in self.checks
            ],
        }


def report_table(reports: list[VerificationReport]) -> str:
    """Plain-text residual table, one row per check."""
    rows = [f"{'subject':<42} {'check':<30} {'residual':>12} {'tol':>9} ok"]
    for rep in reports:
        for c in rep.checks:
            rows.append(
                f"{rep.subject:<42} {c.name:<30} {c.residual:>12.3e} "
                f"{c.tolerance:>9.0e} {'PASS' if c.passed else 'FAIL'}"
            )
    return "\n".join(rows)


# Entries of Mat2C.identity(), where taylor_exp's sum starts.
_ONE = complex(1.0, 0.0)
_ZERO = complex(0.0, 0.0)


def taylor_exp(z: Mat2C, terms: int = DEFAULT_EXP_TERMS) -> Mat2C:
    """Partial sum of the exponential series, sum_{k=0..terms} z**k / k!.

    No scaling or squaring: the raw series, useful as an oracle whenever
    the truncation tail is provably small for the input at hand.  The sum
    runs on the entries of the term and the accumulator, with the
    operations of ``term = (term @ z).scaled(1/k)`` and ``acc = acc + term``
    in their order, and builds one ``Mat2C`` at the end.
    """
    if terms < 1:
        raise ValueError("terms must be >= 1")
    z11, z12, z21, z22 = z.entries()
    a11, a12, a21, a22 = t11, t12, t21, t22 = _ONE, _ZERO, _ZERO, _ONE
    for k in range(1, terms + 1):
        s = 1.0 / k
        t11, t12, t21, t22 = (s * (t11 * z11 + t12 * z21), s * (t11 * z12 + t12 * z22),
                              s * (t21 * z11 + t22 * z21), s * (t21 * z12 + t22 * z22))
        a11, a12, a21, a22 = a11 + t11, a12 + t12, a21 + t21, a22 + t22
    return Mat2C(a11, a12, a21, a22)


def series_exp(z: Mat2C) -> Mat2C:
    """Exponential through the raw series on an exactly halved argument.

    Halve z (exact scaling by powers of two) until its entries are at
    most 1/2, sum 40 terms of the series, then square back; the truncation
    tail of the halved sum is below 1e-60.
    """
    halvings = 0
    w = z
    while w.max_abs() > 0.5 and halvings < 64:
        w = w.scaled(0.5)
        halvings += 1
    result = taylor_exp(w)
    for _ in range(halvings):
        result = result @ result
    return result


def check_exponential(g: Generator, r: TransitionMatrix) -> VerificationReport:
    """exp(Z) = R through the series oracle, plus tracelessness.

    The exponential's residual is read over max(1, |R|)*max(1, |Z|), the
    trace over max(1, |Z|), with |.| the largest entry modulus.
    """
    z, rm = g.matrix, r.as_mat2c()
    z_scale = max(1.0, z.max_abs())
    residual = max_diff(series_exp(z), rm) / (max(1.0, rm.max_abs()) * z_scale)
    return VerificationReport(
        f"{r.label} tau={r.tau:g} m={g.branch}",
        (
            CheckResult.of("exp(Z)=R (series oracle)", residual, BOUND),
            CheckResult.of("traceless Z", abs(z.trace()) / z_scale, BOUND),
        ),
    )


def check_coincidence(generators: Sequence[Generator], r: TransitionMatrix,
                      trials: int = 20,
                      seed: int = DEFAULT_SEED) -> tuple[VerificationReport, ...]:
    """Each generator's flow against the discrete orbits at t = 0, tau, ..., 20*tau.

    The orbits are an independent oracle: repeated matrix-vector
    multiplication by R (``_orbits_by_time``), sharing no code with the flow
    evaluator under test.  They are built once per call, for every generator
    of the map, and stored by time; each generator then applies its
    propagator E(t) at each orbit time to every trial's start in one pass.
    The distance of the states, |x| = hypot(q, p), is read over the rounding
    scale of both sides, |E(t)|*|x_0| + n*|R|*|x_n| after n steps.  A flow
    that leaves double range scores inf.  Returns one report per generator,
    in order.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    orbits = _orbits_by_time(r, trials, seed)
    times = [n * r.tau for n in range(ORBIT_STEPS + 1)]
    return tuple(
        VerificationReport(
            f"{r.label} tau={r.tau:g} m={g.branch}",
            (CheckResult.of("discrete/continuous coincidence",
                            _worst_deviation(g, times, orbits), BOUND),))
        for g in generators)


def _orbits_by_time(r: TransitionMatrix, trials: int, seed: int) -> list[list[tuple]]:
    """Per time n = 0..ORBIT_STEPS, one (q0, p0, |x_0|, q_n, p_n, n*|R|*|x_n|)
    per trial, in the order of the trials' starts drawn from ``seed``.

    Each step is ``TransitionMatrix.apply``'s arithmetic on R's entries read
    once, so x_n is the n-th state of ``flow.discrete_orbit`` bit for bit.
    """
    rng = random.Random(seed)
    hypot = math.hypot
    r1, r2, r3, r4 = r.r1, r.r2, r.r3, r.r4
    r_scale = max(abs(r1), abs(r2), abs(r3), abs(r4))
    by_time = [[] for _ in range(ORBIT_STEPS + 1)]
    for _ in range(trials):
        q0 = rng.uniform(-2.0, 2.0)
        p0 = rng.uniform(-2.0, 2.0)
        x0 = hypot(q0, p0)
        q, p = q0, p0
        by_time[0].append((q0, p0, x0, q0, p0, 0.0))
        for n in range(1, ORBIT_STEPS + 1):
            q, p = r1 * q + r2 * p, r3 * q + r4 * p
            by_time[n].append((q0, p0, x0, q, p, n * r_scale * hypot(q, p)))
    return by_time


def _propagators(g: Generator, times: Sequence[float]) -> tuple[list, list | None]:
    """(E(t)'s entries, |E(t)|) at each time; and the same with the entries as
    floats, or None unless every imaginary part is zero at every time.

    Float arithmetic on real entries gives the real part of the complex
    arithmetic on them bit for bit; the complex results differ only in the
    sign of a zero imaginary part, or in a NaN one beside an infinite real
    part, and abs() reads neither: abs(x + 0j) is |x| exactly and abs of an
    infinite part is inf.  Where complex abs() overflows and raises, the
    float result is inf; the oracles score both inf.
    """
    flows = [(e, max(abs(e[0]), abs(e[1]), abs(e[2]), abs(e[3])))
             for e in closed_exps(g.matrix, (t / g.tau for t in times), g.log)]
    for (e11, e12, e21, e22), _ in flows:
        if not e11.imag == e12.imag == e21.imag == e22.imag == 0.0:
            return flows, None
    return flows, [((e11.real, e12.real, e21.real, e22.real), e_scale)
                   for (e11, e12, e21, e22), e_scale in flows]


def _worst_deviation(g: Generator, times: Sequence[float], orbits: list[list[tuple]]) -> float:
    """Largest scaled distance of g's flow from the orbits; inf out of range."""
    hypot = math.hypot
    worst = 0.0
    try:
        flows, real_flows = _propagators(g, times)
        for ((e11, e12, e21, e22), e_scale), states in zip(real_flows or flows, orbits):
            for q0, p0, x0, q, p, orbit_scale in states:
                deviation = hypot(abs(e11 * q0 + e12 * p0 - q), abs(e21 * q0 + e22 * p0 - p))
                if deviation == 0.0:
                    continue
                relative = deviation / (e_scale * x0 + orbit_scale)
                if relative > worst:
                    worst = relative
                elif relative != relative:  # a NaN state
                    return math.inf
    except _OUT_OF_RANGE:
        return math.inf
    return worst


def _drift(h: ShadowHamiltonian, flows: list[tuple[tuple, float]],
           real_flows: list[tuple[tuple, float]] | None, q0: float, p0: float) -> float:
    """Scaled drift of H along the states reached by each propagator (entries, |E|).

    Each of H's three terms is computed once per state, on scalars, and
    serves both H (summed in ``ShadowHamiltonian.evaluate``'s order) and
    the drift's rounding scale: the terms' magnitudes at x(t), H(0)'s own
    ||H||*|x_0|**2, and ||H||*|x(t)|*|E(t)|*|x_0| for the rounding of
    x(t) = E(t) x_0, with ||H|| = |c_pp| + |c_qq| + |c_pq| and
    |x| = |q| + |p|.  Where the propagators are real (``real_flows``) and
    H's coefficients and H(x_0) are too, all of it runs in float arithmetic,
    exact for the reason ``_propagators`` gives.
    """
    c_pp, c_qq, c_pq = h.c_pp, h.c_qq, h.c_pq
    h0 = h.evaluate(q0, p0)
    if real_flows is not None and c_pp.imag == c_qq.imag == c_pq.imag == h0.imag == 0.0:
        c_pp, c_qq, c_pq, h0, flows = c_pp.real, c_qq.real, c_pq.real, h0.real, real_flows
    x0 = abs(q0) + abs(p0)
    h_x0 = (abs(c_pp) + abs(c_qq) + abs(c_pq)) * x0
    worst = 0.0
    for (e11, e12, e21, e22), e_scale in flows:
        q, p = e11 * q0 + e12 * p0, e21 * q0 + e22 * p0
        t_pp, t_qq, t_pq = c_pp * p * p, c_qq * q * q, c_pq * p * q
        drift = abs(t_pp + t_qq + t_pq - h0)
        if drift == 0.0:
            continue
        scale = (abs(t_pp) + abs(t_qq) + abs(t_pq) + h_x0 * x0
                 + h_x0 * e_scale * (abs(q) + abs(p)))
        relative = drift / scale
        if relative > worst:
            worst = relative
        elif relative != relative:  # a NaN state, or H's terms overflowed
            return math.inf
    return worst


def check_conservation(h: ShadowHamiltonian, g: Generator, trials: int = 5,
                       seed: int = DEFAULT_SEED) -> VerificationReport:
    """H is constant along its own flow over [0, 10*tau]; inf out of double range.

    The propagators are computed once, at every sample time, and each
    trial's start is carried through all of them (``_drift``).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    worst = 0.0
    try:
        flows, real_flows = _propagators(g, sample_times(10.0 * g.tau, g.tau / 20.0))
        for _ in range(trials):
            q0 = rng.uniform(-2.0, 2.0)
            p0 = rng.uniform(-2.0, 2.0)
            worst = max(worst, _drift(h, flows, real_flows, q0, p0))
    except _OUT_OF_RANGE:
        worst = math.inf
    return VerificationReport(
        f"flow<{h.case}> tau={h.tau:g} m={h.branch}",
        (CheckResult.of("H conserved along flow", worst, BOUND),),
    )


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


def principal_polar(y: complex) -> tuple[float, float]:
    """(modulus, theta) of y = modulus * exp(i*theta), theta in (-pi, pi] and +pi
    for negative reals; ZeroEigenvalue for y = 0, a singular map's."""
    y = complex(y)
    if y == 0:
        raise ZeroEigenvalue("zero has no polar angle or logarithm")
    # adding 0.0 normalizes a negative-zero imaginary part so that
    # atan2 lands on +pi for negative reals
    theta = math.atan2(y.imag + 0.0, y.real)
    return abs(y), theta


def log_branch(y: complex, branch: int) -> complex:
    """Branch-m logarithm: log|y| + i*theta + i*2*pi*branch."""
    modulus, theta = principal_polar(y)
    return complex(math.log(modulus), theta + 2.0 * math.pi * branch)


def exact_log(r1, r2, r3, r4) -> tuple[list[Fraction], Fraction]:
    """The entries (e11, e12, e21, e22) of log R and det R, R = [[r1, r2], [r3, r4]]
    in exact rationals (floats are the rationals they are): with X = R - I,
    sum (-1)**(k+1) X**k / k until a term's largest entry is 1e-40 of X's at
    most, a tail far below rounding where X's eigenvalues are within 1e-1 of 0."""
    x = [Fraction(r1) - 1, Fraction(r2), Fraction(r3), Fraction(r4) - 1]
    floor, total, term, k = max(map(abs, x)) / 10 ** 40, [0, 0, 0, 0], x, 1
    while True:
        total = [t + Fraction((-1) ** (k + 1), k) * e for t, e in zip(total, term)]
        if max(map(abs, term)) <= floor:
            return total, (x[0] + 1) * (x[3] + 1) - x[1] * x[2]
        term = [term[0] * x[0] + term[1] * x[2], term[0] * x[1] + term[1] * x[3],
                term[2] * x[0] + term[3] * x[2], term[2] * x[1] + term[3] * x[3]]
        k += 1


def euler_rate(tau: float, branch: int) -> complex:
    """Flow rate of the branch-m Hamiltonian of the explicit Euler map.

    For 0 < tau < 2 the rate is real, 2*pi*m + 2*asin(tau/2) with the
    branch-0 value in (0, pi): acos(1 - tau**2/2), without its loss of
    precision as tau -> 0.  For tau > 2 it is complex,
    i*(2m+1)*pi + log 2 - log(tau**2 - 2 + tau*sqrt(tau**2 - 4)).
    """
    if not tau > 0:
        raise InvalidTau(f"tau must be positive, got {tau!r}")
    if abs(tau - 2.0) <= 1e-12:
        raise CriticalTau("the Euler map is defective with eigenvalue -1 at tau = 2")
    if tau < 2.0:
        return complex(2.0 * math.pi * branch + 2.0 * math.asin(tau / 2.0), 0.0)
    root = math.sqrt((tau - 2.0) * (tau + 2.0))
    return complex(math.log(2.0) - math.log(tau * tau - 2.0 + tau * root),
                   (2 * branch + 1) * math.pi)


def euler_hamiltonian(tau: float, branch: int) -> ShadowHamiltonian:
    """Closed-form branch-m Hamiltonian of the explicit Euler map,
    H = rate * (p**2 + q**2 - tau*p*q) / (tau * sqrt(|4 - tau**2|))."""
    rate = euler_rate(tau, branch)
    root = math.sqrt(abs((2.0 - tau) * (2.0 + tau)))
    c_pp = rate / (tau * root)
    return ShadowHamiltonian(c_pp, c_pp, -rate / root, tau, branch,
                             CaseTag.IA if tau < 2.0 else CaseTag.IC, tau < 2.0, rate=rate)


def euler_closed_form(tau: float, branch: int, q0: float, p0: float, t: float) -> PhaseState:
    """Closed-form branch flow of the explicit Euler map: with s = rate*t/tau,
    q(t) = (2 p0 - tau q0) sin(s)/sqrt(4 - tau**2) + q0 cos(s) and
    p(t) = (tau p0 - 2 q0) sin(s)/sqrt(4 - tau**2) + p0 cos(s) for tau < 2,
    and the same with sinh, cosh and sqrt(tau**2 - 4) for tau > 2."""
    s = euler_rate(tau, branch) * t / tau
    trig = (cmath.sin, cmath.cos) if tau < 2.0 else (cmath.sinh, cmath.cosh)
    osc, base = trig[0](s), trig[1](s)
    root = math.sqrt(abs((2.0 - tau) * (2.0 + tau)))
    return PhaseState((2.0 * p0 - tau * q0) * osc / root + q0 * base,
                      (tau * p0 - 2.0 * q0) * osc / root + p0 * base, t)


def locate_vp_critical_tau(lo: float = 2.0, hi: float = 3.0) -> float:
    """Bisect trace(vp(tau)) = -2 on (lo, hi)."""
    flo = vp(lo).trace() + 2.0
    fhi = vp(hi).trace() + 2.0
    if flo * fhi > 0:
        raise ValueError(f"trace + 2 does not change sign on ({lo}, {hi})")
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if mid in (lo, hi):
            break
        fmid = vp(mid).trace() + 2.0
        if flo * fmid <= 0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return (lo + hi) / 2.0


def _expected_euler_like(tau: float) -> CaseTag:
    if abs(tau - 2.0) <= 1e-9:
        return CaseTag.IIIB
    return CaseTag.IA if tau < 2.0 else CaseTag.IC


def _expected_double_euler(tau: float) -> CaseTag:
    if abs(tau - 2.0 * math.sqrt(2.0)) <= 1e-9:
        return CaseTag.II_MINUS
    if abs(tau - 4.0) <= 1e-9:
        return CaseTag.IIIA
    return CaseTag.IB if tau > 4.0 else CaseTag.IA


EXPECTED_REGIMES = {
    "euler": _expected_euler_like,
    "velocity-verlet": _expected_euler_like,
    "position-verlet": _expected_euler_like,
    "double-euler": _expected_double_euler,
}


def check_regime_map(integrator: str, tau_grid: list[float]) -> VerificationReport:
    """Classification over a grid against the known regime map.

    For "vp" no closed regime map is asserted; instead the critical
    increment is located by bisection and must classify as iii-b, the
    failure a composite of two distinct steps can still exhibit.
    """
    if integrator == "vp":
        critical = locate_vp_critical_tau()
        r = vp(critical)
        tag, _ = classify(r)
        return VerificationReport(
            "vp regime",
            (
                CheckResult.of(f"critical tau={critical:.12g} trace=-2",
                               abs(r.trace() + 2.0) / max(1.0, abs(r.r1) + abs(r.r4)),
                               BOUND),
                CheckResult.of("critical tau classifies iii-b",
                               0.0 if tag is CaseTag.IIIB else 1.0, BOUND),
            ),
        )
    try:
        expected = EXPECTED_REGIMES[integrator]
    except KeyError:
        known = ", ".join(sorted(EXPECTED_REGIMES) + ["vp"])
        raise UnknownIntegrator(f"{integrator!r}; known: {known}") from None
    checks = []
    for tau in tau_grid:
        tag, _ = classify(make(integrator, tau))
        want = expected(tau)
        checks.append(CheckResult.of(f"tau={tau:g} -> {want}",
                                     0.0 if tag is want else 1.0, BOUND))
    return VerificationReport(f"{integrator} regime", tuple(checks))


def _perturbed(g: Generator, eps: float) -> Generator:
    if eps == 0.0:
        return g
    z = g.matrix
    return Generator(Mat2C(z.e11 + eps, z.e12, z.e21, z.e22), g.branch, g.tau, g.case)


def _regime_subject(integrator: str, tau_grid: list[float]) -> list[VerificationReport]:
    return [check_regime_map(integrator, tau_grid)]


def _map_subject(r: TransitionMatrix, branches: Sequence[int], params: CaseIIParams | None,
                 trials: int, seed: int, perturb: float) -> list[VerificationReport]:
    """exp(Z) = R and the coincidence report of each branch generator, in turn."""
    generators = [_perturbed(g, perturb) for g in generators_for(r, branches, params).generators]
    reports = []
    for g, coincidence in zip(generators, check_coincidence(generators, r, trials, seed)):
        reports += (check_exponential(g, r), coincidence)
    return reports


def _conservation_subject(name: str, tau: float, m: int, trials: int, seed: int,
                          perturb: float) -> list[VerificationReport]:
    r = make(name, tau)
    g = generators_for(r, [m]).generators[0]
    shifted = _perturbed(g, perturb)
    # a shifted diagonal breaks tracelessness, which the guard in
    # hamiltonian_from_generator rejects: read c_pq off the shifted matrix
    h = hamiltonian_from_generator(g)
    h = ShadowHamiltonian(h.c_pp, h.c_qq, shifted.matrix.e11 / g.tau, h.tau, h.branch,
                          h.case, h.real_valued, h.rate)
    return [check_conservation(h, shifted, max(1, trials // 4), seed)]


def full_suite(seed: int = DEFAULT_SEED, trials: int = 20,
               perturb: float = 0.0) -> list[VerificationReport]:
    """Every check across the built-in integrators.

    ``perturb`` shifts each generator diagonal by the given amount before
    checking; a nonzero value is a negative control that must fail.  A
    non-finite ``perturb`` raises ``NonFinite`` and ``trials < 1`` raises
    ``ValueError``, both before any check runs.

    The suite is 20 subjects: 5 regime maps, 10 maps whose branch generators
    are checked (exp(Z) = R and coincidence) and 5 conservation cases.  Each
    is one chunk of ``tables.results``, so this process and one forked child
    claim them where ``tables.splits`` allows (two CPUs usable); the reports,
    and any error, are those of one pass.
    """
    if not math.isfinite(perturb):
        raise NonFinite(f"perturb must be finite, got {perturb!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    regimes = [("euler", [0.5, 1.0, 1.9, 2.0, 2.1, 3.0, 5.0]),
               ("velocity-verlet", [1.0, 2.0, 3.0]), ("position-verlet", [1.0, 2.0, 3.0]),
               ("double-euler", [1.0, 2.0 * math.sqrt(2.0), 3.5, 4.0, 4.5, 5.0]), ("vp", [])]
    subjects = [partial(_regime_subject, name, grid) for name, grid in regimes]
    branch_cases = [
        ("euler", 0.66), ("euler", 1.0), ("euler", 3.0),
        ("velocity-verlet", 1.5), ("position-verlet", 1.0),
        ("double-euler", 2.0), ("double-euler", 4.8),
    ]
    # (map, branches, scalar-case direction) of every generator checked
    maps = [(make(name, tau), range(-2, 3), None) for name, tau in branch_cases]
    maps.append((make("double-euler", 4.0), [0], None))
    for sign, preset in ((1.0, CaseIIParams.default()), (-1.0, CaseIIParams.real_rotation())):
        scalar = custom(sign, 0.0, 0.0, sign, 1.0, label=f"{sign:+g}*identity")
        maps.append((scalar, range(-1, 2), preset))
    subjects += (partial(_map_subject, r, branches, params, trials, seed, perturb)
                 for r, branches, params in maps)
    conservation_cases = [("euler", 0.66, -1), ("euler", 0.66, 1), ("euler", 3.0, 0),
                          ("velocity-verlet", 1.5, 0), ("double-euler", 4.0, 0)]
    subjects += (partial(_conservation_subject, name, tau, m, trials, seed, perturb)
                 for name, tau, m in conservation_cases)
    return [report for reports in results(subjects) for report in reports]
