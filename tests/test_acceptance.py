"""Acceptance suite: one test per criterion, run with ``pytest -v``.

Each test name carries its criterion number, so the verbose pytest
listing is the per-criterion pass/fail report; a PASS detail line is also
printed (visible with -s or -rP).

State comparisons are measured relative to max(1, |reference|): identical
to the absolute tolerance on bounded orbits, and the only meaningful
reading once diverging orbits leave the absolute resolution of doubles.
"""

import math
import random

import numpy as np

from shadowosc.algebra import Mat2C, closed_exp, max_diff
from shadowosc.classifier import CaseTag, classify
from shadowosc.flow import continuous_state, discrete_orbit, sample_times
from shadowosc.integrators import custom, double_euler, euler, make, position_verlet, velocity_verlet
from shadowosc.shadow import (
    CaseIIParams,
    generators_for,
    hamiltonian_from_generator,
)
from shadowosc.verify import (
    euler_closed_form,
    euler_hamiltonian,
    euler_rate,
    measure_period,
    series_exp,
)

from conftest import generator_distinct, rotation_sense, state_deviation

BUILTIN_NAMES = ("euler", "velocity-verlet", "position-verlet", "double-euler", "vp")


def announce(num: int, detail: str) -> None:
    print(f"criterion {num:02d}: PASS  {detail}")


def branch_generator(r, m):
    return generator_distinct(r, classify(r)[1], m)


def test_criterion_01_figure_data_and_rotation_sense():
    tau = 0.66
    r = euler(tau)
    discrete = discrete_orbit(r, 1.0, 0.0, 6)
    worst = 0.0
    for m in (-1, 0, 1):
        g = branch_generator(r, m)
        for ref in discrete.states:
            generic = continuous_state(g, 1.0, 0.0, ref.t)
            closed = euler_closed_form(tau, m, 1.0, 0.0, ref.t)
            worst = max(worst, state_deviation(generic, ref),
                        state_deviation(closed, ref))
    assert worst <= 1e-8
    senses = {m: rotation_sense(euler_hamiltonian(tau, m)) for m in (-1, 0, 1)}
    assert senses[0] == senses[1] == "clockwise"
    assert senses[-1] == "counter-clockwise"
    announce(1, f"7 discrete points interpolated by m=-1,0,1; max deviation {worst:.2e}")


def test_criterion_02_euler_regime_map():
    for k in range(1, 20):
        tau = round(0.1 * k, 10)
        assert classify(euler(tau))[0] is CaseTag.IA, tau
    for k in range(21, 51):
        tau = round(0.1 * k, 10)
        assert classify(euler(tau))[0] is CaseTag.IC, tau
    assert classify(euler(2.0))[0] is CaseTag.IIIB
    family = generators_for(euler(2.0), range(-3, 4))
    assert family.generators == () and family.obstruction is not None
    assert family.case is CaseTag.IIIB and family.eigen.jordan_basis is not None
    announce(2, "i-a on (0,2), iii-b at 2 with no-Hamiltonian outcome, i-c on (2,5]")


def test_criterion_03_closed_form_equals_generic_path():
    assert abs(euler_rate(1.0, 0).real - math.pi / 3.0) <= 1e-12
    worst = 0.0
    for tau in np.linspace(0.1, 1.9, 50):
        r = euler(float(tau))
        eigen = classify(r)[1]
        for m in range(-2, 3):
            ha = euler_hamiltonian(float(tau), m)
            hb = hamiltonian_from_generator(generator_distinct(r, eigen, m))
            worst = max(worst, abs(ha.c_pp - hb.c_pp), abs(ha.c_qq - hb.c_qq),
                        abs(ha.c_pq - hb.c_pq))
    assert worst <= 1e-12
    announce(3, f"50 tau x 5 branches, coefficient gap {worst:.2e}; rate(1,0)=pi/3")


def test_criterion_04_complex_regime_represents_real_dynamics():
    for tau in (2.5, 3.0, 4.0):
        r = euler(tau)
        discrete = discrete_orbit(r, 1.0, 0.0, 10)
        for m in (0, 1):
            rate = euler_rate(tau, m)
            assert abs(rate.imag - (2 * m + 1) * math.pi) <= 1e-12
            g = branch_generator(r, m)
            for n, ref in enumerate(discrete.states):
                closed = euler_closed_form(tau, m, 1.0, 0.0, n * tau)
                generic = continuous_state(g, 1.0, 0.0, n * tau)
                for state in (closed, generic):
                    scale = max(1.0, abs(ref.q), abs(ref.p))
                    assert abs(state.q.imag) <= 1e-9 * scale
                    assert abs(state.p.imag) <= 1e-9 * scale
                    assert state_deviation(state, ref) <= 1e-8
            assert abs(euler_closed_form(tau, m, 1.0, 0.0, 10 * tau).q) > 1e3
    announce(4, "rates i(2m+1)pi, real states at t=n*tau, divergent |q(10*tau)| > 1e3")


def test_criterion_05_exponential_identity_property_suite():
    checked = 0
    worst_exp = 0.0
    worst_trace = 0.0
    for name in BUILTIN_NAMES:
        for k in range(1, 101):
            tau = 0.05 * k
            r = make(name, tau)
            tag, eigen = classify(r)
            if tag not in (CaseTag.IA, CaseTag.IB, CaseTag.IC):
                continue  # critical points excluded from the branch sweep
            for m in range(-3, 4):
                g = generator_distinct(r, eigen, m)
                worst_trace = max(worst_trace, abs(g.matrix.trace()))
                worst_exp = max(worst_exp, max_diff(series_exp(g.matrix), r.as_mat2c()))
                checked += 1
    assert worst_exp <= 1e-9
    assert worst_trace <= 1e-10
    announce(5, f"{checked} generators: exp residual {worst_exp:.2e}, "
                f"trace residual {worst_trace:.2e}")


def test_criterion_06_scalar_family():
    identity = custom(1.0, 0.0, 0.0, 1.0, 1.0, label="+identity")
    minus = custom(-1.0, 0.0, 0.0, -1.0, 1.0, label="-identity")
    rng = random.Random(20260811)
    worst = 0.0
    for _ in range(20):
        c1 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        c2 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        while abs(c2) < 0.1:
            c2 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        params = CaseIIParams.projected(c1, c2)
        for r in (identity, minus):
            for m in range(-2, 3):
                g = generators_for(r, [m], params).generators[0]
                worst = max(worst, max_diff(closed_exp(g.matrix), r.as_mat2c()),
                            max_diff(series_exp(g.matrix), r.as_mat2c()))
    assert worst <= 1e-9

    h = hamiltonian_from_generator(
        generators_for(identity, [1], CaseIIParams.real_rotation()).generators[0])
    assert h.real_valued

    g = generators_for(minus, [0], CaseIIParams.default()).generators[0]
    assert max_diff(closed_exp(g.matrix), minus.as_mat2c()) <= 1e-9
    announce(6, f"20 projected parameter draws x 5 branches x +-I: "
                f"exp residual {worst:.2e}")


def test_criterion_07_unique_solution_case():
    r = double_euler(4.0)
    family = generators_for(r, range(-3, 4))  # iii-a: one branch whatever is asked
    assert family.case is CaseTag.IIIA and len(family.generators) == 1
    g = family.generators[0]
    assert max_diff(g.matrix, r.as_mat2c() - Mat2C.identity()) == 0.0
    assert (g.matrix @ g.matrix).max_abs() <= 1e-10
    h = hamiltonian_from_generator(g)
    assert abs(h.c_pp - (-0.5)) <= 1e-12
    assert abs(h.c_qq - (-0.5)) <= 1e-12
    assert abs(h.c_pq - 1.0) <= 1e-12
    orbit = discrete_orbit(r, 1.0, 0.0, 12)
    for ref in orbit.states:
        assert state_deviation(continuous_state(g, 1.0, 0.0, ref.t), ref) <= 1e-8
    assert classify(double_euler(2.0 * math.sqrt(2.0)))[0] is CaseTag.II_MINUS
    assert classify(double_euler(4.0))[0] is CaseTag.IIIA
    for tau in (4.2, 4.6, 5.0):
        assert classify(double_euler(tau))[0] is CaseTag.IB
    announce(7, "Z = R - I nilpotent, H = (-p^2 - q^2 + 2pq)/2, "
                "regime 2*sqrt(2) -> ii, 4 -> iii-a, >4 -> i-b")


def test_criterion_08_verlet_structure():
    for build in (velocity_verlet, position_verlet):
        for k in range(1, 20):
            tau = round(0.1 * k, 10)
            r = build(tau)
            eigen = classify(r)[1]
            for m in range(-3, 4):
                h = hamiltonian_from_generator(generator_distinct(r, eigen, m))
                assert abs(h.c_pq) <= 1e-12
        assert classify(build(2.0))[0] is CaseTag.IIIB
    announce(8, "no pq cross term for either Verlet on (0,2); iii-b at tau = 2")


def test_criterion_09_conservation_and_volume():
    cases = [
        (euler(0.66), -1), (euler(0.66), 0), (euler(0.66), 1),
        (velocity_verlet(1.5), 0), (position_verlet(1.0), 1),
        (double_euler(4.0), 0), (euler(3.0), 0),
        (custom(-1.0, 0.0, 0.0, -1.0, 1.0, label="-identity"), 0),
    ]
    worst_drift = 0.0
    worst_det = 0.0
    for r, m in cases:
        g = generators_for(r, [m]).generators[0]
        h = hamiltonian_from_generator(g)
        h0 = h.evaluate(1.0, 0.0)
        for t in sample_times(10.0 * r.tau, r.tau / 16.0):
            propagator = closed_exp(g.matrix.scaled(t / g.tau))
            s = continuous_state(g, 1.0, 0.0, t)
            term_scale = (abs(h.c_pp * s.p * s.p) + abs(h.c_qq * s.q * s.q)
                          + abs(h.c_pq * s.p * s.q))
            drift = abs(h.evaluate(s.q, s.p) - h0)
            if drift:
                worst_drift = max(worst_drift,
                                  drift / max(abs(h0), 2.2e-6 * term_scale))
            det_scale = max(1.0, propagator.max_abs() ** 2)
            worst_det = max(worst_det, abs(propagator.det() - 1.0) / det_scale)
    assert worst_drift <= 1e-9
    assert worst_det <= 1e-10
    announce(9, f"H drift {worst_drift:.2e} (relative), "
                f"|det - 1| {worst_det:.2e} at all sample times")


def test_criterion_10_period_law():
    tau = 0.66
    r = euler(tau)
    eigen = classify(r)[1]
    measured = []
    for m in (0, 1, 2):
        g = generator_distinct(r, eigen, m)
        period = measure_period(g, 1.0, 0.0, dt=0.001 * tau)
        want = 2.0 * math.pi * tau / euler_rate(tau, m).real
        assert abs(period - want) <= 1e-6
        measured.append(period)
    assert measured[0] > measured[1] > measured[2]
    announce(10, f"periods {', '.join(f'{p:.6f}' for p in measured)} "
                 f"match 2*pi*tau/rate and shrink with m")
