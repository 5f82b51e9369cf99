import math
import random
import struct
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowosc.algebra import Mat2C, max_diff
from shadowosc.classifier import CaseTag, classify
from shadowosc.errors import UnknownIntegrator
from shadowosc.flow import continuous_state, discrete_orbit, sample_times, state_deviation
from shadowosc.integrators import custom, euler, make, vp
from shadowosc.shadow import (
    Generator,
    generator_scalar,
    generators_for,
    hamiltonian_from_generator,
)
from shadowosc.verify import (
    check_coincidence,
    check_conservation,
    check_exponential,
    check_regime_map,
    full_suite,
    locate_vp_critical_tau,
    series_exp,
)


def branch_generator(r, m):
    return generators_for(r, [m]).generators[0]


def corrupt(g, eps=1e-3):
    z = g.matrix
    return replace(g, matrix=Mat2C(z.e11 + eps, z.e12, z.e21, z.e22))


class TestSeriesExp:
    def test_matches_raw_series_at_small_scale(self):
        from shadowosc.algebra import taylor_exp

        z = Mat2C(0.1, 0.4, -0.4, -0.1)
        assert max_diff(series_exp(z), taylor_exp(z, 40)) <= 1e-15

    def test_handles_large_branch_generators(self):
        r = euler(1.95)
        g = branch_generator(r, 3)
        assert g.matrix.max_abs() > 50.0
        assert max_diff(series_exp(g.matrix), r.as_mat2c()) <= 1e-9


class TestCheckExponential:
    def test_trivial(self):
        ident = custom(1.0, 0.0, 0.0, 1.0, 1.0)
        g = generator_scalar(ident, 0)
        report = check_exponential(g, ident)
        assert report.passed
        assert report.checks[0].residual == 0.0

    def test_euler_branch_zero(self):
        r = euler(1.0)
        assert check_exponential(branch_generator(r, 0), r).passed

    def test_negative_control(self):
        r = euler(1.0)
        report = check_exponential(corrupt(branch_generator(r, 0)), r)
        assert not report.passed
        assert report.checks[0].residual > 1e-4


class TestCheckCoincidence:
    @pytest.mark.parametrize("m", range(-2, 3))
    def test_euler_small_tau(self, m):
        r = euler(0.66)
        assert check_coincidence(branch_generator(r, m), r).passed

    def test_complex_hamiltonian_real_discrete_points(self):
        r = euler(3.0)
        assert check_coincidence(branch_generator(r, 0), r).passed

    def test_negative_control(self):
        r = euler(0.66)
        assert not check_coincidence(corrupt(branch_generator(r, 0)), r).passed

    def test_deterministic_under_seed(self):
        r = euler(0.9)
        g = branch_generator(r, 1)
        assert check_coincidence(g, r, seed=7) == check_coincidence(g, r, seed=7)


class TestCheckConservation:
    def test_zero_hamiltonian_has_zero_drift(self):
        ident = custom(1.0, 0.0, 0.0, 1.0, 1.0)
        g = generator_scalar(ident, 0)
        report = check_conservation(hamiltonian_from_generator(g), g)
        assert report.checks[0].residual == 0.0

    @pytest.mark.parametrize("name,tau,m", [("euler", 0.66, 1),
                                            ("velocity-verlet", 1.5, 0)])
    def test_bounded_flows(self, name, tau, m):
        r = make(name, tau)
        g = branch_generator(r, m)
        assert check_conservation(hamiltonian_from_generator(g), g).passed

    def test_negative_control(self):
        r = euler(0.66)
        g = corrupt(branch_generator(r, 1))
        z = g.matrix
        from shadowosc.shadow import ShadowHamiltonian

        h = ShadowHamiltonian(z.e12 / (2 * g.tau), -z.e21 / (2 * g.tau),
                              z.e11 / g.tau, g.tau, g.branch, g.case, False)
        assert not check_conservation(h, g).passed


def reference_coincidence(g, r, trials, seed):
    """The coincidence residual from one continuous_state call per state."""
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(trials):
        q0 = rng.uniform(-2.0, 2.0)
        p0 = rng.uniform(-2.0, 2.0)
        for ref in discrete_orbit(r, q0, p0, 20).states:
            worst = max(worst, state_deviation(continuous_state(g, q0, p0, ref.t), ref))
    return worst


def reference_conservation(h, g, trials, seed):
    """The conservation residual from one continuous_state call per state."""
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(trials):
        q0 = rng.uniform(-2.0, 2.0)
        p0 = rng.uniform(-2.0, 2.0)
        h0 = h.evaluate(q0, p0)
        for t in sample_times(10.0 * g.tau, g.tau / 20.0):
            s = continuous_state(g, q0, p0, t)
            drift = abs(h.evaluate(s.q, s.p) - h0)
            if drift == 0.0:
                continue
            term_scale = (abs(h.c_pp * s.p * s.p) + abs(h.c_qq * s.q * s.q)
                          + abs(h.c_pq * s.p * s.q))
            worst = max(worst, drift / max(abs(h0), 2.2e-6 * term_scale, 1e-300))
    return worst


def _built_in(case):
    (name, tau), m, eps = case
    r = make(name, tau)
    g = branch_generator(r, m)
    return g if eps == 0.0 else corrupt(g, eps), r


entries = st.builds(complex, st.floats(-4.0, 4.0), st.floats(-4.0, 4.0))
# (generator, map) pairs: built-in branches of every case, some with a
# shifted diagonal as full_suite's negative control makes them, and generic
# traceless generators checked against the Euler map of their tau
subjects = st.one_of(
    st.tuples(st.sampled_from([("euler", 0.66), ("euler", 3.0), ("velocity-verlet", 1.5),
                               ("position-verlet", 1.0), ("double-euler", 2.0),
                               ("double-euler", 4.0), ("double-euler", 4.8), ("vp", 5.0)]),
              st.integers(-2, 2), st.sampled_from([0.0, 1e-3, -1e-9])).map(_built_in),
    st.builds(lambda a, b, c, tau: (Generator(Mat2C(a, b, c, -a), 0, tau, CaseTag.IA),
                                    euler(tau)),
              entries, entries, entries, st.floats(0.05, 3.0)),
)


def outcome(fn, *args):
    """Bits of the float fn(*args), or the type of the exception it raises."""
    try:
        return struct.pack("<d", fn(*args))
    except ArithmeticError as exc:
        return type(exc)


class TestOraclesApplyOnePropagatorPerTime:
    """The hoisted oracles equal the per-state continuous_state loop bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(subjects, st.integers(1, 4), st.integers(0, 2 ** 32))
    def test_coincidence(self, subject, trials, seed):
        g, r = subject
        got = outcome(lambda: check_coincidence(g, r, trials, seed).checks[0].residual)
        assert got == outcome(reference_coincidence, g, r, trials, seed)

    @settings(max_examples=40, deadline=None)
    @given(subjects, st.integers(1, 3), st.integers(0, 2 ** 32))
    def test_conservation(self, subject, trials, seed):
        g, _ = subject
        z = g.matrix
        # read c_pq off the (possibly shifted) diagonal, as full_suite does
        h = replace(hamiltonian_from_generator(replace(g, matrix=Mat2C(
            z.e11, z.e12, z.e21, -z.e11))), c_pq=z.e11 / g.tau)
        got = outcome(lambda: check_conservation(h, g, trials, seed).checks[0].residual)
        assert got == outcome(reference_conservation, h, g, trials, seed)


class TestRegimeMap:
    def test_euler_small_grid(self):
        assert check_regime_map("euler", [0.5, 1.0, 1.9]).passed

    def test_double_euler_transitions(self):
        report = check_regime_map("double-euler", [2.0 * math.sqrt(2.0), 4.0, 4.5])
        assert report.passed

    def test_vp_critical_point(self):
        report = check_regime_map("vp", [])
        assert report.passed
        assert "2.47213595" in report.checks[0].name

    def test_unknown_name(self):
        with pytest.raises(UnknownIntegrator):
            check_regime_map("rk4", [1.0])


class TestVpCriticalTau:
    def test_bisection_hits_trace_minus_two(self):
        critical = locate_vp_critical_tau()
        assert 2.0 < critical < 3.0
        assert abs(vp(critical).trace() + 2.0) <= 1e-9
        assert classify(vp(critical))[0] is CaseTag.IIIB

    def test_rejects_bad_bracket(self):
        with pytest.raises(ValueError):
            locate_vp_critical_tau(0.5, 1.0)


class TestFullSuite:
    def test_default_run_passes(self):
        reports = full_suite(trials=5)
        failed = [r.subject for r in reports if not r.passed]
        assert failed == []

    def test_perturbation_is_detected(self):
        reports = full_suite(trials=3, perturb=1e-3)
        assert any(not r.passed for r in reports)

    def test_seeded_runs_identical(self):
        assert full_suite(seed=7, trials=3) == full_suite(seed=7, trials=3)
