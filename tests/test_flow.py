import errno
import io
import json
import math
import os
import signal
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowosc import cli, flow, tables
from shadowosc.algebra import Mat2C, closed_exp, max_diff
from shadowosc.classifier import CaseTag, classify
from shadowosc.cli import main
from shadowosc.errors import OutOfRange
from shadowosc.flow import (
    CSV_HEADER,
    PhaseState,
    SampleTimes,
    Trajectory,
    TrajectorySource,
    continuous_state,
    discrete_orbit,
    euler_closed_form,
    flow_matrix,
    sample_times,
    sample_trajectory,
    trajectory_to_json,
    whole_steps,
    write_trajectory_csv,
    write_trajectory_json,
)
from shadowosc.integrators import custom, double_euler, euler, make
from shadowosc.shadow import (
    CaseIIParams,
    Generator,
    generators_for,
    hamiltonian_from_generator,
)
from shadowosc.verify import (
    CriticalTau,
    NotApplicable,
    euler_hamiltonian,
    euler_rate,
    full_suite,
    measure_period,
    series_exp,
)

from conftest import generator_distinct, no_child_left, rotation_sense, state_deviation, to_numpy

AFFINITY = os.sched_getaffinity(0)


def branch_generator(r, m):
    return generator_distinct(r, classify(r)[1], m)


class TestDiscreteOrbit:
    def test_zero_steps(self):
        orbit = discrete_orbit(euler(0.66), 1.0, 0.0, 0)
        assert tuple(orbit.states) == (PhaseState(1.0, 0.0, 0.0),)

    def test_single_step(self):
        orbit = discrete_orbit(euler(0.66), 1.0, 0.0, 1)
        assert orbit.states[1].q == pytest.approx(0.5644, abs=1e-15)
        assert orbit.states[1].p == pytest.approx(-0.66, abs=1e-15)
        assert orbit.states[1].t == 0.66

    def test_seven_points_match_matrix_powers(self):
        r = euler(0.66)
        orbit = discrete_orbit(r, 1.0, 0.0, 6)
        assert len(orbit.states) == 7
        for n, state in enumerate(orbit.states):
            want = np.linalg.matrix_power(to_numpy(r), n) @ np.array([1.0, 0.0])
            assert abs(state.q - want[0]) <= 1e-12
            assert abs(state.p - want[1]) <= 1e-12


class TestContinuousState:
    def test_time_zero_is_initial(self):
        g = branch_generator(euler(0.66), 0)
        s = continuous_state(g, 1.0, 0.0, 0.0)
        assert (s.q, s.p) == (1.0, 0.0)

    def test_one_increment_matches_discrete(self):
        r = euler(0.66)
        ref = discrete_orbit(r, 1.0, 0.0, 1).states[1]
        for m in (-1, 0, 1):
            got = continuous_state(branch_generator(r, m), 1.0, 0.0, r.tau)
            assert state_deviation(got, ref) <= 1e-12

    @pytest.mark.parametrize("name,tau", [("euler", 0.66), ("euler", 3.0),
                                          ("velocity-verlet", 1.5),
                                          ("double-euler", 2.0)])
    @pytest.mark.parametrize("m", [-2, 0, 2])
    def test_interpolates_discrete_orbit(self, name, tau, m):
        r = make(name, tau)
        g = branch_generator(r, m)
        rng = np.random.default_rng(7)
        for _ in range(5):
            q0, p0 = rng.uniform(-2, 2, size=2)
            orbit = discrete_orbit(r, q0, p0, 20)
            for ref in orbit.states:
                got = continuous_state(g, q0, p0, ref.t)
                assert state_deviation(got, ref) <= 1e-8

    def test_real_hamiltonian_keeps_states_real(self):
        g = branch_generator(euler(0.66), 1)
        for t in np.linspace(0.0, 5.0, 40):
            s = continuous_state(g, 1.0, 0.5, t)
            assert abs(s.q.imag) <= 1e-10
            assert abs(s.p.imag) <= 1e-10

    def test_volume_preserved_along_flow(self):
        from shadowosc.algebra import closed_exp

        g = branch_generator(euler(0.66), -1)
        for t in np.linspace(0.0, 6.0, 25):
            prop = closed_exp(g.matrix.scaled(t / g.tau))
            assert abs(prop.det() - 1.0) <= 1e-10


class TestEulerClosedForm:
    def test_time_zero(self):
        s = euler_closed_form(0.66, 0, 1.0, 0.5, 0.0)
        assert (s.q, s.p) == (1.0, 0.5)

    def test_matches_discrete_step_small_tau(self):
        ref = discrete_orbit(euler(0.66), 1.0, 0.0, 1).states[1]
        got = euler_closed_form(0.66, 0, 1.0, 0.0, 0.66)
        assert state_deviation(got, ref) <= 1e-12

    def test_matches_discrete_step_large_tau(self):
        ref = discrete_orbit(euler(3.0), 1.0, 0.0, 1).states[1]
        got = euler_closed_form(3.0, 0, 1.0, 0.0, 3.0)
        assert state_deviation(got, ref) <= 1e-12
        assert abs(got.q.imag) <= 1e-9

    def test_critical_tau_rejected(self):
        with pytest.raises(CriticalTau):
            euler_closed_form(2.0, 0, 1.0, 0.0, 1.0)

    @pytest.mark.parametrize("m", [-2, -1, 0, 1, 2])
    def test_two_paths_agree_small_tau(self, m):
        g = branch_generator(euler(0.66), m)
        for t in np.linspace(0.0, 3.0, 31):
            a = euler_closed_form(0.66, m, 1.0, 0.0, t)
            b = continuous_state(g, 1.0, 0.0, t)
            assert state_deviation(a, b) <= 1e-9

    @pytest.mark.parametrize("m", [-2, -1, 0, 1])
    def test_two_paths_agree_large_tau(self, m):
        # the closed form's branch m is the generic branch -m-1 (reciprocal
        # eigenvalue representative); the families coincide as sets
        g = branch_generator(euler(3.0), -m - 1)
        for t in np.linspace(0.0, 9.0, 19):
            a = euler_closed_form(3.0, m, 1.0, 0.0, t)
            b = continuous_state(g, 1.0, 0.0, t)
            assert state_deviation(a, b) <= 1e-9

    def test_divergence_beyond_critical(self):
        s = euler_closed_form(3.0, 0, 1.0, 0.0, 30.0)
        assert abs(s.q) > 1e3


class TestSampling:
    def test_zero_horizon(self):
        g = branch_generator(euler(0.66), 0)
        traj = sample_trajectory(g, 1.0, 0.0, 0.0, 0.1)
        assert len(traj.states) == 1

    def test_final_sample_exact(self):
        assert list(sample_times(1.0, 0.3)) == [0.0, 0.3, 0.6, 0.8999999999999999, 1.0]
        assert sample_times(0.6, 0.3)[-1] == 0.6
        assert len(sample_times(0.6, 0.3)) == 3
        # a horizon far below one step still starts at 0
        assert list(sample_times(1e-17, 1.0)) == [0.0, 1e-17]

    def test_rounded_product_ends_on_its_last_step(self):
        # t_end / dt = 18012755.000000004, 1 ulp above the step count; a ceil
        # with an absolute 1e-9 slack counted one step more, whose time
        # rounds to t_end, and raised "must be strictly increasing"
        t_end, dt = 17194401.69286144, 0.954568120915509
        times = sample_times(t_end, dt)
        assert len(times) == 18_012_756 and times[-1] == t_end and times[-2] < t_end
        assert whole_steps(t_end, dt, math.floor, "%g") == 18_012_755

    @settings(max_examples=500)
    @given(st.integers(0, 2 ** 40), st.floats(-4.0, 0.0))
    def test_whole_multiples_give_exactly_n_steps(self, n, log_h):
        h = 10.0 ** log_h
        t_end = n * h
        times = sample_times(t_end, h)
        assert len(times) == n + 1 and times[0] == 0.0 and times[-1] == t_end
        assert n == 0 or times[-2] < t_end
        for off_grid in (math.ceil, math.floor):
            assert whole_steps(t_end, h, off_grid, "%g") == n

    def test_halved_step_agrees_at_shared_times(self):
        g = branch_generator(euler(0.66), 0)
        coarse = sample_trajectory(g, 1.0, 0.0, 2.0, 0.2)
        fine = sample_trajectory(g, 1.0, 0.0, 2.0, 0.1)
        lookup = {round(s.t, 12): s for s in fine.states}
        for s in coarse.states:
            mate = lookup[round(s.t, 12)]
            assert abs(s.q - mate.q) <= 1e-12
            assert abs(s.p - mate.p) <= 1e-12

    def test_arc_passes_through_first_discrete_point(self):
        g = branch_generator(euler(0.66), 0)
        traj = sample_trajectory(g, 1.0, 0.0, 1.05 * 0.66, 0.66)
        ref = discrete_orbit(euler(0.66), 1.0, 0.0, 1).states[1]
        assert state_deviation(traj.states[1], ref) <= 1e-12

    def test_energy_constant_along_samples(self):
        g = branch_generator(euler(0.66), 1)
        h = hamiltonian_from_generator(g)
        traj = sample_trajectory(g, 1.0, 0.0, 6.6, 0.05)
        h0 = h.evaluate(1.0, 0.0)
        for s in traj.states:
            assert abs(h.evaluate(s.q, s.p) - h0) <= 1e-9 * abs(h0)

    def test_monotone_times_required(self):
        with pytest.raises(ValueError):
            SampleTimes(1.0, 1, 0.0)  # 0.0, 0.0

    def test_length_and_items_read_the_times_only(self):
        def unsampled(times):
            raise AssertionError("sampled")

        traj = Trajectory(TrajectorySource("x", 1.0), sample_times(2000.0, 0.01), unsampled)
        assert len(traj.states) == 200_001
        assert traj.times[-1] == 2000.0
        assert traj.times[3] == 3 * 0.01

    def test_leaving_double_range_names_the_first_t(self):
        g = branch_generator(make("velocity-verlet", 3.0), 0)
        with pytest.raises(OutOfRange, match=r"flow<i-c> m=0 leaves double range at t = 1113$"):
            list(sample_trajectory(g, 1.0, 0.0, 1500.0, 7.0).states)
        # Euler's flows are sampled the same way and name their case alike
        g = branch_generator(euler(3.0), 0)
        with pytest.raises(OutOfRange, match=r"flow<i-c> m=0 leaves double range at t = 1113$"):
            list(sample_trajectory(g, 1.0, 0.0, 1500.0, 7.0).states)


class TestRotationSense:
    def test_branches_at_066(self):
        assert rotation_sense(euler_hamiltonian(0.66, 0)) == "clockwise"
        assert rotation_sense(euler_hamiltonian(0.66, 1)) == "clockwise"
        assert rotation_sense(euler_hamiltonian(0.66, -1)) == "counter-clockwise"

    def test_undefined_beyond_critical(self):
        assert rotation_sense(euler_hamiltonian(3.0, 0)) is None


class TestPeriod:
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_matches_rate_law(self, m):
        tau = 0.66
        g = branch_generator(euler(tau), m)
        measured = measure_period(g, 1.0, 0.0, dt=0.001 * tau)
        want = 2.0 * math.pi * tau / euler_rate(tau, m).real
        assert measured == pytest.approx(want, abs=1e-6)

    def test_needs_bounded_case(self):
        with pytest.raises(NotApplicable):
            measure_period(branch_generator(euler(3.0), 0), 1.0, 0.0, dt=0.01)

    def test_origin_rejected(self):
        with pytest.raises(NotApplicable):
            measure_period(branch_generator(euler(0.66), 0), 0.0, 0.0, dt=0.01)


class TestOutput:
    def test_csv_schema_and_roundtrip(self, tmp_path):
        g = branch_generator(euler(0.66), 0)
        h = hamiltonian_from_generator(g)
        traj = sample_trajectory(g, 1.0, 0.0, 1.0, 0.25)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, traj, h)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "t,q_re,q_im,p_re,p_im,H_re,H_im"
        assert len(lines) == 1 + len(traj.states)
        for line in lines[1:]:
            t, q_re, q_im, p_re, p_im, h_re, h_im = map(float, line.split(","))
            again = h.evaluate(complex(q_re, q_im), complex(p_re, p_im))
            assert abs(again.real - h_re) <= 1e-12
            assert abs(again.imag - h_im) <= 1e-12

    def test_json_mirror_embeds_source(self):
        g = branch_generator(euler(0.66), 1)
        h = hamiltonian_from_generator(g)
        traj = sample_trajectory(g, 1.0, 0.0, 0.5, 0.25)
        payload = trajectory_to_json(traj, h)
        assert payload["source"]["m"] == 1
        assert payload["source"]["tau"] == 0.66
        assert payload["source"]["hamiltonian"]["case"] == "i-a"
        assert json.dumps(payload)  # serializable
        assert {"t", "q", "p", "H"} <= set(payload["states"][0].keys())

    def test_discrete_companion_reports_oscillator_energy(self, tmp_path):
        orbit = discrete_orbit(euler(0.66), 1.0, 0.0, 2)
        path = tmp_path / "discrete.csv"
        write_trajectory_csv(path, orbit, None)
        first = path.read_text().strip().split("\n")[1].split(",")
        assert float(first[5]) == pytest.approx(0.5)  # (q**2 + p**2)/2 at (1, 0)


class TestUniqueCaseFlow:
    def test_linear_interpolation_of_defective_map(self):
        r = double_euler(4.0)
        g = generators_for(r, [0]).generators[0]
        orbit = discrete_orbit(r, 0.3, -1.1, 10)
        for ref in orbit.states:
            got = continuous_state(g, 0.3, -1.1, ref.t)
            assert state_deviation(got, ref) <= 1e-8


entries = st.builds(complex, st.floats(-4.0, 4.0), st.floats(-4.0, 4.0))


def _built_in_generator(case):
    name, tau, m = case
    return branch_generator(make(name, tau), m)


# generic traceless matrices (signed zeros included) plus the built-in
# branches, the nilpotent iii-a generator and the zero generator of R = I,
# which take the delta = 0 side of closed_exp
generators = st.one_of(
    st.builds(lambda a, b, c, tau: Generator(Mat2C(a, b, c, -a), 0, tau, CaseTag.IA),
              entries, entries, entries, st.floats(1e-3, 10.0)),
    st.sampled_from([("euler", 0.66, -2), ("euler", 3.0, 1), ("velocity-verlet", 1.5, 3),
                     ("double-euler", 4.8, -1), ("vp", 5.0, 0)]).map(_built_in_generator),
    st.just(generators_for(double_euler(4.0), [0]).generators[0]),
    st.just(generators_for(custom(1.0, 0.0, 0.0, 1.0, 1.0), [0]).generators[0]),
)


def _rounding_bound(want: Mat2C, s_z: float) -> float:
    """512 eps max(1, |exp(sZ)|) max(1, s|Z|) for s_z = s|Z|, |.| the largest entry modulus.

    Mostly series_exp's own rounding: over 40,000 draws of these generators
    it reached 234 eps of this scale, while closed_exp stayed within 4.3 eps
    of a 50-digit mpmath expm.
    """
    return 512.0 * sys.float_info.epsilon * max(1.0, want.max_abs()) * max(1.0, s_z)


def _assert_propagator_near_series(g, t):
    s = t / g.tau
    want = series_exp(g.matrix.scaled(s))
    assert max_diff(flow_matrix(g, t), want) <= _rounding_bound(want, s * g.matrix.max_abs())


class TestEvaluatorIsClosedExp:
    """The per-trajectory propagator, closed_exp(Z, t/tau), is the exponential
    to rounding, held to the series oracle, and every sample is that
    propagator applied to the start, bit for bit."""

    @settings(max_examples=300)
    @given(generators, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(0.0, 20.0))
    def test_propagator_is_closed_exp_to_rounding(self, g, q0, p0, periods):
        t = periods * g.tau
        _assert_propagator_near_series(g, t)
        got = continuous_state(g, q0, p0, t)
        want = flow_matrix(g, t).apply(q0, p0)
        assert repr((got.q, got.p)) == repr(want)  # signed zeros too

    @settings(max_examples=100)
    @given(generators, st.floats(-1.0, 1.0).filter(bool), st.floats(0.0, 20.0))
    def test_shifted_diagonal_is_closed_exp_to_rounding(self, g, eps, periods):
        # verify's --perturb negative control: a nonzero half-trace mu, whose
        # factor exp(s mu) the propagator must still carry
        z = g.matrix
        shifted = Generator(Mat2C(z.e11 + eps, z.e12, z.e21, z.e22), g.branch, g.tau, g.case)
        _assert_propagator_near_series(shifted, periods * g.tau)
        traj = sample_trajectory(shifted, 0.3, -1.1, 5.0 * g.tau, 0.35 * g.tau)
        assert tuple(traj.states) == tuple(continuous_state(shifted, 0.3, -1.1, s.t)
                                           for s in traj.states)

    @pytest.mark.parametrize("case", [("velocity-verlet", 0.66, 1), ("velocity-verlet", 3.0, -1),
                                      ("double-euler", 4.8, 0)])
    def test_trajectory_repeats_single_states(self, case):
        g = _built_in_generator(case)
        traj = sample_trajectory(g, 0.3, -1.1, 5.0, 0.07)
        assert tuple(traj.states) == tuple(continuous_state(g, 0.3, -1.1, s.t)
                                           for s in traj.states)

    @pytest.mark.parametrize("tau, m", [(0.66, -1), (0.66, 2), (3.0, 0), (3.0, -2)])
    def test_euler_trajectory_repeats_single_states(self, tau, m):
        """Euler's branch-m samples are euler_closed_form's propagator to
        rounding: its columns are the closed form from (1, 0) and from (0, 1),
        whose branch is m for tau < 2 and -m-1 for tau > 2."""
        g = branch_generator(euler(tau), m)
        traj = sample_trajectory(g, 0.3, -1.1, 5.0, 0.07)
        assert traj.source == TrajectorySource(f"flow<{g.case}>", tau, g.case, m)
        columns = [sample_trajectory(g, q0, p0, 5.0, 0.07) for q0, p0 in ((1, 0), (0, 1))]
        closed = m if tau < 2.0 else -m - 1
        root = math.sqrt(abs(4.0 - tau * tau))
        z_norm = abs(euler_rate(tau, closed)) * max(2.0, tau) / root  # |Z| of the generator
        for state, first, second in zip(traj.states, *columns):
            a, b = (euler_closed_form(tau, closed, q0, p0, state.t)
                    for q0, p0 in ((1, 0), (0, 1)))
            exact = Mat2C(a.q, b.q, a.p, b.p)
            got = Mat2C(first.q, second.q, first.p, second.p)
            assert max_diff(got, exact) <= _rounding_bound(exact, state.t / tau * z_norm)
            assert (state.q, state.p) == got.apply(0.3, -1.1)


def _parent_csv(trajectory, h):
    """The CSV bytes as the writer made them while trajectories held their
    states: every line joined, then written at once."""
    lines = [CSV_HEADER]
    for s in trajectory.states:
        e = (s.q * s.q + s.p * s.p) / 2.0 if h is None else h.evaluate(s.q, s.p)
        lines.append(",".join(["%.17g"] * 7) % (s.t, s.q.real, s.q.imag, s.p.real, s.p.imag,
                                                 e.real, e.imag))
    return ("\n".join(lines) + "\n").encode()


def _euler_case(tau, m, q0, p0, t_end, dt):
    """Euler's branch-m flow and Hamiltonian, with its rate, as ``flow`` writes them."""
    r = euler(tau)
    g = branch_generator(r, m)
    return (sample_trajectory(g, q0, p0, t_end, dt),
            hamiltonian_from_generator(g, cli._rate(r, g)))


def _generic_case(g, q0, p0, t_end, dt):
    return sample_trajectory(g, q0, p0, t_end, dt), hamiltonian_from_generator(g)


def _discrete_case(name, tau, q0, p0, t_end):
    return discrete_orbit(make(name, tau), q0, p0, int(t_end / tau)), None


starts = st.one_of(st.just(-0.0), st.just(0.0), st.floats(-2.0, 2.0))
trajectories = st.one_of(
    st.builds(_generic_case, generators, starts, starts, st.floats(0.0, 10.0),
              st.floats(0.05, 1.0)),
    st.builds(_euler_case, st.sampled_from([0.66, 1.9, 2.1, 3.0]), st.integers(-2, 2),
              starts, starts, st.floats(0.0, 10.0), st.floats(0.05, 1.0)),
    st.builds(_discrete_case, st.sampled_from(["euler", "velocity-verlet", "vp"]),
              st.sampled_from([0.66, 3.0]), starts, starts, st.floats(0.0, 20.0)),
)


def _non_finite_cases():
    """vv at tau = 3 to t = 600: finite states whose energies overflow to NaN;
    Euler from q0 = 1e160: real energies that overflow to Infinity alone."""
    r = make("velocity-verlet", 3.0)
    g = branch_generator(r, 0)
    return [(sample_trajectory(g, 1.0, 0.0, 600.0, 7.0), hamiltonian_from_generator(g)),
            (discrete_orbit(r, 1.0, 0.0, 200), None),
            _euler_case(0.66, 0, 1e160, 0.0, 2.0, 0.5)]


class TestStreamingWriters:
    """The streaming writers produce the bytes of the whole-file forms."""

    @staticmethod
    def _check(write, reference, directory, traj, h):
        """The writer's bytes equal the reference's; a flow that leaves double
        range raises in both and leaves no file."""
        path = directory / "t"
        try:
            want = reference(traj, h)
        except OutOfRange:
            with pytest.raises(OutOfRange):
                write(path, traj, h)
            assert list(directory.iterdir()) == []
            return
        write(path, traj, h)
        assert path.read_bytes() == want

    @settings(max_examples=150, deadline=None)
    @given(trajectories)
    def test_json_bytes_equal_json_dumps(self, tmp_path_factory, case):
        self._check(write_trajectory_json,
                    lambda traj, h: (json.dumps(trajectory_to_json(traj, h), indent=2)
                                     + "\n").encode(),
                    tmp_path_factory.mktemp("json"), *case)

    @settings(max_examples=150, deadline=None)
    @given(trajectories)
    def test_csv_bytes_equal_joined_lines(self, tmp_path_factory, case):
        self._check(write_trajectory_csv, _parent_csv, tmp_path_factory.mktemp("csv"), *case)

    def test_non_finite_values(self, tmp_path):
        rows_with = set()
        for traj, h in _non_finite_cases():
            write_trajectory_json(tmp_path / "t.json", traj, h)
            text = (tmp_path / "t.json").read_text()
            assert text == json.dumps(trajectory_to_json(traj, h), indent=2) + "\n"
            for state in json.loads(text)["states"]:
                values = [v for part in ("q", "p", "H") for v in state[part].values()]
                rows_with.add(frozenset("nan" if math.isnan(v) else "inf"
                                        for v in values if not math.isfinite(v)))
            write_trajectory_csv(tmp_path / "t.csv", traj, h)
            assert (tmp_path / "t.csv").read_bytes() == _parent_csv(traj, h)
        assert {frozenset({"inf"}), frozenset({"inf", "nan"})} <= rows_with

    def test_failed_write_leaves_no_file(self, tmp_path):
        g = branch_generator(make("velocity-verlet", 3.0), 0)
        traj = sample_trajectory(g, 1.0, 0.0, 1500.0, 7.0)
        for write, name in ((write_trajectory_csv, "t.csv"), (write_trajectory_json, "t.json")):
            with pytest.raises(OutOfRange):
                write(tmp_path / name, traj, hamiltonian_from_generator(g))
        assert list(tmp_path.iterdir()) == []


def _split_cases():
    """(label, trajectory, Hamiltonian) of 101 rows for i-a, i-c, Euler, the
    scalar ii(+) and ii(-) maps and the nilpotent iii-a map (delta = 0)."""
    cases = [("euler", *_euler_case(0.66, 1, 0.3, -1.1, 5.0, 0.05))]
    maps = [("i-a", make("velocity-verlet", 0.66), None),
            ("i-c", make("velocity-verlet", 3.0), None),
            ("ii(+)", custom(1.0, 0.0, 0.0, 1.0, 1.0), CaseIIParams.real_rotation()),
            ("ii(-)", custom(-1.0, 0.0, 0.0, -1.0, 1.0), CaseIIParams.hyperbolic()),
            ("iii-a", custom(1.0, 1.0, 0.0, 1.0, 1.0), None)]
    for label, r, params in maps:
        for g in generators_for(r, range(-1, 2), params).generators:
            cases.append((f"{label} m={g.branch}",
                          *_generic_case(g, -0.5, 1.0, 5.0, 0.05)))
    return cases


def _flow_call(directory, k_flags=()):
    """vv at tau = 3 leaves double range at t = 1113, sample 159 of 216."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["flow", "--integrator", "velocity-verlet", "--tau", "3",
                     "--m-min", "0", "--m-max", "0", *k_flags,
                     "--out", str(directory)])
    return code, out.getvalue(), err.getvalue(), sorted(p.name for p in directory.iterdir())


# sweep grids of 501 points whose first failing point lies after the child's
# first chunk: Euler's entries overflow from k = 301 (tau = 1.3408e154), and
# velocity-verlet's det from k = 319 (tau = 1.638e77), whose error pickles
# through its own constructor arguments, not through its message
LATER_RANGE_FAILURES = [
    (["--integrator", "euler", "--grid=1.1e154:1.5e154:8e150"], 2,
     "error: euler: entries and tau must be finite, got r = (-inf, 1.3408e+154, "
     "-1.3408e+154, 1.0), tau = 1.3408e+154\n"),
    (["--integrator", "velocity-verlet", "--grid=1e77:2e77:2e74"], 2,
     "error: velocity-verlet: determinant differs from 1 by nan\n"),
]


def _sweep_call(directory, flags, out=False):
    """(exit code, stdout, stderr, the directory's files) of one ``sweep``,
    with ``--out directory/table`` when ``out`` is set."""
    directory.mkdir(exist_ok=True)
    argv = ["sweep", *flags] + (["--out", str(directory / "table")] if out else [])
    stdout, err = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(err):
        code = main(argv)
    files = {p.name: p.read_bytes() for p in sorted(directory.iterdir())}
    return code, stdout.getvalue(), err.getvalue(), files


def _flow_files(directory, flags):
    """(exit code, stdout, stderr, {file name: bytes}) of one ``flow --out
    directory``, the directory written <out> in stdout."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["flow", *flags, "--out", str(directory)])
    files = {p.name: p.read_bytes() for p in sorted(directory.iterdir())}
    return code, out.getvalue().replace(str(directory), "<out>"), err.getvalue(), files


# Three branch files of 101 rows each, after an 8-row discrete orbit.  Split,
# one chunk holds all 303 rows; of two or seven chunks, one straddles each
# file boundary; 255 chunks hold one or two rows each.
THREE_BRANCHES = ["--tau", "0.66", "--t-end", "5", "--dt", "0.05"]


# (processes, chunks) of the split writes compared with one pass
SPLITS = [(2, 1), (2, 2), (2, 7), (2, 255)]


class TestSplitWriter:
    """A table whose chunks two processes claim has the bytes of a single pass."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_bytes_equal_across_range_counts(self, tmp_path, split_into, child_claims_first,
                                             fmt):
        write = write_trajectory_csv if fmt == "csv" else write_trajectory_json
        for label, traj, h in _split_cases():
            files = {}
            for k, c in [(1, 255), *SPLITS]:
                split_into(k, c)
                assert tables.splits(len(traj), flow._fewest_rows(traj)) == (k > 1)
                directory = tmp_path / f"{label}-{k}-{c}"
                directory.mkdir()
                write(directory / f"t.{fmt}", traj, h)
                assert [p.name for p in directory.iterdir()] == [f"t.{fmt}"]
                files[k, c] = (directory / f"t.{fmt}").read_bytes()
                no_child_left()
            assert set(files.values()) == {files[1, 255]}, label

    @pytest.mark.parametrize("out", [False, True], ids=["stdout", "out"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_sweep_bytes_equal_across_range_counts(self, tmp_path, split_into,
                                                   child_claims_first, fmt, out):
        # i-a and i-c points, a iii-a point, and gaps that overflow to inf
        grids = [("vp", "--grid=2.2:2.8:0.05"), ("double-euler", "--grid=3.9:4.05:0.05"),
                 ("vp", "--grid=1.5e26:1.7e26:2e24")]
        for integrator, grid in grids:
            flags = ["--integrator", integrator, grid, "--format", fmt]
            calls = {}
            for k, c in [(1, 255), *SPLITS]:
                split_into(k, c)
                calls[k, c] = _sweep_call(tmp_path / f"{integrator}{grid}-{k}-{c}", flags, out)
                no_child_left()
            single = calls[1, 255]
            assert single[0] == 0 and single[2] == ""
            assert all(call == single for call in calls.values()), grid
            text = single[3]["table"].decode() if out else single[1]
            assert single[1] == ("" if out else text)
            if fmt == "json":
                assert (json.dumps(json.loads(text), indent=2) + "\n") == text
        assert ("Infinity" if fmt == "json" else ",inf,") in text

    def test_discrete_orbit_is_one_range(self, split_into):
        split_into(2)
        orbit = discrete_orbit(euler(0.66), 1.0, 0.0, 100)
        assert not tables.splits(len(orbit), flow._fewest_rows(orbit))
        with pytest.raises(ValueError, match="closed-form"):
            orbit.rows(50, 101)

    def test_short_file_and_one_cpu_are_one_range(self, monkeypatch):
        def rows(n):
            return _euler_case(0.66, 0, 1.0, 0.0, (n - 1) * 0.5, 0.5)[0]

        least = 2 * flow._MIN_RANGE_ROWS
        monkeypatch.setattr(tables, "_usable_cpus", lambda: 2)
        for n, split in ((least, True), (least - 1, False)):
            assert tables.splits(len(rows(n)), flow._fewest_rows(rows(n))) == split
        # a sweep grid: the bench's 500-point windows split, 399 points do not
        assert tables.splits(500, cli._MIN_SWEEP_POINTS)
        assert not tables.splits(2 * cli._MIN_SWEEP_POINTS - 1, cli._MIN_SWEEP_POINTS)
        monkeypatch.setattr(tables, "_usable_cpus", lambda: 1)
        assert not tables.splits(least + 1, flow._MIN_RANGE_ROWS)
        assert not tables.splits(500, cli._MIN_SWEEP_POINTS)

    def test_many_cpus_give_two_ranges(self, monkeypatch):
        # only two processes were measured, and the affinity mask that counts
        # the CPUs ignores a cgroup CPU quota
        monkeypatch.setattr(tables, "_usable_cpus", lambda: 64)
        n = 64 * flow._MIN_RANGE_ROWS
        assert tables.splits(n, flow._MIN_RANGE_ROWS)
        # chunks cover the rows in order, at most 255 of them
        for n, least in ((n, flow._MIN_RANGE_ROWS), (500, cli._MIN_SWEEP_POINTS), (7, 1),
                         (3000, flow._MIN_RANGE_ROWS)):
            ranges = tables._chunk_ranges(n, least)
            assert 1 <= len(ranges) <= 255 and ranges[0][0] == 0 and ranges[-1][1] == n
            assert all(a[1] == b[0] and a[0] < a[1] for a, b in zip(ranges, ranges[1:]))
            assert min(stop - start for start, stop in ranges) >= min(n, least // 8)

    def test_many_cpus_fork_one_child_per_job(self, tmp_path, split_into, monkeypatch):
        # a split flow call, sweep and verify suite each fork one child,
        # whatever the number of usable CPUs
        forks, fork = [], os.fork

        def counted_fork():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted_fork)
        split_into(64)
        flow_call = ["--integrator", "velocity-verlet", *THREE_BRANCHES]
        assert _flow_files(tmp_path / "flow", flow_call)[0] == 0
        assert len(forks) == 1
        no_child_left()
        for out in (False, True):
            sweep = ["--integrator", "vp", "--grid=0.5:1.5:0.1"]
            assert _sweep_call(tmp_path / f"sweep-{out}", sweep, out)[0] == 0
            no_child_left()
        assert len(forks) == 3
        assert all(report.passed for report in full_suite(trials=2))
        assert len(forks) == 4
        no_child_left()

    def test_ignored_sigchld_is_one_range(self, tmp_path, split_into):
        # the system reaps the children of a process that ignores SIGCHLD,
        # so waitpid could not read their exit
        self._check_one_range(tmp_path, split_into, self._ignoring_sigchld)

    @staticmethod
    def _ignoring_sigchld(write):
        previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            write()
        finally:
            signal.signal(signal.SIGCHLD, previous)

    def test_a_second_thread_is_one_range(self, tmp_path, split_into):
        # a forked child gets only the forking thread, and could inherit a
        # lock that the other one holds
        self._check_one_range(tmp_path, split_into, self._beside_a_thread)

    @staticmethod
    def _beside_a_thread(write):
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(30,))
        thread.start()
        try:
            write()
        finally:
            release.set()
            thread.join(30)
        assert not thread.is_alive()

    @staticmethod
    def _check_one_range(tmp_path, split_into, around):
        """A flow file, a sweep and a verify suite run inside ``around`` are
        one process each, with the output of a split run and no child."""
        traj, h = _euler_case(0.66, 0, 1.0, 0.0, 5.0, 0.05)
        sweep = ["--integrator", "vp", "--grid=0.5:1.5:0.1"]
        split_into(2)
        assert tables.splits(len(traj), 1)
        write_trajectory_csv(tmp_path / "split", traj, h)
        split = _sweep_call(tmp_path / "sweep-split", sweep)
        suite = full_suite(trials=2)
        forks, fork = [], os.fork

        def counted_fork():
            forks.append(os.getpid())
            return fork()

        def write():
            assert not tables.splits(len(traj), 1)
            write_trajectory_csv(tmp_path / "t", traj, h)
            assert _sweep_call(tmp_path / "sweep", sweep) == split
            assert full_suite(trials=2) == suite

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(os, "fork", counted_fork)
            around(write)
        assert forks == []
        assert (tmp_path / "t").read_bytes() == (tmp_path / "split").read_bytes()
        no_child_left()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("t_end", [
        "7000",  # 1,001 rows: t = 1113 is row 159
        "1500",  # 216 rows: t = 1113 is row 159 of 216, near the end
    ])
    def test_leaving_double_range_reads_as_single_pass(self, tmp_path, split_into,
                                                       child_claims_first, t_end, fmt):
        flags = ("--t-end", t_end, "--dt", "7", "--format", fmt)
        split_into(1)
        single = _flow_call(tmp_path / "single", flags)
        assert single[0] == 1
        assert single[2] == "error: flow<i-c> m=0 leaves double range at t = 1113\n"
        assert single[3] == [f"discrete.{fmt}"]
        for k, c in SPLITS:
            split_into(k, c)
            assert _flow_call(tmp_path / f"split-{k}-{c}", flags) == single
            no_child_left()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("flags, code, message", LATER_RANGE_FAILURES,
                             ids=["euler", "velocity-verlet"])
    def test_sweep_failing_in_a_later_range_reads_as_single_pass(self, tmp_path, split_into,
                                                                 child_claims_first,
                                                                 flags, code, message, fmt):
        flags = [*flags, "--format", fmt]
        split_into(1)
        single = _sweep_call(tmp_path / "single", flags)
        assert single == (code, "", message, {})
        assert _sweep_call(tmp_path / "single-out", flags, out=True) == single
        for k, c in SPLITS:
            split_into(k, c)
            assert _sweep_call(tmp_path / f"split-{k}-{c}", flags) == single
            # no target and no part file; an existing target keeps its bytes
            assert _sweep_call(tmp_path / f"out-{k}-{c}", flags, out=True) == single
            (tmp_path / f"out-{k}-{c}" / "table").write_bytes(b"kept\n")
            assert _sweep_call(tmp_path / f"out-{k}-{c}", flags, out=True) == (
                code, "", message, {"table": b"kept\n"})
            no_child_left()

    @pytest.mark.parametrize("grid", ["--grid=0.5:1.5:0.1", "--grid=0.4:1.5:0.1"],
                             ids=["child-lower", "parent-lower"])
    def test_lowest_failing_chunk_wins(self, tmp_path, split_into, child_claims_first,
                                       monkeypatch, grid):
        # one point per chunk, the child's first; tau = 0.5 fails slowly and
        # 0.6 at once.  From 0.5 the child fails at 0.5 while this process
        # fails at 0.6; from 0.4 the child sleeps at 0.4, so this process
        # fails at 0.5 while the child fails at 0.6.  The lower error wins.
        parent, row = os.getpid(), cli._sweep_row

        def failing(integrator, tau, branches, params):
            point = round(tau, 9)
            if point == 0.4 and os.getpid() != parent:
                time.sleep(0.1)
            if point == 0.5:
                time.sleep(0.3)
                raise OutOfRange("point 0.5")
            if point == 0.6:
                raise OutOfRange("point 0.6")
            return row(integrator, tau, branches, params)

        monkeypatch.setattr(cli, "_sweep_row", failing)
        split_into(1)
        single = _sweep_call(tmp_path / "single", ["--integrator", "vp", grid])
        assert single == (1, "", "error: point 0.5\n", {})
        split_into(2)
        assert _sweep_call(tmp_path / "split", ["--integrator", "vp", grid]) == single
        no_child_left()

    def test_child_error_is_raised_with_no_file_left(self, tmp_path, split_into,
                                                     child_claims_first, monkeypatch):
        parent, values = os.getpid(), flow._values

        def failing_in_child(rows, h):
            if os.getpid() != parent:
                raise RuntimeError("disk on fire")
            yield from values(rows, h)

        monkeypatch.setattr(flow, "_values", failing_in_child)
        traj, h = _euler_case(0.66, 0, 1.0, 0.0, 5.0, 0.05)
        for k, c in SPLITS:
            split_into(k, c)
            for write in (write_trajectory_csv, write_trajectory_json):
                with pytest.raises(RuntimeError, match="^disk on fire$"):
                    write(tmp_path / "t", traj, h)
                assert list(tmp_path.iterdir()) == []
                no_child_left()

    def test_child_that_exits_without_a_word_fails_the_write(self, tmp_path, split_into,
                                                             child_claims_first, monkeypatch):
        parent, values = os.getpid(), flow._values

        def vanishing_in_child(rows, h):
            if os.getpid() != parent:
                os._exit(3)
            yield from values(rows, h)

        monkeypatch.setattr(flow, "_values", vanishing_in_child)
        split_into(2)
        with pytest.raises(ChildProcessError, match=r"exit status 3\)$"):
            write_trajectory_csv(tmp_path / "t", *_euler_case(0.66, 0, 1.0, 0.0, 5.0, 0.05))
        assert list(tmp_path.iterdir()) == []
        no_child_left()

    def test_interrupt_kills_live_children(self, tmp_path, split_into, child_claims_first,
                                           monkeypatch):
        parent, values = os.getpid(), flow._values

        def stalling(rows, h):
            if os.getpid() != parent:
                time.sleep(60)
                os._exit(0)
            raise KeyboardInterrupt
            yield from values(rows, h)

        monkeypatch.setattr(flow, "_values", stalling)
        split_into(2)
        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            write_trajectory_json(tmp_path / "t", *_euler_case(0.66, 0, 1.0, 0.0, 5.0, 0.05))
        assert time.perf_counter() - start < 30
        assert list(tmp_path.iterdir()) == []
        no_child_left()

    def test_interrupt_just_after_a_fork_kills_that_child(self, tmp_path, split_into,
                                                          monkeypatch):
        # SIGINT reaches the parent as soon as fork returns, before the child
        # is recorded; it must still be killed and reaped
        parent, values, fork = os.getpid(), flow._values, os.fork

        def stalling(rows, h):
            if os.getpid() != parent:
                time.sleep(60)
                os._exit(0)
            yield from values(rows, h)

        def interrupted_fork():
            pid = fork()
            if pid:
                os.kill(parent, signal.SIGINT)
            return pid

        monkeypatch.setattr(flow, "_values", stalling)
        monkeypatch.setattr(os, "fork", interrupted_fork)
        split_into(2)
        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            write_trajectory_csv(tmp_path / "t", *_euler_case(0.66, 0, 1.0, 0.0, 5.0, 0.05))
        assert time.perf_counter() - start < 30
        assert list(tmp_path.iterdir()) == []
        no_child_left()
        # the caller's signal mask and CPU affinity are restored
        assert signal.SIGINT not in signal.pthread_sigmask(signal.SIG_BLOCK, ())
        assert os.sched_getaffinity(0) == AFFINITY

    @pytest.mark.parametrize("out", [False, True], ids=["stdout", "out"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("failure", ["raises", "exits", "interrupt"])
    def test_sweep_child_failure_or_interrupt_leaves_nothing(self, tmp_path, split_into,
                                                            child_claims_first, monkeypatch,
                                                            failure, fmt, out):
        parent, row = os.getpid(), cli._sweep_row

        def failing(*args):
            if os.getpid() != parent:
                if failure == "raises":
                    raise OutOfRange("disk on fire")
                if failure == "interrupt":
                    time.sleep(60)
                os._exit(3)
            if failure == "interrupt":
                raise KeyboardInterrupt
            return row(*args)

        monkeypatch.setattr(cli, "_sweep_row", failing)
        flags = ["--integrator", "vp", "--grid=0.5:1.5:0.1", "--format", fmt]
        split_into(2)
        start = time.perf_counter()
        if failure == "interrupt":
            with pytest.raises(KeyboardInterrupt), redirect_stdout(io.StringIO()) as stdout:
                main(["sweep", *flags, *(["--out", str(tmp_path / "table")] if out else [])])
            assert stdout.getvalue() == ""
            assert time.perf_counter() - start < 30
            assert list(tmp_path.iterdir()) == []
        else:
            message = ("error: disk on fire\n" if failure == "raises" else
                       "error: a forked worker sent no report (exit status 3)\n")
            assert _sweep_call(tmp_path, flags, out) == (1, "", message, {})
        no_child_left()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_flow_call_is_one_job_with_single_pass_bytes(self, tmp_path, split_into,
                                                         child_claims_first, monkeypatch, fmt):
        forks, fork = [], os.fork

        def counted_fork():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted_fork)
        for integrator in ("velocity-verlet", "euler"):
            flags = ["--integrator", integrator, *THREE_BRANCHES, "--format", fmt]
            split_into(1)
            single = _flow_files(tmp_path / f"{integrator}-single", flags)
            assert single[0] == 0 and single[2] == "" and forks == []
            assert list(single[3]) == [f"{name}.{fmt}" for name in
                                       ("discrete", "flow_m-1", "flow_m0", "flow_m1")]
            assert single[1] == "".join(f"<out>/{name}\n" for name in single[3])
            for k, c in SPLITS:
                split_into(k, c)
                assert _flow_files(tmp_path / f"{integrator}-{k}-{c}", flags) == single
                assert len(forks) == 1, (k, c)
                forks.clear()
                no_child_left()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_later_branch_failure_reads_as_single_pass(self, tmp_path, split_into,
                                                       child_claims_first, monkeypatch, fmt):
        # the m = 0 branch fails at t = 2.5, its row 50, in whichever process
        # samples it; m = -1 is whole before it and m = 1 is never written
        rows = flow._flow_rows

        def failing_at_m0(z, delta, tau, name, q0, p0, times):
            for row in rows(z, delta, tau, name, q0, p0, times):
                if name.endswith(" m=0") and row[2] >= 2.5:
                    raise OutOfRange(f"{name} fails at t = {row[2]:.17g}")
                yield row

        monkeypatch.setattr(flow, "_flow_rows", failing_at_m0)
        flags = ["--integrator", "velocity-verlet", *THREE_BRANCHES, "--format", fmt]
        split_into(1)
        single = _flow_files(tmp_path / "single", flags)
        assert single[:3] == (1, "", "error: flow<i-a> m=0 fails at t = 2.5\n")
        assert list(single[3]) == [f"discrete.{fmt}", f"flow_m-1.{fmt}"]
        for k, c in SPLITS:
            split_into(k, c)
            directory = tmp_path / f"split-{k}-{c}"
            directory.mkdir()
            (directory / f"flow_m1.{fmt}").write_bytes(b"kept\n")
            # no m = 0 file and no part file; the existing m = 1 file keeps its bytes
            assert _flow_files(directory, flags) == (
                *single[:3], {**single[3], f"flow_m1.{fmt}": b"kept\n"})
            no_child_left()

    @pytest.mark.parametrize("copies", [0, 1], ids=["first-copy", "second-copy"])
    def test_kernel_copy_error_falls_back_to_reading(self, tmp_path, split_into,
                                                     child_claims_first, monkeypatch, copies):
        # os.copy_file_range raising OSError (EXDEV: part file and --out file on
        # two file systems, say) at its first or second call of each file; the
        # rest of that file's spans are read and written
        flags = ["--integrator", "euler", *THREE_BRANCHES]
        split_into(1)
        single = _flow_files(tmp_path / "single", flags)
        calls, copy = [], os.copy_file_range

        def counted(*args):
            calls.append(args)
            return copy(*args)

        monkeypatch.setattr(os, "copy_file_range", counted)
        split_into(2, 7)
        assert _flow_files(tmp_path / "kernel", flags) == single
        assert len(calls) >= 3  # at least one span of each branch file

        def failing(*args):
            calls.append(args)
            if len(calls) > copies:
                raise OSError(errno.EXDEV, os.strerror(errno.EXDEV))
            return copy(*args)

        calls.clear()
        monkeypatch.setattr(os, "copy_file_range", failing)
        assert _flow_files(tmp_path / "fallback", flags) == single
        assert len(calls) == 3 + copies  # each file falls back once
        no_child_left()

    def test_success_leaves_no_child(self, tmp_path, split_into, child_claims_first):
        split_into(2)
        write_trajectory_csv(tmp_path / "t", *_euler_case(0.66, 0, 1.0, 0.0, 5.0, 0.05))
        no_child_left()
        assert os.sched_getaffinity(0) == AFFINITY

    def test_split_jobs_set_no_cpu_affinity(self, tmp_path, split_into, monkeypatch):
        # a split flow call, sweep and verify suite leave every CPU mask to the
        # scheduler: a process pinned for a job stays on that CPU after it
        calls, forks, fork = [], [], os.fork

        def counted_fork():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "sched_setaffinity", lambda *args: calls.append(args))
        monkeypatch.setattr(os, "fork", counted_fork)
        split_into(2)
        flow_call = ["--integrator", "velocity-verlet", *THREE_BRANCHES]
        assert _flow_files(tmp_path / "flow", flow_call)[0] == 0
        sweep = ["--integrator", "vp", "--grid=0.5:1.5:0.1"]
        assert _sweep_call(tmp_path / "sweep", sweep)[0] == 0
        assert all(report.passed for report in full_suite(trials=2))
        assert len(forks) == 3 and calls == []
        assert os.sched_getaffinity(0) == AFFINITY
        no_child_left()

    def test_trajectory_files_run_their_job_at_the_first_commit(self, tmp_path, split_into,
                                                                  monkeypatch):
        # the rows both processes sample, counted as one byte each that they
        # append to one file: none before the first commit, all of them by
        # its end, and none after it, when commits only copy
        counter = tmp_path / "rows"
        counted = os.open(counter, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        values = flow._values

        def counting(rows, h):
            for row in values(rows, h):
                os.write(counted, b".")
                yield row

        monkeypatch.setattr(flow, "_values", counting)
        split_into(2)
        cases = [_euler_case(0.66, m, 1.0, 0.0, 5.0, 0.05) for m in (-1, 0, 1)]
        directory = tmp_path / "files"
        directory.mkdir()
        try:
            with flow.trajectory_files([traj for traj, _ in cases], [h for _, h in cases],
                                       "csv") as commit:
                assert counter.stat().st_size == 0
                for m in (-1, 0, 1):
                    commit(directory / f"flow_m{m}.csv")
                    assert counter.stat().st_size == 3 * 101
        finally:
            os.close(counted)
        no_child_left()
        for m, (traj, h) in zip((-1, 0, 1), cases):
            assert (directory / f"flow_m{m}.csv").read_bytes() == _parent_csv(traj, h)
        assert sorted(p.name for p in directory.iterdir()) == [
            "flow_m-1.csv", "flow_m0.csv", "flow_m1.csv"]
