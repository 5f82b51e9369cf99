import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowosc.algebra import Mat2C, closed_exp, max_diff
from shadowosc.classifier import CaseTag, classify
from shadowosc.errors import CriticalTau, NotApplicable, OutOfRange
from shadowosc.flow import (
    CSV_HEADER,
    PhaseState,
    SampleTimes,
    Trajectory,
    TrajectorySource,
    continuous_state,
    discrete_orbit,
    euler_closed_form,
    euler_trajectory,
    flow_matrix,
    measure_period,
    rotation_sense,
    sample_times,
    sample_trajectory,
    state_deviation,
    trajectory_to_json,
    whole_steps,
    write_trajectory_csv,
    write_trajectory_json,
)
from shadowosc.integrators import custom, double_euler, euler, make
from shadowosc.shadow import (
    Generator,
    euler_hamiltonian,
    euler_rate,
    generator_distinct,
    generator_jordan,
    generator_scalar,
    hamiltonian_from_generator,
)
from shadowosc.verify import series_exp

from conftest import to_numpy


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
        # the Euler closed form is sampled as its generator's flow, so it leaves
        # double range where the generic flow of the same map does
        with pytest.raises(OutOfRange, match=r"euler m=0 leaves double range at t = 1113$"):
            list(euler_trajectory(3.0, 0, 1.0, 0.0, 1500.0, 7.0).states)


class TestRotationSense:
    def test_branches_at_066(self):
        assert rotation_sense(euler_hamiltonian(0.66, 0)) == "clockwise"
        assert rotation_sense(euler_hamiltonian(0.66, 1)) == "clockwise"
        assert rotation_sense(euler_hamiltonian(0.66, -1)) == "counter-clockwise"

    def test_undefined_beyond_critical(self):
        with pytest.raises(NotApplicable):
            rotation_sense(euler_hamiltonian(3.0, 0))


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
        g = generator_jordan(r)
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
    st.just(generator_jordan(double_euler(4.0))),
    st.just(generator_scalar(custom(1.0, 0.0, 0.0, 1.0, 1.0), 0)),
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
        """Euler samples are euler_closed_form's propagator to rounding: its
        columns are the closed form from (1, 0) and from (0, 1)."""
        traj = euler_trajectory(tau, m, 0.3, -1.1, 5.0, 0.07)
        assert traj.source == TrajectorySource("euler", tau, None, m)
        columns = [euler_trajectory(tau, m, q0, p0, 5.0, 0.07) for q0, p0 in ((1, 0), (0, 1))]
        root = math.sqrt(abs(4.0 - tau * tau))
        z_norm = abs(euler_rate(tau, m)) * max(2.0, tau) / root  # |Z| of the Euler generator
        for state, first, second in zip(traj.states, *columns):
            a, b = (euler_closed_form(tau, m, q0, p0, state.t) for q0, p0 in ((1, 0), (0, 1)))
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
    return euler_trajectory(tau, m, q0, p0, t_end, dt), euler_hamiltonian(tau, m)


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
