import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowosc.errors import InvalidTau, NonFinite, NotSymplectic, UnknownIntegrator
from shadowosc.integrators import (
    TransitionMatrix,
    compose,
    custom,
    double_euler,
    euler,
    make,
    position_verlet,
    velocity_verlet,
    vp,
)

from conftest import to_numpy

KICK = lambda h: np.array([[1.0, 0.0], [-h, 1.0]])
DRIFT = lambda h: np.array([[1.0, h], [0.0, 1.0]])

taus = st.floats(min_value=0.01, max_value=5.0, allow_nan=False)
# triple products at tau up to 2.5 stay at entry scales where float64
# can still resolve det = 1 to 1e-12
compose_taus = st.floats(min_value=0.01, max_value=2.5, allow_nan=False)


class TestEuler:
    def test_tau_1(self):
        r = euler(1.0)
        assert (r.r1, r.r2, r.r3, r.r4) == (0.0, 1.0, -1.0, 1.0)

    def test_tau_2(self):
        r = euler(2.0)
        assert (r.r1, r.r2, r.r3, r.r4) == (-3.0, 2.0, -2.0, 1.0)

    def test_tau_066(self):
        r = euler(0.66)
        np.testing.assert_allclose(
            to_numpy(r), [[0.5644, 0.66], [-0.66, 1.0]], atol=1e-12)

    def test_is_kick_then_drift(self):
        want = DRIFT(0.8) @ KICK(0.8)
        np.testing.assert_allclose(to_numpy(euler(0.8)), want, atol=1e-15)

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(InvalidTau):
            euler(0.0)
        with pytest.raises(InvalidTau):
            euler(-1.0)


class TestVerlet:
    @pytest.mark.parametrize("tau", [0.25, 0.7, 1.0, 1.7, 2.0, 3.3])
    def test_equal_corners(self, tau):
        for build in (velocity_verlet, position_verlet):
            r = build(tau)
            assert r.r1 == r.r4 == 1.0 - tau * tau / 2.0

    def test_velocity_is_kick_drift_kick(self):
        tau = 1.3
        want = KICK(tau / 2) @ DRIFT(tau) @ KICK(tau / 2)
        np.testing.assert_allclose(to_numpy(velocity_verlet(tau)), want, atol=1e-14)

    def test_position_is_drift_kick_drift(self):
        tau = 1.3
        want = DRIFT(tau / 2) @ KICK(tau) @ DRIFT(tau / 2)
        np.testing.assert_allclose(to_numpy(position_verlet(tau)), want, atol=1e-14)

    def test_velocity_tau_1(self):
        np.testing.assert_allclose(
            to_numpy(velocity_verlet(1.0)), [[0.5, 1.0], [-0.75, 0.5]], atol=1e-15)

    def test_position_tau_1(self):
        np.testing.assert_allclose(
            to_numpy(position_verlet(1.0)), [[0.5, 0.75], [-1.0, 0.5]], atol=1e-15)

    def test_determinant_at_17(self):
        assert position_verlet(1.7).det() == pytest.approx(1.0, abs=1e-13)

    def test_small_tau_near_identity(self):
        np.testing.assert_allclose(to_numpy(velocity_verlet(1e-8)), np.eye(2),
                                   atol=2e-8)


class TestCompose:
    def test_double_euler_step_squares(self):
        # [[-3, 2], [-2, 1]] squared by hand
        r = compose(euler(2.0), euler(2.0))
        assert (r.r1, r.r2, r.r3, r.r4) == (5.0, -4.0, 4.0, -3.0)
        assert r.tau == 4.0
        assert r.label == "euler*euler"

    def test_near_identity_factor(self):
        a = euler(1.0)
        tiny = euler(1e-9)
        np.testing.assert_allclose(to_numpy(compose(a, tiny)), to_numpy(a),
                                   atol=1e-8)

    def test_unit_determinant_of_mixed_product(self):
        r = compose(euler(0.9), velocity_verlet(0.4))
        assert r.det() == pytest.approx(1.0, abs=1e-14)
        assert r.tau == pytest.approx(1.3)

    @settings(max_examples=100)
    @given(compose_taus, compose_taus, compose_taus)
    def test_associative(self, t1, t2, t3):
        a, b, c = euler(t1), velocity_verlet(t2), position_verlet(t3)
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        np.testing.assert_allclose(to_numpy(left), to_numpy(right), atol=1e-12)

    def test_registry_names(self):
        assert make("double-euler", 1.0).label == "double-euler"
        assert make("vp", 1.0).label == "vp"
        assert double_euler(3.0).tau == 3.0
        assert vp(3.0).tau == 3.0
        with pytest.raises(UnknownIntegrator):
            make("rk4", 1.0)


class TestCustom:
    def test_identity_accepted(self):
        r = custom(1.0, 0.0, 0.0, 1.0, 1.0)
        assert to_numpy(r).tolist() == np.eye(2).tolist()

    def test_jordan_input_accepted(self):
        r = custom(1.0, 1.0, 0.0, 1.0, 1.0)
        assert r.det() == 1.0

    def test_scaled_identity_rejected(self):
        with pytest.raises(NotSymplectic) as err:
            custom(2.0, 0.0, 0.0, 2.0, 1.0)
        assert err.value.residual == pytest.approx(3.0)

    def test_projection_restores_unit_determinant(self):
        r = custom(0.5644, 0.66, -0.66, 1.0 + 3e-10, 0.66)
        assert r.det() == 1.0 or abs(r.det() - 1.0) < 1e-16

    def test_zero_r1_projects_through_r3(self):
        r = custom(0.0, 1.0, -1.0 + 3e-10, 0.7, 1.0)
        assert abs(r.det() - 1.0) < 1e-16


@pytest.mark.parametrize("values", [
    (float("nan"), 0.0, 0.0, float("nan"), 1.0),
    (float("inf"), 1.0, -1.0, 0.0, 1.0),
    (1.0, float("nan"), 0.0, 1.0, 1.0),
    (1.0, 0.0, float("-inf"), 1.0, 1.0),
    (1.0, 0.0, 0.0, 1.0, float("inf")),
])
def test_non_finite_matrix_rejected(values):
    with pytest.raises(NonFinite):
        TransitionMatrix(*values, label="custom")


@pytest.mark.parametrize("name", ["euler", "velocity-verlet", "position-verlet",
                                  "double-euler", "vp"])
def test_non_finite_tau_rejected(name):
    with pytest.raises(NonFinite):
        make(name, float("inf"))


@pytest.mark.parametrize("name", ["euler", "velocity-verlet", "position-verlet",
                                  "double-euler", "vp"])
def test_unit_determinant_over_grid(name):
    for k in range(1, 501):
        tau = 0.01 * k
        assert abs(make(name, tau).det() - 1.0) <= 1e-12


@pytest.mark.parametrize("build", [euler, velocity_verlet, position_verlet])
def test_trace_is_two_minus_tau_squared(build):
    for k in range(1, 100):
        tau = 0.05 * k
        assert build(tau).trace() == pytest.approx(2.0 - tau * tau, abs=1e-12)
