import math
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import shadowosc.integrators
from shadowosc.classifier import CaseTag, classify
from shadowosc.errors import InvalidTau, NonFinite, NotSymplectic, UnknownIntegrator
from shadowosc.integrators import (
    BUILDERS,
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


def sheared_rotation(theta: float, s: float) -> TransitionMatrix:
    """custom map S R(theta) S^-1, S = [[1, s], [0, 1]]: elliptic, entries up to s**2."""
    c, si = math.cos(theta), math.sin(theta)
    return custom(c - s * si, (1.0 + s * s) * si, -si, c + s * si, 1.0)


# elliptic maps with entries of 1e2 to 1e6
elliptic = st.builds(sheared_rotation, st.floats(0.3, 2.8),
                     st.floats(1.0, 3.0).map(lambda e: 10.0 ** e))


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

    @settings(max_examples=200, deadline=None)
    @given(elliptic, elliptic)
    @example(sheared_rotation(1.5, 1e3), sheared_rotation(1.5, 1e3))  # residual 1.2e-8
    def test_large_elliptic_maps_compose(self, a, b):
        # product entries carry rounding of about eps * |a| * |b|, far above det's
        # own; the product is checked on that scale and projected, as custom is
        for left, right in ((a, b), (a, a)):
            r = compose(left, right)
            scale = np.abs(to_numpy(left)).max() * np.abs(to_numpy(right)).max()
            np.testing.assert_allclose(to_numpy(r), to_numpy(left) @ to_numpy(right),
                                       rtol=0, atol=16 * sys.float_info.epsilon * scale)

    @settings(max_examples=50, deadline=None)
    @given(elliptic)
    def test_long_chain_composes(self, r):
        # each product is projected onto det = 1, so det's error does not add
        # up over the chain and every link passes TransitionMatrix's check
        chain = r
        for _ in range(1000):
            chain = compose(chain, r, "chain")
        assert chain.tau == 1001.0

    @settings(max_examples=500, deadline=None)
    @given(st.floats(0.3, 2.8), st.floats(-1e-3, 1e-3))
    def test_cancelling_product_of_large_maps_composes(self, theta, delta):
        # S R(theta) S^-1 * S R(-theta + delta) S^-1 = S R(delta) S^-1 has entries
        # far below its factors' (about 9e6), so its det carries the factors'
        # rounding, not its own: read against its own terms, 59 of 500 such
        # products were refused
        a, b = sheared_rotation(theta, 3e3), sheared_rotation(-theta + delta, 3e3)
        r = compose(a, b)
        scale = np.abs(to_numpy(a)).max() * np.abs(to_numpy(b)).max()
        np.testing.assert_allclose(to_numpy(r), to_numpy(a) @ to_numpy(b),
                                   rtol=0, atol=16 * sys.float_info.epsilon * scale)
        # the same product with one row negated is a reflection (det = -1): the
        # factors' rounding in its det, |p22|*m11 + |p11|*m22 + |p21|*m12 +
        # |p12|*m21 with m = |a|*|b|, does not cover it
        (p11, p12), (p21, p22) = to_numpy(r)
        (m11, m12), (m21, m22) = np.abs(to_numpy(a)) @ np.abs(to_numpy(b))
        rounding = abs(p22) * m11 + abs(p11) * m22 + abs(p21) * m12 + abs(p12) * m21
        with pytest.raises(NotSymplectic):
            shadowosc.integrators._check_unit_det(p11, p12, -p21, -p22, "x", raw=True,
                                                  rounding=rounding)

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

    @pytest.mark.parametrize("entries, solved", [
        ((2.0, 1.0, 1.0, 1.0 + 1e-12), 3),
        ((-1.0, 1.0, 1e-16, -1.0), 3),
        ((0.5, -2.0, 0.25 + 1e-12, 1.0), 2),
        ((1.2664855750217028e-12, 0.018185351822632374, -54.98931281354116,
          -0.0004866791667341672), 2),
    ])
    def test_projects_through_the_larger_pivot(self, entries, solved):
        # solves for r4 when |r1| >= |r2|, else for r3; the other entries stay
        r = custom(*entries, 1.0)
        got = (r.r1, r.r2, r.r3, r.r4)
        assert [g for k, g in enumerate(got) if k != solved] == \
            [e for k, e in enumerate(entries) if k != solved]
        assert abs(r.det() - 1.0) <= 4 * sys.float_info.epsilon


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


@pytest.mark.parametrize("tau", [0.0, -1.0, -1e-300])
@pytest.mark.parametrize("name", ["euler", "velocity-verlet", "position-verlet",
                                  "double-euler", "vp", "custom"])
def test_nonpositive_tau_error_names_the_tau_passed(name, tau):
    with pytest.raises(InvalidTau, match=f"got {tau!r}$"):
        custom(1.0, 0.0, 0.0, 1.0, tau) if name == "custom" else make(name, tau)


@pytest.mark.parametrize("name, tau", [
    ("velocity-verlet", 1e103), ("velocity-verlet", -1e103),
    ("position-verlet", 1e103), ("position-verlet", -1e103), ("vp", 1e200),
])
def test_overflowing_cube_is_non_finite(name, tau):
    with pytest.raises(NonFinite):
        make(name, tau)


@pytest.mark.parametrize("tau", [float("nan"), float("inf"), float("-inf"),
                                 1e103, -1e103, 1e200, -1e200])
@pytest.mark.parametrize("name", ["double-euler", "vp"])
def test_composite_error_names_the_composite(name, tau):
    # the half-steps are not maps of their own: an overflow inside one is
    # reported for the composite and the tau it was built for
    with pytest.raises(NonFinite, match=f"^{name}: .*, tau = {re.escape(repr(tau))}$"):
        make(name, tau)


def test_composite_is_checked_as_a_whole(monkeypatch):
    # the half-steps are multiplied as entries: one map is built and
    # validated, the composite
    built = []

    def counting(*args):
        built.append(args[5])  # the label; a built-in's k11 follows it
        return TransitionMatrix(*args)

    monkeypatch.setattr(shadowosc.integrators, "TransitionMatrix", counting)
    for name in ("double-euler", "vp"):
        assert make(name, 23.79).label == name
    assert built == ["double-euler", "vp"]


@pytest.mark.parametrize("name, tau", [("vp", 7.72), ("vp", 5.803), ("velocity-verlet", 1e3),
                                       ("position-verlet", 1e5), ("double-euler", 1e6)])
def test_determinant_is_held_relative_to_its_products(name, tau):
    # |det - 1| grows with |r1*r4| and |r2*r3|; an absolute bound refused these
    r = make(name, tau)
    assert abs(r.det() - 1.0) <= 1e-9 * max(1.0, abs(r.r1 * r.r4), abs(r.r2 * r.r3))


def test_reflection_rejected():
    # det = -1 at |r1*r4| + |r2*r3| = 2e10; the forward-error bound there is 4.5e-3
    with pytest.raises(NotSymplectic, match="^x: determinant differs from 1 by 2.000e"):
        TransitionMatrix(1e5, 1e5, (-1e10 + 1) / 1e5, -1e5, 1.0, "x")


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(sorted(BUILDERS)), st.floats(-12.0, 6.0).map(lambda e: 10.0 ** e))
@example("vp", 5.762687241396177)  # |det - 1| = 40 eps (|r1*r4| + |r2*r3|), the largest seen
def test_every_builtin_is_within_its_det_rounding(name, tau):
    make(name, tau)


@pytest.mark.parametrize("entries", [(1e200, 1e200, 1e200, 1e200), (1.0, 1e300, 1e300, 1.0)])
def test_overflowing_determinant_rejected(entries):
    with pytest.raises(NotSymplectic):
        TransitionMatrix(*entries, 1.0, "custom")


@pytest.mark.parametrize("name", ["double-euler", "vp"])
def test_composite_of_subnormal_tau_is_identity(name):
    r = make(name, 5e-324)
    assert r.tau == 5e-324
    assert classify(r)[0] is CaseTag.II_PLUS


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
