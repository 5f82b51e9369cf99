import math

import numpy as np
import pytest

from shadowosc.classifier import (
    CaseTag,
    classify,
    criticality_gap,
)
from shadowosc.integrators import (
    BUILDERS,
    compose,
    custom,
    double_euler,
    euler,
    make,
    velocity_verlet,
)

from conftest import to_numpy


def rebuild_from_jordan(eigen) -> np.ndarray:
    p = to_numpy(eigen.jordan_basis)
    j = np.array([[eigen.eigenvalue, 1.0], [0.0, eigen.eigenvalue]])
    return p @ j @ np.linalg.inv(p)


class TestTags:
    def test_euler_small_tau(self):
        assert classify(euler(0.66))[0] is CaseTag.IA

    def test_euler_critical(self):
        assert classify(euler(2.0))[0] is CaseTag.IIIB

    def test_euler_large_tau(self):
        assert classify(euler(3.0))[0] is CaseTag.IC

    def test_double_euler_scalar_point(self):
        tag, eigen = classify(double_euler(2.0 * math.sqrt(2.0)))
        assert tag is CaseTag.II_MINUS
        assert eigen.eigenvalue == -1.0

    def test_double_euler_defective_plus(self):
        assert classify(double_euler(4.0))[0] is CaseTag.IIIA

    def test_double_euler_beyond(self):
        assert classify(double_euler(5.0))[0] is CaseTag.IB

    def test_identity_input(self):
        assert classify(custom(1.0, 0.0, 0.0, 1.0, 1.0))[0] is CaseTag.II_PLUS

    def test_verlet_critical(self):
        assert classify(velocity_verlet(2.0))[0] is CaseTag.IIIB

    @pytest.mark.parametrize("k", range(1, 40))
    def test_euler_regime_below_two(self, k):
        assert classify(euler(0.05 * k))[0] is CaseTag.IA

    @pytest.mark.parametrize("k", range(1, 61))
    def test_euler_regime_above_two(self, k):
        assert classify(euler(2.0 + 0.05 * k))[0] is CaseTag.IC

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_matches_trace_rule_off_the_ridge(self, name):
        # tau = 0.01 ... 100 step 0.01, wherever |T**2 - 4| > 1e-6
        compared = 0
        for k in range(1, 10001):
            r = make(name, 0.01 * k)
            want = trace_rule_tag(r)
            if want is not None:
                assert classify(r)[0] is want, (name, 0.01 * k)
                compared += 1
        assert compared > 9000

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    @pytest.mark.parametrize("tau", [1e-12, 1e-10, 1e-8, 1e-5, 1e-4])
    def test_small_tau_is_a_rotation(self, name, tau):
        # |T**2 - 4| is about tau**2 here: an absolute ridge test called
        # these maps R = I or defective
        tag, eigen = classify(make(name, tau))
        assert tag is CaseTag.IA
        assert eigen.angle == pytest.approx(tau, rel=1e-6)

    def test_within_rounding_of_identity_is_scalar(self):
        assert classify(custom(1.0, 1e-17, 0.0, 1.0, 1.0))[0] is CaseTag.II_PLUS

    def test_within_1e_minus_9_of_identity_is_distinct(self):
        assert classify(custom(1.0, 1e-9, -1e-9, 1.0, 1.0))[0] is CaseTag.IA
        assert classify(custom(1.0, 1e-9, 0.0, 1.0, 1.0))[0] is CaseTag.IIIA


def trace_rule_tag(r):
    """The tag read off T alone, or None within 1e-6 of the ridge |T**2 - 4| = 0."""
    t = r.trace()
    gap = (t - 2.0) * (t + 2.0)
    if abs(gap) <= 1e-6:
        return None
    if abs(t) < 2.0:
        return CaseTag.IA
    return CaseTag.IB if t > 2.0 else CaseTag.IC


class TestEigenStructure:
    @pytest.mark.parametrize("tau", [0.3, 0.66, 1.5, 2.5, 3.0, 4.7])
    def test_eigenvalue_product_is_one(self, tau):
        _, eigen = classify(euler(tau))
        y = eigen.eigenvalue
        assert abs(y * (1.0 / y) - 1.0) <= 1e-12

    def test_representative_choice_ia(self):
        _, eigen = classify(euler(1.0))
        assert 0.0 < eigen.angle < math.pi
        assert eigen.eigenvalue.imag > 0

    def test_representative_choice_ib(self):
        _, eigen = classify(double_euler(5.0))
        assert eigen.angle == 0.0
        assert eigen.eigenvalue.real > 1.0

    def test_representative_choice_ic(self):
        _, eigen = classify(euler(3.0))
        assert eigen.angle == math.pi
        assert eigen.modulus >= 1.0
        # the pair is real: (2 - tau**2 -+ tau*sqrt(tau**2 - 4)) / 2
        want = (-7.0 - 3.0 * math.sqrt(5.0)) / 2.0
        assert eigen.eigenvalue == pytest.approx(want, abs=1e-12)

    def test_criticality_gap_matches_trace(self):
        r = euler(0.66)
        t = r.trace()
        assert criticality_gap(r) == pytest.approx(abs(t * t - 4.0), abs=1e-12)


class TestJordan:
    def test_shift_block_basis_is_identity(self):
        eigen = classify(custom(1.0, 1.0, 0.0, 1.0, 1.0))[1]
        np.testing.assert_array_equal(to_numpy(eigen.jordan_basis), np.eye(2))

    def test_euler_critical_rebuild(self):
        r = euler(2.0)
        eigen = classify(r)[1]
        assert eigen.eigenvalue == -1.0
        residual = np.max(np.abs(rebuild_from_jordan(eigen) - to_numpy(r)))
        assert residual <= 1e-10

    def test_double_step_rebuild_with_plus_one(self):
        r = compose(euler(2.0), euler(2.0))
        eigen = classify(r)[1]
        assert eigen.eigenvalue == 1.0
        residual = np.max(np.abs(rebuild_from_jordan(eigen) - to_numpy(r)))
        assert residual <= 1e-10

    def test_eigenvector_column_is_unit(self):
        eigen = classify(euler(2.0))[1]
        b = eigen.jordan_basis
        assert math.hypot(abs(b.e11), abs(b.e21)) == pytest.approx(1.0, abs=1e-14)
