import cmath
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowosc.algebra import (
    Mat2C,
    closed_exp,
    log_branch,
    max_diff,
    principal_polar,
    taylor_exp,
)
from shadowosc.errors import ZeroEigenvalue

from conftest import to_numpy

finite = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def small_matrices():
    return st.builds(
        Mat2C,
        st.builds(complex, finite, finite),
        st.builds(complex, finite, finite),
        st.builds(complex, finite, finite),
        st.builds(complex, finite, finite),
    )


class TestPrincipalPolar:
    def test_one(self):
        assert principal_polar(1.0) == (1.0, 0.0)

    def test_minus_one_lands_on_plus_pi(self):
        modulus, theta = principal_polar(-1.0)
        assert modulus == 1.0
        assert theta == math.pi

    def test_negative_real_with_negative_zero_imag(self):
        _, theta = principal_polar(complex(-2.0, -0.0))
        assert theta == math.pi

    def test_unit_phase(self):
        y = cmath.exp(1j * math.pi / 3)
        modulus, theta = principal_polar(y)
        assert modulus == pytest.approx(1.0, abs=1e-15)
        assert theta == pytest.approx(math.atan2(y.imag, y.real), abs=0.0)
        assert theta == pytest.approx(math.pi / 3, abs=1e-15)

    def test_zero_rejected(self):
        with pytest.raises(ZeroEigenvalue):
            principal_polar(0.0)

    @settings(max_examples=200)
    @given(st.builds(complex, finite, finite))
    def test_round_trip(self, y):
        if y == 0:
            return
        modulus, theta = principal_polar(y)
        # angles infinitesimally above -pi round onto the cut itself
        assert -math.pi <= theta <= math.pi
        assert theta != -math.pi or y.imag < 0
        assert abs(modulus * cmath.exp(1j * theta) - y) <= 1e-14 * max(1.0, abs(y))


class TestLogBranch:
    def test_trivial(self):
        assert log_branch(1.0, 0) == 0.0

    def test_unit_branch_one(self):
        assert log_branch(1.0, 1) == 2j * math.pi

    def test_minus_one_branch_minus_one(self):
        # i*pi + i*2*(-1)*pi
        assert log_branch(-1.0, -1) == pytest.approx(-1j * math.pi, abs=1e-15)

    @settings(max_examples=100)
    @given(st.builds(complex, finite, finite), st.integers(-4, 4))
    def test_exponentiates_back(self, y, m):
        if abs(y) < 1e-3:
            return
        assert abs(cmath.exp(log_branch(y, m)) - y) <= 1e-12 * abs(y)


class TestTaylorExp:
    def test_zero(self):
        assert taylor_exp(Mat2C(0.0, 0.0, 0.0, 0.0), 1) == Mat2C.identity()

    def test_rotation_block(self):
        theta = math.pi / 3
        got = taylor_exp(Mat2C(0.0, theta, -theta, 0.0), 30)
        want = Mat2C(math.cos(theta), math.sin(theta), -math.sin(theta), math.cos(theta))
        assert max_diff(got, want) <= 1e-14

    def test_nilpotent_exact(self):
        got = taylor_exp(Mat2C(0.0, 1.0, 0.0, 0.0), 2)
        assert got == Mat2C(1.0, 1.0, 0.0, 1.0)

    def test_terms_validated(self):
        with pytest.raises(ValueError):
            taylor_exp(Mat2C(0.0, 0.0, 0.0, 0.0), 0)


class TestClosedExp:
    def test_zero(self):
        assert closed_exp(Mat2C(0.0, 0.0, 0.0, 0.0)) == Mat2C.identity()

    def test_diagonal(self):
        got = closed_exp(Mat2C(0.3, 0.0, 0.0, -0.3))
        assert got.e11 == pytest.approx(math.exp(0.3), abs=1e-15)
        assert got.e22 == pytest.approx(math.exp(-0.3), abs=1e-15)
        assert got.e12 == got.e21 == 0.0

    def test_euler_generator_against_series(self):
        # traceless, eigenvalues +-i*pi/3, exponentiates to [[0,1],[-1,1]]
        factor = (1j * math.pi / 3) / (2j * math.sin(math.pi / 3))
        z = Mat2C(-factor, 2 * factor, -2 * factor, factor)
        assert max_diff(closed_exp(z), taylor_exp(z, 40)) <= 1e-12
        assert max_diff(closed_exp(z), Mat2C(0.0, 1.0, -1.0, 1.0)) <= 1e-12

    def test_jordan_block_exact(self):
        got = closed_exp(Mat2C(0.0, 1.0, 0.0, 0.0))
        assert got == Mat2C(1.0, 1.0, 0.0, 1.0)

    def test_near_defective_stays_conditioned(self):
        # eigenvalue gap ~2.7e-8: a two-point interpolation formula loses
        # eps/gap here; the even-function split must not
        z = Mat2C(0j, 1.7967039911178102e-16j, 1.0 + 0j, 0j)
        assert max_diff(closed_exp(z), taylor_exp(z, 60)) <= 1e-13

    @settings(max_examples=200)
    @given(small_matrices())
    def test_matches_series_at_desk_scale(self, z):
        # entries <= 3 keep the 60-term truncation tail far below 1e-10
        assert max_diff(closed_exp(z), taylor_exp(z, 60)) <= 1e-10

    @settings(max_examples=200)
    @given(small_matrices())
    def test_determinant_is_exp_trace(self, z):
        want = cmath.exp(z.trace())
        assert abs(closed_exp(z).det() - want) <= 1e-12 * max(1.0, abs(want))

    @settings(max_examples=100)
    @given(small_matrices())
    def test_matches_scipy(self, z):
        want = scipy.linalg.expm(to_numpy(z))
        got = to_numpy(closed_exp(z))
        np.testing.assert_allclose(got, want, atol=1e-9)
