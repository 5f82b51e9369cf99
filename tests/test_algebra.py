import cmath
import copy
import itertools
import math
import pickle
import struct
import sys
from dataclasses import FrozenInstanceError, dataclass

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowosc.algebra import Mat2C, closed_exp, closed_exps, max_diff
from shadowosc.flow import sample_times
from shadowosc.verify import ZeroEigenvalue, log_branch, principal_polar, series_exp, taylor_exp

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


def wide_matrices():
    part = st.floats(-10.0, 10.0)
    entry = st.builds(complex, part, part)
    return st.builds(Mat2C, entry, entry, entry, entry)


def near_nilpotent():
    """Traceless [[a, b], [-a**2/b + t, -a]] with |t| <= 1e-12: eigenvalue gaps
    down to rounding, where sinh(delta)/delta must stay accurate."""
    part = st.floats(-3.0, 3.0)
    entry = st.builds(complex, part, part)
    tiny = st.builds(complex, st.floats(-1e-12, 1e-12), st.floats(-1e-12, 1e-12))
    return st.builds(lambda a, b, t: Mat2C(a, b, -a * a / b + t, -a),
                     entry, entry.filter(lambda b: abs(b) >= 0.1), tiny)


def rounding_bound(k: float, want: Mat2C, s_z: float) -> float:
    """k eps max(1, |want|) max(1, s_z), |.| the largest entry modulus."""
    return k * sys.float_info.epsilon * max(1.0, want.max_abs()) * max(1.0, s_z)


class TestMaxDiff:
    @pytest.mark.parametrize("index", range(4))
    def test_nan_in_any_entry_is_nan(self, index):
        entries = [0.5, 2.0, -1.0, 3.0]
        entries[index] = math.nan
        assert math.isnan(max_diff(Mat2C(*entries), Mat2C(0.0, 0.0, 0.0, 0.0)))

    def test_largest_difference(self):
        assert max_diff(Mat2C(1.0, 5.0, -2.0, 0.0), Mat2C(0.0, 1.0, 1.0, 0.0)) == 4.0


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


class TestClosedExpsIsLazy:
    """closed_exps reads an s only when its entries are asked for and keeps
    none, so a flow file's memory does not grow with its sample count."""

    z = Mat2C(0.3, 1.0, -1.5, -0.3)

    def test_first_propagator_of_endless_times(self):
        read = []

        def endless():
            # times without end, as far as a lazy reader can tell; an eager
            # one (``list(times)``) meets the tripwire instead of hanging
            for k in itertools.count():
                if k == 1000:
                    raise AssertionError("closed_exps read ahead of its caller")
                read.append(k)
                yield 0.25 * k

        exps = closed_exps(self.z, endless())
        assert next(exps) == closed_exp(self.z, 0.0).entries()
        assert read == [0]
        assert next(exps) == closed_exp(self.z, 0.25).entries()
        assert read == [0, 1]

    def test_one_shot_span(self):
        times = sample_times(2.0, 0.3)
        span = times.span(2, len(times))
        assert list(closed_exps(self.z, span)) == [closed_exp(self.z, times[k]).entries()
                                                   for k in range(2, len(times))]
        assert list(span) == []


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

    # Bounds below are k eps max(1, |exp|) max(1, |s z|), |.| the largest entry
    # modulus.  Over 20,000 draws of each strategy closed_exp came within
    # 10.5 eps of scipy's expm and 11.1 eps of series_exp at s = 1; for
    # s in [0, 20] series_exp is the less accurate side (up to 73 eps of this
    # scale here and 234 eps on test_flow's generators, where closed_exp stays
    # within 4.3 eps of a 50-digit mpmath expm).

    @settings(max_examples=300)
    @given(wide_matrices() | near_nilpotent())
    def test_within_rounding_of_expm(self, z):
        want = Mat2C(*scipy.linalg.expm(to_numpy(z)).ravel())
        assert max_diff(closed_exp(z), want) <= rounding_bound(64, want, z.max_abs())

    @settings(max_examples=300)
    @given(small_matrices() | near_nilpotent(), st.floats(0.0, 20.0))
    def test_scaled_argument_within_rounding_of_series(self, z, s):
        want = series_exp(z.scaled(s))
        assert max_diff(closed_exp(z, s), want) <= rounding_bound(512, want, s * z.max_abs())


# ---------------------------------------------------------------------------
# Mat2C against a reference frozen dataclass
#
# RefMat2C is Mat2C as a frozen dataclass whose __post_init__ coerces every
# field to complex, with the same operations spelled out, and ref_taylor_exp
# is the raw series on it.  The slotted Mat2C must give the same bits for
# every input, signed zeros, infinities and NaNs included, and for int, float
# and complex entries alike.


@dataclass(frozen=True)
class RefMat2C:
    e11: complex
    e12: complex
    e21: complex
    e22: complex

    def __post_init__(self):
        for name in ("e11", "e12", "e21", "e22"):
            object.__setattr__(self, name, complex(getattr(self, name)))

    @staticmethod
    def identity():
        return RefMat2C(1.0, 0.0, 0.0, 1.0)

    def trace(self):
        return self.e11 + self.e22

    def det(self):
        return self.e11 * self.e22 - self.e12 * self.e21

    def scaled(self, s):
        return RefMat2C(s * self.e11, s * self.e12, s * self.e21, s * self.e22)

    def __add__(self, other):
        return RefMat2C(self.e11 + other.e11, self.e12 + other.e12,
                        self.e21 + other.e21, self.e22 + other.e22)

    def __sub__(self, other):
        return RefMat2C(self.e11 - other.e11, self.e12 - other.e12,
                        self.e21 - other.e21, self.e22 - other.e22)

    def __matmul__(self, other):
        return RefMat2C(
            self.e11 * other.e11 + self.e12 * other.e21,
            self.e11 * other.e12 + self.e12 * other.e22,
            self.e21 * other.e11 + self.e22 * other.e21,
            self.e21 * other.e12 + self.e22 * other.e22,
        )

    def apply(self, q, p):
        return (self.e11 * q + self.e12 * p, self.e21 * q + self.e22 * p)

    def entries(self):
        return (self.e11, self.e12, self.e21, self.e22)

    def max_abs(self):
        return max(abs(e) for e in self.entries())


def ref_taylor_exp(z, terms=40):
    acc = RefMat2C.identity()
    term = RefMat2C.identity()
    for k in range(1, terms + 1):
        term = (term @ z).scaled(1.0 / k)
        acc = acc + term
    return acc


def bits(value):
    """Bit pattern of a scalar, a matrix or a tuple of them."""
    if isinstance(value, (Mat2C, RefMat2C)):
        return ("matrix",) + bits(value.entries())
    if isinstance(value, tuple):
        return tuple(bits(v) for v in value)
    if isinstance(value, float):
        return struct.pack("<d", value)
    value = complex(value)
    return struct.pack("<dd", value.real, value.imag)


def outcome(fn, *args):
    """Bits of fn(*args), or the type of the exception it raises."""
    try:
        return bits(fn(*args))
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


special = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -5e-324])
any_float = st.one_of(special, st.floats(allow_nan=True, allow_infinity=True))
scalars = st.one_of(
    any_float,
    st.integers(-2 ** 60, 2 ** 60),
    st.builds(complex, any_float, any_float),
)
desk_scalars = st.one_of(
    st.sampled_from([0.0, -0.0, 1, -2]),
    st.floats(-3.0, 3.0),
    st.integers(-3, 3),
    st.builds(complex, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
)


def pair(entry):
    """A Mat2C and the RefMat2C built from the same four raw inputs."""
    return st.tuples(entry, entry, entry, entry).map(lambda e: (Mat2C(*e), RefMat2C(*e)))


class TestSlimMat2CMatchesDataclass:
    @settings(max_examples=300)
    @given(pair(scalars), pair(scalars), scalars, scalars, scalars)
    def test_arithmetic_bits(self, a, b, s, q, p):
        (m, ref), (n, ref_n) = a, b
        assert bits(m) == bits(ref)
        assert bits(m + n) == bits(ref + ref_n)
        assert bits(m - n) == bits(ref - ref_n)
        assert bits(m @ n) == bits(ref @ ref_n)
        assert bits(m.scaled(s)) == bits(ref.scaled(s))
        assert bits(m.trace()) == bits(ref.trace())
        assert bits(m.det()) == bits(ref.det())
        assert bits(m.apply(q, p)) == bits(ref.apply(q, p))
        assert outcome(Mat2C.max_abs, m) == outcome(RefMat2C.max_abs, ref)

    @settings(max_examples=100)
    @given(pair(scalars))
    def test_taylor_exp_bits(self, a):
        m, ref = a
        assert outcome(taylor_exp, m, 8) == outcome(ref_taylor_exp, ref, 8)

    @settings(max_examples=100)
    @given(pair(desk_scalars))
    def test_desk_scale_exponentials_bits(self, a):
        # closed_exp has no dataclass twin: it is held to the series instead
        m, ref = a
        assert bits(taylor_exp(m)) == bits(ref_taylor_exp(ref))
        want = series_exp(m)
        assert max_diff(closed_exp(m), want) <= rounding_bound(64, want, m.max_abs())

    def test_attribute_assignment_raises(self):
        m = Mat2C(1.0, 2.0, 3.0, 4.0)
        for name in ("e11", "e12", "e21", "e22", "other"):
            with pytest.raises(FrozenInstanceError):
                setattr(m, name, 0.0)
            with pytest.raises(FrozenInstanceError):
                delattr(m, name)
        assert m.entries() == (1.0, 2.0, 3.0, 4.0)

    @given(pair(scalars))
    def test_equal_matrices_compare_and_hash_equal(self, a):
        m, ref = a
        # the twins share entry objects, so NaN entries (hashed and compared
        # by identity inside a tuple) behave as in the dataclass
        twin, ref_twin = Mat2C(*m.entries()), RefMat2C(*ref.entries())
        assert m == twin and not m != twin and ref == ref_twin
        assert hash(m) == hash(twin) == hash(m.entries())
        assert hash(ref) == hash(ref_twin) == hash(ref.entries())
        assert (m == Mat2C(*ref.entries())) == (ref == RefMat2C(*m.entries()))
        assert repr(m) == repr(ref).replace("RefMat2C", "Mat2C")

    def test_coercion_makes_int_float_and_complex_inputs_equal(self):
        a = Mat2C(1, 0, -0.0, 2)
        b = Mat2C(1.0 + 0j, 0.0, complex(-0.0, 0.0), 2.0)
        assert a == b and hash(a) == hash(b)
        assert all(type(e) is complex for e in a.entries())
        assert a != (1, 0, 0, 2) and a != RefMat2C(1, 0, 0, 2)

    def test_copy_and_pickle_round_trip(self):
        m = Mat2C(1.5, -0.0, complex(math.inf, 1.0), 2j)
        for twin in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
            assert type(twin) is Mat2C and bits(twin) == bits(m)
