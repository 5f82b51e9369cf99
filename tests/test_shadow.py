import cmath
import math
import sys
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import shadowosc.shadow
from shadowosc.algebra import TOL, Mat2C, closed_exp, max_diff
from shadowosc.classifier import DISTINCT_TAGS, CaseTag, EigenStructure, classify
from shadowosc.errors import (
    BadParams,
    NotTraceless,
    OutOfRange,
    ShadowOscError,
)
from shadowosc.integrators import (
    BUILDERS,
    custom,
    double_euler,
    euler,
    make,
    velocity_verlet,
    vp,
)
from shadowosc.shadow import (
    OBSTRUCTION,
    PARAM_PRESETS,
    CaseIIParams,
    Generator,
    _check_exp,
    _validated,
    generators_for,
    hamiltonian_from_generator,
    real_count,
)
from shadowosc.flow import flow_matrix
from shadowosc.verify import (
    BOUND,
    CriticalTau,
    check_conservation,
    euler_hamiltonian,
    euler_rate,
    exact_log,
    locate_vp_critical_tau,
    log_branch,
    series_exp,
    taylor_exp,
)

from conftest import generator_distinct, quadratic_roots

IDENTITY = custom(1.0, 0.0, 0.0, 1.0, 1.0, label="+identity")
MINUS_IDENTITY = custom(-1.0, 0.0, 0.0, -1.0, 1.0, label="-identity")


def distinct_generator(r, branch):
    return generator_distinct(r, classify(r)[1], branch)


def family_generator(r, branch=0, params=None):
    """Branch ``branch`` of r's family; for iii-a its one branch whatever is asked."""
    return generators_for(r, [branch], params).generators[0]


def eigenvalues(z):
    """Eigenvalues of a generator, the one with the larger imaginary part first."""
    return sorted(quadratic_roots(z.trace(), z.det()), key=lambda x: x.imag, reverse=True)


class TestGeneratorDistinct:
    def test_euler_unit_tau_eigenvalues(self):
        g = distinct_generator(euler(1.0), 0)
        x1, x2 = eigenvalues(g.matrix)
        assert abs(x1 - 1j * math.pi / 3) <= 1e-14
        assert abs(x2 + 1j * math.pi / 3) <= 1e-14

    def test_euler_unit_tau_exponentiates(self):
        g = distinct_generator(euler(1.0), 0)
        assert max_diff(taylor_exp(g.matrix, 40), euler(1.0).as_mat2c()) <= 1e-12

    def test_branch_one_also_exponentiates(self):
        r = euler(0.66)
        g = distinct_generator(r, 1)
        assert abs(g.matrix.trace()) == 0.0
        assert max_diff(taylor_exp(g.matrix, 60), r.as_mat2c()) <= 1e-10

    def test_large_tau_complex_generator(self):
        r = euler(3.0)
        g = distinct_generator(r, 0)
        assert any(abs(e.imag) > 1e-3 for e in g.matrix.entries())
        assert max_diff(taylor_exp(g.matrix, 40), r.as_mat2c()) <= 1e-9

    @pytest.mark.parametrize("tau,case", [(0.7, CaseTag.IA), (3.0, CaseTag.IC)])
    def test_case_recorded(self, tau, case):
        assert distinct_generator(euler(tau), 0).case is case

    @pytest.mark.parametrize("branch", range(-3, 4))
    def test_generator_eigenvalues_are_branch_logs(self, branch):
        # i-a, i-c and i-b: the generators take log|y| = asinh|Re d|, the
        # reference reads it off |y|
        for r in (euler(0.66), euler(3.0), double_euler(4.8)):
            _, eigen = classify(r)
            g = generator_distinct(r, eigen, branch)
            x1 = log_branch(eigen.eigenvalue, branch)
            got = sorted(eigenvalues(g.matrix), key=lambda z: z.imag)
            want = sorted((x1, -x1), key=lambda z: z.imag)
            assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-10


def two_scalar_residual(r, d, log_y):
    """max|exp(Z) - R| for Z = (L / d) * K, from its exact form a I + b K with
    a = cosh(L) - T/2 and b = sinh(L)/d - 1."""
    k11, k12, k21, _ = r.traceless()
    a = cmath.cosh(log_y) - r.trace() / 2.0
    b = cmath.sinh(log_y) / d - 1.0
    return max(abs(a + b * k11), abs(b * k12), abs(b * k21), abs(a - b * k11))


def one_branch(r, eigen, m):
    """The branch-m generator written out on its own, one branch per call:
    Z = (L / d) * K with L = log(y, m), log|y| = asinh|Re d|, carrying L, and
    exp(Z) - R read from its two scalars, checked to TOL."""
    d = eigen.d
    log_y = complex(math.asinh(abs(d.real)), eigen.angle + 2.0 * math.pi * m)
    factor = log_y / d
    k11, k12, k21, _ = r.traceless()
    diag = factor * k11
    z = Mat2C(diag, factor * k12, factor * k21, -diag)
    assert two_scalar_residual(r, d, log_y) <= \
        TOL * max(1.0, r.max_abs()) * max(1.0, z.max_abs())
    case = CaseTag.IB if d.real > 0.0 else CaseTag.IC if d.real < 0.0 else CaseTag.IA
    return Generator(z, m, r.tau, case, log_y)


class TestFamilyIsBranchByBranch:
    """The family reads the map's constants once; its bits are those of each
    branch built alone, compared by repr so that the sign of a zero counts."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(BUILDERS)), st.floats(-12.0, 6.0).map(lambda e: 10.0 ** e),
           st.sets(st.integers(-3, 3), min_size=1))
    @example("vp", 0.66, {-1, 0, 1})             # i-a
    @example("double-euler", 5.0, {-3, 0, 3})    # i-b
    @example("velocity-verlet", 3.0, {-2, 1})   # i-c
    @example("euler", 1e-12, {0})
    def test_family_matches_one_branch_at_a_time(self, name, tau, branches):
        r = make(name, tau)
        tag, eigen = classify(r)
        assume(tag in DISTINCT_TAGS)
        family = generators_for(r, branches)
        want = [one_branch(r, eigen, m) for m in sorted(branches)]
        assert [repr(g) for g in family.generators] == [repr(g) for g in want]
        assert [repr(generator_distinct(r, eigen, m)) for m in sorted(branches)] == \
            [repr(g) for g in want]


class TestLogarithmNearTheRidge:
    """Branch 0 beside double-euler's iii-a point tau = 4, against exact rationals.

    Z is the logarithm of the unit-determinant map with R's traceless part, so
    each entry may differ from log R's by |det R - 1|/2 relative, plus its own
    rounding.  log|y| read off the rounded y would lose about eps/|d| here.
    """

    @pytest.mark.parametrize("tau", [4.0 - 1e-8, 4.0 + 1e-8, 4.0 + 1e-6, 4.0 + 1e-4])
    def test_branch_zero_matches_exact_series(self, tau):
        r = double_euler(tau)
        (g,) = generators_for(r, [0]).generators
        log_r, det = exact_log(r.r1, r.r2, r.r3, r.r4)
        bound = abs(det - 1) / 2 + Fraction(16 * sys.float_info.epsilon)
        for got, want in zip(g.matrix.entries(), log_r):
            assert got.imag == 0.0
            assert abs(Fraction(got.real) - want) <= bound * abs(want)


def _times(*factors):
    """The product of 2x2 matrices given as (r1, r2, r3, r4), left to right."""
    a = factors[0]
    for b in factors[1:]:
        a = (a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
             a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3])
    return a


def _kick(h):
    return (1, 0, -h, 1)


def _drift(h):
    return (1, h, 0, 1)


def _verlets(h):
    return (_times(_kick(h / 2), _drift(h), _kick(h / 2)),
            _times(_drift(h / 2), _kick(h), _drift(h / 2)))


# each built-in's map in exact rationals, from its kick and drift steps
EXACT_MAPS = {
    "euler": lambda t: _times(_drift(t), _kick(t)),
    "velocity-verlet": lambda t: _verlets(t)[0],
    "position-verlet": lambda t: _verlets(t)[1],
    "double-euler": lambda t: _times(_drift(t / 2), _kick(t / 2), _drift(t / 2), _kick(t / 2)),
    "vp": lambda t: _times(*_verlets(t / 2)),
}


class TestSmallTauFamilyIsTheExactLog:
    """Branch 0 of every built-in at tau = 1e-1 ... 1e-12 against the exact
    log of its exact map, summed in rationals (``verify.exact_log``).

    Read off the stored entries, k11 = (r1 - r4)/2 lost the first-order
    term of the modified Hamiltonian as tau**2 fell below eps; the builders'
    closed-form k11 keeps each nonzero entry within 8 eps.  The Verlets'
    exact diagonal is 0, where the series leaves only its tail.
    """

    @pytest.mark.parametrize("k", range(1, 13))
    @pytest.mark.parametrize("name", sorted(EXACT_MAPS))
    def test_branch_zero_within_rounding_of_the_exact_log(self, name, k):
        tau = 10.0 ** -k
        exact = EXACT_MAPS[name](Fraction(tau))
        want, det = exact_log(*exact)
        assert det == 1
        (g,) = generators_for(make(name, tau), [0]).generators
        floor = 8 * Fraction(sys.float_info.epsilon) * max(map(abs, want))
        zero_diagonal = exact[0] == exact[3]
        for j, (got, w) in enumerate(zip(g.matrix.entries(), want)):
            assert got.imag == 0.0
            if zero_diagonal and j in (0, 3):
                assert abs(Fraction(got.real) - w) <= floor
            else:
                assert abs(Fraction(got.real) - w) <= 8 * Fraction(sys.float_info.epsilon) * abs(w)


class TestGeneratorScalar:
    def test_identity_branch_zero_is_trivial(self):
        g = family_generator(IDENTITY, 0)
        assert g.matrix == Mat2C(0.0, 0.0, 0.0, 0.0)
        h = hamiltonian_from_generator(g)
        assert h.evaluate(1.3, -0.4) == 0.0

    def test_rotation_preset_gives_real_hamiltonian(self):
        g = family_generator(IDENTITY, 1, CaseIIParams.real_rotation())
        assert max_diff(taylor_exp(g.matrix, 60), IDENTITY.as_mat2c()) <= 1e-9
        h = hamiltonian_from_generator(g)
        assert h.real_valued
        # i*2*pi * (i p**2 - (-i) q**2) / 2 = -pi (p**2 + q**2)
        assert h.c_pp == pytest.approx(-math.pi, abs=1e-14)
        assert h.c_qq == pytest.approx(-math.pi, abs=1e-14)
        assert h.c_pq == 0.0

    def test_default_params_minus_identity(self):
        g = family_generator(MINUS_IDENTITY, 0)
        x1, x2 = eigenvalues(g.matrix)
        assert abs(x1 - 1j * math.pi) <= 1e-14
        assert abs(x2 + 1j * math.pi) <= 1e-14
        assert max_diff(taylor_exp(g.matrix, 40), MINUS_IDENTITY.as_mat2c()) <= 1e-9

    def test_bad_params_rejected(self):
        with pytest.raises(BadParams):
            CaseIIParams(1.0, 1.0, 1.0)

    def test_projection_requires_nonzero_c2(self):
        with pytest.raises(BadParams):
            CaseIIParams.projected(0.3, 0.0)

    @settings(max_examples=100)
    @given(st.builds(complex, st.floats(-2, 2), st.floats(-2, 2)),
           st.builds(complex, st.floats(-2, 2), st.floats(-2, 2)))
    def test_projected_satisfies_constraint(self, c1, c2):
        if abs(c2) < 1e-3:
            return
        params = CaseIIParams.projected(c1, c2)
        assert abs(params.c1 ** 2 + params.c2 * params.c3 - 1.0) <= 1e-10

    @settings(max_examples=300)
    @given(st.floats(-1e6, 1e6),
           st.builds(lambda m, sign: sign * 10.0 ** m, st.floats(-3, 3), st.sampled_from([1, -1])))
    def test_projection_is_accepted_at_large_scale(self, c1, c2):
        params = CaseIIParams.projected(c1, c2)
        assert (params.c1, params.c2) == (c1, c2)

    def test_large_direction_is_held_to_its_scale(self):
        """c1**2 and c2*c3 are about 5.8e7, so their sum misses 1 by 7.5e-9."""
        c1, c2, c3 = 7611.395989434412, 6.563193313680904, -8827006.17506067
        assert CaseIIParams.projected(c1, c2).c3 == c3
        # each generator is validated against exp(Z) = R on its scale as it is built
        family = generators_for(IDENTITY, range(-1, 2), CaseIIParams(c1, c2, c3))
        assert [g.branch for g in family.generators] == [-1, 0, 1]
        # a miss of 1e-10 at unit scale is refused as before, and so is one
        # of 1e-9 relative to this direction's scale
        with pytest.raises(BadParams, match="violated by 1.000e-09"):
            CaseIIParams(0.0, 1.0, 1.000000001)
        with pytest.raises(BadParams):
            CaseIIParams(c1, c2, c3 * (1 + 1e-9))
        # N**2 = 1.005 I: a miss far beyond the terms' rounding
        with pytest.raises(BadParams, match="violated by 5.000e-03"):
            CaseIIParams(c1, c2, (1.005 - c1 * c1) / c2)

    def test_miss_beyond_rounding_is_refused_at_large_scale(self):
        # the terms are 1e12 and miss 1 by 49, about 2e5 eps of them
        with pytest.raises(BadParams, match="violated by 4.900e[+]01"):
            CaseIIParams(1e6, 1.0, -999999999950.0)

    @settings(max_examples=300)
    @given(st.builds(lambda m, sign: sign * 10.0 ** m, st.floats(3, 6), st.sampled_from([1, -1])),
           st.builds(lambda m, sign: sign * 10.0 ** m, st.floats(-3, 3), st.sampled_from([1, -1])))
    def test_miss_of_sixteen_eps_is_refused(self, c1, c2):
        # projected directions miss by at most 2 eps of their terms
        miss = 16 * sys.float_info.epsilon * c1 * c1
        with pytest.raises(BadParams):
            CaseIIParams(c1, c2, (1.0 + miss - c1 * c1) / c2)

    @pytest.mark.parametrize("c1, c2, c3", [(math.inf, 1.0, 1.0), (math.nan, 1.0, 1.0),
                                            (1e200, 1e200, -1e200), (0.0, math.inf, 0.0)])
    def test_non_finite_direction_rejected(self, c1, c2, c3):
        with pytest.raises(BadParams):
            CaseIIParams(c1, c2, c3)


class TestGeneratorJordan:
    def test_shift_block(self):
        g = family_generator(custom(1.0, 1.0, 0.0, 1.0, 1.0))
        assert g.matrix == Mat2C(0.0, 1.0, 0.0, 0.0)

    def test_double_euler_critical(self):
        r = double_euler(4.0)
        g = family_generator(r)
        assert g.matrix == Mat2C(4.0, -4.0, 4.0, -4.0)
        assert (g.matrix @ g.matrix).max_abs() == 0.0
        assert max_diff(taylor_exp(g.matrix, 40), r.as_mat2c()) <= 1e-10

    def test_k_off_nilpotent_beyond_the_bound_is_refused(self):
        # classify's band tags this large-entry near quarter turn iii-a, but
        # K**2 is about -I: exp(K) misses R by 1.6e4, far above the bound of
        # about 10.  Read with K's eigenvalue taken as 0, it met R to about 1.
        r = custom(1e5, 1e5, -99999.99999, -1e5, 0.5)
        assert classify(r)[0] is CaseTag.IIIA
        with pytest.raises(NotTraceless, match=r"reproduces custom only to 1\.585e\+04"):
            generators_for(r, [0])

    def test_euler_critical_has_no_hamiltonian(self):
        # an empty family with the obstruction and its Jordan evidence:
        # R P = P J, J the Jordan block with eigenvalue -1
        r = euler(2.0)
        family = generators_for(r, range(-1, 2))
        assert (family.case, family.generators) == (CaseTag.IIIB, ())
        assert family.obstruction == OBSTRUCTION
        assert family.eigen.eigenvalue == -1.0 and family.eigen.degenerate
        p = family.eigen.jordan_basis
        assert max_diff(r.as_mat2c() @ p, p @ Mat2C(-1.0, 1.0, 0.0, -1.0)) == 0.0


class TestHamiltonian:
    def test_euler_unit_tau_coefficients(self):
        h = hamiltonian_from_generator(distinct_generator(euler(1.0), 0))
        want = math.pi / (3.0 * math.sqrt(3.0))
        assert h.c_pp.real == pytest.approx(want, abs=1e-14)
        assert h.c_qq.real == pytest.approx(want, abs=1e-14)
        assert h.c_pq.real == pytest.approx(-want, abs=1e-14)
        assert h.real_valued

    def test_unique_case_coefficients(self):
        h = hamiltonian_from_generator(family_generator(double_euler(4.0)))
        assert (h.c_pp, h.c_qq, h.c_pq) == (-0.5, -0.5, 1.0)

    @pytest.mark.parametrize("build", [velocity_verlet,
                                       lambda t: make("position-verlet", t)])
    @pytest.mark.parametrize("branch", range(-2, 3))
    def test_verlet_has_no_cross_term(self, build, branch):
        r = build(1.3)
        h = hamiltonian_from_generator(distinct_generator(r, branch))
        assert h.c_pq == 0.0

    def test_guard_rejects_traced_matrix(self):
        g = Generator(Mat2C(1.0, 0.0, 0.0, 0.0), 0, 1.0, CaseTag.IA)
        with pytest.raises(NotTraceless):
            hamiltonian_from_generator(g)

    @settings(max_examples=50)
    @given(st.floats(-2, 2), st.floats(-2, 2), st.integers(-2, 2))
    def test_vector_field_matches_generator(self, q, p, branch):
        r = euler(0.66)
        g = distinct_generator(r, branch)
        h = hamiltonian_from_generator(g)
        dq, dp = h.vector_field(q, p)
        zq, zp = g.matrix.apply(q, p)
        assert abs(dq - zq / r.tau) <= 1e-10
        assert abs(dp - zp / r.tau) <= 1e-10


class TestEulerRate:
    def test_branch_zero_unit_tau(self):
        assert euler_rate(1.0, 0) == pytest.approx(math.pi / 3.0, abs=1e-14)

    def test_branch_one_unit_tau(self):
        assert euler_rate(1.0, 1) == pytest.approx(2.0 * math.pi + math.pi / 3.0,
                                                   abs=1e-14)

    def test_large_tau_branch_zero(self):
        want = complex(math.log(2.0) - math.log(7.0 + 3.0 * math.sqrt(5.0)), math.pi)
        assert euler_rate(3.0, 0) == pytest.approx(want, abs=1e-13)

    def test_imaginary_part_is_odd_multiple_of_pi(self):
        for m in range(-3, 4):
            assert euler_rate(2.5, m).imag == (2 * m + 1) * math.pi

    def test_critical_tau_rejected(self):
        with pytest.raises(CriticalTau):
            euler_rate(2.0, 0)

    def test_branch_zero_range(self):
        for tau in (0.1, 0.9, 1.7, 1.99):
            assert 0.0 < euler_rate(tau, 0).real < math.pi

    @pytest.mark.parametrize("tau", [1e-12, 1e-8, 1e-5])
    def test_small_tau_keeps_relative_precision(self, tau):
        # 2*asin(tau/2) = tau + tau**3/24 + ...; acos(1 - tau**2/2) is 0 at 1e-8
        assert euler_rate(tau, 0).real == pytest.approx(tau + tau ** 3 / 24.0, rel=1e-15)

    @pytest.mark.parametrize("tau", [0.5, 0.66, 1.0, 1.5])
    def test_equals_inverse_cosine_form_bit_for_bit(self, tau):
        assert euler_rate(tau, 0).real == math.acos(1.0 - tau * tau / 2.0)


class TestClosedFormAgainstGeneric:
    @pytest.mark.parametrize("branch", range(-2, 3))
    def test_small_tau_identical(self, branch):
        for tau in np.linspace(0.1, 1.9, 19):
            ha = euler_hamiltonian(tau, branch)
            hb = hamiltonian_from_generator(distinct_generator(euler(tau), branch))
            assert abs(ha.c_pp - hb.c_pp) <= 1e-12
            assert abs(ha.c_qq - hb.c_qq) <= 1e-12
            assert abs(ha.c_pq - hb.c_pq) <= 1e-12

    @pytest.mark.parametrize("tau", [2.5, 3.0, 4.0])
    def test_large_tau_same_family_reindexed(self, tau):
        # closed form at branch m equals the generic construction at -m-1:
        # the closed form represents the reciprocal eigenvalue
        for m in range(-2, 3):
            ha = euler_hamiltonian(tau, m)
            hb = hamiltonian_from_generator(distinct_generator(euler(tau), -m - 1))
            assert abs(ha.c_pp - hb.c_pp) <= 1e-12
            assert abs(ha.c_qq - hb.c_qq) <= 1e-12
            assert abs(ha.c_pq - hb.c_pq) <= 1e-12


class TestEnumerateBranches:
    """generators_for over a requested set of branches."""

    def test_three_real_hamiltonians(self):
        family = generators_for(euler(0.66), range(-1, 2))
        assert family.case is CaseTag.IA
        assert [g.branch for g in family.generators] == [-1, 0, 1]
        assert all(hamiltonian_from_generator(g).real_valued for g in family.generators)

    def test_critical_is_empty_with_obstruction(self):
        family = generators_for(euler(2.0), range(-5, 6))
        assert family.case is CaseTag.IIIB
        assert family.generators == ()
        assert "Jordan block with eigenvalue -1" in family.obstruction
        assert family.eigen.jordan_basis is not None

    def test_unique_case_is_singleton(self):
        family = generators_for(double_euler(4.0), range(-5, 6))
        assert family.case is CaseTag.IIIA
        assert len(family.generators) == 1
        assert family.obstruction is None

    def test_scalar_case_uses_params(self):
        family = generators_for(IDENTITY, [1], CaseIIParams.real_rotation())
        assert hamiltonian_from_generator(family.generators[0]).real_valued

    def test_branches_sorted_and_deduplicated(self):
        family = generators_for(euler(1.0), [2, -1, 0, 2])
        assert [g.branch for g in family.generators] == [-1, 0, 2]

    @pytest.mark.parametrize("r, tag", [
        (euler(0.66), CaseTag.IA), (velocity_verlet(2.5), CaseTag.IC),
        (custom(2.0, 1.0, 1.0, 1.0, 1.0), CaseTag.IB), (IDENTITY, CaseTag.II_PLUS),
        (MINUS_IDENTITY, CaseTag.II_MINUS), (double_euler(4.0), CaseTag.IIIA),
        (euler(2.0), CaseTag.IIIB)])
    def test_each_map_is_classified_once(self, monkeypatch, r, tag):
        calls = []

        def counting(*args):
            calls.append(args)
            return classify(*args)

        monkeypatch.setattr(shadowosc.shadow, "classify", counting)
        assert generators_for(r, range(-1, 2)).case is tag
        assert len(calls) == 1


class TestExpResidual:
    """A distinct-case branch is validated on exp(Z) - R = a I + b K, two
    scalars of its carried eigenvalue L, not on a matrix exponential."""

    @pytest.mark.parametrize("name, tau", [("euler", 0.66), ("euler", 3.0),
                                           ("double-euler", 2.0), ("vp", 7.0)])
    def test_built_generators(self, name, tau):
        # away from a ridge the exact form and max_diff(closed_exp(Z), R) agree
        # to rounding
        r = make(name, tau)
        _, eigen = classify(r)
        for g in generators_for(r, range(-3, 4)).generators:
            scale = max(1.0, r.max_abs()) * max(1.0, g.matrix.max_abs())
            direct = max_diff(closed_exp(g.matrix, 1.0, g.log), r.as_mat2c())
            assert abs(two_scalar_residual(r, eigen.d, g.log) - direct) <= \
                64 * sys.float_info.epsilon * scale

    def test_no_matrix_exponential_for_a_distinct_family(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("closed_exp called")

        monkeypatch.setattr(shadowosc.shadow, "closed_exp", refuse)
        for r in (euler(0.66), euler(3.0), double_euler(4.8)):
            assert len(generators_for(r, range(-3, 4)).generators) == 7

    @pytest.mark.parametrize("shift", [1e-6, 2.0 * math.pi / 3.0])
    def test_a_wrong_logarithm_is_refused(self, shift):
        r = euler(0.66)
        _, eigen = classify(r)
        wrong = EigenStructure(eigen.eigenvalue, eigen.angle + shift, eigen.modulus,
                               eigen.degenerate, eigen.d)
        with pytest.raises(NotTraceless):
            generator_distinct(r, wrong, 0)

    @pytest.mark.parametrize("d", [complex(math.nan, 0.0), complex(0.0, math.nan),
                                   complex(math.inf, 0.0)])
    def test_a_non_finite_eigenvalue_is_refused(self, d):
        r = euler(0.66)
        _, eigen = classify(r)
        bad = EigenStructure(eigen.eigenvalue, eigen.angle, eigen.modulus, False, d)
        with pytest.raises(NotTraceless):
            generator_distinct(r, bad, 0)

    # i-b with |K| about 5e307: branch 0's Z is finite, branch +-1's is about
    # 6 times K and overflows, which would make its scale hold any residual
    OVERFLOWING = custom(1.5, 5e307, 2.5e-308, 1.5, 1.0)

    def test_an_overflowing_generator_is_refused(self):
        r = self.OVERFLOWING
        (g,) = generators_for(r, [0]).generators
        assert math.isfinite(g.matrix.max_abs())
        for branches in ([0, 1], [-1, 0]):
            with pytest.raises(NotTraceless, match="only to nan"):
                generators_for(r, branches)

    def test_an_overflowing_generator_is_refused_when_both_scalars_vanish(
            self, monkeypatch):
        r = self.OVERFLOWING
        _, eigen = classify(r)
        exact = SimpleNamespace(cosh=lambda log: r.trace() / 2.0, sinh=lambda log: eigen.d)
        monkeypatch.setattr(shadowosc.shadow, "cmath", exact)
        assert generator_distinct(r, eigen, 0).branch == 0
        with pytest.raises(NotTraceless, match="only to nan"):
            generator_distinct(r, eigen, 1)

    @pytest.mark.parametrize("index", range(4))
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_a_non_finite_z_fails_any_residual(self, index, bad):
        entries = [0.0j] * 4
        entries[index] = complex(bad, 0.0)
        with pytest.raises(NotTraceless):
            _check_exp(0.0, Mat2C(*entries), euler(0.66))


class TestNanResidual:
    @pytest.mark.parametrize("index", range(4))
    def test_nan_in_any_entry_fails(self, monkeypatch, index):
        r = euler(0.66)
        entries = list(r.as_mat2c().entries())
        entries[index] = complex(math.nan, 0.0)
        monkeypatch.setattr(shadowosc.shadow, "closed_exp",
                            lambda z, s=1.0, delta=None: Mat2C(*entries))
        with pytest.raises(NotTraceless):
            _validated(Mat2C(0.0, 0.0, 0.0, 0.0), 0, r, 0j)


maps_at_every_scale = st.one_of(
    st.builds(make, st.sampled_from(sorted(BUILDERS)),
              st.floats(-12.0, 6.0).map(lambda e: 10.0 ** e)),
    st.builds(lambda a, b, c: custom(a, b, c, (1.0 + b * c) / a, 1.0),
              st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3),
              st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
    st.sampled_from([IDENTITY, MINUS_IDENTITY, custom(1.0, 1.0, 0.0, 1.0, 1.0),
                     custom(-1.0, 1.0, 0.0, -1.0, 1.0)]))


class TestEveryScaleHasAnAnswer:
    """A validated family or the iii-b obstruction for every finite symplectic map."""

    @settings(max_examples=400, deadline=None)
    @given(maps_at_every_scale)
    # d = 7.3e-50: the rounded y = 1 + d is 1, so log|y| must not be read off it
    @example(custom(1.0, 1.0, 5.4e-100, 1.0, 1.0))
    def test_family_passes_series_oracle(self, r):
        family = generators_for(r, range(-2, 3))
        if family.case is CaseTag.IIIB:
            assert family.generators == () and family.obstruction is not None
            return
        assert family.generators
        for g in family.generators:
            bound = TOL * max(1.0, r.max_abs()) * max(1.0, g.matrix.max_abs())
            assert max_diff(series_exp(g.matrix), r.as_mat2c()) <= bound

    def test_band_around_double_euler_scalar_point(self):
        # 4,001 maps within 2e-4 of tau = 2*sqrt(2), where R is near -I
        centre = 2.0 * math.sqrt(2.0)
        for k in range(-2000, 2001):
            assert len(generators_for(double_euler(centre + k * 1e-7), range(-2, 3))
                       .generators) == 5

    def test_jordan_generator_is_r_minus_identity_bit_for_bit(self):
        # Z = R - (T/2) I, and T == 2.0 exactly on both maps
        for r in (double_euler(4.0), custom(1.0, 1.0, 0.0, 1.0, 1.0)):
            z = family_generator(r).matrix
            assert repr(z) == repr(Mat2C(r.r1 - 1.0, r.r2, r.r3, r.r4 - 1.0))


class TestRotationsAreReal:
    """An i-a map has unit determinant, so |y| = 1 and log|y| = 0: no rounding
    of det may reach the generator as an imaginary part."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(BUILDERS)),
           st.floats(-12.0, math.log10(1.9)).map(lambda e: 10.0 ** e))
    def test_every_i_a_branch_is_real_valued(self, name, tau):
        family = generators_for(make(name, tau), range(-3, 4))
        assert family.case is CaseTag.IA
        for g in family.generators:
            assert hamiltonian_from_generator(g).real_valued


class TestRealValuedAtLargeTau:
    """Coefficients shrink like 1/tau, so realness is read against their size:
    an absolute bound once called every branch at tau = 1e11 real."""

    @pytest.mark.parametrize("tau", [1e11, 1e12])
    @pytest.mark.parametrize("name", ["euler", "double-euler", "vp"])
    def test_only_the_positive_eigenvalue_branch_zero_is_real(self, name, tau):
        family = generators_for(make(name, tau), range(-2, 3))
        want = {CaseTag.IB: [0], CaseTag.IC: []}[family.case]
        got = [g.branch for g in family.generators if hamiltonian_from_generator(g).real_valued]
        assert got == want
        if name == "euler":
            assert not any(euler_hamiltonian(tau, m).real_valued for m in range(-2, 3))


# (built-in, tau at which its trace is +-2): the T = +-2 ridges, and double-euler's
# R = -I point, where |d| -> 0 and Z's entries grow like |L| / |d|
RIDGES = [("euler", 2.0), ("velocity-verlet", 2.0), ("position-verlet", 2.0),
          ("double-euler", 4.0), ("double-euler", 2.0 * math.sqrt(2.0)),
          ("vp", locate_vp_critical_tau())]


def outcome(read, *args):
    """read(*args), or the type and message of the error it raises."""
    try:
        return read(*args)
    except ShadowOscError as exc:
        return type(exc), str(exc)


def counted_by_records(r, branches, params=None):
    """``real_count``'s reference: the tag of the family and how many of its
    generators give a real-valued Hamiltonian record."""
    family = generators_for(r, branches, params)
    # the tag, not the sign of d, sets every generator's case
    assert all(g.case is family.case for g in family.generators)
    return family.case, sum(hamiltonian_from_generator(g).real_valued
                            for g in family.generators)


def assert_real_count_agrees(r, branches=range(-3, 4), params=None):
    want = outcome(counted_by_records, r, branches, params)
    assert outcome(real_count, r, branches, params) == want
    return want


def conjugated(x, shear, hyperbolic, tau):
    """S M S^-1 with S = [[1, shear], [0, 1]] and M a rotation or a boost by x."""
    c, si, m21 = ((math.cosh(x), math.sinh(x), math.sinh(x)) if hyperbolic
                  else (math.cos(x), math.sin(x), -math.sin(x)))
    return custom(c + shear * m21, si - shear * shear * m21, m21, c - shear * m21, tau)


class TestRealValuedReadsTheGenerator:
    """``real_count(r, branches, params)`` is the tag of ``generators_for`` and
    the number of its generators whose ``hamiltonian_from_generator`` record
    is real-valued, and raises what building the family and the records
    raises, with the same message."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(BUILDERS)), st.floats(-12.0, 6.0).map(lambda e: 10.0 ** e))
    def test_built_ins(self, name, tau):
        assert_real_count_agrees(make(name, tau))

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.1, 3.0), st.floats(0.0, 3.0).map(lambda e: 10.0 ** e), st.booleans(),
           st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e))
    def test_conjugated_rotations_and_boosts(self, x, shear, hyperbolic, tau):
        assert_real_count_agrees(conjugated(x, shear, hyperbolic, tau))

    @pytest.mark.parametrize("preset", sorted(PARAM_PRESETS))
    # the built-ins at their scalar points carry a given k11
    @pytest.mark.parametrize("r", [IDENTITY, MINUS_IDENTITY, double_euler(2 * math.sqrt(2)),
                                   vp(4 * math.sqrt(2))],
                             ids=["I", "-I", "double-euler", "vp"])
    def test_scalar_maps_under_every_preset(self, r, preset):
        tag, count = assert_real_count_agrees(r, params=PARAM_PRESETS[preset]())
        assert tag in (CaseTag.II_PLUS, CaseTag.II_MINUS) and 0 <= count <= 7

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_overflowing_coefficients_raise_alike(self, name):
        r = make(name, 1e-310)
        assert outcome(real_count, r, [-3])[0] is OutOfRange
        assert_real_count_agrees(r, [-3])
        assert_real_count_agrees(r)

    def test_every_branch_is_validated_before_any_coefficient_is_read(self):
        # branch -3's coefficients overflow at tau = 1e-310, and branch 1e307's
        # Z overflows, failing its exp check: validation's error comes first
        x = 0.01
        r = custom(math.cos(x), math.sin(x), -math.sin(x), math.cos(x), 1e-310)
        error = assert_real_count_agrees(r, [-3, 10 ** 307])
        assert error == (NotTraceless, "exp(Z) reproduces custom only to nan")
        assert outcome(real_count, r, [-3])[0] is OutOfRange

    @pytest.mark.parametrize("name, ridge", RIDGES, ids=[f"{n}-{t:.6g}" for n, t in RIDGES])
    def test_built_ins_near_every_ridge(self, name, ridge):
        # ridge +- 10**-k, k = 2..8, and the ridge itself, whose Jordan maps
        # count through their records
        for tau in [ridge] + [ridge + sign * 10.0 ** -k for sign in (1, -1) for k in range(2, 9)]:
            assert_real_count_agrees(make(name, tau))

    @pytest.mark.parametrize("z", [Mat2C(1.0, 0.0, 0.0, 0.0), Mat2C(math.nan, 1.0, 1.0, 0.0)])
    def test_a_generator_with_a_trace_raises_alike(self, z):
        # real_count builds its own, traceless generators; a record from
        # elsewhere is still held to the trace check
        g = Generator(z, 0, 1.0, CaseTag.IA)
        assert outcome(hamiltonian_from_generator, g)[0] is NotTraceless


class TestExponentialIdentityProperty:
    @pytest.mark.parametrize("name", ["euler", "velocity-verlet", "position-verlet",
                                      "double-euler", "vp"])
    def test_series_oracle_over_sparse_grid(self, name):
        for tau in (0.35, 0.8, 1.6, 2.3, 3.1, 4.4):
            r = make(name, tau)
            tag, eigen = classify(r)
            if tag not in (CaseTag.IA, CaseTag.IB, CaseTag.IC):
                continue
            for m in range(-3, 4):
                g = generator_distinct(r, eigen, m)
                assert abs(g.matrix.trace()) <= 1e-10
                assert max_diff(series_exp(g.matrix), r.as_mat2c()) <= 1e-9

    def test_raw_series_valid_on_small_branches(self):
        # with eigenvalue magnitude below ~8 the 40-term truncation tail
        # is under 1e-10, so the raw sum itself must already agree
        for tau in (0.5, 1.0, 1.5):
            r = euler(tau)
            for m in (-1, 0, 1):
                g = distinct_generator(r, m)
                x1, _ = eigenvalues(g.matrix)
                assert abs(x1) < 8.0
                assert max_diff(taylor_exp(g.matrix, 40), r.as_mat2c()) <= 1e-9


def assert_family_passes_through_r(r):
    """Every branch m = -3..3 of r: its flow meets R's stored entries at t = tau
    within verify.BOUND of max(1, |R|) * max(1, |Z|), and exp of its carried
    log is the classified eigenvalue (or its reciprocal) to rounding.

    The flow, not verify.series_exp, is read here: near a ridge |Z| is far
    above |L|, and the oracle's squaring misses R by up to 9e7 * BOUND at
    ridge +- 1e-8 on this same Z.

    Between the steps the flow is exp((t/tau) Z') with Z' = (L / delta_Z) Z,
    delta_Z the eigenvalue of Z's stored entries, which near a ridge differs
    from L by about eps * |K|**2 / |d|**2 (up to 4e-8 at ridge +- 1e-8).  Z'
    is a multiple of Z, so the flow keeps H's level sets and scales H by
    det E(t) = 1 - 2 (delta_Z**2 / L**2 - 1) sinh(sL)**2.  That det is held to
    the rounding of a det read from E's entries, BOUND * max(1, |E|)**2, at
    t = tau/2, and H to verify's conservation check over [0, 10 tau].  Neither
    sees the cancellation error of d itself, which Z = (L / d) K carries.
    """
    tag, eigen = classify(r)
    family = generators_for(r, range(-3, 4))
    assert family.generators, tag
    rm = r.as_mat2c()
    y = eigen.eigenvalue
    for g in family.generators:
        scale = max(1.0, rm.max_abs()) * max(1.0, g.matrix.max_abs())
        assert max_diff(flow_matrix(g, r.tau), rm) <= BOUND * scale, g.branch
        e = cmath.exp(g.log)
        assert min(abs(e - y), abs(e - 1.0 / y)) <= BOUND * abs(y) * max(1.0, abs(g.log))
        half = flow_matrix(g, r.tau / 2.0)
        assert abs(half.det() - 1.0) <= BOUND * max(1.0, half.max_abs()) ** 2, g.branch
        assert check_conservation(hamiltonian_from_generator(g), g).passed, g.branch


class TestNearRidgeFamilies:
    """Within 1e-2 ... 1e-8 of a ridge every built-in gets its family, and its
    flows pass through R: before generators carried their log, validating
    exp(Z) through delta recomputed from Z's entries refused six of these maps
    and let others miss R by up to 2.7e3 * BOUND."""

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("name, ridge", RIDGES, ids=[f"{n}-{t:.6g}" for n, t in RIDGES])
    def test_every_power_of_ten(self, name, ridge, sign):
        for k in range(2, 9):
            assert_family_passes_through_r(make(name, ridge + sign * 10.0 ** -k))

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(RIDGES), st.sampled_from([1, -1]), st.floats(2.0, 8.0))
    def test_between_powers_of_ten(self, ridge, sign, k):
        name, at = ridge
        assert_family_passes_through_r(make(name, at + sign * 10.0 ** -k))
