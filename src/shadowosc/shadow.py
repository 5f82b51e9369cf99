"""Generators (matrix logarithms) and the Hamiltonians they induce.

A continuous flow exp((t/tau) Z) interpolates the discrete map R exactly
when exp(Z) = R.  A quadratic Hamiltonian

    H(q, p) = c_pp * p**2 + c_qq * q**2 + c_pq * p*q

generates that flow if and only if Z is traceless, in which case

    c_pp = Z12 / (2 tau),  c_qq = -Z21 / (2 tau),  c_pq = Z11 / tau.

Distinct eigenvalues give one generator per logarithm branch m; a scalar
map +-I gives a three-parameter family per branch; a defective map gives
exactly one generator (eigenvalue +1) or none at all (eigenvalue -1).
Every generator is traceless by construction and is kept only if
closed_exp(Z) meets R to TOL * max(1, |R|) * max(1, |Z|), |.| the largest
entry modulus: Z's rounding reaches exp(Z) scaled by both.

For the explicit Euler map the branch family also has a closed form,
H = rate * (p**2 + q**2 - tau*p*q) / (tau * sqrt(|4 - tau**2|)); see
``euler_rate``.  For tau > 2 its branch labels run opposite to the
generic construction (the closed form picks the reciprocal eigenvalue
as representative): branch m in one labeling is branch -m-1 in the other,
and the set of Hamiltonians over all integers m is identical.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterable

from .algebra import TOL, Mat2C, Value, closed_exp, exceeds, nan_max, re_im
from .classifier import (
    DISTINCT_TAGS,
    SCALAR_TAGS,
    CaseTag,
    EigenStructure,
    classify,
)
from .errors import (
    BadParams,
    CriticalTau,
    InvalidTau,
    NoHamiltonian,
    NotDefective,
    NotTraceless,
    OutOfRange,
)
from .integrators import TransitionMatrix

PARAM_TOL = 1e-10
OBSTRUCTION = ("similar to a Jordan block with eigenvalue -1: any logarithm has "
               "equal nonzero eigenvalues and cannot be traceless")


class Generator(Value):
    """Traceless matrix logarithm of a transition matrix, tagged by branch."""

    __slots__ = ("matrix", "branch", "tau", "case")

    def __init__(self, matrix: Mat2C, branch: int, tau: float, case: CaseTag):
        _set_matrix(self, matrix)
        _set_branch(self, branch)
        _set_tau(self, tau)
        _set_case(self, case)


# The records built for every map and branch set their fields through the
# slot setters, as Mat2C does; each constructor is its fields' only writer.
_set_matrix, _set_branch, _set_tau, _set_case = Generator._setters


class ShadowHamiltonian(Value):
    """Quadratic form c_pp*p**2 + c_qq*q**2 + c_pq*p*q with complex coefficients."""

    __slots__ = ("c_pp", "c_qq", "c_pq", "tau", "branch", "case", "real_valued", "rate")

    def __init__(self, c_pp: complex, c_qq: complex, c_pq: complex, tau: float, branch: int,
                 case: CaseTag, real_valued: bool, rate: complex | None = None):
        if not (cmath.isfinite(c_pp) and cmath.isfinite(c_qq) and cmath.isfinite(c_pq)):
            raise OutOfRange(
                f"branch m={branch} Hamiltonian at tau={tau:g} has non-finite "
                f"coefficients cA = {c_pp}, cB = {c_qq}, cC = {c_pq}")
        _set_c_pp(self, c_pp)
        _set_c_qq(self, c_qq)
        _set_c_pq(self, c_pq)
        _set_h_tau(self, tau)
        _set_h_branch(self, branch)
        _set_h_case(self, case)
        _set_real_valued(self, real_valued)
        _set_rate(self, rate)

    def evaluate(self, q: complex, p: complex) -> complex:
        return self.c_pp * p * p + self.c_qq * q * q + self.c_pq * p * q

    def vector_field(self, q: complex, p: complex) -> tuple[complex, complex]:
        """(dq/dt, dp/dt) = (dH/dp, -dH/dq)."""
        return (2.0 * self.c_pp * p + self.c_pq * q,
                -(2.0 * self.c_qq * q + self.c_pq * p))

    def to_json_dict(self) -> dict:
        out = {
            "case": self.case.value,
            "m": self.branch,
            "tau": self.tau,
            "cA": re_im(self.c_pp),
            "cB": re_im(self.c_qq),
            "cC": re_im(self.c_pq),
            "real_valued": self.real_valued,
        }
        if self.rate is not None:
            out["lambda"] = re_im(self.rate)
        return out


(_set_c_pp, _set_c_qq, _set_c_pq, _set_h_tau, _set_h_branch, _set_h_case, _set_real_valued,
 _set_rate) = ShadowHamiltonian._setters


class CaseIIParams(Value):
    """Direction (c1, c2, c3) of the scalar-case generator, c1**2 + c2*c3 = 1."""

    __slots__ = ("c1", "c2", "c3")

    def __init__(self, c1: complex, c2: complex, c3: complex):
        residual = abs(c1 * c1 + c2 * c3 - 1.0)
        if residual > PARAM_TOL:
            raise BadParams(f"c1**2 + c2*c3 = 1 violated by {residual:.3e}")
        self._store(c1, c2, c3)

    @classmethod
    def default(cls) -> "CaseIIParams":
        return cls(0.0, 1.0, 1.0)

    @classmethod
    def real_rotation(cls) -> "CaseIIParams":
        return cls(0.0, 1j, -1j)

    @classmethod
    def hyperbolic(cls) -> "CaseIIParams":
        return cls(1.0, 0.0, 1.0)

    @classmethod
    def projected(cls, c1: complex, c2: complex) -> "CaseIIParams":
        """Keep (c1, c2) and solve the constraint for c3; needs c2 != 0."""
        if c2 == 0:
            raise BadParams("projection onto the constraint needs c2 != 0")
        return cls(c1, c2, (1.0 - complex(c1) * complex(c1)) / complex(c2))


PARAM_PRESETS = {
    "default": CaseIIParams.default,
    "real-rotation": CaseIIParams.real_rotation,
    "hyperbolic": CaseIIParams.hyperbolic,
}


class GeneratorFamily(Value):
    """Case tag and every requested branch generator of a map.

    For iii-b, where no Hamiltonian exists, ``generators`` is empty,
    ``obstruction`` holds the reason and ``eigen.jordan_basis`` the evidence.
    """

    __slots__ = ("case", "eigen", "generators", "obstruction")

    def __init__(self, case: CaseTag, eigen: EigenStructure, generators: tuple[Generator, ...],
                 obstruction: str | None = None):
        _set_family_case(self, case)
        _set_eigen(self, eigen)
        _set_generators(self, generators)
        _set_obstruction(self, obstruction)


_set_family_case, _set_eigen, _set_generators, _set_obstruction = GeneratorFamily._setters


def _exp_residual(z: Mat2C, r: TransitionMatrix) -> float:
    """``max_diff(closed_exp(z), r.as_mat2c())``, read straight from R's entries.

    The same subtractions in the same order, so the value is bit-for-bit
    equal, without building R as a Mat2C; NaN if any difference is NaN.
    """
    e = closed_exp(z)
    return nan_max(abs(e.e11 - r.r1), abs(e.e12 - r.r2), abs(e.e21 - r.r3),
                   abs(e.e22 - r.r4))


def _validated(z: Mat2C, branch: int, r: TransitionMatrix, case: CaseTag) -> Generator:
    exp_resid = _exp_residual(z, r)
    # both scale factors are at least 1, so a residual within TOL needs neither
    if not exp_resid <= TOL and exceeds(exp_resid,
                                        max(1.0, r.max_abs()) * max(1.0, z.max_abs())):
        raise NotTraceless(
            f"exp(Z) reproduces {r.label} only to {exp_resid:.3e}"
        )
    return Generator(z, branch, r.tau, case)


def generator_distinct(r: TransitionMatrix, eigen: EigenStructure, branch: int) -> Generator:
    """Branch-m generator for a map with distinct eigenvalues T/2 +- d."""
    return _distinct_generators(r, eigen, (branch,))[0]


def _distinct_generators(r: TransitionMatrix, eigen: EigenStructure,
                         branches: Iterable[int]) -> tuple[Generator, ...]:
    """Branch generators, in the order of ``branches``, for a map with distinct
    eigenvalues T/2 +- d; r and eigen are read once for all of them.

    Z = (log(y, m) / d) * K with y = T/2 + d and K = R - (T/2) I, whose
    eigenvalues are +-d: Z is traceless with eigenvalues +-log(y, m), and
    exp(Z) = cosh(log y) I + sinh(log y)/d K = (T/2) I + K = R.

    log(y, m) = log|y| + i*(angle + 2*pi*m) takes log|y| = asinh|Re d|: R has
    unit determinant, so (T/2)**2 - d**2 = 1 and |y| = sqrt(1 + d**2) + |d|
    for real d (i-b, i-c), and |y| = 1 for imaginary d (i-a, asinh(0) = 0).
    The log of the rounded |y| errs by about eps, which Z would carry divided
    by |d|: near the T = +-2 ridges, where |d| -> 0, nearly all of it.
    """
    d = eigen.d
    log_abs, angle = math.asinh(abs(d.real)), eigen.angle
    k11, k12, k21, _ = r.traceless()
    case = CaseTag.IB if d.real > 0.0 else CaseTag.IC if d.real < 0.0 else CaseTag.IA
    gens = []
    for branch in branches:
        factor = complex(log_abs, angle + 2.0 * math.pi * branch) / d
        diag = factor * k11
        gens.append(_validated(Mat2C(diag, factor * k12, factor * k21, -diag), branch, r, case))
    return tuple(gens)


def generator_scalar(r: TransitionMatrix, branch: int,
                     params: CaseIIParams | None = None) -> Generator:
    """Branch-m generator for a scalar map R = +-I.

    Any traceless direction (c1, c2, c3) with c1**2 + c2*c3 = 1 works;
    the eigenvalue pair is +-x1 with x1 = 2*pi*i*m for R = I and
    x1 = (2m+1)*pi*i for R = -I.  R = I at branch 0 yields the valid
    trivial Z = 0.
    """
    params = params if params is not None else CaseIIParams.default()
    plus = r.trace() > 0
    x1 = 1j * math.pi * (2 * branch if plus else 2 * branch + 1)
    diag = x1 * params.c1
    z = Mat2C(diag, x1 * params.c2, x1 * params.c3, -diag)
    case = CaseTag.II_PLUS if plus else CaseTag.II_MINUS
    return _validated(z, branch, r, case)


def generator_jordan(r: TransitionMatrix) -> Generator:
    """The unique generator of a defective map with eigenvalue +1: Z = K.

    K = R - (T/2) I is nilpotent to tolerance, so exp(Z) = I + Z = R.  A
    defective map with eigenvalue -1 admits no traceless logarithm; that
    outcome is reported through NoHamiltonian with the Jordan evidence.
    """
    return _jordan_generator(r, *classify(r))


def _jordan_generator(r: TransitionMatrix, tag: CaseTag, eigen: EigenStructure) -> Generator:
    """``generator_jordan`` for a map already classified as (tag, eigen)."""
    if tag is CaseTag.IIIB:
        raise NoHamiltonian(r.label, r.tau, eigen)
    if tag is not CaseTag.IIIA:
        raise NotDefective(f"{r.label} at tau={r.tau:g} classifies as {tag}")
    return _validated(Mat2C(*r.traceless()), 0, r, CaseTag.IIIA)


def _is_real(c_pp: complex, c_qq: complex, c_pq: complex) -> bool:
    """Imaginary parts within TOL of the largest coefficient, which scales like 1/tau."""
    imag = abs(c_pp.imag) + abs(c_qq.imag) + abs(c_pq.imag)
    return imag == 0.0 or not exceeds(imag, max(abs(c_pp), abs(c_qq), abs(c_pq)))


def hamiltonian_from_generator(g: Generator) -> ShadowHamiltonian:
    """Read the quadratic coefficients off a generator traceless to TOL * max(1, |Z|)."""
    z = g.matrix
    trace = abs(z.trace())
    # generators built here have trace exactly 0 and need no scale
    if trace and exceeds(trace, max(1.0, z.max_abs())):
        raise NotTraceless(f"trace residual {trace:.3e}")
    c_pp = z.e12 / (2.0 * g.tau)
    c_qq = -z.e21 / (2.0 * g.tau)
    c_pq = z.e11 / g.tau
    return ShadowHamiltonian(c_pp, c_qq, c_pq, g.tau, g.branch, g.case,
                             _is_real(c_pp, c_qq, c_pq))


def euler_rate(tau: float, branch: int) -> complex:
    """Flow rate of the branch-m Hamiltonian of the explicit Euler map.

    For 0 < tau < 2 the rate is real, 2*pi*m + 2*asin(tau/2) with the
    branch-0 value in (0, pi): acos(1 - tau**2/2), without its loss of
    precision as tau -> 0.  For tau > 2 it is complex,
    i*(2m+1)*pi + log 2 - log(tau**2 - 2 + tau*sqrt(tau**2 - 4)).
    """
    if not tau > 0:
        raise InvalidTau(f"tau must be positive, got {tau!r}")
    if abs(tau - 2.0) <= 1e-12:
        raise CriticalTau("the Euler map is defective with eigenvalue -1 at tau = 2")
    if tau < 2.0:
        return complex(2.0 * math.pi * branch + 2.0 * math.asin(tau / 2.0), 0.0)
    root = math.sqrt((tau - 2.0) * (tau + 2.0))
    return complex(math.log(2.0) - math.log(tau * tau - 2.0 + tau * root),
                   (2 * branch + 1) * math.pi)


def euler_hamiltonian(tau: float, branch: int) -> ShadowHamiltonian:
    """Closed-form branch-m Hamiltonian of the explicit Euler map.

    H = rate * (p**2 + q**2 - tau*p*q) / (tau * root) with
    root = sqrt(4 - tau**2) for tau < 2 and sqrt(tau**2 - 4) for tau > 2.
    An independent route to the same family as the generic construction.
    """
    rate = euler_rate(tau, branch)
    if tau < 2.0:
        root = math.sqrt((2.0 - tau) * (2.0 + tau))
        case = CaseTag.IA
    else:
        root = math.sqrt((tau - 2.0) * (tau + 2.0))
        case = CaseTag.IC
    c_pp = rate / (tau * root)
    c_pq = -rate / root
    return ShadowHamiltonian(c_pp, c_pp, c_pq, tau, branch, case,
                             _is_real(c_pp, c_pp, c_pq), rate=rate)


def generators_for(r: TransitionMatrix, branches: Iterable[int],
                   params: CaseIIParams | None = None) -> GeneratorFamily:
    """All generators of r for the requested branches, or the obstruction.

    Distinct and scalar cases give one generator per branch; a defective
    map with eigenvalue +1 gives a singleton independent of the request;
    eigenvalue -1 gives an empty family carrying the obstruction.
    """
    tag, eigen = classify(r)
    ordered = sorted(set(map(int, branches)))
    if tag in DISTINCT_TAGS:
        return GeneratorFamily(tag, eigen, _distinct_generators(r, eigen, ordered))
    if tag in SCALAR_TAGS:
        gens = tuple(generator_scalar(r, m, params) for m in ordered)
        return GeneratorFamily(tag, eigen, gens)
    if tag is CaseTag.IIIA:
        return GeneratorFamily(tag, eigen, (_jordan_generator(r, tag, eigen),))
    return GeneratorFamily(tag, eigen, (), OBSTRUCTION)
