"""Generators (matrix logarithms) and the Hamiltonians they induce.

A continuous flow exp((t/tau) Z) interpolates the discrete map R exactly
when exp(Z) = R.  A quadratic Hamiltonian

    H(q, p) = c_pp * p**2 + c_qq * q**2 + c_pq * p*q

generates that flow if and only if Z is traceless, in which case

    c_pp = Z12 / (2 tau),  c_qq = -Z21 / (2 tau),  c_pq = Z11 / tau.

Distinct eigenvalues give one generator per logarithm branch m; a scalar
map +-I gives a three-parameter family per branch; a defective map gives
exactly one generator (eigenvalue +1) or none at all (eigenvalue -1).
Every generator is traceless by construction and carries its eigenvalue
delta (Z's eigenvalues are +-delta) as ``Generator.log``: log(y, m) for the
distinct cases, x1 for the scalar case and 0 for the Jordan case.  It is
kept only if Z is finite and exp(Z), read with that delta, meets R to
TOL * max(1, |R|) * max(1, |Z|), |.| the largest entry modulus: Z's rounding
reaches exp(Z) scaled by both.  For distinct eigenvalues exp(Z) - R has the
exact form (cosh L - T/2) I + (sinh L / d - 1) K, two scalars per branch;
the scalar and Jordan generators are checked through ``closed_exp``.

The three coefficients are read off Z by one helper, which
``hamiltonian_from_generator`` and ``real_valued`` share: ``real_valued(g)``
is the Hamiltonian's ``real_valued`` flag, with the same trace and
finiteness checks, but builds no ``ShadowHamiltonian``; ``sweep`` counts
real branches with it.

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
import sys
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
_TERM_ROUNDING = 4.0 * sys.float_info.epsilon  # of c1**2 + c2*c3, per unit of its terms
OBSTRUCTION = ("similar to a Jordan block with eigenvalue -1: any logarithm has "
               "equal nonzero eigenvalues and cannot be traceless")


class Generator(Value):
    """Traceless matrix logarithm of a transition matrix, tagged by branch.

    ``log`` is Z's eigenvalue delta (its eigenvalues are +-delta) as the
    generator was built from it, which every exp((t/tau) Z) reads; None
    (a generator built elsewhere, a perturbed one) makes them recompute it
    from Z's entries.
    """

    __slots__ = ("matrix", "branch", "tau", "case", "log")

    def __init__(self, matrix: Mat2C, branch: int, tau: float, case: CaseTag,
                 log: complex | None = None):
        _set_matrix(self, matrix)
        _set_branch(self, branch)
        _set_tau(self, tau)
        _set_case(self, case)
        _set_log(self, log)


# The records built for every map and branch set their fields through the
# slot setters, as Mat2C does; each constructor is its fields' only writer.
_set_matrix, _set_branch, _set_tau, _set_case, _set_log = Generator._setters


def _check_finite(c_pp: complex, c_qq: complex, c_pq: complex, tau: float,
                  branch: int) -> None:
    """Raise OutOfRange unless the three coefficients are finite."""
    if not (cmath.isfinite(c_pp) and cmath.isfinite(c_qq) and cmath.isfinite(c_pq)):
        raise OutOfRange(
            f"branch m={branch} Hamiltonian at tau={tau:g} has non-finite "
            f"coefficients cA = {c_pp}, cB = {c_qq}, cC = {c_pq}")


class ShadowHamiltonian(Value):
    """Quadratic form c_pp*p**2 + c_qq*q**2 + c_pq*p*q with complex coefficients."""

    __slots__ = ("c_pp", "c_qq", "c_pq", "tau", "branch", "case", "real_valued", "rate")

    def __init__(self, c_pp: complex, c_qq: complex, c_pq: complex, tau: float, branch: int,
                 case: CaseTag, real_valued: bool, rate: complex | None = None):
        _check_finite(c_pp, c_qq, c_pq, tau, branch)
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
    """Direction (c1, c2, c3) of the scalar-case generator, c1**2 + c2*c3 = 1.

    The residual is held to max(PARAM_TOL, 4 eps max(|c1**2|, |c2*c3|)): the
    sum of two large terms carries their rounding, so a projected direction
    with |c1| = 1e4 misses 1 by about 1e-8, while one that misses by more than
    the rounding of its terms would make N**2 = (c1**2 + c2*c3) I a multiple
    of I other than I.  Projected directions miss by at most 2 eps of their
    terms.  Non-finite terms are refused.
    """

    __slots__ = ("c1", "c2", "c3")

    def __init__(self, c1: complex, c2: complex, c3: complex):
        square, product = c1 * c1, c2 * c3
        residual = abs(square + product - 1.0)
        bound = max(PARAM_TOL, _TERM_ROUNDING * max(abs(square), abs(product)))
        if not residual <= bound < math.inf:
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


def _check_exp(exp_resid: float, z: Mat2C, r: TransitionMatrix) -> None:
    """Raise NotTraceless unless max|exp(Z) - R| is within TOL of
    max(1, |R|) * max(1, |Z|); a NaN residual fails, and so does a non-finite
    Z, whose scale would hold any residual."""
    z_max = nan_max(abs(z.e11), abs(z.e12), abs(z.e21), abs(z.e22))
    if not z_max < math.inf:
        exp_resid = math.nan
    # both scale factors are at least 1, so a residual within TOL needs neither
    if not exp_resid <= TOL and exceeds(exp_resid, max(1.0, r.max_abs()) * max(1.0, z_max)):
        raise NotTraceless(
            f"exp(Z) reproduces {r.label} only to {exp_resid:.3e}"
        )


def _validated(z: Mat2C, branch: int, r: TransitionMatrix, case: CaseTag,
               log: complex) -> Generator:
    """The generator, once closed_exp(Z) read with its eigenvalue ``log`` meets R."""
    e = closed_exp(z, 1.0, log)
    _check_exp(nan_max(abs(e.e11 - r.r1), abs(e.e12 - r.r2), abs(e.e21 - r.r3),
                       abs(e.e22 - r.r4)), z, r)
    return Generator(z, branch, r.tau, case, log)


def _distinct_generators(r: TransitionMatrix, eigen: EigenStructure,
                         branches: Iterable[int]) -> tuple[Generator, ...]:
    """Branch generators, in the order of ``branches``, for a map with distinct
    eigenvalues T/2 +- d; r and eigen are read once for all of them.

    Z = (L / d) * K with L = log(y, m), y = T/2 + d and K = R - (T/2) I, whose
    eigenvalues are +-d: Z is traceless with eigenvalues +-L, and
    exp(Z) = cosh(L) I + sinh(L)/d K = (T/2) I + K = R.  Each branch carries
    L and is validated on exp(Z) - R = a I + b K with the two scalars
    a = cosh(L) - T/2 and b = sinh(L)/d - 1; no entry of Z enters them, so
    they keep their digits where Z's entries, about L/|d| near a ridge, are
    large.

    log(y, m) = log|y| + i*(angle + 2*pi*m) takes log|y| = asinh|Re d|: R has
    unit determinant, so (T/2)**2 - d**2 = 1 and |y| = sqrt(1 + d**2) + |d|
    for real d (i-b, i-c), and |y| = 1 for imaginary d (i-a, asinh(0) = 0).
    The log of the rounded |y| errs by about eps, which Z would carry divided
    by |d|: near the T = +-2 ridges, where |d| -> 0, nearly all of it.
    """
    d = eigen.d
    log_abs, angle = math.asinh(abs(d.real)), eigen.angle
    k11, k12, k21, _ = r.traceless()
    half_trace, tau = r.trace() / 2.0, r.tau
    case = CaseTag.IB if d.real > 0.0 else CaseTag.IC if d.real < 0.0 else CaseTag.IA
    cosh, sinh = cmath.cosh, cmath.sinh
    gens = []
    for branch in branches:
        log = complex(log_abs, angle + 2.0 * math.pi * branch)
        factor = log / d
        diag, z12, z21 = factor * k11, factor * k12, factor * k21
        z = Mat2C(diag, z12, z21, -diag)
        a = cosh(log) - half_trace
        b = sinh(log) / d - 1.0
        bk11 = b * k11
        # the entries of |exp(Z) - R|; a sum within TOL holds each of them
        # within it, and a NaN sum is not within it.  Z's entries, about L/d
        # times K's, can overflow where a and b do not: a finite sum of their
        # moduli passes, anything else goes to _check_exp, which refuses a
        # non-finite Z.
        e11, e12, e21, e22 = abs(a + bk11), abs(b * k12), abs(b * k21), abs(a - bk11)
        if not (e11 + e12 + e21 + e22 <= TOL
                and abs(diag) + abs(z12) + abs(z21) < math.inf):
            _check_exp(nan_max(e11, e12, e21, e22), z, r)
        gens.append(Generator(z, branch, tau, case, log))
    return tuple(gens)


def generator_scalar(r: TransitionMatrix, branch: int,
                     params: CaseIIParams | None = None) -> Generator:
    """Branch-m generator for a scalar map R = +-I.

    Any traceless direction (c1, c2, c3) with c1**2 + c2*c3 = 1 works;
    the eigenvalue pair is +-x1 with x1 = 2*pi*i*m for R = I and
    x1 = (2m+1)*pi*i for R = -I.  R = I at branch 0 yields the valid
    trivial Z = 0.  The generator carries x1 as its eigenvalue.
    """
    params = params if params is not None else CaseIIParams.default()
    plus = r.trace() > 0
    x1 = 1j * math.pi * (2 * branch if plus else 2 * branch + 1)
    diag = x1 * params.c1
    z = Mat2C(diag, x1 * params.c2, x1 * params.c3, -diag)
    case = CaseTag.II_PLUS if plus else CaseTag.II_MINUS
    return _validated(z, branch, r, case, x1)


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
    return _validated(Mat2C(*r.traceless()), 0, r, CaseTag.IIIA, 0j)


def _is_real(c_pp: complex, c_qq: complex, c_pq: complex) -> bool:
    """Imaginary parts within TOL of the largest coefficient, which scales like 1/tau."""
    imag = abs(c_pp.imag) + abs(c_qq.imag) + abs(c_pq.imag)
    return imag == 0.0 or not exceeds(imag, max(abs(c_pp), abs(c_qq), abs(c_pq)))


def _coefficients(g: Generator) -> tuple[complex, complex, complex]:
    """(c_pp, c_qq, c_pq) of a generator traceless to TOL * max(1, |Z|)."""
    z = g.matrix
    trace = abs(z.trace())
    # generators built here have trace exactly 0 and need no scale
    if trace and exceeds(trace, max(1.0, z.max_abs())):
        raise NotTraceless(f"trace residual {trace:.3e}")
    tau = g.tau
    return z.e12 / (2.0 * tau), -z.e21 / (2.0 * tau), z.e11 / tau


def hamiltonian_from_generator(g: Generator) -> ShadowHamiltonian:
    """Read the quadratic coefficients off a generator traceless to TOL * max(1, |Z|)."""
    c_pp, c_qq, c_pq = _coefficients(g)
    return ShadowHamiltonian(c_pp, c_qq, c_pq, g.tau, g.branch, g.case,
                             _is_real(c_pp, c_qq, c_pq))


def real_valued(g: Generator) -> bool:
    """``hamiltonian_from_generator(g).real_valued``, with its checks, but
    without building the Hamiltonian."""
    c_pp, c_qq, c_pq = _coefficients(g)
    _check_finite(c_pp, c_qq, c_pq, g.tau, g.branch)
    return _is_real(c_pp, c_qq, c_pq)


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
