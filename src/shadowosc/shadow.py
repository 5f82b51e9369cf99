"""Generators (matrix logarithms) and the Hamiltonians they induce.

A continuous flow exp((t/tau) Z) interpolates the discrete map R exactly
when exp(Z) = R.  A quadratic Hamiltonian

    H(q, p) = c_pp * p**2 + c_qq * q**2 + c_pq * p*q

generates that flow if and only if Z is traceless, in which case

    c_pp = Z12 / (2 tau),  c_qq = -Z21 / (2 tau),  c_pq = Z11 / tau.

Distinct eigenvalues give one generator per logarithm branch m; a scalar
map +-I gives a three-parameter family per branch; a defective map gives
exactly one generator (eigenvalue +1) or none at all (eigenvalue -1).

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
from dataclasses import dataclass
from typing import Iterable

from .algebra import Mat2C, closed_exp, log_branch, max_diff, re_im
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

TRACE_TOL = 1e-10
EXP_RESIDUAL_TOL = 1e-9
PARAM_TOL = 1e-10
REAL_TOL = 1e-10
OBSTRUCTION = ("similar to a Jordan block with eigenvalue -1: any logarithm has "
               "equal nonzero eigenvalues and cannot be traceless")


@dataclass(frozen=True)
class Generator:
    """Traceless matrix logarithm of a transition matrix, tagged by branch."""

    matrix: Mat2C
    branch: int
    tau: float
    case: CaseTag


@dataclass(frozen=True)
class ShadowHamiltonian:
    """Quadratic form c_pp*p**2 + c_qq*q**2 + c_pq*p*q with complex coefficients."""

    c_pp: complex
    c_qq: complex
    c_pq: complex
    tau: float
    branch: int
    case: CaseTag
    real_valued: bool
    rate: complex | None = None

    def __post_init__(self):
        if not (cmath.isfinite(self.c_pp) and cmath.isfinite(self.c_qq)
                and cmath.isfinite(self.c_pq)):
            raise OutOfRange(
                f"branch m={self.branch} Hamiltonian at tau={self.tau:g} has non-finite "
                f"coefficients cA = {self.c_pp}, cB = {self.c_qq}, cC = {self.c_pq}")

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


@dataclass(frozen=True)
class CaseIIParams:
    """Direction (c1, c2, c3) of the scalar-case generator, c1**2 + c2*c3 = 1."""

    c1: complex
    c2: complex
    c3: complex

    def __post_init__(self):
        residual = abs(self.c1 * self.c1 + self.c2 * self.c3 - 1.0)
        if residual > PARAM_TOL:
            raise BadParams(f"c1**2 + c2*c3 = 1 violated by {residual:.3e}")

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


@dataclass(frozen=True)
class GeneratorFamily:
    """Case tag and every requested branch generator of a map.

    For iii-b, where no Hamiltonian exists, ``generators`` is empty,
    ``obstruction`` holds the reason and ``eigen.jordan_basis`` the evidence.
    """

    case: CaseTag
    eigen: EigenStructure
    generators: tuple[Generator, ...]
    obstruction: str | None = None


def _distinct_case(eigen: EigenStructure) -> CaseTag:
    if eigen.angle == 0.0:
        return CaseTag.IB
    if eigen.angle == math.pi and eigen.modulus > 1.0:
        return CaseTag.IC
    return CaseTag.IA


def _validated(z: Mat2C, branch: int, r: TransitionMatrix, case: CaseTag,
               exp_tol: float = EXP_RESIDUAL_TOL) -> Generator:
    trace_resid = abs(z.trace())
    if trace_resid > TRACE_TOL:
        raise NotTraceless(f"trace residual {trace_resid:.3e}")
    exp_resid = max_diff(closed_exp(z), r.as_mat2c())
    if exp_resid > exp_tol:
        raise NotTraceless(
            f"exp(Z) reproduces {r.label} only to {exp_resid:.3e}"
        )
    return Generator(z, branch, r.tau, case)


def generator_distinct(r: TransitionMatrix, eigen: EigenStructure, branch: int) -> Generator:
    """Branch-m generator for a map with distinct eigenvalues y, 1/y.

    Z = log(y, m)/(y - 1/y) * (2R - (y + 1/y) I); traceless because
    y + 1/y equals the trace of R.
    """
    y = eigen.eigenvalue
    factor = log_branch(y, branch) / (y - 1.0 / y)
    diag = factor * (r.r1 - r.r4)
    z = Mat2C(diag, 2.0 * factor * r.r2, 2.0 * factor * r.r3, -diag)
    return _validated(z, branch, r, _distinct_case(eigen))


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
    """The unique generator of a defective map with eigenvalue +1: Z = R - I.

    Z is nilpotent, so exp(Z) = I + Z = R exactly.  A defective map with
    eigenvalue -1 admits no traceless logarithm; that outcome is reported
    through NoHamiltonian together with the Jordan evidence.
    """
    tag, eigen = classify(r)
    if tag is CaseTag.IIIB:
        raise NoHamiltonian(r.label, r.tau, eigen)
    if tag is not CaseTag.IIIA:
        raise NotDefective(f"{r.label} at tau={r.tau:g} classifies as {tag}")
    z = Mat2C(r.r1 - 1.0, r.r2, r.r3, r.r4 - 1.0)
    nilpotency = (z @ z).max_abs()
    if nilpotency > 1e-10:
        raise NotTraceless(f"Z**2 residual {nilpotency:.3e}")
    return _validated(z, 0, r, CaseTag.IIIA, exp_tol=1e-10)


def _is_real(c_pp: complex, c_qq: complex, c_pq: complex) -> bool:
    return abs(c_pp.imag) + abs(c_qq.imag) + abs(c_pq.imag) <= REAL_TOL


def hamiltonian_from_generator(g: Generator) -> ShadowHamiltonian:
    """Read the quadratic coefficients off a traceless generator."""
    z = g.matrix
    if abs(z.trace()) > TRACE_TOL:
        raise NotTraceless(f"trace residual {abs(z.trace()):.3e}")
    c_pp = z.e12 / (2.0 * g.tau)
    c_qq = -z.e21 / (2.0 * g.tau)
    c_pq = z.e11 / g.tau
    return ShadowHamiltonian(c_pp, c_qq, c_pq, g.tau, g.branch, g.case,
                             _is_real(c_pp, c_qq, c_pq))


def euler_rate(tau: float, branch: int) -> complex:
    """Flow rate of the branch-m Hamiltonian of the explicit Euler map.

    For 0 < tau < 2 the rate is real, 2*pi*m + acos(1 - tau**2/2) with
    the branch-0 value in (0, pi); the inverse cosine, not the inverse
    sine, covers the whole range.  For tau > 2 it is complex,
    i*(2m+1)*pi + log 2 - log(tau**2 - 2 + tau*sqrt(tau**2 - 4)).
    """
    if not tau > 0:
        raise InvalidTau(f"tau must be positive, got {tau!r}")
    if abs(tau - 2.0) <= 1e-12:
        raise CriticalTau("the Euler map is defective with eigenvalue -1 at tau = 2")
    if tau < 2.0:
        return complex(2.0 * math.pi * branch + math.acos(1.0 - tau * tau / 2.0), 0.0)
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
    ordered = sorted(set(int(b) for b in branches))
    if tag in DISTINCT_TAGS:
        gens = tuple(generator_distinct(r, eigen, m) for m in ordered)
        return GeneratorFamily(tag, eigen, gens)
    if tag in SCALAR_TAGS:
        gens = tuple(generator_scalar(r, m, params) for m in ordered)
        return GeneratorFamily(tag, eigen, gens)
    if tag is CaseTag.IIIA:
        return GeneratorFamily(tag, eigen, (generator_jordan(r),))
    return GeneratorFamily(tag, eigen, (), OBSTRUCTION)
