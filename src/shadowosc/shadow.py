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
kept only if Z is finite and exp(Z) meets R to
TOL * max(1, |R|) * max(1, |Z|), |.| the largest entry modulus: Z's rounding
reaches exp(Z) scaled by both.  exp(Z) is read with the carried delta,
except for the Jordan case, whose check reads delta off Z: the 0 it
carries is what the builder assumed, and a check that read it would not
see a K that is not nilpotent.  For distinct eigenvalues exp(Z) - R has the
exact form (cosh L - T/2) I + (sinh L / d - 1) K, two scalars per branch;
the scalar and Jordan generators are checked through ``closed_exp``.

One function, ``_branches``, picks the builder for ``classify``'s tag and
returns the validated branches as plain tuples (m, L, Z11, Z12, Z21, Z22).
``generators_for`` wraps each in a ``Generator`` whose case is the tag,
as do ``generator_scalar`` and ``generator_jordan`` for their one branch;
``real_count`` reads the coefficients straight off them, with the same
finiteness checks and realness rule as ``hamiltonian_from_generator``, and
builds no ``Generator`` or ``ShadowHamiltonian`` for any tag; ``sweep``
counts real branches with it, handing it the branches already in order.

Every map, Euler's included, takes this construction.  K's diagonal is the
map's ``TransitionMatrix.k11``, exact for the built-ins, so Z keeps the
modified Hamiltonian's first-order term while k11, about tau**2, is a
normal float: down to tau of about 1e-154.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections.abc import Iterable, Sequence

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
# a validated branch: (m, L, Z11, Z12, Z21, Z22), Z traceless with eigenvalues +-L
Branch = tuple[int, complex, complex, complex, complex, complex]


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
        self._store(matrix, branch, tau, case, log)


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
        self._store(c_pp, c_qq, c_pq, tau, branch, case, real_valued, rate)

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
        self._store(case, eigen, generators, obstruction)


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


def _validated(z: Mat2C, branch: int, r: TransitionMatrix, log: complex,
               delta: complex | None = None) -> Branch:
    """Branch ``branch`` of Z carrying ``log``, once closed_exp(Z) read with
    the eigenvalue ``delta`` (None: read from Z) meets R."""
    e = closed_exp(z, 1.0, delta)
    _check_exp(nan_max(abs(e.e11 - r.r1), abs(e.e12 - r.r2), abs(e.e21 - r.r3),
                       abs(e.e22 - r.r4)), z, r)
    return branch, log, z.e11, z.e12, z.e21, z.e22


def _distinct_branches(r: TransitionMatrix, eigen: EigenStructure,
                       branches: Iterable[int]) -> list[Branch]:
    """Each requested branch, in the order of ``branches``, for a map with
    distinct eigenvalues T/2 +- d; r and eigen are read once for all of them,
    and every branch is validated before the list is returned, so a caller
    reads no branch before all have passed.

    Z = (L / d) * K with L = log(y, m), y = T/2 + d and K = R - (T/2) I, whose
    eigenvalues are +-d: Z is traceless (Z22 = -Z11) with eigenvalues +-L,
    and exp(Z) = cosh(L) I + sinh(L)/d K = (T/2) I + K = R.  Each branch is
    validated on exp(Z) - R = a I + b K with the two scalars
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
    half_trace = r.trace() / 2.0
    cosh, sinh = cmath.cosh, cmath.sinh
    validated = []
    for branch in branches:
        log = complex(log_abs, angle + 2.0 * math.pi * branch)
        factor = log / d
        diag, z12, z21 = factor * k11, factor * k12, factor * k21
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
            _check_exp(nan_max(e11, e12, e21, e22), Mat2C(diag, z12, z21, -diag), r)
        validated.append((branch, log, diag, z12, z21, -diag))
    return validated


def _scalar_branch(r: TransitionMatrix, tag: CaseTag, branch: int,
                   params: CaseIIParams | None) -> Branch:
    """Branch m of a scalar map R = +-I, read as R = I for tag ii(+).

    Any traceless direction (c1, c2, c3) with c1**2 + c2*c3 = 1 works;
    the eigenvalue pair is +-x1 with x1 = 2*pi*i*m for R = I and
    x1 = (2m+1)*pi*i for R = -I.  R = I at branch 0 yields the valid
    trivial Z = 0.  The branch carries x1 as its eigenvalue.
    """
    params = params if params is not None else CaseIIParams.default()
    x1 = 1j * math.pi * (2 * branch if tag is CaseTag.II_PLUS else 2 * branch + 1)
    diag = x1 * params.c1
    return _validated(Mat2C(diag, x1 * params.c2, x1 * params.c3, -diag), branch, r, x1, x1)


def _branches(r: TransitionMatrix, tag: CaseTag, eigen: EigenStructure,
              ordered: Sequence[int], params: CaseIIParams | None) -> list[Branch]:
    """The validated branches of a map classified as (tag, eigen), for the
    branches ``ordered``: one per branch for distinct eigenvalues and for
    +-I, the one Jordan branch for iii-a whatever was asked for, none for
    iii-b."""
    if tag in DISTINCT_TAGS:
        return _distinct_branches(r, eigen, ordered)
    if tag in SCALAR_TAGS:
        return [_scalar_branch(r, tag, m, params) for m in ordered]
    if tag is CaseTag.IIIA:
        # Z = K, nilpotent to tolerance, so exp(Z) = I + Z = R.  exp(Z) is read
        # with the eigenvalue read off Z, not the 0 the branch carries: a check
        # that took K**2 = 0 as given would read only R's I part, and pass a
        # large-entry K that classify's band took for nilpotent
        return [_validated(Mat2C(*r.traceless()), 0, r, 0j)]
    return []


def generator_scalar(r: TransitionMatrix, branch: int,
                     params: CaseIIParams | None = None) -> Generator:
    """Branch-m generator for a scalar map R = +-I (``_scalar_branch``).

    A map that classify does not tag ii(+-) is read as +I or -I by the sign
    of its trace, and the branch's exp check decides whether it passes.
    """
    tag, eigen = classify(r)
    if tag not in SCALAR_TAGS:
        tag = CaseTag.II_PLUS if r.trace() > 0 else CaseTag.II_MINUS
    return _family(r, tag, eigen, (branch,), params).generators[0]


def generator_jordan(r: TransitionMatrix) -> Generator:
    """The unique generator of a defective map with eigenvalue +1: Z = K.

    A defective map with eigenvalue -1 admits no traceless logarithm; that
    outcome is reported through NoHamiltonian with the Jordan evidence.
    """
    tag, eigen = classify(r)
    if tag is CaseTag.IIIB:
        raise NoHamiltonian(r.label, r.tau, eigen)
    if tag is not CaseTag.IIIA:
        raise NotDefective(f"{r.label} at tau={r.tau:g} classifies as {tag}")
    return _family(r, tag, eigen, (), None).generators[0]


def _is_real(c_pp: complex, c_qq: complex, c_pq: complex) -> bool:
    """Imaginary parts within TOL of the largest coefficient, which scales like 1/tau."""
    imag = abs(c_pp.imag) + abs(c_qq.imag) + abs(c_pq.imag)
    return imag == 0.0 or not exceeds(imag, max(abs(c_pp), abs(c_qq), abs(c_pq)))


def _coefficients(z11: complex, z12: complex, z21: complex,
                  tau: float) -> tuple[complex, complex, complex]:
    """(c_pp, c_qq, c_pq) of the traceless generator with entries z11, z12, z21."""
    return z12 / (2.0 * tau), -z21 / (2.0 * tau), z11 / tau


def hamiltonian_from_generator(g: Generator, rate: complex | None = None) -> ShadowHamiltonian:
    """Read the quadratic coefficients off a generator traceless to TOL * max(1, |Z|);
    ``rate``, where given, is recorded beside them."""
    z = g.matrix
    trace = abs(z.trace())
    # generators built here have trace exactly 0 and need no scale
    if trace and exceeds(trace, max(1.0, z.max_abs())):
        raise NotTraceless(f"trace residual {trace:.3e}")
    c_pp, c_qq, c_pq = _coefficients(z.e11, z.e12, z.e21, g.tau)
    return ShadowHamiltonian(c_pp, c_qq, c_pq, g.tau, g.branch, g.case,
                             _is_real(c_pp, c_qq, c_pq), rate)


def generators_for(r: TransitionMatrix, branches: Iterable[int],
                   params: CaseIIParams | None = None) -> GeneratorFamily:
    """All generators of r for the requested branches, or the obstruction.

    Distinct and scalar cases give one generator per branch; a defective
    map with eigenvalue +1 gives a singleton independent of the request;
    eigenvalue -1 gives an empty family carrying the obstruction.
    """
    tag, eigen = classify(r)
    return _family(r, tag, eigen, sorted(set(map(int, branches))), params)


def _family(r: TransitionMatrix, tag: CaseTag, eigen: EigenStructure,
            ordered: Sequence[int], params: CaseIIParams | None) -> GeneratorFamily:
    """``generators_for`` of a map classified as (tag, eigen), for the
    branches ``ordered``, sorted and without repeats."""
    branches, tau = _branches(r, tag, eigen, ordered, params), r.tau
    generators = tuple(Generator(Mat2C(z11, z12, z21, z22), m, tau, tag, log)
                       for m, log, z11, z12, z21, z22 in branches)
    return GeneratorFamily(tag, eigen, generators,
                           OBSTRUCTION if tag is CaseTag.IIIB else None)


def real_count(r: TransitionMatrix, ordered: Sequence[int],
               params: CaseIIParams | None = None) -> tuple[CaseTag, int]:
    """The case tag of r and how many of the branches ``ordered`` (ints, sorted
    and without repeats, as ``generators_for`` orders its request) have a
    real-valued Hamiltonian: ``generators_for(r, ordered, params)`` and the
    sum of ``hamiltonian_from_generator(g).real_valued`` over its generators,
    raising what they raise, in their order, but classifying r once and
    building no ``Generator`` or ``ShadowHamiltonian``: the coefficients are
    read off ``_branches``, whose every branch is validated before any
    coefficient is read, and whose Z is traceless exactly, so
    ``hamiltonian_from_generator``'s trace check would pass on each.
    ``sweep`` orders its branches once per grid, not per point.
    """
    tag, eigen = classify(r)
    tau, count = r.tau, 0
    for branch, _, z11, z12, z21, _ in _branches(r, tag, eigen, ordered, params):
        c_pp, c_qq, c_pq = _coefficients(z11, z12, z21, tau)
        _check_finite(c_pp, c_qq, c_pq, tau, branch)
        count += _is_real(c_pp, c_qq, c_pq)
    return tag, count
