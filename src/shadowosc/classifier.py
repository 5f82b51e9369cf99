"""Eigenstructure taxonomy of real 2x2 unit-determinant matrices.

A symplectic one-step map R has eigenvalues y and 1/y.  With T = r1 + r4
the taxonomy is decided by T**2 - 4 and, on the degenerate ridge, by an
entrywise comparison with +-I:

    i-a   |T| < 2            conjugate pair on the unit circle
    i-b   T > 2              real pair y > 1 > 1/y > 0
    i-c   T < -2             real pair y < -1 < 1/y < 0
    ii    R = +-I            scalar map, eigenvalue +-1 twice
    iii-a T = 2,  R != I     defective, similar to [[1, 1], [0, 1]]
    iii-b T = -2, R != -I    defective, similar to [[-1, 1], [0, -1]]

Classification on the ridge is inherently tolerance-dependent; callers
get the distance |T**2 - 4| through ``criticality_gap`` so near-critical
inputs can be flagged.  The representative eigenvalue is the root with
angle in (0, pi] for i-a, y > 1 for i-b and |y| >= 1 for i-c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .algebra import Mat2C, max_diff
from .errors import NotDefective
from .integrators import TransitionMatrix

DEFAULT_TOL = 1e-9
JORDAN_RESIDUAL_TOL = 1e-10


class CaseTag(str, Enum):
    IA = "i-a"
    IB = "i-b"
    IC = "i-c"
    II_PLUS = "ii(+)"
    II_MINUS = "ii(-)"
    IIIA = "iii-a"
    IIIB = "iii-b"

    def __str__(self) -> str:  # serialize to the bare label
        return self.value


DISTINCT_TAGS = (CaseTag.IA, CaseTag.IB, CaseTag.IC)
SCALAR_TAGS = (CaseTag.II_PLUS, CaseTag.II_MINUS)


@dataclass(frozen=True)
class EigenStructure:
    """Representative eigenvalue data; the partner eigenvalue is 1/eigenvalue.

    ``jordan_basis`` is present only for defective maps: its columns are a
    unit eigenvector v and a generalized vector w with (R -+ I) w = v, so
    that R = P J P^{-1} with J the upper-triangular Jordan block.
    """

    eigenvalue: complex
    angle: float
    modulus: float
    degenerate: bool
    jordan_basis: Mat2C | None = None


def criticality_gap(r: TransitionMatrix) -> float:
    """|T**2 - 4|, the distance from the degenerate ridge."""
    t = r.trace()
    return abs((t - 2.0) * (t + 2.0))


def classify(r: TransitionMatrix, tol: float = DEFAULT_TOL) -> tuple[CaseTag, EigenStructure]:
    """Assign the taxonomy tag and extract the representative eigenstructure."""
    t = r.trace()
    # (T - 2)(T + 2) keeps full precision near the ridge where T**2 - 4 cancels
    gap = (t - 2.0) * (t + 2.0)
    if abs(gap) > tol:
        if abs(t) < 2.0:
            y = complex(t / 2.0, math.sqrt(-gap) / 2.0)
            return CaseTag.IA, EigenStructure(y, math.atan2(y.imag, y.real), abs(y), False)
        if t > 2.0:
            y = (t + math.sqrt(gap)) / 2.0
            return CaseTag.IB, EigenStructure(complex(y, 0.0), 0.0, y, False)
        y = (t - math.sqrt(gap)) / 2.0
        return CaseTag.IC, EigenStructure(complex(y, 0.0), math.pi, -y, False)

    sign = 1.0 if t > 0 else -1.0
    scalar_residual = max(abs(r.r1 - sign), abs(r.r2), abs(r.r3), abs(r.r4 - sign))
    if scalar_residual <= tol:
        tag = CaseTag.II_PLUS if sign > 0 else CaseTag.II_MINUS
        return tag, EigenStructure(complex(sign, 0.0), 0.0 if sign > 0 else math.pi, 1.0, True)
    tag = CaseTag.IIIA if sign > 0 else CaseTag.IIIB
    basis = _jordan_basis(r, sign)
    return tag, EigenStructure(complex(sign, 0.0), 0.0 if sign > 0 else math.pi, 1.0, True, basis)


def _jordan_basis(r: TransitionMatrix, sign: float) -> Mat2C:
    """Columns [v w]: unit eigenvector v of +-1 and (R -+ I) w = v.

    N = R - sign*I is rank one with ker N = im N, so v is the larger
    column of N and w the matching scaled basis vector.
    """
    n11, n12 = r.r1 - sign, r.r2
    n21, n22 = r.r3, r.r4 - sign
    norm0 = math.hypot(n11, n21)
    norm1 = math.hypot(n12, n22)
    if max(norm0, norm1) == 0.0:
        raise NotDefective(f"{r.label} equals {sign:+g}*I; scalar, not defective")
    if norm0 >= norm1:
        v = (n11 / norm0, n21 / norm0)
        w = (1.0 / norm0, 0.0)
    else:
        v = (n12 / norm1, n22 / norm1)
        w = (0.0, 1.0 / norm1)
    basis = Mat2C(v[0], w[0], v[1], w[1])
    residual = max_diff(_similarity_rebuild(basis, sign), r.as_mat2c())
    if residual > JORDAN_RESIDUAL_TOL:
        raise NotDefective(
            f"{r.label}: Jordan rebuild residual {residual:.3e}; "
            "matrix is not defective to working precision"
        )
    return basis


def _similarity_rebuild(basis: Mat2C, sign: float) -> Mat2C:
    """P J P^{-1} for J = [[sign, 1], [0, sign]]."""
    jordan = Mat2C(sign, 1.0, 0.0, sign)
    det = basis.det()
    inverse = Mat2C(basis.e22 / det, -basis.e12 / det, -basis.e21 / det, basis.e11 / det)
    return basis @ jordan @ inverse
