"""One-step transition matrices for the unit harmonic oscillator.

The model is fixed, H0 = q**2/2 + p**2/2 in reduced units, so the
elementary splitting steps are a kick p -> p - h*q and a drift
q -> q + h*p.  Every builder returns a matrix with unit determinant that
advances the phase vector (q, p) by one time increment tau.

A built-in map carries k11, the diagonal of its traceless part
K = R - (T/2) I, in closed form (h = tau/2): -tau**2/2 for Euler, whose
stored r1 = 1 - tau**2 has rounded it away once tau**2 < eps, 0 for the
Verlets, -(1 - h**2/2)*h**2 for double-euler and -(h**4/4)*(1 - h**2/8) for
vp.  ``custom`` and ``compose`` read (r1 - r4)/2 off their entries.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable

from .algebra import TOL, Mat2C, Value, exceeds
from .errors import InvalidTau, NonFinite, NotSymplectic, UnknownIntegrator


# |det - 1| of a map built in double precision is a few eps times
# |r1*r4| + |r2*r3|: at most 40 for the built-ins at tau in [1e-12, 1e6] (vp
# near tau = 5.76) and for projected custom maps, so 1024 leaves ample room
# and still refuses a reflection (det = -1) while |r1*r4| + |r2*r3| < 8e12.
DET_ROUNDING = 1024.0 * sys.float_info.epsilon


def _check_unit_det(r1: float, r2: float, r3: float, r4: float, label: str,
                    raw: bool = False, rounding: float = 0.0) -> None:
    """Raise NotSymplectic unless det is 1 to within its error.

    Entries as stored are held to det's own forward error,
    |det - 1| <= max(TOL, DET_ROUNDING * (|r1*r4| + |r2*r3|)).  Raw entries,
    which carry rounding of their own (user input, a product of maps), are
    held to |det - 1| <= max(TOL * max(1, |r1*r4|, |r2*r3|), DET_ROUNDING *
    rounding), ``rounding`` the scale the entries' own errors bring into det.
    """
    diagonal, off = r1 * r4, r2 * r3
    residual = abs(diagonal - off - 1.0)
    scale = (max(abs(diagonal), abs(off), DET_ROUNDING / TOL * rounding) if raw
             else DET_ROUNDING / TOL * (abs(diagonal) + abs(off)))
    if exceeds(residual, max(1.0, scale)):
        raise NotSymplectic(residual, f"{label}: determinant differs from 1 by {residual:.3e}")


class TransitionMatrix(Value):
    """Real 2x2 symplectic one-step map [[r1, r2], [r3, r4]] for increment tau.

    The determinant is held to its own forward error (``_check_unit_det``).
    ``k11`` is a builder's closed-form traceless diagonal, None where K is
    read off the entries.  A given one meets (r1 - r4)/2 within
    DET_ROUNDING * max(|r1|, |r4|); a built-in's is off by 17 eps of that at
    most, vp's at its R = I point tau = 4*sqrt(2).
    """

    __slots__ = ("r1", "r2", "r3", "r4", "tau", "label", "k11")

    def __init__(self, r1: float, r2: float, r3: float, r4: float, tau: float, label: str,
                 k11: float | None = None):
        # NaN and inf are rejected as such before the determinant is read
        if not (math.isfinite(r1) and math.isfinite(r2) and math.isfinite(r3)
                and math.isfinite(r4) and math.isfinite(tau)):
            raise NonFinite(f"{label}: entries and tau must be finite, got "
                            f"r = ({r1!r}, {r2!r}, {r3!r}, {r4!r}), tau = {tau!r}")
        if not tau > 0:
            raise InvalidTau(f"tau must be positive, got {tau!r}")
        _check_unit_det(r1, r2, r3, r4, label)
        read = (r1 - r4) / 2.0
        if k11 is not None and not abs(k11 - read) <= DET_ROUNDING * max(abs(r1), abs(r4)):
            raise ValueError(f"{label}: k11 = {k11!r} is not (r1 - r4)/2 = {read!r} "
                             "to rounding")
        _set_r1(self, r1)
        _set_r2(self, r2)
        _set_r3(self, r3)
        _set_r4(self, r4)
        _set_tau(self, tau)
        _set_label(self, label)
        _set_k11(self, k11)

    def det(self) -> float:
        return self.r1 * self.r4 - self.r2 * self.r3

    def trace(self) -> float:
        return self.r1 + self.r4

    def traceless(self) -> tuple[float, float, float, float]:
        """Entries (k11, r2, r3, -k11) of K = R - (T/2) I, exactly traceless; k22 is
        +0.0 where k11 is zero, and a read K is R - I bit for bit if T == 2.0."""
        k11 = (self.r1 - self.r4) / 2.0 if self.k11 is None else self.k11
        return (k11, self.r2, self.r3, 0.0 - k11)

    def max_abs(self) -> float:
        return max(abs(self.r1), abs(self.r2), abs(self.r3), abs(self.r4))

    def apply(self, q: float, p: float) -> tuple[float, float]:
        return (self.r1 * q + self.r2 * p, self.r3 * q + self.r4 * p)

    def as_mat2c(self) -> Mat2C:
        return Mat2C(self.r1, self.r2, self.r3, self.r4)


_set_r1, _set_r2, _set_r3, _set_r4, _set_tau, _set_label, _set_k11 = TransitionMatrix._setters


def _cube(tau: float) -> float:
    """tau**3, or a signed infinity where it overflows, for TransitionMatrix to reject."""
    try:
        return tau ** 3
    except OverflowError:
        return math.copysign(math.inf, tau)


# Entries (r1, r2, r3, r4) of the elementary steps.  The composites multiply
# the entries of their half-steps, so only the composite map is validated
# and any error it raises names the composite and the tau asked for.
Entries = tuple[float, float, float, float]


def _euler(tau: float) -> Entries:
    return (1.0 - tau * tau, tau, -tau, 1.0)


def _velocity_verlet(tau: float) -> Entries:
    half_sq = 1.0 - tau * tau / 2.0
    return (half_sq, tau, _cube(tau) / 4.0 - tau, half_sq)


def _position_verlet(tau: float) -> Entries:
    half_sq = 1.0 - tau * tau / 2.0
    return (half_sq, tau - _cube(tau) / 4.0, -tau, half_sq)


def _product(a: Entries, b: Entries) -> Entries:
    """Entries of the matrix product a*b."""
    return (a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
            a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3])


def euler(tau: float) -> TransitionMatrix:
    """Symplectic Euler step: kick by tau, then drift by tau."""
    return TransitionMatrix(*_euler(tau), tau, "euler", -(tau * tau) / 2.0)


def velocity_verlet(tau: float) -> TransitionMatrix:
    """Kick-drift-kick step with half kicks."""
    return TransitionMatrix(*_velocity_verlet(tau), tau, "velocity-verlet", 0.0)


def position_verlet(tau: float) -> TransitionMatrix:
    """Drift-kick-drift step with half drifts."""
    return TransitionMatrix(*_position_verlet(tau), tau, "position-verlet", 0.0)


def compose(a: TransitionMatrix, b: TransitionMatrix, label: str | None = None) -> TransitionMatrix:
    """Matrix product a*b applied as "b first, then a"; increments add.

    Each product entry p_ij errs by about eps times the entry m_ij of
    |a|*|b|, the factors' scale, which stays large where the product's own
    entries cancel.  det = p11*p22 - p12*p21 carries those errors times the
    cofactors, so the product is checked against
    |p22|*m11 + |p11|*m22 + |p21|*m12 + |p12|*m21 as well as its own terms,
    then projected onto det = 1 as ``custom`` input is.
    """
    entries_a, entries_b = (a.r1, a.r2, a.r3, a.r4), (b.r1, b.r2, b.r3, b.r4)
    p = _product(entries_a, entries_b)
    m = _product(tuple(map(abs, entries_a)), tuple(map(abs, entries_b)))
    rounding = abs(p[3]) * m[0] + abs(p[0]) * m[3] + abs(p[2]) * m[1] + abs(p[1]) * m[2]
    return _projected(*p, a.tau + b.tau,
                      label if label is not None else f"{a.label}*{b.label}", rounding)


def double_euler(tau: float) -> TransitionMatrix:
    """Two symplectic Euler half-steps; regular where a single step is not."""
    half = _euler(tau / 2.0)
    return TransitionMatrix(*_product(half, half), tau, "double-euler",
                            -(1.0 - tau * tau / 8.0) * (tau * tau / 4.0))


def vp(tau: float) -> TransitionMatrix:
    """Velocity-Verlet half-step followed by a position-Verlet half-step."""
    sq = tau * tau
    return TransitionMatrix(*_product(_velocity_verlet(tau / 2.0), _position_verlet(tau / 2.0)),
                            tau, "vp", -(sq * sq / 64.0) * (1.0 - sq / 32.0))


def custom(r1: float, r2: float, r3: float, r4: float, tau: float,
           label: str = "custom") -> TransitionMatrix:
    """Validate a user-supplied matrix and project it onto det = 1.

    Accepts |det - 1| <= TOL * max(1, |r1*r4|, |r2*r3|) on the entries as
    given, then restores det = 1 through the larger pivot of the first row:
    r4 when |r1| >= |r2|, else r3.  An accepted det is near 1, so r1 and r2
    are not both zero; non-finite entries are left for ``TransitionMatrix``
    to reject.
    """
    return _projected(r1, r2, r3, r4, tau, label, 0.0)


def _projected(r1: float, r2: float, r3: float, r4: float, tau: float, label: str,
               rounding: float) -> TransitionMatrix:
    """``custom`` for raw entries whose errors bring ``rounding`` into det."""
    if all(math.isfinite(v) for v in (r1, r2, r3, r4)):
        _check_unit_det(r1, r2, r3, r4, label, raw=True, rounding=rounding)
        if abs(r1) >= abs(r2):
            r4 = (1.0 + r2 * r3) / r1
        else:
            r3 = (r1 * r4 - 1.0) / r2
    return TransitionMatrix(r1, r2, r3, r4, tau, label)


BUILDERS: dict[str, Callable[[float], TransitionMatrix]] = {
    "euler": euler,
    "velocity-verlet": velocity_verlet,
    "position-verlet": position_verlet,
    "double-euler": double_euler,
    "vp": vp,
}


def make(name: str, tau: float) -> TransitionMatrix:
    """Build a registered integrator by its CLI name."""
    try:
        builder = BUILDERS[name]
    except KeyError:
        known = ", ".join(sorted(BUILDERS))
        raise UnknownIntegrator(f"{name!r}; known: {known}") from None
    return builder(tau)
