"""One-step transition matrices for the unit harmonic oscillator.

The model is fixed, H0 = q**2/2 + p**2/2 in reduced units, so the
elementary splitting steps are a kick p -> p - h*q and a drift
q -> q + h*p.  Every builder returns a matrix with unit determinant that
advances the phase vector (q, p) by one time increment tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .algebra import Mat2C
from .errors import InvalidTau, NonFinite, NotSymplectic, UnknownIntegrator

SYMPLECTIC_TOL = 1e-12
CUSTOM_DET_TOL = 1e-9


@dataclass(frozen=True)
class TransitionMatrix:
    """Real 2x2 symplectic one-step map [[r1, r2], [r3, r4]] for increment tau."""

    r1: float
    r2: float
    r3: float
    r4: float
    tau: float
    label: str

    def __post_init__(self):
        # every tolerance test below is false for NaN, so NaN and inf are
        # rejected here before any of them runs
        values = (self.r1, self.r2, self.r3, self.r4, self.tau)
        if not all(math.isfinite(v) for v in values):
            raise NonFinite(f"{self.label}: entries and tau must be finite, got "
                            f"r = ({self.r1!r}, {self.r2!r}, {self.r3!r}, {self.r4!r}), "
                            f"tau = {self.tau!r}")
        if not self.tau > 0:
            raise InvalidTau(f"tau must be positive, got {self.tau!r}")
        residual = abs(self.det() - 1.0)
        if residual > SYMPLECTIC_TOL:
            raise NotSymplectic(residual, f"{self.label}: det = 1 violated by {residual:.3e}")

    def det(self) -> float:
        return self.r1 * self.r4 - self.r2 * self.r3

    def trace(self) -> float:
        return self.r1 + self.r4

    def apply(self, q: float, p: float) -> tuple[float, float]:
        return (self.r1 * q + self.r2 * p, self.r3 * q + self.r4 * p)

    def as_mat2c(self) -> Mat2C:
        return Mat2C(self.r1, self.r2, self.r3, self.r4)


def _check_tau(tau: float) -> None:
    if not tau > 0:
        raise InvalidTau(f"tau must be positive, got {tau!r}")


def euler(tau: float) -> TransitionMatrix:
    """Symplectic Euler step: kick by tau, then drift by tau."""
    _check_tau(tau)
    return TransitionMatrix(1.0 - tau * tau, tau, -tau, 1.0, tau, "euler")


def velocity_verlet(tau: float) -> TransitionMatrix:
    """Kick-drift-kick step with half kicks."""
    _check_tau(tau)
    half_sq = 1.0 - tau * tau / 2.0
    return TransitionMatrix(half_sq, tau, tau ** 3 / 4.0 - tau, half_sq, tau, "velocity-verlet")


def position_verlet(tau: float) -> TransitionMatrix:
    """Drift-kick-drift step with half drifts."""
    _check_tau(tau)
    half_sq = 1.0 - tau * tau / 2.0
    return TransitionMatrix(half_sq, tau - tau ** 3 / 4.0, -tau, half_sq, tau, "position-verlet")


def compose(a: TransitionMatrix, b: TransitionMatrix, label: str | None = None) -> TransitionMatrix:
    """Matrix product a*b applied as "b first, then a"; increments add."""
    return TransitionMatrix(
        a.r1 * b.r1 + a.r2 * b.r3,
        a.r1 * b.r2 + a.r2 * b.r4,
        a.r3 * b.r1 + a.r4 * b.r3,
        a.r3 * b.r2 + a.r4 * b.r4,
        a.tau + b.tau,
        label if label is not None else f"{a.label}*{b.label}",
    )


def double_euler(tau: float) -> TransitionMatrix:
    """Two symplectic Euler half-steps; regular where a single step is not."""
    _check_tau(tau)
    return compose(euler(tau / 2.0), euler(tau / 2.0), label="double-euler")


def vp(tau: float) -> TransitionMatrix:
    """Velocity-Verlet half-step followed by a position-Verlet half-step."""
    _check_tau(tau)
    return compose(velocity_verlet(tau / 2.0), position_verlet(tau / 2.0), label="vp")


def custom(r1: float, r2: float, r3: float, r4: float, tau: float,
           label: str = "custom") -> TransitionMatrix:
    """Validate a user-supplied matrix and project it onto det = 1.

    Accepts a determinant residual up to 1e-9, then restores det = 1
    exactly through r4 (or r3 when r1 is numerically zero); downstream
    classification is sensitive to the unit-determinant identity.
    """
    _check_tau(tau)
    residual = abs(r1 * r4 - r2 * r3 - 1.0)
    if residual > CUSTOM_DET_TOL:
        raise NotSymplectic(residual)
    if abs(r1) > 1e-12:
        r4 = (1.0 + r2 * r3) / r1
    elif abs(r2) > 1e-12:
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
