"""Interpolating Hamiltonians for discrete symplectic oscillator dynamics.

Given any real 2x2 unit-determinant one-step map of the unit harmonic
oscillator, this package classifies its eigenstructure, constructs the
complete branch family of traceless matrix logarithms and the quadratic
Hamiltonians they generate (or proves that none exists), and rebuilds
continuous trajectories that pass through every discrete phase point.
A generator is got one way, ``generators_for``, whose family carries the
iii-b obstruction with its Jordan evidence where no Hamiltonian exists.
The independent checks of those answers live in ``shadowosc.verify``, which
the package root does not import: a CLI call that runs no check loads none,
and the errors only those checks raise are defined there.
"""

from .algebra import Mat2C, closed_exp, max_diff
from .classifier import CaseTag, EigenStructure, classify, criticality_gap
from .errors import (
    BadParams,
    InvalidTau,
    NonFinite,
    NotSymplectic,
    NotTraceless,
    OutOfRange,
    ShadowOscError,
    UnknownIntegrator,
)
from .flow import (
    PhaseState,
    SampleTimes,
    Trajectory,
    continuous_state,
    discrete_orbit,
    sample_trajectory,
    write_trajectory_csv,
    write_trajectory_json,
)
from .integrators import (
    TransitionMatrix,
    compose,
    custom,
    double_euler,
    euler,
    make,
    position_verlet,
    velocity_verlet,
    vp,
)
from .shadow import (
    CaseIIParams,
    Generator,
    GeneratorFamily,
    ShadowHamiltonian,
    generators_for,
    hamiltonian_from_generator,
)

__version__ = "0.1.0"
