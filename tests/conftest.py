import math
import os
import select

import numpy as np
import pytest

from shadowosc import cli, flow, tables
from shadowosc.algebra import Mat2C
from shadowosc.classifier import CaseTag
from shadowosc.errors import NotApplicable
from shadowosc.shadow import _distinct_generators


def to_numpy(m) -> np.ndarray:
    """Mat2C or TransitionMatrix as a numpy array (independent oracle side)."""
    if isinstance(m, Mat2C):
        return np.array([[m.e11, m.e12], [m.e21, m.e22]], dtype=complex)
    return np.array([[m.r1, m.r2], [m.r3, m.r4]], dtype=float)


def state_deviation(a, b) -> float:
    """Distance between PhaseStates relative to max(1, |b|)."""
    scale = max(1.0, math.hypot(abs(b.q), abs(b.p)))
    return a.distance(b) / scale


def rotation_sense(h) -> str:
    """Turning sense of the bounded orbit at (q, p) = (1, 0).

    The momentum derivative there is -2*c_qq; a negative value turns the
    phase point clockwise.  Defined only for the bounded real case.
    """
    if h.case is not CaseTag.IA:
        raise NotApplicable(f"rotation sense undefined for case {h.case}")
    pdot = -2.0 * h.c_qq.real
    return "clockwise" if pdot < 0 else "counter-clockwise"


def generator_distinct(r, eigen, branch: int):
    """Branch-m generator for a map with distinct eigenvalues T/2 +- d."""
    return _distinct_generators(r, eigen, (branch,))[0]


def quadratic_roots(tr: complex, det: complex) -> tuple[complex, complex]:
    """Roots of x**2 - tr*x + det by the plain quadratic formula."""
    import cmath

    disc = cmath.sqrt(tr * tr - 4.0 * det)
    return (tr + disc) / 2.0, (tr - disc) / 2.0


@pytest.fixture
def split_into(monkeypatch):
    """Let every job run in k processes (at most k) and cut into at most c
    chunks, with one row per chunk where it has fewer rows: every closed-form
    flow file or flow call's branch files, every sweep grid and every verify
    suite."""
    def force(k: int, c: int = 255) -> None:
        monkeypatch.setattr(tables, "_usable_cpus", lambda: k)
        monkeypatch.setattr(tables, "_MAX_PROCESSES", k)
        monkeypatch.setattr(tables, "_MAX_CHUNKS", c)
        monkeypatch.setattr(flow, "_MIN_RANGE_ROWS", 1)
        monkeypatch.setattr(cli, "_MIN_SWEEP_POINTS", 1)
    return force


@pytest.fixture
def child_claims_first(monkeypatch):
    """Hold this process's first claim of each split job until its child has
    begun a chunk, so that the child runs at least one chunk whatever the
    scheduler does; the child signals once, on a pipe, as its first chunk
    starts.  For jobs of at most two processes."""
    parent, claim = os.getpid(), tables._claim
    read, write = os.pipe()

    def claim_after_child(claims, work):
        if os.getpid() == parent:
            if select.select([read], [], [], 30)[0]:
                os.read(read, 1)
            return claim(claims, work)
        signalled = []

        def signalling(index):
            if not signalled:
                signalled.append(index)
                os.write(write, b"x")
            return work(index)

        return claim(claims, signalling)

    monkeypatch.setattr(tables, "_claim", claim_after_child)
    yield
    os.close(read)
    os.close(write)


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
