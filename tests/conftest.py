import importlib.util
import math
import os
import select
from pathlib import Path

import numpy as np
import pytest

from shadowosc import cli, flow, tables
from shadowosc.algebra import Mat2C
from shadowosc.classifier import CaseTag
from shadowosc.shadow import Generator, _distinct_branches


def to_numpy(m) -> np.ndarray:
    """Mat2C or TransitionMatrix as a numpy array (independent oracle side)."""
    if isinstance(m, Mat2C):
        return np.array([[m.e11, m.e12], [m.e21, m.e22]], dtype=complex)
    return np.array([[m.r1, m.r2], [m.r3, m.r4]], dtype=float)


def state_deviation(a, b) -> float:
    """Distance between PhaseStates relative to max(1, |b|)."""
    scale = max(1.0, math.hypot(abs(b.q), abs(b.p)))
    return a.distance(b) / scale


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    """The module of scripts/<name>.py, loaded without running its main."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


rotation_sense = load_script("reproduce_phase_portrait").rotation_sense


def generator_distinct(r, eigen, branch: int):
    """Branch-m generator for a map with distinct eigenvalues T/2 +- d, its
    case read off the sign of d."""
    (m, log, *z), = _distinct_branches(r, eigen, (branch,))
    d = eigen.d.real
    case = CaseTag.IB if d > 0.0 else CaseTag.IC if d < 0.0 else CaseTag.IA
    return Generator(Mat2C(*z), m, r.tau, case, log)


def quadratic_roots(tr: complex, det: complex) -> tuple[complex, complex]:
    """Roots of x**2 - tr*x + det by the plain quadratic formula."""
    import cmath

    disc = cmath.sqrt(tr * tr - 4.0 * det)
    return (tr + disc) / 2.0, (tr - disc) / 2.0


@pytest.fixture
def split_into(monkeypatch):
    """Let every job see k usable CPUs, so that it splits where k >= 2, and
    cut it into at most c chunks, with one row per chunk where it has fewer
    rows: every closed-form flow file or flow call's branch files, every
    sweep grid and every verify suite."""
    def force(k: int, c: int = 255) -> None:
        monkeypatch.setattr(tables, "_usable_cpus", lambda: k)
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
