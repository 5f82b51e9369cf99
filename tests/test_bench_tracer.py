"""The benchmark's tracer wraps shadowosc functions by module attribute name.

``bench/tracer.py`` looks each function up on its defining module and
replaces it on the modules its callers read it from.  A renamed or
deleted attribute breaks a traced benchmark run; this test catches it
first.  A short traced flow in each format checks the counters the tracer
takes from the trajectories it sees and that ``uninstall`` restores every
attribute; a traced sweep and a traced verify check the calls each layer
sees.  The tracer is loaded from its file, unchanged.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


_spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
_tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_tracer)
WRAPPED = _tracer.WRAPPED  # (metric name, defining module, lookup modules, attribute)


@pytest.mark.parametrize("home, lookups, attr", [w[1:] for w in WRAPPED],
                         ids=[w[0] for w in WRAPPED])
def test_traced_attribute_resolves(home, lookups, attr):
    original = getattr(importlib.import_module(f"shadowosc.{home}"), attr)
    for module in lookups:
        assert getattr(importlib.import_module(f"shadowosc.{module}"), attr) is original


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_tracer_counts_the_rows_written_and_uninstalls(tmp_path, capsys, fmt):
    import shadowosc.cli
    import shadowosc.verify  # noqa: F401  (the tracer wraps verify's attributes too)

    package = importlib.import_module("shadowosc")
    before = {(module, attr): getattr(getattr(package, module), attr)
              for _, _, lookups, attr in WRAPPED for module in lookups}
    tracer = _tracer.Tracer(package)
    try:
        code = package.cli.main(["flow", "--integrator", "velocity-verlet", "--tau", "0.66",
                                 "--t-end", "3", "--dt", "0.1", "--format", fmt,
                                 "--out", str(tmp_path)])
    finally:
        tracer.uninstall()
    assert code == 0
    written = 0
    for path in tmp_path.iterdir():
        if fmt == "json":
            written += len(json.loads(path.read_text())["states"])
        else:
            written += len(path.read_text().splitlines()) - 1
    assert written == 5 + 3 * 31  # discrete t = 0, tau, ..., 4*tau; three branches t = 0..3
    assert tracer.rows_serialized == written
    assert tracer.calls("cli._write_trajectory") == 4
    for (module, attr), original in before.items():
        assert getattr(getattr(package, module), attr) is original


def test_traced_sweep_classifies_each_point_once(capsys):
    # one classify and one family per grid point; a distinct family validates
    # its branches from two scalars each and calls no closed_exp.  41 points
    # are below 2 * cli._MIN_SWEEP_POINTS, so the grid is one range, and the
    # tracer sees every point
    import shadowosc.cli
    import shadowosc.verify  # noqa: F401

    package = importlib.import_module("shadowosc")
    tracer = _tracer.Tracer(package)
    try:
        code = package.cli.main(["sweep", "--integrator", "vp", "--grid", "2.3:2.7:0.01"])
    finally:
        tracer.uninstall()
    assert code == 0
    points = len(capsys.readouterr().out.splitlines()) - 1
    assert points == 41
    assert tracer.calls("classifier.classify") == tracer.calls("shadow.generators_for") == points
    assert tracer.generators_built == 3 * points
    assert tracer.calls("algebra.closed_exp.under_shadow") == 0


def test_traced_split_sweep_counts_the_parent_range_only(capsys, monkeypatch):
    # a forked child's counts end with it: the tracer sees range 0 of a split
    # grid, so its per-point ratios read half the points where two CPUs split it
    import shadowosc.cli
    import shadowosc.verify  # noqa: F401

    package = importlib.import_module("shadowosc")
    monkeypatch.setattr(package.flow, "_usable_cpus", lambda: 2)
    points = 2 * package.cli._MIN_SWEEP_POINTS + 1
    tracer = _tracer.Tracer(package)
    try:
        code = package.cli.main(["sweep", "--integrator", "vp", f"--grid=1:{points}:1"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert len(capsys.readouterr().out.splitlines()) - 1 == points
    assert tracer.calls("classifier.classify") == points // 2
    assert tracer.calls("shadow.generators_for") == points // 2


def test_traced_verify_applies_propagators_without_flow_states(capsys):
    # one coincidence check per map and one conservation check per case; the
    # oracles apply their propagators to every trial and sample no flow state
    import shadowosc.cli
    import shadowosc.verify  # noqa: F401

    package = importlib.import_module("shadowosc")
    before = {(module, attr): getattr(getattr(package, module), attr)
              for _, _, lookups, attr in WRAPPED for module in lookups}
    tracer = _tracer.Tracer(package)
    try:
        code = package.cli.main(["verify", "--trials", "2"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.calls("verify.check_coincidence") == 10
    assert tracer.calls("verify.check_conservation") == 5
    assert tracer.calls("verify.series_exp") == 42
    assert tracer.calls("flow.continuous_state") == 0
    assert tracer.calls("algebra.closed_exp.under_flow") == 0
    for (module, attr), original in before.items():
        assert getattr(getattr(package, module), attr) is original
