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
import os
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


def _traced_sweep(capsys, integrator, grid):
    """The tracer after one ``sweep`` of the grid, and the rows it printed."""
    import shadowosc.cli
    import shadowosc.verify  # noqa: F401

    package = importlib.import_module("shadowosc")
    tracer = _tracer.Tracer(package)
    try:
        code = package.cli.main(["sweep", "--integrator", integrator, "--grid", grid])
    finally:
        tracer.uninstall()
    assert code == 0
    return tracer, len(capsys.readouterr().out.splitlines()) - 1


def test_traced_sweep_classifies_each_point_once(capsys):
    # one classify per grid point and no generators_for: shadow.real_count
    # counts a distinct family's real branches off the two validating scalars
    # of each branch, building no generator and calling no closed_exp.  41
    # points are below 2 * cli._MIN_SWEEP_POINTS, so the grid is one range,
    # and the tracer sees every point
    tracer, points = _traced_sweep(capsys, "vp", "2.3:2.7:0.01")
    assert points == 41
    assert tracer.calls("classifier.classify") == points
    assert tracer.calls("shadow.generators_for") == tracer.generators_built == 0
    assert tracer.calls("algebra.closed_exp.under_shadow") == 0


@pytest.mark.parametrize("integrator, grid, jordan", [
    ("double-euler", "3:5:0.5", 1),  # tau = 4 is iii-a, R - I its one generator
    ("euler", "1:3:0.5", 0),  # tau = 2 is iii-b, with no generator
])
def test_traced_sweep_builds_generators_only_at_jordan_points(capsys, integrator, grid,
                                                              jordan):
    # a defective map's count reads its generator, validated through one
    # closed_exp, and is still classified once, without generators_for
    tracer, points = _traced_sweep(capsys, integrator, grid)
    assert points == 5
    assert tracer.calls("classifier.classify") == points
    assert tracer.calls("shadow.generators_for") == 0
    assert tracer.calls("algebra.closed_exp.under_shadow") == jordan


def test_traced_split_sweep_counts_the_parent_range_only(capsys, monkeypatch,
                                                         child_claims_first):
    # a forked child's counts end with it: the tracer sees only the chunks of
    # a split grid that this process claimed, so its per-point ratios read a
    # share of the points where two CPUs split it
    import shadowosc.cli
    import shadowosc.verify  # noqa: F401

    package = importlib.import_module("shadowosc")
    monkeypatch.setattr(package.tables, "_usable_cpus", lambda: 2)
    points = 2 * package.cli._MIN_SWEEP_POINTS + 1
    tracer = _tracer.Tracer(package)
    try:
        code = package.cli.main(["sweep", "--integrator", "vp", f"--grid=1:{points}:1"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert len(capsys.readouterr().out.splitlines()) - 1 == points
    assert tracer.calls("classifier.classify") < points
    assert tracer.calls("shadow.generators_for") == 0


def test_traced_verify_applies_propagators_without_flow_states(capsys, monkeypatch):
    # one coincidence check per map and one conservation check per case; the
    # oracles apply their propagators to every trial and sample no flow state.
    # One process: a forked child's counts end with it
    import shadowosc.cli
    import shadowosc.verify  # noqa: F401

    package = importlib.import_module("shadowosc")
    monkeypatch.setattr(package.tables, "_usable_cpus", lambda: 1)
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


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_traced_split_flow_writes_each_file_whole_in_its_call(tmp_path, capsys, monkeypatch,
                                                               split_into, child_claims_first,
                                                               fmt):
    # the three branch files are one split job with one fork, yet each
    # _write_trajectory call returns with its file whole, where the tracer
    # reads its size and rows
    import shadowosc.cli
    import shadowosc.verify  # noqa: F401

    package = importlib.import_module("shadowosc")
    forks, fork = [], os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    split_into(2)
    tracer = _tracer.Tracer(package)
    returned = []
    traced = package.cli._write_trajectory

    def recording(path, *args):
        traced(path, *args)
        returned.append((path.name, os.path.getsize(path)))

    package.cli._write_trajectory = recording  # uninstall restores the original
    try:
        code = package.cli.main(["flow", "--integrator", "velocity-verlet", "--tau", "0.66",
                                 "--t-end", "3", "--dt", "0.1", "--format", fmt,
                                 "--out", str(tmp_path)])
    finally:
        tracer.uninstall()
    assert code == 0 and len(forks) == 1
    names = [f"{name}.{fmt}" for name in ("discrete", "flow_m-1", "flow_m0", "flow_m1")]
    assert returned == [(name, (tmp_path / name).stat().st_size) for name in names]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
    assert tracer.calls("cli._write_trajectory") == 4
    assert tracer.bytes_written == sum(size for _, size in returned)
    if fmt == "json":
        written = sum(len(json.loads((tmp_path / name).read_text())["states"]) for name in names)
    else:
        written = sum(len((tmp_path / name).read_text().splitlines()) - 1 for name in names)
    assert tracer.rows_serialized == written == 5 + 3 * 31
