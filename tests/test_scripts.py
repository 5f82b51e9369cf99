"""The scripts under scripts/ run to completion as separate processes."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name: str, *args: str, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def test_regime_report(tmp_path):
    done = run_script("regime_report.py", "--step", "1", "--max-tau", "3", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert "vp critical increment" in done.stdout


def test_reproduce_phase_portrait(tmp_path):
    out = tmp_path / "portrait"
    done = run_script("reproduce_phase_portrait.py", "--out", str(out), cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert sorted(p.name for p in out.iterdir()) == [
        "discrete.csv", "flow_m-1.csv", "flow_m0.csv", "flow_m1.csv"]


def test_layer_costs(tmp_path):
    done = run_script("layer_costs.py", "--number", "20", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    costs = json.loads(done.stdout)["layers"]
    assert sorted(costs) == sorted([
        "Mat2C", "closed_exp", "make_vp", "classify", "generators_for_3",
        "hamiltonian_from_generator", "sweep_point", "flow_sample", "csv_row", "build_parser"])
    assert all(cost > 0 for cost in costs.values())
