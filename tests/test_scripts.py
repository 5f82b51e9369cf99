"""The scripts under scripts/ run to completion as separate processes."""

import hashlib
import importlib.util
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
        "hamiltonian_from_generator", "real_count", "sweep_point", "sweep_window",
        "flow_sample", "csv_row",
        "flow_file", "flow_call", "build_parser", "coincidence", "conservation",
        "verify_suite", "cli_import"])
    assert all(cost > 0 for cost in costs.values())


def test_verify_headroom(tmp_path):
    done = run_script("verify_headroom.py", "--seeds", "2", "--seed", "7", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert (report["first_seed"], report["seeds"], report["failed_suites"]) == (7, 2, 0)
    checks = report["checks"]
    for name in ("exp(Z)=R (series oracle)", "traceless Z",
                 "discrete/continuous coincidence", "H conserved along flow"):
        assert 0.0 <= checks[name]["headroom"] <= 1.0
        assert checks[name]["seed"] in (7, 8)


def test_output_digest(tmp_path):
    checkout = SCRIPTS.parent
    args = ("output_digest.py", str(checkout), "--count", "8", "--grid", "1:2:0.5",
            "--verify-seeds", "1", "--flow-dt", "1")
    done = run_script(*args, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    lines = [json.loads(line) for line in done.stdout.splitlines()]
    # 10 sweeps to stdout and 10 to --out, 15 failing one-point sweeps, 4 sweeps
    # failing in a later range, 20 sweeps on the two count grids, 90 near-ridge
    # calls, 8 built-in and 8 custom draws of two calls each, 26 flows, one
    # verify per seed and five more, then 23 parser calls at each of two widths
    assert len(lines) == 20 + 15 + 4 + 20 + 90 + 2 * 8 + 2 * 8 + 26 + 1 + 5 + 2 * 23
    lines, parser_lines = lines[:-46], lines[-46:]
    assert [line["columns"] for line in parser_lines] == ["30"] * 23 + ["200"] * 23
    assert [line["argv"] for line in parser_lines[:23]] == [
        line["argv"] for line in parser_lines[23:]]
    # -h exits 0 and prints help, every other parser call is a usage error;
    # the help text is wrapped to the width
    assert [line["exit"] for line in parser_lines] == [
        0 if "-h" in line["argv"] else 2 for line in parser_lines]
    assert parser_lines[0]["argv"] == ["-h"]
    assert parser_lines[0]["stdout"] != parser_lines[23]["stdout"]
    assert lines[0]["argv"] == ["sweep", "--integrator", "double-euler", "--grid", "1:2:0.5",
                                "--format", "csv"]
    sweeps_out, flows, verifies = lines[10:20], lines[-32:-6], lines[-6:]
    others = lines[:10] + lines[20:-32]
    assert all(sorted(line) == ["argv", "exit", "stderr", "stdout"] for line in others)
    # a sweep with --out prints nothing and leaves its one file
    assert sweeps_out[0]["argv"] == lines[0]["argv"] + ["--out", "<out>/sweep"]
    empty = hashlib.sha256(b"").hexdigest()
    assert all(list(line["files"]) == ["sweep"] and line["exit"] == 0
               and line["stdout"] == empty for line in sweeps_out)
    assert lines[20]["argv"] == ["sweep", "--integrator", "double-euler",
                                 "--grid=1e-310:1e-310:1", "--m-min", "-3", "--m-max", "3"]
    # overflowing coefficients exit 1; non-finite entries and det far from 1
    # exit 2; Euler at 1e154, whose k11**2 overflows, gets its family
    assert [line["exit"] for line in lines[20:35]] == [1] * 5 + [2] * 5 + [2, 0, 2, 2, 2]
    # velocity-verlet fails its det check (exit 2); Euler answers every point
    assert [line["argv"][2] for line in lines[35:39]] == ["euler"] * 2 + ["velocity-verlet"] * 2
    assert [line["exit"] for line in lines[35:39]] == [0, 0, 2, 2]
    # every built-in sweeps both count grids in both formats
    assert [line["argv"][3] for line in lines[39:59]] == (
        ["--grid=1:1.9999999999:0.1"] * 10 + ["--grid=9.881:9.881006:6e-7"] * 10)
    assert all(line["exit"] == 0 for line in lines[39:59])
    assert {line["exit"] for line in lines} == {0, 1, 2}
    # each flow call lists every file its directory holds: three branches and the
    # discrete orbit, the shear's one branch, iii-b's discrete file alone, and the
    # discrete file alone where a branch leaves double range
    assert all(sorted(line) == ["argv", "exit", "files", "stderr", "stdout"]
               for line in flows + verifies)
    assert all(line["argv"][0] == "flow" and "<out>" in line["argv"] for line in flows)
    assert [len(line["files"]) for line in flows] == [4] * 22 + [2, 1, 1, 1]
    assert [line["exit"] for line in flows] == [0] * 24 + [1, 1]
    assert list(flows[-1]["files"]) == ["discrete.json"]
    # each verify writes its --out report; every perturbation fails
    assert [line["argv"] for line in verifies] == [
        ["verify", *options, "--out", "<out>/verify.json"]
        for options in (["--seed", "1"], ["--trials", "1"], ["--trials", "3"],
                        ["--perturb", "1e-3"], ["--perturb=-1e-9"], ["--perturb", "1e300"])]
    assert all(list(line["files"]) == ["verify.json"] for line in verifies)
    assert [line["exit"] for line in verifies] == [0, 0, 0, 1, 1, 1]
    assert run_script(*args, cwd=tmp_path).stdout == done.stdout


SOURCE = '''"""A module docstring,
on two lines."""

# a comment
import os  # and a trailing one


def f(x):
    """A function docstring."""
    text = """a string
that is no docstring"""
    return x


class C:
    """A class
    docstring."""

    y = 1
'''


def test_code_lines(tmp_path):
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPTS / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # import, def, both lines of the string, return, class and y = 1
    assert module.code_lines(SOURCE) == 7
    done = run_script("code_lines.py", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    *modules, total = [line.split() for line in done.stdout.splitlines()]
    assert total[1] == "total" and "tables.py" in [name for _, name in modules]
    assert int(total[0]) == sum(int(count) for count, _ in modules)
