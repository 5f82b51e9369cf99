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
    # failing in a later range, 20 sweeps on the two count grids, 12 sweeps of
    # the two scalar points, 3 empty grids, 90 near-ridge calls, 8 built-in and
    # 8 custom draws of two calls each, 26 flows, one verify per seed and five
    # more, then 23 parser calls at each of two widths
    assert len(lines) == (20 + 15 + 4 + 20 + 12 + 3 + 90 + 2 * 8 + 2 * 8 + 26 + 1 + 5
                          + 2 * 23)
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
    # each scalar point sweeps under each preset in both formats; every empty
    # grid is a usage error
    assert [line["argv"][2:4] for line in lines[59:71:6]] == [
        ["double-euler", "--grid=2.8284271247461903:2.8284271247461903:1"],
        ["vp", "--grid=5.656854249492381:5.656854249492381:1"]]
    assert [line["argv"][5] for line in lines[59:71:2]] == [
        "default", "real-rotation", "hyperbolic"] * 2
    assert [line["exit"] for line in lines[59:74]] == [0] * 12 + [2] * 3
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


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench_run(side, seed, order, work, p50, error=None):
    return {"side": side, "seed": seed, "order": order, "exit": 1 if error else 0,
            "correct": None if error else True, "failed": None if error else 0,
            "metrics": None if error else {"work_per_s": work, "latency_p50_ms": p50},
            "error": error}


def test_bench_pairs_summary():
    pairs = _load("bench_pairs")
    runs = [_bench_run("parent", 1, 1, 100.0, 10.0), _bench_run("change", 1, 2, 90.0, 9.0),
            _bench_run("change", 2, 1, 110.0, 12.0), _bench_run("parent", 2, 2, 104.0, 11.0),
            _bench_run("parent", 3, 1, 96.0, 10.5), _bench_run("change", 3, 2, 99.0, 10.0),
            _bench_run("change", 4, 1, 0.0, 0.0, error="exit 1: boom"),
            _bench_run("parent", 4, 2, 120.0, 8.0)]
    summary = pairs.summarise(runs, {"work_per_s": "higher", "latency_p50_ms": "lower"})
    assert summary["runs"] == runs
    work, p50 = summary["metrics"]["work_per_s"], summary["metrics"]["latency_p50_ms"]
    # the failed run counts in no median and no pair; the parent's four runs
    # 96, 100, 104, 120 have inclusive quartiles 99 and 108, and 8, 10, 10.5,
    # 11 have 9.5 and 10.625
    assert work == {"better": "higher", "median": {"parent": 102.0, "change": 99.0},
                    "parent_iqr": 9.0, "pairs": 3, "change_won": [2, 3]}
    assert p50 == {"better": "lower", "median": {"parent": 10.25, "change": 10.0},
                   "parent_iqr": 1.125, "pairs": 3, "change_won": [1, 3]}
    # seed 1: the parent ran first and won; 2: the change ran first and won;
    # 3: the parent ran first and lost
    assert summary["first_side_won"] == {"work_per_s": 2, "pairs": 3}


def test_bench_pairs_keeps_failed_and_malformed_runs():
    pairs = _load("bench_pairs")
    line = json.dumps({"correct": True, "attempted": 5, "failed": 1,
                       "metrics": {"work_per_s": {"value": 12.5, "unit": "1/s"}}})
    assert pairs.parse_run(0, f"# a raw line\n{line}\n", "") == {
        "correct": True, "failed": 1, "metrics": {"work_per_s": 12.5}, "error": None}
    bad = {"correct": None, "failed": None, "metrics": None}
    assert pairs.parse_run(2, "", "error: no sources\n") == {
        **bad, "error": "exit 2: error: no sources"}
    assert pairs.parse_run(1, f"{line}\n", "") == {**bad, "error": f"exit 1: {line}"}
    assert pairs.parse_run(0, "# a raw line\n{\"correct\": tr\n", "") == {
        **bad, "error": "no result line: {\"correct\": tr"}
    assert pairs.parse_run(0, "", "")["error"] == "no result line: "


# a bench/run.py that logs its call to ../log and prints a result line of seed
# + 0.5 for the change, seed for the parent, or fails the change's seed 8
FAKE_BENCH = '''import json, os, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
side = os.path.basename(os.getcwd())
with open("../log", "a") as log:
    log.write(f"{side} {args['--seed']} {args['--seconds']} {args['--trace']}\\n")
if side == "change" and args["--seed"] == "8":
    sys.exit("error: this run fails")
work = int(args["--seed"]) + (0.5 if side == "change" else 0.0)
print("# raw values")
print(json.dumps({"correct": True, "attempted": 3, "failed": 0,
                  "metrics": {"work_per_s": {"value": work, "unit": "1/s"}}}))
'''


def test_bench_pairs_alternates_the_first_side(tmp_path):
    for side in ("parent", "change"):
        (tmp_path / side / "bench").mkdir(parents=True)
        (tmp_path / side / "bench" / "run.py").write_text(FAKE_BENCH)
    done = run_script("bench_pairs.py", str(tmp_path / "parent"), str(tmp_path / "change"),
                      "--workload", "sweep-fine", "--pairs", "4", "--seed", "7", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    # every run lasts BENCHMARK.json's run_seconds
    seconds = json.loads((SCRIPTS.parent / "BENCHMARK.json").read_text())["run_seconds"]
    assert (tmp_path / "log").read_text().splitlines() == [
        f"{side} {seed} {seconds} 0" for side, seed in [
            ("parent", 7), ("change", 7), ("change", 8), ("parent", 8),
            ("parent", 9), ("change", 9), ("change", 10), ("parent", 10)]]
    summary = json.loads(done.stdout)
    assert summary["run_seconds"] == seconds
    assert [(run["side"], run["seed"], run["order"], run["exit"])
            for run in summary["runs"]] == [
        ("parent", 7, 1, 0), ("change", 7, 2, 0), ("change", 8, 1, 1), ("parent", 8, 2, 0),
        ("parent", 9, 1, 0), ("change", 9, 2, 0), ("change", 10, 1, 0), ("parent", 10, 2, 0)]
    assert summary["runs"][2]["error"] == "exit 1: error: this run fails"
    assert summary["metrics"]["work_per_s"]["change_won"] == [7, 9, 10]
    assert summary["first_side_won"] == {"work_per_s": 1, "pairs": 3}


def test_bench_pairs_refuses_an_odd_pair_count(tmp_path):
    done = run_script("bench_pairs.py", "parent", "change", "--workload", "sweep-fine",
                      "--pairs", "3", "--seed", "1", cwd=tmp_path)
    assert done.returncode == 2 and done.stdout == ""
    assert "--pairs must be even" in done.stderr
