import argparse
import json
import math
import os
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from shadowosc import cli, shadow, tables
from shadowosc.algebra import max_diff
from shadowosc.cli import main
from shadowosc.errors import (
    BadParams,
    CriticalTau,
    InvalidTau,
    NoHamiltonian,
    NonFinite,
    NotSymplectic,
    ShadowOscError,
    UnknownIntegrator,
)
from shadowosc.flow import flow_matrix
from shadowosc.integrators import BUILDERS, euler, make
from shadowosc.shadow import generators_for
from shadowosc.verify import BOUND, euler_hamiltonian, locate_vp_critical_tau


SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_critical_euler(self, capsys):
        code, out, _ = run(capsys, "classify", "--integrator", "euler", "--tau", "2")
        assert code == 0
        assert "iii-b" in out
        assert "no Hamiltonian exists" in out

    def test_small_tau_euler(self, capsys):
        code, out, _ = run(capsys, "classify", "--integrator", "euler", "--tau", "0.66")
        assert code == 0
        assert "i-a" in out

    def test_not_symplectic_custom(self, capsys):
        code, _, err = run(capsys, "classify", "--integrator", "custom",
                           "--r", "1,0,0,2", "--tau", "1")
        assert code == 2
        assert "determinant" in err

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "classify", "--integrator", "double-euler",
                           "--tau", "4", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["case"] == "iii-a"
        assert "jordan" in payload

    def test_custom_requires_entries(self, capsys):
        code, _, err = run(capsys, "classify", "--integrator", "custom", "--tau", "1")
        assert code == 2


class TestHamiltonian:
    def test_euler_unit_tau_rate_column(self, capsys):
        code, out, _ = run(capsys, "hamiltonian", "--integrator", "euler",
                           "--tau", "1", "--m-min", "0", "--m-max", "0")
        assert code == 0
        header, row = out.strip().split("\n")
        cells = row.split(",")
        names = header.split(",")
        assert float(cells[names.index("lambda_re")]) == pytest.approx(math.pi / 3,
                                                                       abs=1e-12)
        assert cells[names.index("real_valued")] == "1"

    def test_large_tau_imaginary_rates(self, capsys):
        code, out, _ = run(capsys, "hamiltonian", "--integrator", "euler",
                           "--tau", "3", "--m-min", "0", "--m-max", "1",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        rows = payload["hamiltonians"]
        assert [r["m"] for r in rows] == [0, 1]
        for r in rows:
            # generic branch m, the closed form's -m-1: lambda = -L has
            # imaginary part -(2m+1)*pi
            assert r["lambda"]["im"] == pytest.approx(-(2 * r["m"] + 1) * math.pi,
                                                      abs=1e-12)
            assert not r["real_valued"]
            # rate and coefficients must describe the same Hamiltonian
            root = math.sqrt(3.0 ** 2 - 4.0)
            assert r["cA"]["im"] == pytest.approx(r["lambda"]["im"] / (3.0 * root),
                                                  abs=1e-12)

    def test_unique_solution_single_row(self, capsys):
        code, out, _ = run(capsys, "hamiltonian", "--integrator", "double-euler",
                           "--tau", "4", "--m-min", "-3", "--m-max", "3")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 2
        assert ",iii-a," in lines[1]

    def test_large_entry_near_quarter_turn_is_refused(self, capsys):
        # tagged iii-a, but its K is not nilpotent: Z = K misses R by 1.6e4
        code, out, err = run(capsys, "hamiltonian", "--integrator", "custom",
                             "--r", "1e5,1e5,-99999.99999,-1e5", "--tau", "0.5")
        assert (code, out) == (1, "")
        assert err == "error: exp(Z) reproduces custom only to 1.585e+04\n"

    @pytest.mark.parametrize("entries, c_pq, rows", [
        # k11**2 overflows: read on K / 2**e; branch 0 is in hard_maps.HARD_MAPS
        ("1e160,0,0,1e-160", "368.41361487904737", slice(None, None, 2)),
        ("1e100,0,0,1e-100", "230.25850929940458", slice(None))])
    def test_large_diagonal_map_gets_its_i_b_family(self, capsys, entries, c_pq, rows):
        # cC = log(1e160) or log(1e100); only branch 0 is real
        code, out, err = run(capsys, "hamiltonian", "--integrator", "custom", "--r", entries,
                             "--tau", "1")
        assert (code, err) == (0, "")
        assert out.splitlines()[1:][rows] == [
            f"-1,i-b,1,0,0,-0,0,{c_pq},-6.2831853071795862,0,,",
            f"0,i-b,1,0,0,-0,0,{c_pq},0,1,,",
            f"1,i-b,1,0,0,-0,0,{c_pq},6.2831853071795862,0,,"][rows]

    @pytest.mark.parametrize("tau", ["4", "4.0000000001", "4.000000000001"])
    def test_double_euler_near_tau_4_keeps_its_jordan_row(self, capsys, tau):
        code, out, _ = run(capsys, "hamiltonian", "--integrator", "double-euler", "--tau", tau)
        assert code == 0
        rows = out.strip().split("\n")[1:]
        assert len(rows) == 1 and rows[0].startswith("0,iii-a,")

    def test_obstruction_row(self, capsys):
        code, out, _ = run(capsys, "hamiltonian", "--integrator", "euler", "--tau", "2")
        assert code == 0
        assert "# " in out and "iii-b" in out

    def test_scalar_params_roundtrip(self, capsys):
        code, out, _ = run(capsys, "hamiltonian", "--integrator", "custom",
                           "--r", "1,0,0,1", "--tau", "1",
                           "--m-min", "1", "--m-max", "1",
                           "--c1", "0", "--c2", "0:1", "--c3", "0:-1",
                           "--format", "json")
        assert code == 0
        row = json.loads(out)["hamiltonians"][0]
        assert row["real_valued"]
        assert row["cA"]["re"] == pytest.approx(-math.pi, abs=1e-12)


class TestFlow:
    def test_figure_style_run(self, capsys, tmp_path):
        code, out, _ = run(capsys, "flow", "--integrator", "euler", "--tau", "0.66",
                           "--m-min", "-1", "--m-max", "1",
                           "--q0", "1", "--p0", "0",
                           "--t-end", "3.96", "--dt", "0.01",
                           "--out", str(tmp_path))
        assert code == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["discrete.csv", "flow_m-1.csv", "flow_m0.csv", "flow_m1.csv"]
        discrete = (tmp_path / "discrete.csv").read_text().strip().split("\n")
        assert len(discrete) == 1 + 7  # header + n = 0..6

    def test_flow_roundtrips_hamiltonian_column(self, capsys, tmp_path):
        run(capsys, "flow", "--integrator", "velocity-verlet", "--tau", "1.5",
            "--m-min", "0", "--m-max", "0", "--t-end", "3", "--dt", "0.5",
            "--out", str(tmp_path), "--format", "json")
        payload = json.loads((tmp_path / "flow_m0.json").read_text())
        coeffs = payload["source"]["hamiltonian"]
        c_pp = complex(coeffs["cA"]["re"], coeffs["cA"]["im"])
        c_qq = complex(coeffs["cB"]["re"], coeffs["cB"]["im"])
        c_pq = complex(coeffs["cC"]["re"], coeffs["cC"]["im"])
        for s in payload["states"]:
            q = complex(s["q"]["re"], s["q"]["im"])
            p = complex(s["p"]["re"], s["p"]["im"])
            want = c_pp * p * p + c_qq * q * q + c_pq * p * q
            assert abs(want.real - s["H"]["re"]) <= 1e-12
            assert abs(want.imag - s["H"]["im"]) <= 1e-12

    def test_zero_horizon(self, capsys, tmp_path):
        code, _, _ = run(capsys, "flow", "--integrator", "euler", "--tau", "1",
                         "--m-min", "0", "--m-max", "0", "--t-end", "0",
                         "--dt", "0.1", "--out", str(tmp_path))
        assert code == 0
        assert len((tmp_path / "flow_m0.csv").read_text().strip().split("\n")) == 2

    def test_critical_tau_writes_discrete_only(self, capsys, tmp_path):
        code, out, _ = run(capsys, "flow", "--integrator", "euler", "--tau", "2",
                           "--t-end", "4", "--dt", "0.1", "--out", str(tmp_path))
        assert code == 0
        assert "no interpolating flow exists" in out
        assert [p.name for p in tmp_path.iterdir()] == ["discrete.csv"]

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run(capsys, "flow", "--integrator", "euler", "--tau", "3",
                "--m-min", "0", "--m-max", "0", "--t-end", "9", "--dt", "0.25",
                "--out", str(out))
        assert (a / "flow_m0.csv").read_bytes() == (b / "flow_m0.csv").read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("integrator, label, t", [("velocity-verlet", "flow<i-c>", "1113"),
                                                  ("euler", "flow<i-c>", "1113")])
def test_flow_leaving_double_range_is_an_error(capsys, tmp_path, fmt, integrator, label, t):
    code, out, err = run(capsys, "flow", "--integrator", integrator, "--tau", "3",
                         "--t-end", "1500", "--dt", "7", "--format", fmt,
                         "--out", str(tmp_path))
    assert code == 1
    assert out == ""
    assert err == f"error: {label} m=-1 leaves double range at t = {t}\n"
    assert [p.name for p in tmp_path.iterdir()] == [f"discrete.{fmt}"]


@pytest.mark.parametrize("integrator", ["velocity-verlet", "vp", "double-euler", "euler"])
@pytest.mark.parametrize("command", ["hamiltonian", "flow"])
def test_non_finite_coefficients_are_an_error(capsys, tmp_path, command, integrator):
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, command, "--integrator", integrator, "--tau", "5e-324",
                         "--out", str(out_dir))
    assert code == 1
    assert out == ""
    assert err.startswith("error: branch m=-1 Hamiltonian at tau=4.94066e-324 has "
                          "non-finite coefficients")
    assert err.count("\n") == 1
    assert not out_dir.exists()


@pytest.mark.parametrize("integrator", sorted(BUILDERS))
def test_sweep_non_finite_coefficients_are_an_error(capsys, integrator):
    # tau = 1e-310 is subnormal: Z/(2 tau) overflows on branch m = -3 first
    code, out, err = run(capsys, "sweep", "--integrator", integrator,
                         "--grid=1e-310:1e-310:1", "--m-min", "-3", "--m-max", "3")
    assert code == 1
    assert out == ""
    assert err == ("error: branch m=-3 Hamiltonian at tau=1e-310 has non-finite "
                   "coefficients cA = -infj, cB = infj, cC = -0j\n")


@pytest.mark.parametrize("grid, reason", [
    ("0:inf:1", "start, stop and step must be finite"),
    ("0:1:nan", "start, stop and step must be finite"),
    ("nan:1:0.1", "start, stop and step must be finite"),
    ("0:1:inf", "start, stop and step must be finite"),
    ("-inf:1:0.1", "start, stop and step must be finite"),
    ("0:1e308:1e-300", "(stop - start) / step = inf; at most 2**52 steps are supported"),
    ("-1e308:1e308:1", "(stop - start) / step = inf; at most 2**52 steps are supported"),
    ("0:1e9:1e-9", "(stop - start) / step = 1e+18; at most 2**52 steps are supported"),
    ("0:4503599627370496:1",
     "(stop - start) / step = 4.5036e+15; at most 2**52 steps are supported"),
    ("3:1:0.1", "stop must not be below start"),
    ("0:1:0", "step must be positive"),
    ("0:1:-1", "step must be positive"),
])
def test_sweep_unusable_grid_is_usage_error(capsys, tmp_path, grid, reason):
    # each escaped cli.main with a traceback, printed Python's own message or
    # complained of a NaN tau; a count past 2**52 ran without end, and an
    # empty grid printed a line with no error: prefix
    code, out, err = run(capsys, "sweep", "--integrator", "euler", f"--grid={grid}",
                         "--out", str(tmp_path / "table"))
    assert (code, out, err) == (2, "", f"error: grid {grid}: {reason}\n")
    assert list(tmp_path.iterdir()) == []


def test_sweep_grid_keeps_its_last_point():
    # the 500-point window 4.001:4.5 reads (stop - start) / step 6 ulps below 499
    assert cli._parse_grid("4.001:4.5:0.001") == (4.001, 0.001, 500)
    assert cli._parse_grid("0:4503599627370495:1")[2] == 2 ** 52


def _decimal_grid(start, step, steps, off):
    """start:stop:step in decimal text, stop being start + steps*step + off."""
    return f"{start}:{start + steps * step + off}:{step}"


def _decimals(least, most, low, high):
    """Decimals digits * 10**exponent, least <= digits <= most, low <= exponent <= high."""
    return st.builds(lambda digits, exponent: Decimal(digits).scaleb(exponent),
                     st.integers(least, most), st.integers(low, high))


decimal_grids = st.builds(_decimal_grid, _decimals(-10 ** 9, 10 ** 9, -12, 3),
                          _decimals(1, 10 ** 6, -12, 2), st.integers(0, 10 ** 6),
                          st.one_of(st.just(Decimal(0)), _decimals(-999, 999, -30, 0)))


@settings(max_examples=1000)
@given(decimal_grids)
@example("0:0.9999999999:0.1")  # exact quotient 9.999999999: 10 points, not 11
@example("9.881:9.881006:6e-7")  # exact quotient 10: stop is the 11th point
@example("4.001:4.5:0.001")  # 6 ulps below 499 in floats
@example("8.001:8.5:0.001")  # 10 ulps above 499
def test_grid_count_is_the_exact_count_of_its_decimal_fields(grid):
    """The count is floor((stop - start) / step) + 1 of the fields' exact
    values wherever the exact quotient is a whole number, or lies further
    from one than the rounding the count allows for; and that rounding
    bounds how far the float quotient lies from the exact one."""
    start, stop, step = (Fraction(v) for v in grid.split(":"))
    assume(stop >= start)
    fields = [float(v) for v in grid.split(":")]
    quotient = (fields[1] - fields[0]) / fields[2]
    assume(quotient < 2 ** 52)
    rounding = cli._grid_rounding(*fields)
    # past half a step of rounding no float count can tell the nearest
    # whole quotient from its neighbours
    assume(4.0 * math.ulp(quotient) + rounding < 0.5)
    exact = (stop - start) / step
    assert abs(Fraction(quotient) - exact) <= rounding
    count = cli._parse_grid(grid)[2]
    nearest = round(exact)
    if exact == nearest:
        assert count == nearest + 1
    elif abs(exact - nearest) > 4.0 * math.ulp(quotient) + 2.0 * rounding:
        assert count == math.floor(exact) + 1


@pytest.mark.parametrize("grid, taus", [
    # 0:0.9999999999:0.1 shifted by 1, as tau = 0 is refused: no point past stop
    ("1:1.9999999999:0.1", [1.0 + k * 0.1 for k in range(10)]),
    ("9.881:9.881006:6e-7", [9.881 + k * 6e-7 for k in range(11)]),  # stop is a point
])
def test_sweep_emits_the_exact_grid(capsys, grid, taus):
    code, out, _ = run(capsys, "sweep", "--integrator", "euler", f"--grid={grid}")
    assert code == 0
    assert [float(line.split(",")[0]) for line in out.splitlines()[1:]] == taus


def test_flow_too_many_discrete_steps_is_usage_error(capsys, tmp_path):
    code, _, err = run(capsys, "flow", "--integrator", "velocity-verlet", "--tau", "5e-324",
                       "--m-min", "0", "--m-max", "0", "--out", str(tmp_path / "out"))
    assert code == 2
    assert err == "error: t_end / tau = inf discrete steps; at most 2**52 are supported\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags", [["--q0=inf"], ["--p0=nan"], ["--t-end=inf"],
                                   ["--t-end=1e300", "--dt=1e-300"]])
def test_flow_non_finite_start_or_horizon_is_usage_error(capsys, tmp_path, flags):
    code, _, err = run(capsys, "flow", "--integrator", "euler", "--tau", "0.5", *flags,
                       "--out", str(tmp_path / "out"))
    assert code == 2
    assert err.startswith("error: ")
    assert not (tmp_path / "out").exists()


UNWRITABLE_OUT_CALLS = {
    "classify": ["classify", "--integrator", "euler", "--tau", "0.66"],
    "hamiltonian": ["hamiltonian", "--integrator", "euler", "--tau", "0.66"],
    "sweep": ["sweep", "--integrator", "euler", "--grid", "0.5:1:0.5"],
    "verify": ["verify", "--trials", "1"],
    "flow": ["flow", "--integrator", "euler", "--tau", "0.66", "--t-end", "1"],
}


# flow creates a missing output directory, so only a regular file in the way stops it
@pytest.mark.parametrize("command, out", [(c, "file/out") for c in UNWRITABLE_OUT_CALLS]
                         + [(c, "missing/out") for c in UNWRITABLE_OUT_CALLS if c != "flow"])
def test_unwritable_out_is_an_error(capsys, tmp_path, command, out):
    # a failed command prints nothing to stdout, and its error names the path
    # it writes, not the temporary name the file is written under
    (tmp_path / "file").write_text("")
    code, stdout, err = run(capsys, *UNWRITABLE_OUT_CALLS[command], "--out", str(tmp_path / out))
    assert code == 1
    assert stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert f"'{tmp_path / out}'" in err and ".part" not in err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["file"]


def test_flow_file_in_the_way_is_named(capsys, tmp_path):
    # a directory where flow writes a file fails its rename, which names that file
    (tmp_path / "discrete.csv").mkdir()
    code, stdout, err = run(capsys, *UNWRITABLE_OUT_CALLS["flow"], "--out", str(tmp_path))
    assert (code, stdout) == (1, "")
    assert err.endswith(f"'{tmp_path / 'discrete.csv'}'\n") and ".part" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["discrete.csv"]


@pytest.mark.parametrize("command", [c for c in UNWRITABLE_OUT_CALLS if c != "flow"])
def test_out_file_appears_only_whole(capsys, tmp_path, monkeypatch, command):
    # written under out.part and renamed, so no partial file is left behind
    renamed, real_replace = [], os.replace

    def replace(src, dst):
        renamed.append((os.path.basename(src), os.path.basename(dst)))
        real_replace(src, dst)

    monkeypatch.setattr(tables.os, "replace", replace)
    (tmp_path / "out").write_text("old\n")
    code, out, _ = run(capsys, *UNWRITABLE_OUT_CALLS[command], "--out", str(tmp_path / "out"))
    assert code == 0
    assert renamed == [("out.part", "out")]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
    text = (tmp_path / "out").read_text()
    if command == "verify":
        assert json.loads(text)["passed"] and "subjects passed" in out
    else:
        assert run(capsys, *UNWRITABLE_OUT_CALLS[command]) == (0, text, "") and out == ""


def _flow_peak_bytes(tmp_path, fmt, t_end):
    out_dir = tmp_path / f"{fmt}-{t_end}"
    tracemalloc.start()
    try:
        code = cli.main(["flow", "--integrator", "velocity-verlet", "--tau", "0.66",
                         "--m-min", "0", "--m-max", "0", "--t-end", t_end, "--dt", "0.01",
                         "--format", fmt, "--out", str(out_dir)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_flow_memory_is_independent_of_the_number_of_samples(capsys, tmp_path, fmt):
    short = _flow_peak_bytes(tmp_path, fmt, "20")
    long = _flow_peak_bytes(tmp_path, fmt, "200")  # 10 times the samples
    assert long <= 2 * short


class TestSweep:
    def test_euler_regimes(self, capsys):
        code, out, _ = run(capsys, "sweep", "--integrator", "euler",
                           "--grid", "0.1:4:0.1")
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        for tau_text, case, *_ in rows:
            tau = float(tau_text)
            if abs(tau - 2.0) < 1e-9:
                assert case == "iii-b"
            elif tau < 2.0:
                assert case == "i-a"
            else:
                assert case == "i-c"

    def test_real_count_column(self, capsys):
        code, out, _ = run(capsys, "sweep", "--integrator", "euler",
                           "--grid", "0.5:3:0.5", "--m-min", "-1", "--m-max", "1")
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        by_tau = {float(r[0]): int(r[4]) for r in rows}
        assert by_tau[0.5] == 3   # bounded case: every branch is real
        assert by_tau[3.0] == 0   # beyond critical: none are

    def test_double_euler_transitions(self, capsys):
        code, out, _ = run(capsys, "sweep", "--integrator", "double-euler",
                           "--grid", "0.5:5:0.25")
        assert code == 0
        rows = {float(r.split(",")[0]): r.split(",")[1]
                for r in out.strip().split("\n")[1:]}
        assert rows[4.0] == "iii-a"
        assert rows[4.5] == "i-b"
        assert rows[2.5] == "i-a"


class TestRealBranchPattern:
    """The paper's count: every requested branch of a bounded (i-a) map has a
    real Hamiltonian, only branch 0 of an i-b map and the Jordan generator of
    iii-a do, and none of an i-c or iii-b map."""

    WINDOW = 1e-3

    @staticmethod
    def expected(case, requested):
        return {"i-a": requested, "i-b": 1, "i-c": 0, "iii-a": 1, "iii-b": 0}[case]

    def sweep_rows(self, capsys, integrator, grid, m_min=-1, m_max=1):
        code, out, err = run(capsys, "sweep", "--integrator", integrator, f"--grid={grid}",
                             "--m-min", str(m_min), "--m-max", str(m_max), "--format", "json")
        assert (code, err) == (0, "")
        return json.loads(out)["rows"]

    @pytest.mark.parametrize("integrator", sorted(BUILDERS))
    def test_coarse_grid_and_ridge_window(self, capsys, integrator):
        ridge = {"double-euler": 4.0, "vp": locate_vp_critical_tau()}.get(integrator, 2.0)
        grids = ["0.013:10:0.013",
                 f"{ridge - self.WINDOW!r}:{ridge + self.WINDOW!r}:{self.WINDOW / 100!r}"]
        cases = set()
        for grid in grids:
            for row in self.sweep_rows(capsys, integrator, grid):
                cases.add(row["case"])
                assert row["n_real"] == self.expected(row["case"], 3), row
        # both sides of the ridge and the ridge itself are covered
        beyond = {"double-euler": {"i-b", "iii-a"}}.get(integrator, {"i-c", "iii-b"})
        assert cases == {"i-a"} | beyond

    @pytest.mark.parametrize("tau", ["1e-12", "1e6", "1e11"])
    @pytest.mark.parametrize("integrator", sorted(BUILDERS))
    def test_extreme_tau(self, capsys, integrator, tau):
        (row,) = self.sweep_rows(capsys, integrator, f"{tau}:{tau}:1", -3, 3)
        assert row["n_real"] == self.expected(row["case"], 7), row

    def test_i_b_counts_branch_zero_only_when_requested(self, capsys):
        (row,) = self.sweep_rows(capsys, "double-euler", "4.5:4.5:1", 1, 3)
        assert (row["case"], row["n_real"]) == ("i-b", 0)


SWEEP_KEYS = ("tau", "case", "trace", "criticality_gap", "n_real")


def _sweep_json(capsys, tmp_path, to_file, integrator, grid):
    """The JSON table ``sweep`` writes for m = -3..3, from stdout or --out."""
    out = ["--out", str(tmp_path / "sweep.json")] if to_file else []
    code, printed, err = run(capsys, "sweep", "--integrator", integrator, f"--grid={grid}",
                             "--m-min=-3", "--m-max=3", "--format", "json", *out)
    assert (code, err) == (0, "")
    if to_file:
        assert printed == ""
        return (tmp_path / "sweep.json").read_text()
    return printed


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
@pytest.mark.parametrize("integrator, grid", [
    ("vp", "0.001:10:0.01"), ("double-euler", "3.99:4.01:0.001"), ("euler", "1.99:2.01:0.001"),
    ("double-euler", "2.818:2.838:0.001"),
    ("vp", f"{locate_vp_critical_tau() - 0.01!r}:{locate_vp_critical_tau() + 0.01!r}:0.001")])
def test_sweep_json_rows_read_as_json_dumps(capsys, tmp_path, integrator, grid, to_file):
    # every row comes from one %-template: the bytes are json.dumps(indent=2)
    # of the whole table and a newline, as when each row went through json
    start, step, count = cli._parse_grid(grid)
    rows = [dict(zip(SWEEP_KEYS, cli._sweep_row(integrator, start + k * step, range(-3, 4),
                                                 None)))
            for k in range(count)]
    want = json.dumps({"integrator": integrator, "rows": rows}, indent=2) + "\n"
    assert _sweep_json(capsys, tmp_path, to_file, integrator, grid) == want


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_sweep_json_writes_non_finite_values_as_json_does(capsys, tmp_path, monkeypatch,
                                                          to_file):
    # a row holding nan or inf goes through json, which writes NaN, Infinity
    values = [(math.nan, "i-a", 1.0, 2.0, 3), (0.5, "i-c", -math.inf, math.inf, 0),
              (0.25, "ii(+)", 1e300, -0.0, 7), (1.5, "iii-b", 2.0, math.nan, 0)]
    monkeypatch.setattr(cli, "_sweep_row", lambda integrator, tau, *_: values[round(tau)])
    want = json.dumps({"integrator": "euler",
                       "rows": [dict(zip(SWEEP_KEYS, row)) for row in values]}, indent=2)
    assert _sweep_json(capsys, tmp_path, to_file, "euler", "0:3:1") == want + "\n"


def test_sweep_builds_no_hamiltonian_record(capsys, monkeypatch):
    built = []
    init = shadow.ShadowHamiltonian.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(shadow.ShadowHamiltonian, "__init__", counting_init)
    for integrator in sorted(BUILDERS):
        code, _, _ = run(capsys, "sweep", "--integrator", integrator, "--grid", "0.5:5:0.5")
        assert code == 0
    assert built == []
    # the hamiltonian command still builds one record per branch
    code, _, _ = run(capsys, "hamiltonian", "--integrator", "vp", "--tau", "0.5")
    assert (code, len(built)) == (0, 3)


class TestVerify:
    def test_default_passes(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run(capsys, "verify", "--trials", "3",
                           "--out", str(out_path))
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["passed"] is True
        assert all(rep["passed"] for rep in payload["reports"])

    def test_seeded_runs_identical(self, capsys):
        _, out1, _ = run(capsys, "verify", "--seed", "7", "--trials", "3")
        _, out2, _ = run(capsys, "verify", "--seed", "7", "--trials", "3")
        assert out1 == out2

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_is_usage_error(self, capsys, trials):
        code, out, err = run(capsys, "verify", "--trials", trials)
        assert (code, out) == (2, "")
        assert "trials" in err

    def test_perturbed_run_fails(self, capsys):
        code, out, _ = run(capsys, "verify", "--trials", "2", "--perturb", "1e-3")
        assert code == 1
        assert "FAIL" in out

    @pytest.mark.parametrize("perturb", ["10", "100", "1e3", "1e10", "1e308", "-1e308"])
    def test_flow_out_of_double_range_fails_its_checks(self, capsys, perturb):
        code, out, err = run(capsys, "verify", "--trials", "1", "--perturb", perturb)
        assert (code, err) == (1, "")
        assert out.endswith(" subjects passed\n")
        rows = [line.split() for line in out.splitlines()
                if "coincidence" in line or "conserved" in line]
        assert len(rows) == 47
        assert all(row[-1] == "FAIL" for row in rows)


class TestEveryScaleOfTau:
    """Real Hamiltonians for small tau, complex ones for large tau."""

    @pytest.mark.parametrize("integrator, tau, case", [
        ("euler", "1e-5", "i-a"), ("vp", "7.72", "i-c"), ("vp", "5.803", "i-a")])
    def test_classify(self, capsys, integrator, tau, case):
        code, out, _ = run(capsys, "classify", "--integrator", integrator, "--tau", tau,
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["case"] == case

    @pytest.mark.parametrize("integrator, tau", [
        ("velocity-verlet", "1e-10"), ("euler", "1e-8"), ("euler", "1e-5"),
        ("position-verlet", "1e-12"), ("double-euler", "1e-7"), ("vp", "1e-6")])
    def test_small_tau_branch_zero_is_the_oscillator(self, capsys, integrator, tau):
        # H0 = (p**2 + q**2)/2 to first order in tau
        code, out, _ = run(capsys, "hamiltonian", "--integrator", integrator, "--tau", tau,
                           "--m-min", "0", "--m-max", "0", "--format", "json")
        assert code == 0
        (h,) = json.loads(out)["hamiltonians"]
        assert h["case"] == "i-a"
        assert abs(h["cA"]["re"] - 0.5) <= 1e-6
        assert abs(h["cB"]["re"] - 0.5) <= 1e-6
        assert abs(h["cC"]["re"]) <= float(tau)

    def test_small_modulus_rotation_is_real(self, capsys):
        # |d| = 1e-7: det's rounding in log|y|, divided by |d|, once read as
        # cA_im = 5.55e-10 and real_valued 0
        code, out, _ = run(capsys, "hamiltonian", "--integrator", "double-euler",
                           "--tau", "1e-7", "--m-min", "0", "--m-max", "0")
        assert code == 0
        row = dict(zip(*(line.split(",") for line in out.splitlines())))
        assert row["case"] == "i-a"
        assert float(row["cA_im"]) == 0.0
        assert row["real_valued"] == "1"

    def test_euler_rate_column_at_small_tau(self, capsys):
        code, out, _ = run(capsys, "hamiltonian", "--integrator", "euler", "--tau", "1e-8",
                           "--m-min", "0", "--m-max", "0")
        assert code == 0
        row = out.splitlines()[1].split(",")
        assert row[1] == "i-a"
        assert float(row[-2]) == pytest.approx(1e-8, rel=1e-15)

    @pytest.mark.parametrize("tau", [1.5, 3.0, 1.99, 2.01, 1.9999, 2.0001, 1e-15, 1e-100, 1e-150]
                             + [10.0 ** -k for k in range(3, 13)])
    def test_euler_rows_are_the_closed_form(self, capsys, tau):
        # generic branch m is the closed form's m for tau < 2 and -m-1 for tau > 2;
        # cA, cC and lambda within 4 eps relative of it, and beside the ridge
        # within the 1/|4 - tau**2| that d**2 = k11**2 + r2*r3 loses there
        code, out, _ = run(capsys, "hamiltonian", "--integrator", "euler", "--tau", repr(tau),
                           "--m-min", "-3", "--m-max", "3", "--format", "json")
        assert code == 0
        bound = 4.0 * sys.float_info.epsilon * max(1.0, 1.0 / abs(4.0 - tau * tau))
        for row in json.loads(out)["hamiltonians"]:
            want = euler_hamiltonian(tau, row["m"] if tau < 2.0 else -row["m"] - 1)
            for key, value in (("cA", want.c_pp), ("cC", want.c_pq), ("lambda", want.rate)):
                got = complex(row[key]["re"], row[key]["im"])
                assert abs(got - value) <= bound * abs(value), key

    def test_large_tau_family(self, capsys):
        code, out, _ = run(capsys, "hamiltonian", "--integrator", "velocity-verlet",
                           "--tau", "1000", "--format", "json")
        assert code == 0
        rows = json.loads(out)["hamiltonians"]
        assert [h["m"] for h in rows] == [-1, 0, 1]
        assert all(h["case"] == "i-c" and not h["real_valued"] for h in rows)


class TestRidgeInputHasAnAnswer:
    """Maps within eps of the T = +-2 ridges: log|y| = asinh|d| carries no
    rounding of y, which would read as exit 1 (i-b) or a wrong cA (i-c)."""

    @pytest.mark.parametrize("eps", ["1e-16", "1e-20", "1e-100", "1e-300"])
    @pytest.mark.parametrize("sign, case", [(1, "i-b"), (-1, "i-c")])
    def test_branch_zero_is_the_shear(self, capsys, eps, sign, case):
        code, out, _ = run(capsys, "hamiltonian", "--integrator", "custom",
                           f"--r={sign},1,{eps},{sign}", "--tau", "1",
                           "--m-min", "0", "--m-max", "0", "--format", "json")
        assert code == 0
        (h,) = json.loads(out)["hamiltonians"]
        assert h["case"] == case
        assert abs(h["cA"]["re"] - sign * 0.5) <= 4.0 * math.ulp(0.5)


VP_RIDGE = locate_vp_critical_tau()


class TestNearRidgeHamiltonian:
    """Within 1e-8 of a ridge (1e-9 for vp) every branch has a family: these
    calls exited 1 with `exp(Z) reproduces ... only to ...` while exp(Z) was
    read through delta recomputed from Z's entries.  Closer in, the ridge band
    of ``classify`` still decides the tag."""

    @pytest.mark.parametrize("integrator, tau", [
        ("euler", 2.0 + 1e-8), ("euler", 2.0 - 1e-8),
        ("double-euler", 4.0 + 1e-8), ("double-euler", 4.0 - 1e-8),
        ("vp", VP_RIDGE + 1e-8), ("vp", VP_RIDGE - 1e-8),
        ("vp", VP_RIDGE + 1e-9), ("vp", VP_RIDGE - 1e-9)])
    def test_family_exits_zero_and_its_flows_pass_through_r(self, capsys, integrator, tau):
        code, out, err = run(capsys, "hamiltonian", "--integrator", integrator,
                             "--tau", repr(tau), "--m-min", "-3", "--m-max", "3")
        assert code == 0, err
        assert [int(line.split(",")[0]) for line in out.splitlines()[1:]] == list(range(-3, 4))
        r = make(integrator, tau)
        rm = r.as_mat2c()
        for g in generators_for(r, range(-3, 4)).generators:
            scale = max(1.0, rm.max_abs()) * max(1.0, g.matrix.max_abs())
            assert max_diff(flow_matrix(g, tau), rm) <= BOUND * scale

    @pytest.mark.parametrize("sign", [1, -1])
    def test_euler_closed_form_flow_passes_through_r(self, capsys, tmp_path, sign):
        tau = 2.0 + sign * 1e-8
        code, _, err = run(capsys, "flow", "--integrator", "euler", "--tau", repr(tau),
                           "--m-min", "-3", "--m-max", "3", "--t-end", repr(tau),
                           "--dt", repr(tau), "--q0", "0", "--p0", "1", "--out", str(tmp_path))
        assert code == 0, err
        r = euler(tau)
        want = r.apply(0.0, 1.0)
        # Euler's flows are the generic family's, as for every map
        z_scale = max(g.matrix.max_abs() for g in generators_for(r, range(-3, 4)).generators)
        for m in range(-3, 4):
            row = (tmp_path / f"flow_m{m}.csv").read_text().splitlines()[-1].split(",")
            got = (complex(float(row[1]), float(row[2])), complex(float(row[3]), float(row[4])))
            assert max(abs(g - w) for g, w in zip(got, want)) <= \
                BOUND * max(1.0, r.max_abs()) * z_scale


class TestConfigValidation:
    def test_nonpositive_dt(self, capsys):
        code, _, err = run(capsys, "flow", "--integrator", "euler", "--tau", "1",
                           "--dt", "0", "--t-end", "1")
        assert code == 2
        assert "dt" in err

    def test_inverted_branch_range(self, capsys):
        code, _, err = run(capsys, "hamiltonian", "--integrator", "euler",
                           "--tau", "1", "--m-min", "2", "--m-max", "0")
        assert code == 2
        assert "m-min" in err

    def test_partial_scalar_params(self, capsys):
        code, _, err = run(capsys, "hamiltonian", "--integrator", "euler",
                           "--tau", "1", "--c1", "0")
        assert code == 2

    def test_large_scalar_direction_is_not_a_usage_error(self, capsys):
        # c1**2 + c2*c3 misses 1 by 7.5e-9, rounding at the terms' scale of 5.8e7
        code, out, err = run(capsys, "hamiltonian", "--integrator", "custom",
                             "--r", "1,0,0,1", "--tau", "1", "--m-min", "0", "--m-max", "1",
                             "--c1", "7611.395989434412", "--c2", "6.563193313680904",
                             "--c3=-8827006.17506067")
        assert (code, err) == (0, "")
        assert [line.split(",")[:2] for line in out.splitlines()[1:]] == [
            ["0", "ii(+)"], ["1", "ii(+)"]]

    def test_large_scalar_direction_missing_beyond_rounding_is_refused(self, capsys):
        # c1**2 + c2*c3 = 50: N**2 = 50 I, so the eigenvalues are not the ones
        # the generator would be built from
        code, out, err = run(capsys, "hamiltonian", "--integrator", "custom",
                             "--r", "1,0,0,1", "--tau", "1", "--m-min", "-1", "--m-max", "1",
                             "--c1", "1e6", "--c2", "1", "--c3=-999999999950")
        assert (code, out) == (2, "")
        assert err == "error: c1**2 + c2*c3 = 1 violated by 4.900e+01\n"

    @pytest.mark.parametrize("tau", ["1", "2"])
    def test_negative_t_end_writes_nothing(self, capsys, tmp_path, tau):
        code, out, err = run(capsys, "flow", "--integrator", "euler", "--tau", tau,
                             "--t-end=-1", "--out", str(tmp_path))
        assert code == 2
        assert "t_end" in err
        assert list(tmp_path.iterdir()) == []


MATRICES = [["--integrator", name] for name in ("euler", "velocity-verlet", "position-verlet",
                                                "double-euler", "vp")]
MATRICES.append(["--integrator", "custom", "--r", "1,1,0,1"])


@pytest.mark.parametrize("tau", ["-1", "0"])
@pytest.mark.parametrize("matrix", MATRICES, ids=lambda m: " ".join(m[1:]))
def test_rejected_tau_reads_the_same_in_every_command(capsys, tmp_path, matrix, tau):
    errors = set()
    for command in ("classify", "hamiltonian", "flow"):
        code, out, err = run(capsys, command, *matrix, f"--tau={tau}",
                             "--out", str(tmp_path / command))
        assert code == 2
        errors.add(err)
    assert errors == {f"error: tau must be positive, got {float(tau)!r}\n"}


# (command without the negative values, [(flag, negative value), ...])
SPACED_NEGATIVE = [
    (["flow", "--integrator", "velocity-verlet", "--tau", "1", "--t-end", "2", "--dt", "0.5"],
     [("--q0", "-2e5"), ("--p0", "-1e-3")]),
    (["classify", "--integrator", "custom", "--tau", "1"], [("--r", "-1,0,0,-1")]),
    (["hamiltonian", "--integrator", "custom", "--r", "1,0,0,1", "--tau", "1",
      "--c2", "0", "--c3", "0"], [("--c1", "-1:0")]),
    (["sweep", "--integrator", "euler"], [("--grid", "-1:1:0.5")]),
    (["classify", "--integrator", "euler"], [("--tau", "-inf")]),
    (["classify", "--integrator", "euler"], [("--tau", "-NaN")]),
    (["classify", "--integrator", "euler"], [("--tau", "-.5")]),
]


@pytest.mark.parametrize("base, negatives", SPACED_NEGATIVE,
                         ids=[" ".join(f"{flag} {value}" for flag, value in negatives)
                              for _, negatives in SPACED_NEGATIVE])
def test_spaced_negative_value_parses_like_equals_form(capsys, tmp_path, base, negatives):
    def outcome(flags):
        try:
            code = main([*base, *flags, *(["--out", str(tmp_path)] if base[0] == "flow" else [])])
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    spaced = outcome([token for pair in negatives for token in pair])
    joined = outcome([f"{flag}={value}" for flag, value in negatives])
    assert spaced == joined


NON_FINITE = [
    ["--integrator", "euler", "--tau=inf"],
    ["--integrator", "vp", "--tau=nan"],
    ["--integrator", "velocity-verlet", "--tau=-inf"],
    ["--integrator", "custom", "--tau=1.0", "--r=nan,0,0,nan"],
    ["--integrator", "custom", "--tau=1.0", "--r=inf,1,-1,0"],
    ["--integrator", "custom", "--tau=inf", "--r=1,0,0,1"],
    ["--integrator", "custom", "--tau=1.0", "--r=1,nan,0,1"],
]


NON_FINITE_ARGVS = [
    pytest.param(command, flags, id=f"{' '.join(flags[1:])}-{command}")
    for flags in NON_FINITE for command in ("classify", "hamiltonian")
] + [
    pytest.param("verify", flags, id=f"{' '.join(flags)}-verify")
    for flags in (["--perturb", "nan"], ["--perturb", "inf"], ["--perturb=-inf"])
]


@pytest.mark.parametrize("command, flags", NON_FINITE_ARGVS)
def test_non_finite_input_is_usage_error(capsys, command, flags):
    code, out, err = run(capsys, command, *flags)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("integrator, tau", [("vp", "1e200"), ("double-euler", "1e103")])
def test_composite_overflow_names_the_composite(capsys, integrator, tau):
    code, out, err = run(capsys, "classify", "--integrator", integrator, "--tau", tau)
    assert code == 2
    assert err.startswith(f"error: {integrator}: entries and tau must be finite, got r = (")
    assert err.endswith(f", tau = {float(tau)!r}\n")


USAGE_ERRORS = (InvalidTau, NonFinite, NotSymplectic, BadParams, CriticalTau, UnknownIntegrator)


def _raise(error_type):
    if error_type is NotSymplectic:
        raise NotSymplectic(1.0)
    if error_type is NoHamiltonian:
        raise NoHamiltonian("stub", 1.0, None)
    raise error_type("stub")


@pytest.mark.parametrize("error_type", ShadowOscError.__subclasses__(),
                         ids=lambda t: t.__name__)
def test_error_type_sets_exit_status(capsys, monkeypatch, error_type):
    monkeypatch.setattr(cli, "cmd_classify", lambda args: _raise(error_type))
    code, out, err = run(capsys, "classify", "--integrator", "euler", "--tau", "1")
    assert code == (2 if error_type in USAGE_ERRORS else 1)
    assert out == ""
    assert err.startswith("error: ")


def test_sweep_rejects_custom_in_the_parser(capsys):
    with pytest.raises(SystemExit) as err:
        main(["sweep", "--integrator", "custom", "--grid", "1:2:1"])
    assert err.value.code == 2
    assert "invalid choice: 'custom'" in capsys.readouterr().err


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


# argparse's own text: -h, an unknown flag, missing required arguments, a bad
# choice and an unknown subcommand, at the top level and for each subcommand
_REQUIRED = {"classify": ["--integrator", "euler", "--tau", "1"],
             "hamiltonian": ["--integrator", "euler", "--tau", "1"],
             "flow": ["--integrator", "euler", "--tau", "1"],
             "sweep": ["--integrator", "euler", "--grid", "1:2:1"],
             "verify": []}
PARSER_CALLS = [["-h"], ["--bogus"], [], ["frobnicate"]] + [
    argv for command, required in _REQUIRED.items() for argv in (
        [command, "-h"],
        [command, *required, "--bogus"],
        *([[command]] if required else []),
        [command, "--integrator", "nope", *required[2:]] if required
        else [command, "--format", "xml"])]


def _parsed(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("columns", [None, "30", "200"])
@pytest.mark.parametrize("argv", PARSER_CALLS, ids=" ".join)
def test_parser_text_reads_as_stock_argparse(capsys, monkeypatch, argv, columns):
    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)
    ours = _parsed(capsys, argv)
    # the same parser with argparse's own formatter, and the subcommands'
    # prog derived by add_subparsers from the top parser's usage
    add_subparsers = argparse.ArgumentParser.add_subparsers

    def deriving_prog(self, **kwargs):
        kwargs.pop("prog")
        return add_subparsers(self, **kwargs)

    with monkeypatch.context() as stock:
        stock.setattr(cli, "_DeferredHelpFormatter", argparse.HelpFormatter)
        stock.setattr(argparse.ArgumentParser, "add_subparsers", deriving_prog)
        assert ours == _parsed(capsys, argv)
    assert ours[0] in (0, 2) and (ours[1] or ours[2])


def test_a_call_that_prints_no_help_never_imports_shutil():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from shadowosc.cli import main; "
            "status = main(['classify', '--integrator', 'euler', '--tau', '1']); "
            "print(status, 'shutil' in sys.modules, file=sys.stderr)")
    done = subprocess.run([sys.executable, "-I", "-S", "-c", code, str(SRC)],
                          capture_output=True, text=True, timeout=120)
    assert done.stderr == "0 False\n"


# Each call in a fresh interpreter, as from a shell: what an earlier
# in-process call would have imported or built (a JSON row template, say) is
# not there.  The sweeps of 500 points and the 3 x 3,001-row JSON flow split
# where two CPUs are usable.
FRESH_CALLS = [
    ["classify", "--integrator", "vp", "--tau", "0.66"],
    ["classify", "--integrator", "double-euler", "--tau", "4", "--format", "json"],
    ["hamiltonian", "--integrator", "euler", "--tau", "1"],
    ["hamiltonian", "--integrator", "vp", "--tau", "3", "--format", "json"],
    ["hamiltonian", "--integrator", "euler", "--tau", "2", "--format", "json"],
    ["sweep", "--integrator", "vp", "--grid=0.001:0.500:0.001"],
    ["sweep", "--integrator", "vp", "--grid=0.001:0.500:0.001", "--format", "json"],
    ["sweep", "--integrator", "euler", "--grid=0.5:4:0.5", "--out", "sweep.csv"],
    ["sweep", "--integrator", "euler", "--grid=0.5:4:0.5", "--format", "json",
     "--out", "sweep.json"],
    ["flow", "--integrator", "euler", "--tau", "0.66", "--t-end", "5", "--out", "flow_csv"],
    ["flow", "--integrator", "position-verlet", "--tau", "0.66", "--t-end", "30",
     "--format", "json", "--out", "flow_json"],
    ["verify", "--trials", "5", "--out", "verify.json"],
    ["verify", "--seed", "seven"],
]


def _files(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("argv", FRESH_CALLS, ids=[
    "classify-csv", "classify-json", "hamiltonian-csv", "hamiltonian-json",
    "hamiltonian-obstruction-json", "sweep-csv", "sweep-json", "sweep-csv-out",
    "sweep-json-out", "flow-csv-out", "flow-json-out", "verify-out", "verify-bad-seed"])
def test_fresh_process_call_reads_as_in_process(capsys, tmp_path, monkeypatch, argv):
    fresh, here = tmp_path / "fresh", tmp_path / "here"
    fresh.mkdir()
    here.mkdir()
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from shadowosc.cli import main; "
            "sys.exit(main(sys.argv[2:]))")
    done = subprocess.run([sys.executable, "-I", "-S", "-c", code, str(SRC), *argv],
                          cwd=fresh, capture_output=True, text=True, timeout=120)
    monkeypatch.chdir(here)
    try:
        status = main(list(argv))
    except SystemExit as exc:
        status = exc.code
    captured = capsys.readouterr()
    assert status == (2 if argv[-1] == "seven" else 0), captured.err
    assert (done.returncode, done.stdout, done.stderr) == (status, captured.out, captured.err)
    assert _files(fresh) == _files(here)
