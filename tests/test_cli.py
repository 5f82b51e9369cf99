import json
import math

import pytest

from shadowosc.cli import main


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
            assert r["lambda"]["im"] == pytest.approx((2 * r["m"] + 1) * math.pi,
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

    def test_empty_grid_is_usage_error(self, capsys):
        code, _, err = run(capsys, "sweep", "--integrator", "euler",
                           "--grid", "3:1:0.1")
        assert code == 2


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

    def test_perturbed_run_fails(self, capsys):
        code, out, _ = run(capsys, "verify", "--trials", "2", "--perturb", "1e-3")
        assert code == 1
        assert "FAIL" in out


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


NON_FINITE = [
    ["--integrator", "euler", "--tau=inf"],
    ["--integrator", "vp", "--tau=nan"],
    ["--integrator", "velocity-verlet", "--tau=-inf"],
    ["--integrator", "custom", "--tau=1.0", "--r=nan,0,0,nan"],
    ["--integrator", "custom", "--tau=1.0", "--r=inf,1,-1,0"],
    ["--integrator", "custom", "--tau=inf", "--r=1,0,0,1"],
    ["--integrator", "custom", "--tau=1.0", "--r=1,nan,0,1"],
]


@pytest.mark.parametrize("command", ["classify", "hamiltonian"])
@pytest.mark.parametrize("flags", NON_FINITE, ids=lambda f: " ".join(f[1:]))
def test_non_finite_input_is_usage_error(capsys, command, flags):
    code, out, err = run(capsys, command, *flags)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2
