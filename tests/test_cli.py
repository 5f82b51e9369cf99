import json
import math
import tracemalloc

import pytest

from shadowosc import cli
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


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("integrator, label, t", [("velocity-verlet", "flow<i-c>", "1113"),
                                                  ("euler", "euler", "1106")])
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


@pytest.mark.parametrize("command", ["classify", "hamiltonian"])
@pytest.mark.parametrize("flags", NON_FINITE, ids=lambda f: " ".join(f[1:]))
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
