"""Byte-identity of CLI output against stored digests.

Each case is one short CLI call.  The exit status and the sha256 of its
stdout and of every file it writes are stored in ``golden_flow_sha256.json``
(`flow` calls) and ``golden_cli_sha256.json`` (`classify`, `hamiltonian`,
`sweep` and `verify` calls); a change that moves a single output byte fails
here.
The flow digests were taken from the code before the per-trajectory flow
sampler replaced the per-sample matrix exponential, the `hamiltonian`,
`sweep` and `verify` digests from the code before the repeated input checks
were removed, and the `classify` digests from the code before the second
family type and the obstruction record were removed.  The NaN-bearing flow
case was added, with digests from the code before the trajectory writers
streamed their rows.  Ten digests were retaken when the tag, the
eigenvalue and the generator came to read one discriminant of the
traceless part R - (T/2) I: classify euler i-a and double-euler i-b (text
and JSON), hamiltonian velocity-verlet i-a (CSV and JSON), both verify
seed-7 cases and the flow cases velocity-verlet-i-a and double-euler-i-b.
Their exit codes and tags are unchanged and their numbers moved by at most
2.9e-11 on a max(1, |x|) scale.  Fifteen digests were retaken when every
flow, verify's oracles and the Euler closed form came to share one
per-trajectory cosh/sinh propagator: every flow case except
double-euler-iii-a, shear-iii-a (whose generators are nilpotent and take
the delta = 0 path) and euler-iii-b (discrete file only), and both verify
seed-7 cases.  Exit codes and every PASS/FAIL are unchanged, and states
moved by at most 2.4e-13 on a max(1, |state|) scale.  Both verify seed-7
digests were retaken when every verify check came to read its residual
over its own forward-error scale against one bound, 1024*eps: each
residual and tolerance printed changed, while the exit codes and every
PASS/FAIL are unchanged.  Three digests were retaken when each generator
came to carry its eigenvalue's logarithm and every flow to read it, not
recompute it from Z's entries: the flow cases double-euler-i-b, vp-tau-5
and euler-i-c, whose states moved by at most 9.8e-13 and energies by at
most 5.8e-11 (in the diverging i-b and i-c flows) on a max(1, |x|) scale,
and
verify-seed-7, where 18 coincidence residuals changed (the largest fell from
6.6e-15 to 3.7e-15) and every exit code and PASS/FAIL is unchanged.  The
flow case euler-i-a-split, long enough to be written as several row ranges,
was added with digests from the code before the writers split files.
Eleven digests were retaken when the Euler map came to take the generic
family like every map, and the built-ins to carry their traceless
diagonal k11 in closed form: hamiltonian euler-i-a and euler-i-c (CSV and
JSON), the flow cases euler-i-a, euler-i-c and double-euler-i-b, classify
double-euler-i-b (text and JSON) and both verify seed-7 cases.  Euler's
rows for tau > 2 take the generic labels (the closed form's branch m is row
-m-1), its flow files and their JSON source read as every map's
(``flow<i-c>`` with its case), and zeros changed sign.  Every other
coefficient and eigenvalue moved by at most 3.3e-16 on a max(1, |x|)
scale, flow states by at most 9.8e-16 on max(1, |q|, |p|) and energies by
at most 5.8e-15 on max(1, |q|**2 + |p|**2); exit codes and every PASS/FAIL
are unchanged.  Print the digests of the current code with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from shadowosc.cli import main

FLOW_GOLDEN = Path(__file__).with_name("golden_flow_sha256.json")
CLI_GOLDEN = Path(__file__).with_name("golden_cli_sha256.json")
OUT = "<out>"  # replaced by the path the call writes to

FLOW_CASES = {
    "velocity-verlet-i-a": ["--integrator", "velocity-verlet", "--tau", "0.66",
                            "--t-end", "4", "--dt", "0.01"],
    "velocity-verlet-i-c": ["--integrator", "velocity-verlet", "--tau", "3",
                            "--t-end", "9", "--dt", "0.05", "--q0", "0.5", "--p0", "-0.25"],
    "double-euler-iii-a": ["--integrator", "double-euler", "--tau", "4",
                           "--t-end", "8", "--dt", "0.05"],
    "double-euler-ii-minus": ["--integrator", "double-euler", "--tau", "2.8284271247461903",
                              "--t-end", "6", "--dt", "0.05"],
    "double-euler-i-b": ["--integrator", "double-euler", "--tau", "4.8",
                         "--t-end", "9.6", "--dt", "0.05", "--m-min", "-2", "--m-max", "1"],
    "identity-real-rotation": ["--integrator", "custom", "--r", "1,0,0,1", "--tau", "1",
                               "--params", "real-rotation", "--t-end", "2", "--dt", "0.02"],
    "identity-hyperbolic": ["--integrator", "custom", "--r", "1,0,0,1", "--tau", "1",
                            "--params", "hyperbolic", "--t-end", "2", "--dt", "0.02"],
    "minus-identity-real-rotation": ["--integrator", "custom", "--r=-1,0,0,-1",
                                     "--tau", "1", "--params", "real-rotation",
                                     "--t-end", "2", "--dt", "0.02"],
    "minus-identity-hyperbolic": ["--integrator", "custom", "--r=-1,0,0,-1",
                                  "--tau", "1", "--params", "hyperbolic",
                                  "--t-end", "2", "--dt", "0.02"],
    "shear-iii-a": ["--integrator", "custom", "--r", "1,1,0,1", "--tau", "1",
                    "--t-end", "3", "--dt", "0.02", "--q0", "-0.5", "--p0", "1"],
    "vp-tau-5": ["--integrator", "vp", "--tau", "5", "--t-end", "10", "--dt", "0.05"],
    "euler-i-a": ["--integrator", "euler", "--tau", "0.66", "--m-min", "-2", "--m-max", "2",
                  "--t-end", "3.96", "--dt", "0.01"],
    # 6,001 rows per branch: written as two row ranges on a host with two usable CPUs
    "euler-i-a-split": ["--integrator", "euler", "--tau", "0.66", "--t-end", "60",
                        "--dt", "0.01"],
    "euler-i-c": ["--integrator", "euler", "--tau", "3", "--t-end", "9", "--dt", "0.05",
                  "--q0", "0.3", "--p0", "-1.1"],
    "euler-iii-b": ["--integrator", "euler", "--tau", "2", "--t-end", "6"],
    "velocity-verlet-i-c-json": ["--integrator", "velocity-verlet", "--tau", "3",
                                 "--t-end", "6", "--dt", "0.1", "--format", "json"],
    # states stay finite while their energies overflow: NaN in every file
    "velocity-verlet-i-c-nan-json": ["--integrator", "velocity-verlet", "--tau", "3",
                                     "--t-end", "600", "--dt", "7", "--format", "json"],
}

HAMILTONIAN_MAPS = {
    "euler-i-a": ["--integrator", "euler", "--tau", "0.66", "--m-min", "-2", "--m-max", "2"],
    "velocity-verlet-i-a": ["--integrator", "velocity-verlet", "--tau", "1.5"],
    "euler-i-c": ["--integrator", "euler", "--tau", "3", "--m-min", "0", "--m-max", "1"],
    "velocity-verlet-i-c": ["--integrator", "velocity-verlet", "--tau", "3"],
    "identity-real-rotation": ["--integrator", "custom", "--r", "1,0,0,1", "--tau", "1",
                               "--params", "real-rotation"],
    "minus-identity-hyperbolic": ["--integrator", "custom", "--r=-1,0,0,-1", "--tau", "1",
                                  "--params", "hyperbolic"],
    "double-euler-iii-a": ["--integrator", "double-euler", "--tau", "4"],
    "euler-iii-b": ["--integrator", "euler", "--tau", "2"],
}

CLASSIFY_MAPS = {
    "euler-i-a": ["--integrator", "euler", "--tau", "0.66"],
    "double-euler-i-b": ["--integrator", "double-euler", "--tau", "4.8"],
    "euler-i-c": ["--integrator", "euler", "--tau", "3"],
    "vp-tau-5": ["--integrator", "vp", "--tau", "5"],
    "identity-ii-plus": ["--integrator", "custom", "--r", "1,0,0,1", "--tau", "1"],
    "minus-identity-ii-minus": ["--integrator", "custom", "--r=-1,0,0,-1", "--tau", "1"],
    "double-euler-ii-minus": ["--integrator", "double-euler", "--tau", "2.8284271247461903"],
    "double-euler-iii-a": ["--integrator", "double-euler", "--tau", "4"],
    "shear-iii-a": ["--integrator", "custom", "--r", "1,1,0,1", "--tau", "1"],
    "euler-iii-b": ["--integrator", "euler", "--tau", "2"],
    "custom-i-b": ["--integrator", "custom", "--r", "2,1,1,1", "--tau", "1"],
    "custom-i-c": ["--integrator", "custom", "--r=-2,1,1,-1", "--tau", "0.5"],
}

SWEEP_INTEGRATORS = ("double-euler", "euler", "position-verlet", "velocity-verlet", "vp")

CLI_CASES = {
    **{f"classify-{name}-{label}": ["classify", *flags, "--format", fmt]
       for name, flags in CLASSIFY_MAPS.items()
       for label, fmt in (("text", "csv"), ("json", "json"))},
    **{f"hamiltonian-{name}-{fmt}": ["hamiltonian", *flags, "--format", fmt]
       for name, flags in HAMILTONIAN_MAPS.items() for fmt in ("csv", "json")},
    **{f"sweep-{name}": ["sweep", "--integrator", name, "--grid", "0.5:5:0.25"]
       for name in SWEEP_INTEGRATORS},
    "sweep-vp-json": ["sweep", "--integrator", "vp", "--grid", "0.5:5:0.25",
                      "--format", "json"],
    "verify-seed-7": ["verify", "--seed", "7", "--out", OUT],
    "verify-seed-7-perturbed": ["verify", "--seed", "7", "--perturb=1e-3", "--out", OUT],
}


def cli_digests(workdir: Path, argv: list[str]) -> dict:
    """Run one CLI call that may write to ``workdir/out``: its exit status and
    the sha256 of its stdout and of each file it wrote."""
    out = workdir / "out"
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        code = main([str(out) if a == OUT else a for a in argv])
    text = stdout.getvalue().replace(str(workdir), "<dir>")
    paths = sorted(out.iterdir()) if out.is_dir() else [out] if out.exists() else []
    return {
        "exit": code,
        "stdout": hashlib.sha256(text.encode()).hexdigest(),
        "files": {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths},
    }


def flow_digests(workdir: Path, flags: list[str]) -> dict:
    digests = cli_digests(workdir, ["flow", *flags, "--out", OUT])
    assert digests.pop("exit") == 0
    return digests


def test_golden_covers_every_case():
    assert sorted(json.loads(FLOW_GOLDEN.read_text())) == sorted(FLOW_CASES)
    assert sorted(json.loads(CLI_GOLDEN.read_text())) == sorted(CLI_CASES)


@pytest.mark.parametrize("case", sorted(FLOW_CASES))
def test_flow_output_is_byte_identical(case, tmp_path):
    golden = json.loads(FLOW_GOLDEN.read_text())[case]
    assert flow_digests(tmp_path, FLOW_CASES[case]) == golden


@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_cli_output_is_byte_identical(case, tmp_path):
    golden = json.loads(CLI_GOLDEN.read_text())[case]
    assert cli_digests(tmp_path, CLI_CASES[case]) == golden


if __name__ == "__main__":
    import tempfile

    digests = {}
    for golden, cases, digest_of in ((FLOW_GOLDEN, FLOW_CASES, flow_digests),
                                     (CLI_GOLDEN, CLI_CASES, cli_digests)):
        digests[golden.name] = {}
        for name, argv in cases.items():
            with tempfile.TemporaryDirectory() as tmp:
                digests[golden.name][name] = digest_of(Path(tmp), argv)
    print(json.dumps(digests, indent=1, sort_keys=True))
